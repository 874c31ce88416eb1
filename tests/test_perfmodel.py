"""Tests for the performance models (Tables 1-3, Fig. 5, §3.4.2)."""

import numpy as np
import pytest

from repro.parallel import JAGUAR_LIKE
from repro.perfmodel import (
    FLOPS_PER_MONOPOLE_PP,
    TABLE1_MACHINES,
    TABLE3_PROCESSORS,
    ScalingInputs,
    StrongScalingModel,
    expected_overhead,
    flops_per_cell_interaction,
    flops_per_particle,
    optimal_interval,
    simulate_run,
    table2_breakdown,
)


class TestFlops:
    def test_monopole_is_28(self):
        assert FLOPS_PER_MONOPOLE_PP == 28

    def test_increases_with_order(self):
        vals = [flops_per_cell_interaction(p) for p in (1, 2, 4, 6, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_cell_counts_pinned(self):
        """p = 0 and 1 re-derived by hand, not from a second formula.
        Every row: x, y, z (3), r^2 (5), r (1), 1/r^2 and g_0 (2), then
        g_1 .. g_{p+1} (2 each).  p = 0: P_0 is the monopole
        coefficient; S = g_1 P_0 (1), a_i = x_i S (3), phi = g_0 P_0 (1).
        p = 1: P_1 = b_x x + b_y y + b_z z (5), d_i P_1 = b_i (0);
        S (3), T_i = g_1 d_i P_1 (3), a_i = x_i S + T_i (6), phi (3).
        Higher orders pinned as the generated row counts them."""
        assert flops_per_cell_interaction(0) == 9 + 2 + 2 + 1 + 3 + 1 == 18
        assert flops_per_cell_interaction(0, want_potential=False) == 17
        assert flops_per_cell_interaction(1) == 9 + 2 + 4 + 5 + 3 + 3 + 6 + 3 == 35
        assert flops_per_cell_interaction(1, want_potential=False) == 32
        assert [flops_per_cell_interaction(p) for p in (2, 3, 4)] == [83, 169, 316]
        assert [flops_per_cell_interaction(p, False) for p in (2, 3, 4)] == [78, 162, 307]

    def test_cell_count_matches_generated_routine(self):
        """One flop per arithmetic operator or square root in the C the
        cell loop runs per row, read off the emitted source text; the
        potential's statements only when it is wanted."""
        from repro.multipoles.codegen import _field_program, generate_evaluator_source

        for p in (0, 1, 2, 4, 6):
            geometry, chain, body, *_ = _field_program(p)
            lines = "\n".join([geometry, chain, body]).splitlines()
            source = generate_evaluator_source(p, "float32")
            assert all(ln in source for ln in lines)
            ops = [sum(ln.count(op) for op in (" + ", " - ", " * ", " / ", "SQRT(")) for ln in lines]
            pot = sum(n for n, ln in zip(ops, lines) if "phi" in ln)
            assert flops_per_cell_interaction(p) == sum(ops)
            assert flops_per_cell_interaction(p, want_potential=False) == sum(ops) - pot

    def test_m2l_counts_the_generated_order_p_plus_2_routine(self):
        from repro.gravity.localexp import m2l_tables
        from repro.multipoles import compiled_dtensor_function
        from repro.perfmodel.flops import flops_per_m2l

        assert compiled_dtensor_function(6).n_ops == 274
        assert flops_per_m2l(4) == 274 + 36 + 2 * len(m2l_tables(4).acol)

    def test_m2l_tensor_charged_once_per_class(self):
        """10 translations in 3 reflection classes onto 5 + 3 sink
        particles at p = 4: 3 tensors (274 statements + a radial chain
        of 36), 10 contractions of the 924-entry table and 8 L2P
        evaluations of 690 with the potential."""
        from repro.perfmodel.flops import flops_from_stats, kernel_counters

        stats = {
            "order": 4, "cell_interactions": 0, "cell_entries": 0,
            "pp_interactions": 0, "prism_interactions": 0, "prism_cubes": 0,
            "m2l_pairs": 10, "m2l_classes": 3, "m2l_interactions": 18,
            "sink_rows": 2, "sink_particles": 8, "m_max": 5,
            "pp_entries": 0, "pp_entry_particles": 0,
            "family_seconds": {"cell": 0.0, "pp": 0.0, "m2l": 1.0},
        }
        assert flops_from_stats(stats) == 3 * (274 + 36) + 10 * 2 * 924 + 8 * 690 == 24930
        kern = kernel_counters(stats)
        assert kern["flops"] == 24930
        assert kern["l2p_interactions"] == 8 and kern["interactions"] == 18
        assert kern["m_mean"] == 4.0 and kern["tile_occupancy"] == 0.8

    def test_hexadecapole_order_of_magnitude(self):
        """§7: ~600,000 flops/particle from ~2000 (mostly hexadecapole)
        interactions implies ~300 flops per p=4 interaction; our counted
        kernels land within a factor of two of that."""
        f4 = flops_per_cell_interaction(4)
        assert 150 < f4 < 700

    def test_paper_per_particle_scale(self):
        """~2000 hexadecapole interactions/particle at p=4 plus the pp
        near field lands near the paper's 600k flops/particle."""
        total = flops_per_particle({4: 2000, "pp": 500})
        assert 2e5 < total < 2e6

    def test_mix_is_additive(self):
        a = flops_per_particle({4: 100})
        b = flops_per_particle({"pp": 50})
        assert flops_per_particle({4: 100, "pp": 50}) == pytest.approx(a + b)


class TestMachineCatalog:
    def test_table1_model_matches_measurements(self):
        for m in TABLE1_MACHINES:
            assert m.modeled_tflops == pytest.approx(m.measured_tflops, rel=0.08)

    def test_table3_model_matches_measurements(self):
        for p in TABLE3_PROCESSORS:
            assert p.modeled_gflops == pytest.approx(p.measured_gflops, rel=0.05)

    def test_efficiencies_in_plausible_band(self):
        """The fitted kernel efficiencies stay physical (< 100% of peak,
        mostly the paper's ~40% band for SIMD CPUs)."""
        for m in TABLE1_MACHINES:
            assert 0.05 < m.kernel_efficiency <= 1.0

    def test_paper_concurrency_argument(self):
        """§7: Delta -> Jaguar is a factor 55 in clock, 4096 in
        concurrency, ~180,000x in delivered performance."""
        delta = next(m for m in TABLE1_MACHINES if "Delta" in m.name)
        jaguar = next(m for m in TABLE1_MACHINES if "Jaguar" in m.name)
        assert jaguar.clock_ghz / delta.clock_ghz == pytest.approx(55, rel=0.01)
        assert jaguar.concurrency / delta.concurrency == pytest.approx(4096, rel=0.01)
        perf = jaguar.measured_tflops / delta.measured_tflops
        assert 1.5e5 < perf < 2.2e5


class TestStrongScaling:
    def make_model(self):
        inputs = ScalingInputs(
            n_particles=128e9,
            flops_per_particle=582000.0,
            imbalance_ref=0.05,
            imbalance_ref_ranks=16384,
            remote_cells_ref=2e5,
        )
        return StrongScalingModel(inputs, JAGUAR_LIKE)

    def test_efficiency_decreases(self):
        m = self.make_model()
        effs = [m.efficiency(p, 16384) for p in (16384, 65536, 262144)]
        assert effs[0] == pytest.approx(1.0)
        assert effs[0] >= effs[1] >= effs[2]

    def test_fig5_shape(self):
        """Fig. 5: ~1.00 efficiency to 64k cores, ~0.86 at 256k."""
        m = self.make_model()
        assert m.efficiency(65536, 16384) > 0.9
        assert 0.7 < m.efficiency(262144, 16384) < 1.0

    def test_tflops_increase_with_cores(self):
        m = self.make_model()
        assert m.tflops(262144) > m.tflops(16384)

    def test_components_positive(self):
        m = self.make_model()
        for v in m.time_components(32768).values():
            assert v > 0


class TestTable2Breakdown:
    def test_fractions_scale(self):
        fr = {
            "domain_decomposition": 12 / 704,
            "tree_build": 24 / 704,
            "tree_traversal": 212 / 704,
            "data_communication": 26 / 704,
            "force_evaluation": 350 / 704,
            "load_imbalance": 80 / 704,
        }
        bd = table2_breakdown(fr, 4096**3, 582000.0, 12288, JAGUAR_LIKE)
        rows = bd.rows()
        assert len(rows) == 6
        # traversal/force ratio preserved
        assert bd.tree_traversal / bd.force_evaluation == pytest.approx(212 / 350)
        assert bd.total > bd.force_evaluation


class TestCheckpoint:
    def test_paper_numbers(self):
        """6-minute writes, 80 h MTBF -> optimal interval ~4 h (the
        paper's choice), with ~5% overhead."""
        tau = optimal_interval(0.1, 80.0)
        assert tau == pytest.approx(4.0, rel=1e-12)
        assert expected_overhead(4.0, 0.1, 80.0) == pytest.approx(0.051, abs=0.002)

    def test_optimum_is_minimum(self):
        taus = np.linspace(0.5, 20, 100)
        ov = [expected_overhead(t, 0.1, 80.0) for t in taus]
        best = taus[np.argmin(ov)]
        assert best == pytest.approx(4.0, abs=0.5)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            expected_overhead(0.0, 0.1, 80.0)

    def test_simulation_agrees_with_model(self):
        rng = np.random.default_rng(1)
        work = 400.0
        walls = [simulate_run(work, 4.0, 0.1, 80.0, rng=rng) for _ in range(30)]
        frac = np.mean(walls) / work - 1.0
        assert frac == pytest.approx(expected_overhead(4.0, 0.1, 80.0), abs=0.04)

    def test_too_rare_checkpoints_cost_more(self):
        rng = np.random.default_rng(2)
        w4 = np.mean([simulate_run(400.0, 4.0, 0.1, 80.0, rng=rng) for _ in range(30)])
        w40 = np.mean([simulate_run(400.0, 40.0, 0.1, 80.0, rng=rng) for _ in range(30)])
        assert w40 > w4


class TestIOModel:
    def test_lustre_single_file_paper_rate(self):
        from repro.perfmodel import LUSTRE_ORNL

        assert LUSTRE_ORNL.rate(1) / 1e9 == pytest.approx(20.5, abs=1.0)

    def test_lustre_four_files_paper_rate(self):
        """§3.4.2: 4 files across 512 OSTs -> 45 GB/s."""
        from repro.perfmodel import LUSTRE_ORNL

        assert LUSTRE_ORNL.rate(4) / 1e9 == pytest.approx(45.0, abs=2.0)

    def test_panasas_band(self):
        from repro.perfmodel import PANASAS_LANL

        assert 5.0 <= PANASAS_LANL.rate(1) / 1e9 <= 10.0

    def test_checkpoint_six_minutes(self):
        """A 69e9-particle checkpoint writes in minutes, not hours."""
        from repro.perfmodel import PANASAS_LANL

        t = 69e9 * 32.0 / PANASAS_LANL.rate(n_files=1)  # 32 B a particle
        assert 120 < t < 600  # the paper: ~6 minutes

    def test_more_files_never_slower(self):
        from repro.perfmodel import LUSTRE_ORNL

        assert LUSTRE_ORNL.rate(4) >= LUSTRE_ORNL.rate(1)

    def test_invalid_file_count(self):
        from repro.perfmodel import LUSTRE_ORNL

        with pytest.raises(ValueError):
            LUSTRE_ORNL.rate(0)
