"""Tests for the in-situ health monitoring subsystem (repro.diagnose).

Covers the acceptance criteria of the observability PR: Layzer-Irvine
drift within tolerance on a real run, momentum conservation, the
sampled force-error probe staying within the MAC budget, fail-fast NaN
detection with a diagnostic snapshot, manifest round-trips, and the
``repro-obs report`` / ``gate`` exit codes on traces and receipts.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.diagnose import (
    HealthConfig,
    HealthError,
    HealthEvent,
    HealthMonitor,
    classify,
    probe_force_error,
    reference_accelerations,
)
from repro.observe import Tracer, read_jsonl
from repro.observe.manifest import build_manifest, config_hash, write_manifest
from repro.observe.cli import main as obs_main
from repro.simulation import Simulation, SimulationConfig


def short_config(**kw):
    base = dict(
        n_per_dim=8,
        box_mpc_h=50.0,
        a_init=0.1,
        a_final=0.14,
        errtol=1e-3,
        p=2,
        seed=2,
        max_refine=1,
        track_energy=True,
    )
    base.update(kw)
    return SimulationConfig(**base)


@pytest.fixture(scope="module")
def monitored_run(tmp_path_factory):
    """One short monitored periodic run, shared by the physics tests."""
    tmp = tmp_path_factory.mktemp("health")
    health = HealthConfig(probe_interval=2, snapshot_dir=str(tmp))
    trace = tmp / "trace.jsonl"
    tr = Tracer(sink=trace)
    with Simulation(short_config(), tracer=tr, health=health) as sim:
        sim.run()
        summary = sim.run_totals["health"]
    tr.close()
    return {"summary": summary, "trace": trace, "tmp": tmp}


class TestNullContract:
    """The off-contract is ``health=None``: no monitor object at all."""

    def test_disabled_by_default(self):
        with Simulation(short_config()) as sim:
            assert sim.health is None

    def test_health_config_builds_the_monitor(self):
        with Simulation(short_config(), health=HealthConfig()) as sim:
            assert isinstance(sim.health, HealthMonitor)
        names = [m.name for m in HealthMonitor(HealthConfig()).monitors]
        assert "force_error" not in names  # the probe is off by default
        assert "force_error" in [
            m.name for m in HealthMonitor(HealthConfig(probe_interval=3)).monitors
        ]

    def test_health_config_has_two_settings(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(HealthConfig)] == [
            "snapshot_dir", "probe_interval"
        ]
        assert "health" not in {f.name for f in dataclasses.fields(SimulationConfig)}

    def test_disabled_run_has_no_health_totals(self):
        with Simulation(short_config(a_final=0.12)) as sim:
            sim.run()
        assert "health" not in sim.run_totals


class TestPhysicsMonitors:
    def test_layzer_irvine_drift_within_tolerance(self, monitored_run):
        li = monitored_run["summary"]["monitors"]["layzer_irvine"]
        # a well-behaved short run drifts far below the 5% warn level
        assert li["max_drift"] < 0.01

    def test_momentum_conserved(self, monitored_run):
        mom = monitored_run["summary"]["monitors"]["momentum"]
        assert mom["max_drift"] < 1e-3
        assert mom["max_com_drift"] < 1e-3

    def test_no_warnings_on_healthy_run(self, monitored_run):
        ev = monitored_run["summary"]["events"]
        assert ev["warn"] == 0
        assert ev["error"] == 0

    def test_probe_error_within_mac_budget(self, monitored_run):
        fe = monitored_run["summary"]["monitors"]["force_error"]
        assert fe["probes"] >= 1
        assert fe["max_abs_err"] <= fe["last"]["mac_budget"]

    def test_momentum_monitor_flags_injected_drift(self, monitored_run):
        from repro.diagnose.monitors import HealthContext, MomentumMonitor

        cfg = short_config()
        with Simulation(cfg) as sim:
            mon = MomentumMonitor()
            ctx = HealthContext(sim=sim, step=0)
            assert list(mon.start(ctx)) == []
            sim.particles.mom[:, 0] += 0.1  # uniform kick: pure momentum error
            events = list(mon.check(HealthContext(sim=sim, step=1)))
        assert events and all(isinstance(e, HealthEvent) for e in events)
        assert any(e.monitor == "momentum" and e.severity == "error" for e in events)


class TestStepCap:
    def test_capped_steps_are_counted_and_warned(self):
        """A tiny run whose cap binds (no refinement allowed, a step of a
        quarter e-fold at late times): every step is taken at the cap
        past its criterion — the tracer counter, the run totals and the
        health monitor all say so."""
        cfg = short_config(a_init=0.5, a_final=1.0, dlna_max=0.25, max_refine=0,
                           track_energy=False)
        tr = Tracer()
        with Simulation(cfg, tracer=tr, health=HealthConfig()) as sim:
            sim.run()
        steps = sim.run_totals["steps"]
        assert steps == 3
        assert sim.run_totals["capped_steps"] == tr.counters["simulation.capped_steps"] == steps
        health = sim.run_totals["health"]
        assert health["monitors"]["step_cap"] == {"capped_steps": steps}
        assert health["events"]["warn"] >= steps

    def test_uncapped_run_counts_none(self, monitored_run):
        assert monitored_run["summary"]["monitors"]["step_cap"] == {"capped_steps": 0}


class TestProbeReference:
    def test_open_boundary_reference_matches_direct(self):
        """Non-periodic reference = direct summation, trivially exact."""
        from repro.gravity.direct import direct_accelerations
        from repro.gravity.smoothing import make_softening

        rng = np.random.default_rng(7)
        pos = rng.random((64, 3))
        mass = np.full(64, 1.0 / 64)
        kern = make_softening("dehnen_k1", 0.05)
        idx = np.array([0, 13, 63])
        ref = reference_accelerations(pos, mass, idx, softening=kern, periodic=False)
        expect = direct_accelerations(pos, mass, softening=kern, targets=pos[idx])
        np.testing.assert_allclose(ref, expect, rtol=1e-12)

    def test_probe_on_solver(self):
        """The standalone probe grades treecode output against errtol."""
        cfg = short_config()
        with Simulation(cfg) as sim:
            acc = sim._force(sim.particles)
            res = probe_force_error(sim, acc, n_samples=4, rng=np.random.default_rng(3))
        assert res["periodic"] is True
        assert res["mac_budget"] == cfg.errtol
        assert res["max_abs_err"] <= res["mac_budget"]


class TestMomentumBalance:
    """Satellite of the fmm-hybrid promotion: mutual cell-cell accepts
    make the whole-field net force vanish to the rounding floor, and
    the probe surfaces that as a health metric."""

    @staticmethod
    def _solve(traversal):
        from repro.gravity.solver import TreecodeConfig, TreecodeGravity

        rng = np.random.default_rng(42)
        n = 2048
        pos = rng.random((n, 3))
        mass = np.full(n, 1.0 / n)
        cfg = TreecodeConfig(
            errtol=1e-4, periodic=False, background=False,
            traversal=traversal, nleaf=8,
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        return mass, res

    def test_fmm_hybrid_momentum_at_fp_floor(self):
        from repro.diagnose.probe import force_balance

        mass, res = self._solve("fmm-hybrid")
        assert res.stats["interactions_by_family"]["m2l"] > 0
        assert force_balance(mass, res.acc) < 5e-12

    def test_hierarchical_momentum_at_mac_level(self):
        """One-sided accepts break pairwise symmetry: the hierarchical
        walk's balance sits orders of magnitude above the hybrid's."""
        from repro.diagnose.probe import force_balance

        mass_h, res_h = self._solve("hierarchical")
        mass_f, res_f = self._solve("fmm-hybrid")
        bal_h = force_balance(mass_h, res_h.acc)
        bal_f = force_balance(mass_f, res_f.acc)
        assert bal_f < bal_h / 100

    def test_probe_surfaces_momentum_balance(self):
        cfg = short_config()
        with Simulation(cfg) as sim:
            acc = sim._force(sim.particles)
            res = probe_force_error(sim, acc, n_samples=2, rng=np.random.default_rng(3))
        assert "momentum_balance" in res
        assert np.isfinite(res["momentum_balance"])

    def test_monitor_tracks_max_momentum_balance(self, monitored_run):
        probe = monitored_run["summary"]["monitors"].get("force_error")
        if probe is None:
            pytest.skip("force probe not enabled in monitored_run")
        assert "max_momentum_balance" in probe
        assert probe["max_momentum_balance"] >= 0.0


class TestFailFast:
    def test_nan_momentum_raises_with_snapshot(self, tmp_path):
        cfg = short_config(a_final=0.2, track_energy=False)
        health = HealthConfig(snapshot_dir=str(tmp_path))

        def poison(sim, rec):
            sim.particles.mom[0, 0] = np.nan

        tr = Tracer(sink=tmp_path / "t.jsonl")
        with Simulation(cfg, tracer=tr, health=health) as sim:
            with pytest.raises(HealthError, match="non-finite state"):
                sim.run(callback=poison)
        tr.close()
        snaps = list(tmp_path.glob("health_snapshot_step*.npz"))
        assert len(snaps) == 1
        data = np.load(snaps[0])
        assert np.isnan(data["mom"][0, 0])
        # the trace keeps the fatal record even though the run raised
        recs = read_jsonl(tmp_path / "t.jsonl")
        assert any(r["type"] == "health_fatal" for r in recs)

    def test_guard_kill_leaves_the_trace_on_disk(self, tmp_path):
        """The records of a run the state guard killed are on disk when
        the error leaves ``run``, before anyone closes the tracer."""
        cfg = short_config(a_final=0.2, track_energy=False)
        health = HealthConfig(snapshot_dir=str(tmp_path))

        def poison(sim, rec):
            sim.particles.mom[0, 0] = np.nan

        path = tmp_path / "t.jsonl"
        tr = Tracer(sink=path)
        try:
            with Simulation(cfg, tracer=tr, health=health) as sim:
                with pytest.raises(HealthError):
                    sim.run(callback=poison)
            recs = read_jsonl(path)
        finally:
            tr.close()
        assert any(r["type"] == "health_fatal" for r in recs)
        totals = [r for r in recs if r["type"] == "run_totals"]
        assert len(totals) == 1
        assert totals[0]["partial"] is True and totals[0]["steps"] == 1
        assert "HealthError" in totals[0]["error"]

    def test_solver_guard_rejects_nonfinite_input(self):
        """The solver's guard names the non-finite arrays."""
        from repro.gravity.solver import raise_if_nonfinite
        from repro.gravity.treeforce import ForceResult

        acc = np.zeros((4, 3))
        acc[2, 1] = np.inf
        res = ForceResult(acc=acc, pot=None, stats={})
        with pytest.raises(FloatingPointError, match="non-finite force output"):
            raise_if_nonfinite(res, "treecode")
        raise_if_nonfinite(ForceResult(acc=np.zeros((4, 3)), pot=None, stats={}), "ok")

    @staticmethod
    def _coincident_pair():
        """64 bodies, 3 and 7 at one point: unsoftened, their mutual
        force is 0/0 — 3 acc components and 1 potential each."""
        rng = np.random.default_rng(0)
        pos = rng.random((64, 3))
        pos[7] = pos[3]
        return pos, np.full(64, 1.0 / 64)

    @staticmethod
    def _solver(workers):
        from repro.gravity.solver import TreecodeConfig, TreecodeGravity

        return TreecodeGravity(TreecodeConfig(
            softening="none", periodic=False, background=False, nleaf=4,
            workers=workers,
        ))

    def test_unmonitored_solve_raises_on_nonfinite_force(self):
        """No health monitor anywhere: the solve itself refuses NaN."""
        pos, mass = self._coincident_pair()
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(FloatingPointError, match=r"acc: 6 non-finite; pot: 2"):
                self._solver(0).compute(pos, mass)

    def test_sharded_guard_names_the_pair_s_shard(self):
        """At workers=2 the error names exactly the shard whose key-sorted
        [s0, s1) holds the pair, with its 6 + 2 non-finite values."""
        import re

        pos, mass = self._coincident_pair()
        with self._solver(2) as solver:
            with pytest.raises(FloatingPointError) as err:
                solver.compute(pos, mass)
            tree = solver.last_tree
            shards = solver._executor._make_shards(tree)
        assert len(shards) == 2
        # acc_sorted[j] is particle tree.order[j]
        (j3,) = np.flatnonzero(tree.order == 3)
        (j7,) = np.flatnonzero(tree.order == 7)
        (sid,) = [sid for sid, _, s0, s1 in shards if s0 <= j3 < s1]
        assert [s for s, _, s0, s1 in shards if s0 <= j7 < s1] == [sid]
        named = re.search(r"worker shards: (\{.*\})", str(err.value)).group(1)
        assert named == f"{{{sid}: 8}}"

    def test_classify(self):
        assert classify(0.1, warn=1.0, error=10.0) == "info"
        assert classify(2.0, warn=1.0, error=10.0) == "warn"
        assert classify(20.0, warn=1.0, error=10.0) == "error"
        assert classify(np.nan, warn=1.0, error=10.0) == "error"


class TestManifest:
    def test_round_trip(self, tmp_path):
        cfg = short_config()
        path = tmp_path / "m.json"
        written = write_manifest(path, config=cfg, seeds={"ic": cfg.seed})
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert loaded["type"] == "manifest"
        assert loaded["seeds"] == {"ic": 2}
        assert loaded["packages"]["numpy"] == np.__version__
        assert loaded["config_sha256"] == config_hash(cfg)

    def test_config_hash_is_stable_and_sensitive(self):
        a = short_config()
        b = short_config()
        c = short_config(errtol=1e-4)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert config_hash({"y": 1, "x": 2}) == config_hash({"x": 2, "y": 1})

    def test_manifest_handles_odd_values(self):
        m = build_manifest(config={"dtype": np.float32, "arr": np.arange(3)})
        json.dumps(m)  # everything must be JSON-serializable


class TestBaselineCli:
    def test_report_and_gate_pass_on_healthy_trace(self, monitored_run, capsys):
        trace = str(monitored_run["trace"])
        assert obs_main(["report", trace]) == 0
        assert obs_main(["gate", trace]) == 0
        out = capsys.readouterr().out
        assert "Run health/perf summary" in out

    def test_gate_fails_on_error_events(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        with trace.open("w") as f:
            f.write(json.dumps({"type": "step", "step": 1, "a": 0.1, "wall": 0.1,
                                "interactions_per_particle": 10.0}) + "\n")
            f.write(json.dumps({"type": "health", "monitor": "momentum",
                                "severity": "error", "value": 1.0,
                                "threshold": 0.05, "step": 1, "a": 0.1,
                                "message": "momentum drift 1.0"}) + "\n")
        assert obs_main(["gate", str(trace)]) == 1
        assert obs_main(["gate", str(trace), "--severity", "warn"]) == 1

    def test_report_survives_torn_trace_tail(self, tmp_path, capsys):
        """A killed job's trace ends mid-record; the report renders the
        whole records and skips the torn one."""
        trace = tmp_path / "killed.jsonl"
        trace.write_text('{"type": "step", "step": 1, "a": 0.1, "wall": 0.5}\n'
                         '{"type": "step", "st')
        assert obs_main(["report", str(trace)]) == 0
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines()]
        assert ["steps", "1"] in rows
        assert ["wall_per_step_s", "0.5"] in rows

    def test_gate_judges_receipt_bounds(self, tmp_path, capsys):
        """A receipt with embedded gates is judged against its own
        bounds; a gated metric the summary lacks is skipped."""
        receipt = tmp_path / "BENCH_x.json"
        doc = {"summary": {"ratio": 0.5, "err": 0.2},
               "gates": {"ratio": {"max": 1.0}, "err": {"min": 0.1, "max": 1.0},
                         "absent": {"max": 1.0}}}
        receipt.write_text(json.dumps(doc))
        assert obs_main(["gate", str(receipt)]) == 0
        assert "SKIP (not measured)" in capsys.readouterr().out
        doc["summary"]["err"] = 0.05
        receipt.write_text(json.dumps(doc))
        assert obs_main(["gate", str(receipt)]) == 1
        assert "GATE FAILED: err" in capsys.readouterr().err


class TestPipelineHealth:
    def test_run_stage_health_flag(self, tmp_path):
        from repro.pipeline import PipelineSpec
        from repro.pipeline.run_stage import run_stage

        spec = PipelineSpec(
            name="tiny", n_per_dim=6, box_mpc_h=30.0, z_init=9.0, z_final=7.0,
            errtol=1e-3, p_order=2, snapshots_z=(7.0,), analysis=("power",),
        )
        spec.write(tmp_path)
        run_stage(tmp_path / "tiny_ic.json")
        trace = tmp_path / "trace.jsonl"
        tr = Tracer(sink=str(trace))
        try:
            ev = run_stage(tmp_path / "tiny_evolve.json", tracer=tr, health=True)
        finally:
            tr.close()
        assert ev["health"]["error"] == 0
        manifest = json.loads(Path(ev["manifest"]).read_text())
        assert manifest["config"]["stage"] == "evolve"
        recs = [json.loads(l) for l in trace.open()]
        assert any(r["type"] == "step" for r in recs)
        # the gate passes on the healthy pipeline trace
        assert obs_main(["gate", str(trace)]) == 0

    def test_run_stage_argparse_cli(self, tmp_path, capsys):
        from repro.pipeline import PipelineSpec
        from repro.pipeline.run_stage import main as stage_main

        spec = PipelineSpec(
            name="t2", n_per_dim=6, box_mpc_h=30.0, z_init=9.0, z_final=8.0,
            errtol=1e-3, p_order=2, snapshots_z=(8.0,), analysis=(),
        )
        spec.write(tmp_path)
        assert stage_main([str(tmp_path / "t2_ic.json")]) == 0
        out = capsys.readouterr().out
        assert json.loads(out.strip().splitlines()[-1])["particles"] == 6**3
        with pytest.raises(SystemExit):
            stage_main(["--no-such-flag"])
