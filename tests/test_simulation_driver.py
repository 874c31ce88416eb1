"""Tests for the simulation driver (short, fast evolutions)."""

import numpy as np
import pytest

from repro.cosmology import EDS, PLANCK2013
from repro.simulation import Simulation, SimulationConfig


def short_config(**kw):
    base = dict(
        n_per_dim=8,
        box_mpc_h=50.0,
        a_init=0.1,
        a_final=0.14,
        errtol=1e-3,
        p=2,
        dlna_max=0.125,
        max_refine=1,
        seed=2,
        track_energy=True,
    )
    base.update(kw)
    return SimulationConfig(**base)


class TestDriver:
    def test_runs_to_target(self):
        sim = Simulation(short_config())
        ps = sim.run()
        assert ps.a == pytest.approx(0.14, rel=1e-10)
        assert ps.a_mom == pytest.approx(ps.a)

    def test_history_recorded(self):
        sim = Simulation(short_config())
        sim.run()
        assert len(sim.history) >= 2
        a_seq = [r.a for r in sim.history]
        assert all(x < y for x, y in zip(a_seq, a_seq[1:]))

    def test_factor_of_two_steps(self):
        sim = Simulation(short_config(a_final=0.2, max_refine=3))
        sim.run()
        base = sim.controller.dlna_max
        for r in sim.history[:-1]:  # final step may be clipped to a_final
            k = np.log2(base / r.dlna)
            assert abs(k - round(k)) < 1e-9

    def test_callback_invoked(self):
        sim = Simulation(short_config())
        seen = []
        sim.run(callback=lambda s, rec: seen.append(rec.a))
        assert len(seen) == len(sim.history)

    def test_positions_stay_in_box(self):
        sim = Simulation(short_config(a_final=0.2))
        ps = sim.run()
        assert ps.pos.min() >= 0.0
        assert ps.pos.max() < 1.0

    def test_momentum_conservation(self):
        """Total canonical momentum is conserved by pairwise forces up to
        multipole truncation error."""
        sim = Simulation(short_config())
        p0 = sim.particles.momentum_total()
        ps = sim.run()
        p1 = ps.momentum_total()
        scale = np.abs(ps.mass[:, None] * ps.mom).sum()
        assert np.all(np.abs(p1 - p0) < 1e-3 * max(scale, 1e-12))

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            Simulation(short_config(engine="pm3d"))

    def test_treepm_engine_runs(self):
        sim = Simulation(short_config(engine="treepm"))
        ps = sim.run()
        assert ps.a == pytest.approx(0.14)

    def test_energy_tracking_toggle(self):
        s1 = Simulation(short_config(track_energy=True))
        s1.run()
        assert any(r.potential != 0.0 for r in s1.history)
        s2 = Simulation(short_config(track_energy=False))
        s2.run()
        assert all(r.potential == 0.0 for r in s2.history)

    def test_layzer_irvine_stable(self):
        """The cosmic-energy integral drifts much less than |W| over a
        short, well-resolved evolution."""
        sim = Simulation(short_config(a_final=0.2, errtol=1e-5, p=4))
        sim.run()
        li = [r.layzer_irvine for r in sim.history]
        w = abs(sim.history[-1].potential)
        assert abs(li[-1] - li[0]) < 0.2 * max(w, 1e-12)

    def test_dt_divider_reduces_steps_size(self):
        s1 = Simulation(short_config())
        s1.run()
        s2 = Simulation(short_config(dlna_max=s1.config.dlna_max / 2))
        s2.run()
        assert max(r.dlna for r in s2.history) <= max(r.dlna for r in s1.history) / 2 * 1.01

    def test_growth_direction(self):
        """Density contrast grows: the final configuration is more
        clustered than the ICs (variance of CIC density increases)."""
        from repro.gravity.pm import ParticleMesh

        cfg = short_config(a_init=0.1, a_final=0.5)
        sim = Simulation(cfg)
        pm = ParticleMesh(8)
        rho0 = pm.deposit(sim.particles.pos, sim.particles.mass)
        ps = sim.run()
        rho1 = pm.deposit(ps.pos, ps.mass)
        assert rho1.std() > rho0.std()

    def test_restart_from_checkpoint_matches(self, tmp_path):
        from repro.io import load_checkpoint, save_checkpoint

        cfg = short_config(a_final=0.18)
        sim1 = Simulation(cfg)
        # run halfway, checkpoint, continue
        import dataclasses

        cfg_half = dataclasses.replace(cfg, a_final=0.14)
        sim_a = Simulation(cfg_half)
        ps_mid = sim_a.run()
        save_checkpoint(tmp_path / "mid.sdf", ps_mid)
        loaded, _ = load_checkpoint(tmp_path / "mid.sdf")
        cfg_rest = dataclasses.replace(cfg, a_init=loaded.a)
        sim_b = Simulation(cfg_rest, particles=loaded)
        ps_b = sim_b.run()
        # direct run for comparison: steps differ at the boundary, so
        # agreement is approximate but close
        sim_c = Simulation(cfg)
        ps_c = sim_c.run()
        d = np.abs((ps_b.pos - ps_c.pos + 0.5) % 1.0 - 0.5)
        assert d.max() < 5e-3


class TestPreemption:
    """§3.4.1: SIGTERM/SIGINT deliver the preemption-notice courtesy —
    final checkpoint, partial run_totals, bit-identical resume."""

    def _preempt_after(self, sim, n_steps, signum):
        import os
        import signal as _signal

        def cb(s, rec):
            if len(s.history) == n_steps:
                os.kill(os.getpid(), signum)

        return cb

    def test_sigterm_checkpoints_and_resumes_bit_identical(self, tmp_path):
        import signal

        from repro.simulation import Preempted

        from repro.resilience import CheckpointScheduler, CheckpointStore

        cfg = short_config(a_final=0.2)
        # uninterrupted reference
        ref = Simulation(cfg)
        ps_ref = ref.run()

        sim = Simulation(cfg)
        with pytest.raises(Preempted) as ei:
            sim.run(
                callback=self._preempt_after(sim, 2, signal.SIGTERM),
                checkpointer=(
                    CheckpointScheduler(every_steps=1),
                    CheckpointStore(tmp_path / "ck"),
                ),
            )
        assert sim.steps_completed == 2
        assert ei.value.checkpoint is not None
        # partial totals were written before exiting
        assert sim.run_totals["partial"] is True
        assert sim.run_totals["preempted"] is True
        assert sim.run_totals["steps"] == 2
        # the handler is gone again: default disposition restored
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

        resumed = Simulation.resume(ei.value.checkpoint)
        ps = resumed.run()
        np.testing.assert_array_equal(ps.pos, ps_ref.pos)
        np.testing.assert_array_equal(ps.mom, ps_ref.mom)
        np.testing.assert_array_equal(ps.mass, ps_ref.mass)

    def test_sigint_stops_at_step_boundary_without_store(self):
        import signal

        from repro.simulation import Preempted

        sim = Simulation(short_config(a_final=0.2))
        with pytest.raises(Preempted) as ei:
            sim.run(callback=self._preempt_after(sim, 1, signal.SIGINT))
        assert ei.value.checkpoint is None  # no store configured
        assert sim.run_totals["preempted"] is True
        assert sim.run_totals["steps"] == 1
