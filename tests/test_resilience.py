"""Resilience layer: durable checkpoints, bit-identical restart,
fault injection, and the self-healing worker pool (ISSUE 4).

The contracts under test: a checkpoint written mid-run restarts
*bit-identically* (same positions, momenta, and Layzer-Irvine state as
the uninterrupted run); corruption anywhere in a checkpoint's columns
is detected at load and the store falls back to the previous snapshot;
a resume cannot silently change physics; and an injected worker death,
transient error, or hang is recovered without changing the force
result.
"""

import glob
import os

import numpy as np
import pytest

from repro.gravity.solver import ForceSpec
from repro.observe import Tracer, read_jsonl
from repro.io import (
    CheckpointConfigMismatch,
    SDFChecksumError,
    load_checkpoint,
    read_sdf,
    save_checkpoint,
    write_sdf,
)
from repro.io.checkpoint import sim_config_metadata, verify_sim_config
from repro.resilience import (
    CheckpointScheduler,
    CheckpointStore,
    FaultInjected,
    FaultPlan,
    NoValidCheckpoint,
)
from repro.simulation import Simulation, SimulationConfig


def short_config(**kw):
    base = dict(
        n_per_dim=6,
        box_mpc_h=50.0,
        a_init=0.1,
        a_final=0.16,
        errtol=1e-3,
        p=2,
        dlna_max=0.125,
        max_refine=1,
        seed=2,
        track_energy=True,
    )
    base.update(kw)
    return SimulationConfig(**base)


# ----- durable SDF writes -----------------------------------------------------


class TestDurableSDF:
    def test_checksum_detects_flipped_byte(self, tmp_path):
        path = tmp_path / "c.sdf"
        write_sdf(path, {"x": np.arange(64.0)}, checksums=True)
        assert read_sdf(path) is not None  # clean file verifies
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF  # one bit-flip in the column data
        path.write_bytes(bytes(raw))
        with pytest.raises(SDFChecksumError, match="x"):
            read_sdf(path)
        # verification can be bypassed deliberately
        assert read_sdf(path, verify=False) is not None

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "a.sdf"
        write_sdf(path, {"x": np.arange(8.0)}, atomic=True)
        assert path.exists()
        assert glob.glob(str(tmp_path / "*.tmp.*")) == []

    def test_atomic_overwrite_never_truncates(self, tmp_path):
        path = tmp_path / "a.sdf"
        write_sdf(path, {"x": np.arange(8.0)}, atomic=True, checksums=True)
        write_sdf(path, {"x": np.arange(16.0)}, atomic=True, checksums=True)
        assert len(read_sdf(path).columns["x"]) == 16


# ----- restart metadata -------------------------------------------------------


class TestConfigRecord:
    def test_roundtrip_and_verify(self, tmp_path):
        cfg = short_config()
        md = sim_config_metadata(cfg)
        assert md["simcfg_errtol"] == cfg.errtol
        assert "simcfg_cosmology" not in md
        verify_sim_config(md, cfg)  # identical config passes

    def test_mismatch_raises(self, tmp_path):
        cfg = short_config()
        md = sim_config_metadata(cfg)
        with pytest.raises(CheckpointConfigMismatch, match="errtol"):
            verify_sim_config(md, short_config(errtol=1e-5))

    def test_load_checkpoint_verifies_config(self, tmp_path):
        cfg = short_config()
        sim = Simulation(cfg)
        path = tmp_path / "c.sdf"
        sim.save_checkpoint(path=path)
        load_checkpoint(path, expect_config=cfg)  # same config: fine
        with pytest.raises(CheckpointConfigMismatch):
            load_checkpoint(path, expect_config=short_config(p=4))

    def test_retired_config_keys_still_load(self, tmp_path):
        # files written before the checkpoint_* config fields were
        # retired carry them as simcfg_* entries: the decoder skips them
        cfg = short_config()
        fresh, old = tmp_path / "fresh.sdf", tmp_path / "old.sdf"
        Simulation(cfg).save_checkpoint(path=fresh)
        ps, md = load_checkpoint(fresh)
        retired = {
            "simcfg_checkpoint_dir": str(tmp_path / "ck"),
            "simcfg_checkpoint_every_steps": 1,
            "simcfg_checkpoint_interval_s": 0.0,
            "simcfg_checkpoint_mtbf_h": 80.0,
            "simcfg_checkpoint_keep": 3,
        }
        extra = {k: v for k, v in md.items() if k.startswith("restart_")}
        save_checkpoint(
            old, ps, params=cfg.cosmology, box_mpc_h=cfg.box_mpc_h,
            sim_config=cfg, extra_metadata={**extra, **retired},
        )
        _, md_old = load_checkpoint(old, expect_config=cfg)
        assert set(retired) <= set(md_old)
        a, b = Simulation.resume(fresh), Simulation.resume(old)
        assert b.config == a.config
        pa, pb = a.run(), b.run()
        assert np.array_equal(pa.pos, pb.pos)
        assert np.array_equal(pa.mom, pb.mom)


class TestLeapfrogOffset:
    def test_offset_epochs_roundtrip_exactly(self, tmp_path):
        sim = Simulation(short_config())
        ps = sim.particles
        acc = sim._force(ps)
        a_half = np.sqrt(ps.a * (ps.a * 1.05))
        sim.integrator.kick(ps, acc, ps.a, a_half)
        sim.integrator.drift(ps, ps.a, ps.a * 1.05)
        assert ps.a != ps.a_mom  # genuinely offset
        path = tmp_path / "off.sdf"
        save_checkpoint(path, ps)
        back, md = load_checkpoint(path)
        assert back.a == ps.a
        assert back.a_mom == float(ps.a_mom)
        assert np.array_equal(back.pos, ps.pos)
        assert np.array_equal(back.mom, ps.mom)

    def test_resume_closes_half_kick(self, tmp_path):
        sim = Simulation(short_config())
        ps = sim.particles
        acc = sim._force(ps)
        sim.integrator.kick(ps, acc, ps.a, np.sqrt(ps.a * ps.a * 1.05))
        sim.integrator.drift(ps, ps.a, ps.a * 1.05)
        path = tmp_path / "off.sdf"
        sim.save_checkpoint(path=path)
        resumed = Simulation.resume(path)
        rs = resumed.particles
        # the resumed state is synchronized: exactly the closing
        # half-kick an uninterrupted KDK step would have applied
        assert abs(rs.a - rs.a_mom) < 1e-15
        acc2 = sim._force(ps)
        sim.integrator.kick(ps, acc2, ps.a_mom, ps.a)
        assert np.array_equal(rs.mom, ps.mom)
        assert np.array_equal(rs.pos, ps.pos)


# ----- checkpoint store -------------------------------------------------------


class TestCheckpointStore:
    def _ps(self, seed=5, n=32):
        rng = np.random.default_rng(seed)
        from repro.simulation import ParticleSet

        return ParticleSet(
            pos=rng.random((n, 3)) * 50.0,
            mom=rng.standard_normal((n, 3)) * 1e-3,
            mass=np.full(n, 1.0 / n),
            ids=np.arange(n, dtype=np.int64),
            a=0.1,
            a_mom=0.1,
        )

    def test_rotation_keeps_newest_n(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        for step in range(6):
            store.save(step, self._ps())
        names = [p.name for p in store.list()]
        assert names == ["ckpt_000003.sdf", "ckpt_000004.sdf", "ckpt_000005.sdf"]

    def test_latest_valid_skips_corrupted_newest(self, tmp_path):
        # corrupt the 3rd write (the newest) deep in its column data
        store = CheckpointStore(
            tmp_path / "ck", faults="corrupt:index=2,byte=999999"
        )
        for step in range(3):
            store.save(step, self._ps(seed=step))
        path, ps, md = store.latest_valid()
        assert path.name == "ckpt_000001.sdf"
        assert len(store.skipped) == 1
        assert "ckpt_000002" in store.skipped[0][0].name

    def test_all_corrupt_raises(self, tmp_path):
        store = CheckpointStore(
            tmp_path / "ck",
            faults="corrupt:index=0,byte=999999,times=99;"
                   "corrupt:index=1,byte=999999,times=99",
        )
        for step in range(2):
            store.save(step, self._ps())
        with pytest.raises(NoValidCheckpoint):
            store.latest_valid()

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(NoValidCheckpoint):
            CheckpointStore(tmp_path / "nothing").latest_valid()


# ----- scheduler --------------------------------------------------------------


class TestCheckpointScheduler:
    def test_disabled_by_default(self):
        s = CheckpointScheduler()
        assert not s.enabled
        assert not s.due(100, 1e9)

    def test_every_steps(self):
        s = CheckpointScheduler(every_steps=3)
        fired = [step for step in range(1, 10) if s.due(step, 0.0)
                 and (s.wrote(0.0, 0.1) or True)]
        assert fired == [3, 6, 9]

    def test_young_daly_bootstrap_then_spacing(self):
        s = CheckpointScheduler(mtbf_h=80.0)
        # first checkpoint immediately: it measures the write cost
        assert s.due(1, 0.0)
        s.wrote(0.0, 360.0)  # 6 min/write, 80 h MTBF (paper §3.4.2)
        expected = np.sqrt(2 * 0.1 * 80.0) * 3600.0  # = 4 h
        assert s.daly_interval_s == pytest.approx(expected)
        assert not s.due(2, expected * 0.5)
        assert s.due(3, expected * 1.01)


# ----- end-to-end restart -----------------------------------------------------


class TestBitIdenticalResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        # reference: one uninterrupted run
        ref = Simulation(short_config())
        ps_ref = ref.run()
        assert len(ref.history) >= 4  # the interruption splits >= 3+1 steps

        # interrupted: checkpoint every step, die after 2 steps
        cfg = short_config()
        broken = Simulation(cfg)
        broken.run(max_steps=2, checkpointer=(
            CheckpointScheduler(every_steps=1), CheckpointStore(tmp_path / "ck")
        ))
        assert broken.steps_completed == 2

        store = CheckpointStore(tmp_path / "ck")
        path, _, _ = store.latest_valid(expect_config=cfg)
        resumed = Simulation.resume(path)
        assert resumed.steps_completed == 2
        assert resumed.resumed_from == str(path)
        ps_res = resumed.run()

        assert np.array_equal(ps_ref.pos, ps_res.pos)
        assert np.array_equal(ps_ref.mom, ps_res.mom)
        assert ps_res.a == ps_ref.a and ps_res.a_mom == ps_ref.a_mom
        # diagnostics state carries over too
        assert resumed._li_accum == ref._li_accum

    def test_checkpoint_events_emitted(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        sim = Simulation(short_config(), tracer=Tracer(sink=trace))
        sim.run(checkpointer=(
            CheckpointScheduler(every_steps=2), CheckpointStore(tmp_path / "ck")
        ))
        recs = read_jsonl(trace)
        cks = [r for r in recs if r["type"] == "checkpoint"]
        assert len(cks) == len(CheckpointStore(tmp_path / "ck").list())
        assert cks[0]["step"] == 2
        assert cks[0]["policy"]["every_steps"] == 2
        totals = [r for r in recs if r["type"] == "run_totals"]
        assert totals and "checkpoints" in totals[0]

    def test_resumed_run_keeps_the_cadence(self, tmp_path):
        def checkpoint_steps(sim, store, **run_kw):
            trace = tmp_path / f"{store}.jsonl"
            trace.unlink(missing_ok=True)
            sim.tracer = Tracer(sink=trace)
            sim.run(checkpointer=(
                CheckpointScheduler(every_steps=2), CheckpointStore(tmp_path / store)
            ), **run_kw)
            recs = read_jsonl(trace)
            return [r["step"] for r in recs if r["type"] == "checkpoint"]

        cfg = short_config(a_final=0.25)
        assert checkpoint_steps(Simulation(cfg), "ref") == [2, 4, 6, 8]
        assert checkpoint_steps(Simulation(cfg), "cut", max_steps=3) == [2]
        resumed = Simulation.resume(tmp_path / "cut" / "ckpt_000002.sdf")
        # steps count from the start of the run, not from the resume
        assert checkpoint_steps(resumed, "cut") == [4, 6, 8]


class TestPartialRunTotals:
    def test_crash_leaves_partial_totals(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        sim = Simulation(short_config(), tracer=Tracer(sink=trace))

        def die(s, rec):
            if len(s.history) >= 2:
                raise KeyboardInterrupt("simulated kill")

        with pytest.raises(KeyboardInterrupt):
            sim.run(callback=die)
        rt = sim.run_totals
        assert rt["partial"] is True
        assert rt["steps"] == 2
        assert rt["last_a"] == pytest.approx(sim.particles.a)
        assert "KeyboardInterrupt" in rt["error"]
        # the JSONL tail carries the same record
        tail = read_jsonl(trace)
        assert tail[-1]["type"] == "run_totals"
        assert tail[-1]["partial"] is True


# ----- fault plan -------------------------------------------------------------


class TestFaultPlan:
    def test_parse_clauses(self):
        plan = FaultPlan.parse(
            "kill:worker=1,shard=2;raise:shard=0,times=3;"
            "delay:seconds=0.5;corrupt:index=2,byte=0x40"
        )
        assert [c.action for c in plan.clauses] == [
            "kill", "raise", "delay", "corrupt"
        ]
        assert plan.clauses[0].worker == 1 and plan.clauses[0].shard == 2
        assert plan.clauses[1].times == 3
        assert plan.clauses[2].seconds == 0.5
        assert plan.clauses[3].byte == 0x40

    def test_empty_and_invalid(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("  ")
        with pytest.raises(ValueError, match="action"):
            FaultPlan.parse("explode:worker=0")
        with pytest.raises(ValueError, match="key"):
            FaultPlan.parse("kill:frobnicate=1")

    def test_empty_environ_is_not_the_process_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill:worker=0")
        assert not FaultPlan.from_env({})
        assert FaultPlan.from_env()  # None still means os.environ

    def test_one_grammar_types_keys_by_clause_field(self):
        cl = FaultPlan.parse("delay:shard=0x2,seconds=1.5").clauses[0]
        assert (cl.shard, cl.seconds) == (2, 1.5)
        assert type(cl.shard) is int and type(cl.seconds) is float
        with pytest.raises(ValueError, match="key"):
            FaultPlan.parse("kill:fired=1")

    def test_raise_fires_once_and_only_on_first_attempt(self):
        plan = FaultPlan.parse("raise:shard=0")
        with pytest.raises(FaultInjected):
            plan.apply_worker(0, 0, 0)
        plan2 = FaultPlan.parse("raise:shard=0")
        plan2.apply_worker(0, 0, 0, attempt=1)  # re-dispatch: no fire
        with pytest.raises(FaultInjected):
            plan2.apply_worker(0, 0, 0, attempt=0)
        plan2.apply_worker(0, 0, 0)  # times=1 exhausted

    def test_corrupt_counts_writes(self, tmp_path):
        plan = FaultPlan.parse("corrupt:index=1,byte=3")
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(bytes(16))
        b.write_bytes(bytes(16))
        assert not plan.corrupt_checkpoint(a)  # write 0: not matched
        assert plan.corrupt_checkpoint(b)  # write 1: flipped
        assert a.read_bytes() == bytes(16)
        assert b.read_bytes()[3] == 0xFF


# ----- self-healing executor --------------------------------------------------


def _tree_moms(n=600, seed=11):
    from repro.tree import build_tree, compute_moments

    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    mass = rng.uniform(0.5, 1.5, n) / n
    tree = build_tree(pos, mass, box=1.0, nleaf=16, with_ghosts=False)
    moms = compute_moments(tree, p=2, tol=1e-3, background=False)
    return tree, moms


class TestSelfHealingExecutor:
    def _reference(self, tree, moms):
        from repro.gravity.treeforce import evaluate_forces
        from repro.tree.traversal import traverse_lists

        inter = traverse_lists(tree, moms, periodic=False)
        return evaluate_forces(tree, moms, inter)

    def test_worker_death_recovered_bit_identical(self):
        from repro.parallel.executor import ForceExecutor

        tree, moms = _tree_moms()
        ref = self._reference(tree, moms)
        with ForceExecutor(1, faults="kill:shard=0") as ex:
            res = ex.compute(tree, moms, ForceSpec())
        kinds = [r["kind"] for r in ex.recoveries]
        assert "worker_death" in kinds
        assert not ex.degraded
        assert np.array_equal(res.acc, ref.acc)
        assert res.stats["executor"]["recoveries"]

    def test_transient_error_retried(self):
        from repro.parallel.executor import ForceExecutor

        tree, moms = _tree_moms()
        ref = self._reference(tree, moms)
        with ForceExecutor(1, faults="raise:shard=0") as ex:
            res = ex.compute(tree, moms, ForceSpec())
        assert "shard_retry" in [r["kind"] for r in ex.recoveries]
        assert np.array_equal(res.acc, ref.acc)

    def test_hang_triggers_pool_restart(self):
        from repro.parallel.executor import ForceExecutor

        tree, moms = _tree_moms()
        ref = self._reference(tree, moms)
        with ForceExecutor(
            1, faults="delay:shard=0,seconds=30", shard_timeout=0.5
        ) as ex:
            res = ex.compute(tree, moms, ForceSpec())
        assert "pool_restart" in [r["kind"] for r in ex.recoveries]
        assert np.array_equal(res.acc, ref.acc)

    def test_unrecoverable_pool_degrades_to_serial(self):
        from repro.parallel.executor import ForceExecutor

        tree, moms = _tree_moms()
        ref = self._reference(tree, moms)
        with ForceExecutor(
            1, faults="kill:worker=0,times=99", max_respawns=0
        ) as ex:
            res = ex.compute(tree, moms, ForceSpec())
            assert ex.degraded
            assert "serial_fallback" in [r["kind"] for r in ex.recoveries]
            assert np.array_equal(res.acc, ref.acc)
            # the degraded pool keeps serving (serially) and stays correct
            res2 = ex.compute(tree, moms, ForceSpec())
            assert np.array_equal(res2.acc, ref.acc)

    def test_close_after_dead_pool_no_leaks(self):
        from repro.parallel.executor import ForceExecutor

        tree, moms = _tree_moms(n=200)
        ex = ForceExecutor(1, faults="kill:worker=0,times=99", max_respawns=0)
        ex.compute(tree, moms, ForceSpec())
        for p in ex._procs:
            if p.is_alive():
                p.terminate()
                p.join(2)
        ex.close()  # must not hang or raise on an already-dead pool
        assert ex.closed
        if os.path.isdir("/dev/shm"):
            assert glob.glob("/dev/shm/reprofx*") == []

    def test_recovery_reaches_health_monitor(self, tmp_path, monkeypatch):
        from repro.diagnose import HealthConfig

        # the executor picks the plan up from the environment
        monkeypatch.setenv("REPRO_FAULTS", "kill:shard=0")
        trace = tmp_path / "trace.jsonl"
        cfg = short_config(workers=1)
        health = HealthConfig(snapshot_dir=str(tmp_path))

        # recovery events come from the executor through the tracer, so
        # the sink must hang off the tracer, not run()'s jsonl tee
        with Simulation(cfg, tracer=Tracer(sink=trace), health=health) as sim:
            sim.run(max_steps=1)
        recs = read_jsonl(trace)
        assert any(r["type"] == "executor_recovery" for r in recs)
        health = [r for r in recs if r.get("monitor") == "executor_recovery"]
        assert health and health[0]["severity"] == "warn"
