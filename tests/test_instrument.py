"""Tests for ``repro.observe``'s tracer, its timers and counters, the
JSONL log and the reports, and their wiring through the stack."""

import json
import threading
import time

import numpy as np
import pytest

from repro.observe import (
    NULL_TRACER,
    JsonlAppender,
    NullTracer,
    Tracer,
    force_stage_totals,
    get_tracer,
    jsonable,
    read_jsonl,
    read_records,
    set_tracer,
    stage_breakdown_table,
    use_tracer,
)
from repro.perfmodel.flops import flops_from_stats


class TestSpans:
    def test_nesting_builds_paths(self):
        tr = Tracer()
        with tr.span("outer") as so:
            with tr.span("inner") as si:
                pass
            with tr.span("sibling") as sib:
                pass
        assert so.path == "outer"
        assert sib.path == "outer/sibling"
        assert si.path == "outer/inner"
        assert set(tr.stage_times()) == {"outer", "outer/inner", "outer/sibling"}

    def test_timing_monotonicity(self):
        """Outer spans contain inner ones: outer >= inner >= slept time."""
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.01)
        times = tr.stage_times()
        assert times["outer/inner"] >= 0.01
        assert times["outer"] >= times["outer/inner"]

    def test_repeated_spans_accumulate(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("work"):
                pass
        assert tr.timers["work"][1] == 3
        assert tr.stage_times()["work"] >= 0.0

    def test_exception_unwinds_stack(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise RuntimeError("boom")
        with tr.span("after") as after:
            pass
        assert after.path == "after"
        assert set(tr.stage_times()) == {"outer", "outer/inner", "after"}

    def test_threads_get_independent_stacks(self):
        tr = Tracer()
        paths = []

        def worker(name):
            with tr.span(name) as span:
                time.sleep(0.005)
                paths.append(span.path)

        threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # no cross-thread nesting: every recorded path is a root span
        assert sorted(paths) == [f"t{i}" for i in range(4)]
        assert all("/" not in p for p in tr.stage_times())


class TestCounters:
    def test_scalar_aggregation(self):
        tr = Tracer()
        tr.count("interactions", 10)
        tr.count("interactions", 32)
        tr.count("calls")
        assert tr.counters == {"interactions": 42.0, "calls": 1.0}

    def test_to_dict_is_json_serializable(self, tmp_path):
        """The close-time ``metrics`` snapshot of the timers and counters."""
        path = tmp_path / "trace.jsonl"
        tr = Tracer(sink=path)
        tr.count("c", np.int64(1))
        tr.add_time("t", 0.1)
        tr.add_time("t", 0.25)
        tr.close()
        tr.close()  # a second close writes nothing
        (snapshot,) = [r for r in read_jsonl(path) if r["type"] == "metrics"]
        assert snapshot["counters"] == {"c": 1.0}
        assert snapshot["timers"] == {"t": {"total_s": 0.35, "calls": 2}}


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = Tracer(sink=path)
        with tr.span("a"):
            with tr.span("b"):
                pass
        tr.count("n", 7)
        tr.emit({"type": "custom", "value": np.float64(1.5), "arr": np.arange(2)})
        tr.close()
        records = read_jsonl(path)
        types = [r["type"] for r in records]
        assert types.count("span") == 2
        assert "custom" in types and "metrics" in types
        spans = {r["path"]: r for r in records if r["type"] == "span"}
        assert spans["a/b"]["seconds"] <= spans["a"]["seconds"]
        custom = next(r for r in records if r["type"] == "custom")
        assert custom["value"] == 1.5 and custom["arr"] == [0, 1]
        metrics = next(r for r in records if r["type"] == "metrics")
        assert metrics["counters"]["n"] == 7.0

    def test_records_are_on_disk_as_emitted(self, tmp_path):
        """A reader of the trace sees each step's record while the run is
        still going: nothing waits in a buffer for ``close``."""
        from repro.simulation import Simulation, SimulationConfig

        path = tmp_path / "trace.jsonl"
        seen = []

        def read_trace(sim, rec):
            seen.append([r for r in read_jsonl(path) if r["type"] == "step"])

        cfg = SimulationConfig(n_per_dim=8, box_mpc_h=50.0, a_init=0.1, a_final=0.12,
                               errtol=1e-3, p=2, max_refine=1, seed=2)
        Simulation(cfg, tracer=Tracer(sink=path)).run(callback=read_trace)
        assert seen and [r["step"] for r in seen[0]] == [1]
        assert [len(steps) for steps in seen] == list(range(1, len(seen) + 1))


def append_one(path, rec: dict) -> None:
    with JsonlAppender(path) as log:
        log.append(rec)


class TestJsonlLog:
    """The one JSONL contract: append, read, resume offsets, jsonable."""

    def test_append_onto_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_one(path, {"i": 1})
        with open(path, "ab") as fh:
            fh.write(b'{"i": 2, "to')  # a writer killed mid-record
        append_one(path, {"i": 3})
        assert path.read_bytes() == b'{"i": 1}\n{"i": 2, "to\n{"i": 3}\n'
        assert read_jsonl(path) == [{"i": 1}, {"i": 3}]

    def test_fragment_held_back_until_completed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"i": 1}\n{"i": ')
        recs, end = read_records(path)
        assert recs == [{"i": 1}] and end == len(b'{"i": 1}\n')
        with open(path, "ab") as fh:
            fh.write(b"2}\n")
        assert read_records(path, end) == ([{"i": 2}], path.stat().st_size)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'\n{"i": 1}\n  \n\n{"i": 2}\n')
        assert read_jsonl(path) == [{"i": 1}, {"i": 2}]

    def test_end_offsets_never_reread(self, tmp_path):
        path = tmp_path / "log.jsonl"
        seen, end = [], 0
        for i in range(5):
            append_one(path, {"i": i})
            recs, end = read_records(path, end)
            seen += recs
        assert [r["i"] for r in seen] == list(range(5))
        assert read_records(path, end) == ([], end) and end == path.stat().st_size

    def test_missing_file(self, tmp_path):
        assert read_records(tmp_path / "none.jsonl", 7) == ([], 7)
        with pytest.raises(FileNotFoundError):
            read_jsonl(tmp_path / "none.jsonl")

    def test_jsonable(self):
        from dataclasses import dataclass
        from pathlib import Path

        @dataclass
        class Cfg:
            out: Path
            n: int

        class Opaque:
            def __repr__(self):
                return "<opaque>"

        scalar = jsonable(np.float32(0.5))
        assert scalar == 0.5 and type(scalar) is float
        assert jsonable(np.arange(3)) == [0, 1, 2]
        assert jsonable(Path("a/b")) == "a/b"
        assert jsonable(Cfg(Path("x"), np.int64(3))) == {"out": "x", "n": 3}
        assert jsonable(Opaque()) == "<opaque>"
        # the same function is the json.dumps hook
        line = json.dumps({"cfg": Cfg(Path("x"), 1), "o": Opaque()}, default=jsonable)
        assert json.loads(line) == {"cfg": {"out": "x", "n": 1}, "o": "<opaque>"}


class TestNullTracer:
    def test_is_default(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_all_operations_noop(self):
        nt = NullTracer()
        with nt.span("x") as sp:
            nt.count("c", 1)
            nt.emit({"a": 1})
        assert sp.seconds == 0.0
        assert nt.stage_times() == {} and nt.counters == {}
        # the one off-switch: no stage profile, no registry record
        assert nt.stage("step") is nt.span("x")
        assert nt.registry is None and not nt.profile
        assert nt.record("simulation_run", {"a": 1}) is None

    def test_overhead_is_tiny(self):
        """A null span must cost far less than a microsecond."""
        nt = NullTracer()
        n = 100_000
        t0 = time.perf_counter()
        for _ in range(n):
            with nt.span("x"):
                pass
        per_span = (time.perf_counter() - t0) / n
        assert per_span < 5e-6

    def test_environment_resolves_on_first_call(self, monkeypatch, tmp_path):
        import repro.observe.tracer as tracer_mod

        monkeypatch.setattr(tracer_mod, "_global_tracer", None)
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_OBS_PROFILE", "1")
        tr = get_tracer()
        assert tr.enabled and tr.profile and tr.registry == str(tmp_path)
        assert get_tracer() is tr
        monkeypatch.setattr(tracer_mod, "_global_tracer", None)
        monkeypatch.delenv("REPRO_OBS_DIR")
        assert get_tracer() is NULL_TRACER

    def test_record_files_into_the_registry_and_never_raises(self, tmp_path):
        from repro.observe import RunRegistry

        assert Tracer().record("bench", {"x": 1}) is None  # no registry
        rec = Tracer(registry=tmp_path / "obs").record("bench", {"x": 1}, key="k")
        assert RunRegistry(tmp_path / "obs").last()["id"] == rec["id"]
        blocked = tmp_path / "a_file"
        blocked.write_text("")
        assert Tracer(registry=blocked).record("bench", {"x": 1}) is None

    def test_set_and_use_tracer(self):
        tr = Tracer()
        with use_tracer(tr):
            assert get_tracer() is tr
        assert get_tracer() is NULL_TRACER
        set_tracer(tr)
        try:
            assert get_tracer() is tr
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER


@pytest.fixture(scope="module")
def traced_compute():
    from repro.gravity import TreecodeConfig, TreecodeGravity

    rng = np.random.default_rng(3)
    pos = rng.random((800, 3))
    mass = np.full(800, 1.0 / 800)
    tr = Tracer()
    solver = TreecodeGravity(
        TreecodeConfig(p=2, errtol=1e-3, periodic=True, background=True)
    )
    res = solver.compute(pos, mass, tracer=tr)
    return tr, res


class TestSolverWiring:
    def test_stage_times_present_and_sum_to_total(self, traced_compute):
        _, res = traced_compute
        stage = res.stats["stage_seconds"]
        assert set(stage) == {"build", "moments", "traverse", "evaluate", "lattice"}
        assert all(s >= 0.0 for s in stage.values())
        total = res.stats["force_seconds"]
        assert sum(stage.values()) <= total
        assert sum(stage.values()) == pytest.approx(total, rel=0.10)
        # the evaluator's family seconds are parts of the evaluate stage
        fam = res.stats["family_seconds"]
        assert list(fam) == ["cell", "pp", "m2l", "prism"]
        assert 0 < sum(fam.values()) <= stage["evaluate"]

    def test_counters_and_flops(self, traced_compute):
        tr, res = traced_compute
        assert tr.counters["force.calls"] == 1.0
        assert tr.counters["force.interactions"] > 0
        assert res.stats["flops"] == flops_from_stats(res.stats)
        assert res.stats["flops"] > res.stats["cell_interactions"]

    def test_treepm_counts_like_treecode(self):
        """The two solvers share one force call: a traced serial TreePM
        solve counts the walk and the cells like the treecode."""
        from repro.gravity.pm import TreePMConfig, TreePMGravity

        rng = np.random.default_rng(6)
        pos = rng.random((300, 3))
        mass = np.full(300, 1.0 / 300)
        tr = Tracer()
        res = TreePMGravity(TreePMConfig(ngrid=16, p=2, errtol=1e-2)).compute(
            pos, mass, tracer=tr
        )
        stats = res.stats
        assert stats["mac_tests"] > 0
        assert tr.counters["traverse.mac_tests"] == stats["mac_tests"]
        assert tr.counters["force.cells"] == stats["n_cells"] > 0
        assert tr.counters["force.interactions"] == (
            stats["cell_interactions"] + stats["pp_interactions"]
            + stats["prism_interactions"]
        )
        assert stats["mac"] == "moment" and stats["traversal"] == "hierarchical"
        assert stats["flops"] == flops_from_stats(stats)

    def test_no_stats_without_tracing(self):
        from repro.gravity import TreecodeConfig, TreecodeGravity

        rng = np.random.default_rng(4)
        pos = rng.random((200, 3))
        mass = np.full(200, 1.0 / 200)
        res = TreecodeGravity(TreecodeConfig(p=2, errtol=1e-2)).compute(pos, mass)
        assert "stage_seconds" not in res.stats
        assert "flops" not in res.stats

    def test_treepm_stage_times(self):
        from repro.gravity.pm import TreePMConfig, TreePMGravity

        rng = np.random.default_rng(5)
        pos = rng.random((300, 3))
        mass = np.full(300, 1.0 / 300)
        tr = Tracer()
        res = TreePMGravity(TreePMConfig(ngrid=16, p=2, errtol=1e-2)).compute(
            pos, mass, tracer=tr
        )
        stage = res.stats["stage_seconds"]
        assert set(stage) == {"pm", "build", "moments", "traverse", "evaluate"}
        assert sum(stage.values()) == pytest.approx(
            res.stats["force_seconds"], rel=0.10
        )


class TestDriverWiring:
    @pytest.fixture(scope="class")
    def traced_sim(self, tmp_path_factory):
        from repro.simulation import Simulation, SimulationConfig

        path = tmp_path_factory.mktemp("trace") / "run.jsonl"
        tr = Tracer(sink=path)
        cfg = SimulationConfig(
            n_per_dim=8, box_mpc_h=50.0, a_init=0.1, a_final=0.14,
            errtol=1e-3, p=2, max_refine=1, seed=2,
        )
        sim = Simulation(cfg, tracer=tr)
        sim.run()
        tr.close()
        return sim, tr, path

    def test_run_totals_include_init_force(self, traced_sim):
        sim, _, _ = traced_sim
        rt = sim.run_totals
        assert rt["init_force_wall_s"] > 0.0
        assert rt["init_interactions_per_particle"] > 0.0
        assert rt["steps"] == len(sim.history)
        per_step = sum(r.interactions_per_particle for r in sim.history)
        assert rt["interactions_per_particle"] == pytest.approx(
            per_step + rt["init_interactions_per_particle"]
        )
        assert rt["wall_s"] >= rt["init_force_wall_s"] + rt["step_wall_s"] - 1e-6

    def test_jsonl_stream_has_one_record_per_step(self, traced_sim):
        sim, _, path = traced_sim
        # the driver's records; the tracer's own span and metrics
        # records interleave with them in the one trace
        records = [r for r in read_jsonl(path) if r["type"] not in ("span", "metrics")]
        types = [r["type"] for r in records]
        assert types[0] == "init_force" and types[-1] == "run_totals"
        steps = [r for r in records if r["type"] == "step"]
        assert len(steps) == len(sim.history)
        assert [r["step"] for r in steps] == list(range(1, len(steps) + 1))
        assert all(r["stage_seconds"]["evaluate"] > 0.0 for r in steps)

    def test_step_records_carry_stage_seconds(self, traced_sim):
        sim, _, _ = traced_sim
        for rec in sim.history:
            assert rec.stage_seconds["evaluate"] > 0.0

    def test_force_stage_totals_cover_force_time(self, traced_sim):
        """The acceptance check: per-stage sums within 10% of force total."""
        _, tr, _ = traced_sim
        times = tr.stage_times()
        stage = force_stage_totals(times)
        force_total = sum(v for k, v in times.items() if k.endswith("/force"))
        assert sum(stage.values()) == pytest.approx(force_total, rel=0.10)

    def test_untraced_run_unchanged(self):
        from repro.simulation import Simulation, SimulationConfig

        cfg = SimulationConfig(
            n_per_dim=8, box_mpc_h=50.0, a_init=0.1, a_final=0.12,
            errtol=1e-3, p=2, max_refine=1, seed=2,
        )
        sim = Simulation(cfg)
        sim.run()
        assert sim.history[0].stage_seconds == {}
        assert sim.run_totals["steps"] == len(sim.history)


class TestParallelWiring:
    def test_comm_counts_messages_and_bytes_per_rank(self):
        from repro.parallel.comm import SimComm

        tr = Tracer()
        comm = SimComm(3, tracer=tr)
        send = [[np.zeros(5, dtype=np.uint8) for _ in range(3)] for _ in range(3)]
        comm.alltoallv(send)
        c = tr.counters
        assert c["comm.bytes"] == comm.ledger.total_bytes()
        assert c["comm.messages"] == comm.ledger.total_messages()
        # the per-rank split is the ledger's: 5 bytes to each other rank
        np.testing.assert_allclose(comm.ledger.bytes_sent, [10.0, 10.0, 10.0])
        np.testing.assert_array_equal(comm.ledger.messages_sent, [2, 2, 2])

    def test_comm_uses_ambient_tracer(self):
        from repro.parallel.comm import SimComm

        tr = Tracer()
        with use_tracer(tr):
            comm = SimComm(2)
            comm.bcast(np.zeros(4))
        assert tr.counters["comm.messages"] > 0

    def test_alltoall_strategies_traced(self):
        from repro.parallel.alltoall import alltoall_hierarchical, alltoall_pairwise
        from repro.parallel.comm import SimComm

        tr = Tracer()
        with use_tracer(tr):
            comm = SimComm(4)
            send = [
                [np.full(2, i * 4 + j, dtype=np.uint8) for j in range(4)]
                for i in range(4)
            ]
            alltoall_pairwise(comm, send)
            alltoall_hierarchical(comm, send)
        times = tr.stage_times()
        assert times["alltoall.pairwise"] > 0.0
        assert times["alltoall.hierarchical"] > 0.0
        assert tr.counters["alltoall.pairwise.rounds"] == 3.0


class TestReports:
    def test_stage_breakdown_table(self):
        txt = stage_breakdown_table({"build": 1.0, "evaluate": 3.0}, title="T")
        assert txt.startswith("=== T ===") and "Total" in txt
        assert "0.25" in txt and "0.75" in txt


class TestCrossCheck:
    def test_flops_from_stats(self):
        stats = {"order": 2, "cell_interactions": 10, "pp_interactions": 5,
                 "prism_interactions": 1}
        f = flops_from_stats(stats)
        assert f > 10 * 28  # cell interactions cost more than monopole pp
