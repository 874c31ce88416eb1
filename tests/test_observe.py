"""Tests for the run observatory: registry, profiler, timelines, trends.

Covers the ISSUE acceptance points: registry round-trip and query API,
what the tracer costs a step, off and on, worker-timeline
reconstruction from a real ``workers=2`` run, and the trend engine
flagging a synthetic 2x slowdown while staying quiet on noise-level
jitter.
"""

import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.observe import (
    RunRegistry,
    Tracer,
    analyze_timeline,
    attribute,
    chrome_trace_from_record,
    chrome_trace_from_spans,
    config_hash,
    detect_regression,
    format_attribution,
    metric_value,
    read_jsonl,
    render_timeline,
    robust_baseline,
    speedscope_from_record,
    trend_report,
    use_tracer,
)
from repro.observe.cli import main as obs_main
from repro.observe.registry import KIND_RUN
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


# ----- registry ----------------------------------------------------------------


class TestRegistry:
    def test_round_trip_and_query(self, tmp_path):
        reg = RunRegistry(tmp_path / "obs")
        reg.record("bench", {"wall_s": 1.5}, key="k1")
        reg.record("simulation_run", {"wall_s": 2.0, "steps": 3}, key="k2")
        reg.record("simulation_run", {"wall_s": 2.5, "steps": 4}, key="k2")

        assert len(reg.records()) == 3
        assert [r["data"]["wall_s"] for r in reg.records(kind="simulation_run")] == [2.0, 2.5]
        assert len(reg.records(key="k2")) == 2
        assert reg.last(kind="bench")["data"]["wall_s"] == 1.5
        assert reg.records(kind="simulation_run", limit=1)[0]["data"]["steps"] == 4

        rec = reg.last()
        assert rec["obs_schema"] == 1
        assert rec["kind"] == "simulation_run"
        assert rec["key"] == "k2"
        assert rec["cpu_count"] >= 1
        assert rec["hostname"]
        assert "t" in rec and "t_unix" in rec

    def test_get_by_index_and_prefix(self, tmp_path):
        reg = RunRegistry(tmp_path)
        a = reg.record("bench", {"v": 1})
        b = reg.record("bench", {"v": 2})
        assert reg.get(1)["data"]["v"] == 1
        assert reg.get(-1)["data"]["v"] == 2
        assert reg.get(a["id"])["data"]["v"] == 1
        assert reg.get(b["id"][:20])["data"]["v"] == 2
        with pytest.raises(LookupError):
            reg.get(0)
        with pytest.raises(LookupError):
            reg.get(99)
        with pytest.raises(LookupError):
            reg.get("zzz-no-such-prefix")

    def test_torn_tail_line_skipped(self, tmp_path):
        reg = RunRegistry(tmp_path)
        reg.record("bench", {"v": 1})
        with open(reg.path, "a") as fh:
            fh.write('{"kind": "bench", "data": {"v":')  # crashed writer
        assert len(reg.records()) == 1
        reg.record("bench", {"v": 2})
        # the torn line is skipped and terminated: later appends survive
        assert [r["data"]["v"] for r in reg.records()] == [1, 2]

    def test_metric_value_resolution(self):
        rec = {"kind": "simulation_run", "cpu_count": 8,
               "data": {"wall_s": 1.5, "run_totals": {"steps": 3},
                        "partial": True}}
        assert metric_value(rec, "wall_s") == 1.5
        assert metric_value(rec, "run_totals.steps") == 3.0
        assert metric_value(rec, "cpu_count") == 8.0  # envelope fallback
        assert metric_value(rec, "partial") is None  # bools are not numbers
        assert metric_value(rec, "missing.metric") is None

    def test_series(self, tmp_path):
        reg = RunRegistry(tmp_path)
        for w in (1.0, 2.0, 3.0):
            reg.record("bench", {"wall_s": w})
        reg.record("bench", {"other": 1})  # no metric: excluded
        vals = [v for _, v in reg.series("wall_s")]
        assert vals == [1.0, 2.0, 3.0]


# ----- profiler ----------------------------------------------------------------


def _burn(n: int = 20_000) -> float:
    return sum(i * i for i in range(n)) / n


class TestProfiledStages:
    def test_hot_functions_attributed(self):
        tr = Tracer(profile=True)
        with tr.stage("step"):
            _burn()
        with tr.stage("step"):
            _burn()
        res = tr.take_profile()
        assert res["stages"]["step"]["calls"] == 2
        assert res["stages"]["step"]["seconds"] > 0
        hot = res["stages"]["step"]["hot"]
        assert hot and len(hot) <= 15
        assert any("_burn" in h["function"] for h in hot)
        assert all({"function", "where", "calls", "self_s", "cum_s"} <= set(h)
                   for h in hot)
        # the stage is an ordinary span too, and the profile is taken once
        assert tr.timers["step"][1] == 2
        assert tr.take_profile() is None

    def test_nested_stages_do_not_double_enable(self):
        tr = Tracer(profile=True)
        with tr.stage("outer"):
            with tr.stage("inner"):
                _burn(2_000)
        res = tr.take_profile()
        assert "outer" in res["stages"]
        # inner ran under the outer profile: timed, but no own profile
        assert res["stages"]["inner"]["calls"] == 1
        assert res["stages"]["inner"]["hot"] == []

    def test_stages_are_plain_spans_without_profile(self):
        tr = Tracer()
        with tr.stage("step"):
            _burn(2_000)
        assert tr.take_profile() is None
        assert tr.timers["step"][1] == 1


# ----- what recording costs ------------------------------------------------------


TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_trace_overhead.py"
_spec = importlib.util.spec_from_file_location("check_trace_overhead", TOOL)
overhead = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(overhead)


class TestDisabledContract:
    def test_disabled_overhead_is_negligible(self):
        """``tools/check_trace_overhead.py``'s two gates on a real 8^3
        run: the off-switch and a sink-streaming tracer each cost under
        1% of a step."""
        m = overhead.measure()
        # build, moments, traverse, evaluate, lattice under force, under step
        assert m["spans_per_step"] == 7
        assert m["disabled_frac"] < overhead.BOUND
        assert m["enabled_frac"] < overhead.BOUND
        assert m["disabled_op_s"] < m["enabled_op_s"]

    def test_a_simulation_loads_only_the_write_side(self):
        """``import repro.simulation`` loads the tracer and the JSONL
        module of the package and none of the readers."""
        code = ("import json, sys, repro.simulation\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.')"
                " and m.split('.')[1] in ('observe', 'instrument'))))")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_OBS")}
        env.update(PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [
            "repro.observe", "repro.observe.jsonl", "repro.observe.tracer"
        ]


# ----- timeline ----------------------------------------------------------------


def _fake_call(call=1):
    return {
        "call": call,
        "events": [
            {"shard": 0, "worker": 0, "t0": 0.0, "t1": 0.10,
             "traverse_s": 0.04, "evaluate_s": 0.06, "attempt": 0, "local": False},
            {"shard": 1, "worker": 1, "t0": 0.0, "t1": 0.04,
             "traverse_s": 0.02, "evaluate_s": 0.02, "attempt": 0, "local": False},
            {"shard": 2, "worker": 1, "t0": 0.05, "t1": 0.08,
             "traverse_s": 0.01, "evaluate_s": 0.02, "attempt": 1, "local": False},
        ],
    }


class TestTimeline:
    def test_lane_attribution(self):
        out = analyze_timeline([_fake_call()])
        assert out["calls"] == 1
        assert out["wall_s"] == pytest.approx(0.10)
        w0, w1 = out["lanes"]["w0"], out["lanes"]["w1"]
        assert w0["compute_s"] == pytest.approx(0.10)
        assert w0["idle_s"] == pytest.approx(0.0)
        assert w1["compute_s"] == pytest.approx(0.04)
        assert w1["recovery_s"] == pytest.approx(0.03)  # attempt=1 shard
        assert w1["idle_s"] == pytest.approx(0.03)
        # w0 closes the call: the lane everyone waited for
        assert out["critical"] == {"w0": pytest.approx(0.10)}
        assert out["imbalance"] > 0

    def test_parent_fallback_lane(self):
        call = {"call": 1, "events": [
            {"shard": 0, "worker": 0, "t0": 0.0, "t1": 0.05,
             "traverse_s": 0.02, "evaluate_s": 0.03, "attempt": 0, "local": True},
        ]}
        out = analyze_timeline([call])
        assert out["lanes"]["parent"]["recovery_s"] == pytest.approx(0.05)
        assert out["imbalance"] == 0.0  # parent lane excluded from balance

    def test_render(self):
        txt = render_timeline(_fake_call(), width=32)
        assert "force call 1" in txt
        assert "w0" in txt and "w1" in txt
        assert "#" in txt and "R" in txt and "." in txt
        assert render_timeline({"call": 2, "events": []}) == "(no shard events)"

    def test_real_workers2_run(self, tmp_path):
        """A real sharded run produces a registry record whose timeline
        reconstructs into w0/w1 lanes."""
        tr = Tracer(registry=tmp_path / "obs")
        with Simulation(short_config(workers=2, a_final=0.12), tracer=tr) as sim:
            sim.run()
        assert sim.shard_timeline, "sharded run must emit shard events"
        rec = RunRegistry(tmp_path / "obs").last(kind=KIND_RUN)
        assert rec is not None
        tl = rec["data"]["timeline"]
        assert tl and all(g["events"] for g in tl)
        summary = analyze_timeline(tl)
        labels = set(summary["lanes"])
        assert labels <= {"w0", "w1", "parent"}
        assert {"w0", "w1"} & labels
        busy = sum(lane["compute_s"] + lane["recovery_s"]
                   for lane in summary["lanes"].values())
        assert busy > 0
        assert summary == rec["data"]["worker_summary"]
        assert "force call" in render_timeline(tl[-1])


# ----- trend engine ------------------------------------------------------------


class TestTrend:
    def test_robust_baseline(self):
        center, scale = robust_baseline([1.0, 1.1, 0.9, 1.0, 10.0])
        assert center == pytest.approx(1.0)  # outlier does not poison
        assert scale < 0.5

    def test_flags_2x_slowdown(self):
        history = [1.0, 1.02, 0.98, 1.01, 0.99]
        v = detect_regression(history, 2.0)
        assert v["regression"] and v["status"] == "regression"
        assert v["ratio"] == pytest.approx(2.0, rel=0.05)

    def test_quiet_on_noise_jitter(self):
        history = [1.0, 1.02, 0.98, 1.01, 0.99]
        v = detect_regression(history, 1.02)  # 2% jitter
        assert not v["regression"] and v["status"] == "ok"

    def test_min_direction(self):
        v = detect_regression([10.0, 10.1, 9.9], 4.0, direction="min")
        assert v["regression"]
        assert not detect_regression([10.0, 10.1, 9.9], 9.8,
                                     direction="min")["regression"]

    def test_insufficient_history(self):
        v = detect_regression([1.0], 99.0)
        assert not v["regression"]
        assert v["status"] == "insufficient-history"

    def test_trend_report_over_registry(self, tmp_path):
        reg = RunRegistry(tmp_path)
        for w in (1.0, 1.02, 0.98, 1.01, 0.99):
            reg.record("simulation_run", {"wall_per_step_s": w}, key="k")
        reg.record("simulation_run", {"wall_per_step_s": 2.0}, key="k")
        rep = trend_report(reg, "wall_per_step_s", kind="simulation_run")
        assert rep["verdict"]["regression"]
        assert len(rep["series"]) == 6
        empty = trend_report(reg, "no_such_metric")
        assert empty["verdict"]["status"] == "no-data"


# ----- integration: driver / pipeline / bench record into the registry ---------


SRC = Path(__file__).resolve().parent.parent / "src"


def _observed(args, obs_dir):
    """``python *args`` in a fresh process with ``REPRO_OBS_DIR`` set, as
    CI's observatory job runs it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_OBS")}
    env.update(PYTHONPATH=str(SRC), REPRO_OBS_DIR=str(obs_dir))
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


class TestRecordingIntegration:
    def test_simulation_run_recorded_keyed_by_config_hash(self, tmp_path):
        cfg = short_config()
        tr = Tracer(registry=tmp_path / "obs", profile=True)
        with Simulation(cfg, tracer=tr) as sim:
            sim.run()
            rec = RunRegistry(tmp_path / "obs").last(kind=KIND_RUN)
            # a second run (already at a_final: no steps) files only its
            # own stages, not the first run's again
            sim.run()
        again = RunRegistry(tmp_path / "obs").last(kind=KIND_RUN)["data"]
        assert rec is not None
        assert rec["key"] == config_hash(cfg) == rec["data"]["config_sha256"]
        d = rec["data"]
        assert d["steps"] == len(sim.history)
        assert d["wall_s"] > 0
        assert d["wall_per_step_s"] > 0
        assert d["n_particles"] == 512
        # profile=True: per-stage hot functions captured
        assert {"init_force", "step"} <= set(d["profile"]["stages"])
        assert d["profile"]["stages"]["step"]["hot"]
        assert d["profile"]["stages"]["step"]["calls"] == len(sim.history)
        assert again["steps"] == 0
        assert set(again["profile"]["stages"]) == {"init_force"}
        assert again["profile"]["stages"]["init_force"]["calls"] == 1

    def test_failed_run_recorded_as_partial(self, tmp_path):
        def bomb(sim, rec):
            raise RuntimeError("injected mid-run failure")

        sim = Simulation(short_config(), tracer=Tracer(registry=tmp_path / "obs"))
        with pytest.raises(RuntimeError), sim:
            sim.run(callback=bomb)
        rec = RunRegistry(tmp_path / "obs").last(kind=KIND_RUN)
        assert rec["data"]["partial"] is True
        assert "injected" in rec["data"]["error"]

    def test_pipeline_stage_recorded(self, tmp_path):
        from repro.pipeline.run_stage import run_stage

        cfg = {
            "stage": "ic", "omega_m": 0.3, "omega_b": 0.05, "h": 0.7,
            "sigma8": 0.8, "n_s": 0.96, "n_per_dim": 8, "box_mpc_h": 50.0,
            "a_init": 0.1, "seed": 3, "output": "ic.sdf",
        }
        cfg_path = tmp_path / "s00_ic.json"
        cfg_path.write_text(json.dumps(cfg))
        run_stage(cfg_path, tracer=Tracer(registry=tmp_path / "obs"))
        rec = RunRegistry(tmp_path / "obs").last(kind="pipeline_stage")
        assert rec is not None
        assert rec["data"]["stage"] == "ic"
        assert rec["data"]["wall_s"] > 0
        assert rec["key"] == rec["data"]["config_sha256"]
        assert rec["data"]["summary"]["particles"] == 512

    def test_bench_emission_recorded(self, tmp_path):
        sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
        try:
            from _simlib import emit_bench
        finally:
            sys.path.pop(0)
        out = tmp_path / "BENCH_demo.json"
        with use_tracer(Tracer(registry=tmp_path / "obs")):
            doc = emit_bench("demo", {"wall_s": 1.25, "n_particles": 64}, out)
        written = json.loads(out.read_text())
        for d in (doc, written):
            assert d["bench"] == "demo"
            assert d["bench_schema"] == 1
            assert d["cpu_count"] >= 1
            assert d["host"]["hostname"]
            assert d["created"] and d["created_unix"] > 0
        rec = RunRegistry(tmp_path / "obs").last(kind="bench")
        assert rec["data"]["wall_s"] == 1.25
        assert rec["key"]  # keyed by the receipt's identity hash


    def test_environment_registry_records_a_traced_run(self, tmp_path):
        """``REPRO_OBS_DIR`` alone, no tracer passed: the run is recorded
        with its stage seconds and hottest spans, not an empty breakdown."""
        code = (
            "from repro.simulation import Simulation, SimulationConfig\n"
            "Simulation(SimulationConfig(n_per_dim=8, box_mpc_h=50.0, a_init=0.1,"
            " a_final=0.12, errtol=1e-3, p=2, max_refine=1, seed=2)).run()\n"
        )
        _observed(["-c", code], tmp_path / "obs")
        d = RunRegistry(tmp_path / "obs").last(kind=KIND_RUN)["data"]
        assert d["stage_seconds"]["evaluate"] > 0
        assert d["top_spans"] and d["top_spans"][0]["calls"] > 0
        assert {"init_force", "step"} <= {s["path"] for s in d["top_spans"]}
        assert "profile" not in d  # REPRO_OBS_PROFILE unset

    def test_run_stage_trace_with_environment_registry(self, tmp_path):
        """``run_stage --trace`` under ``REPRO_OBS_DIR`` writes the trace
        and both registry records, and the stage's one wall timer gives
        the trace and the registry the same wall."""
        from repro.pipeline import PipelineSpec

        PipelineSpec(
            name="obs", n_per_dim=8, box_mpc_h=40.0, z_init=9.0, z_final=6.0,
            errtol=1e-3, p_order=2, snapshots_z=(6.0,), analysis=(),
        ).write(tmp_path)
        obs, trace = tmp_path / "obs", tmp_path / "trace.jsonl"
        _observed(["-m", "repro.pipeline.run_stage", str(tmp_path / "obs_ic.json")], obs)
        _observed(["-m", "repro.pipeline.run_stage", str(tmp_path / "obs_evolve.json"),
                   "--trace", str(trace)], obs)
        recs = read_jsonl(trace)
        assert {"init_force", "step", "run_totals", "span", "pipeline_stage",
                "metrics"} <= {r["type"] for r in recs}
        reg = RunRegistry(obs)
        run = reg.last(kind=KIND_RUN)["data"]
        assert run["stage_seconds"]["evaluate"] > 0
        assert run["steps"] == sum(1 for r in recs if r["type"] == "step")
        stage = reg.last(kind="pipeline_stage")["data"]
        assert stage["stage"] == "evolve"
        (traced,) = [r for r in recs if r["type"] == "pipeline_stage"]
        assert stage["wall_s"] == traced["wall_s"] > 0


# ----- progress line -----------------------------------------------------------


class TestProgressLine:
    def test_line_content_and_ewma(self):
        from repro.pipeline.run_stage import _ProgressLine

        class Rec:
            def __init__(self, a, wall):
                self.a, self.dlna, self.wall = a, 0.1, wall

        class Health:
            events_seen = {"info": 0, "warn": 1, "error": 0}

        class Sim:
            steps_completed = 7
            health = Health()

        buf = io.StringIO()
        line = _ProgressLine(buf, a_final=1.0)
        line(Sim(), Rec(0.5, 2.0))
        line(Sim(), Rec(0.6, 1.0))
        out = buf.getvalue()
        assert "step 7" in out and "a=0.6000" in out
        assert "health=warn" in out
        # EWMA after [2.0, 1.0]: 0.3*1.0 + 0.7*2.0 = 1.7
        assert "ewma 1.70" in out
        line.close()
        assert buf.getvalue().endswith("\n")

    def test_env_gating(self, monkeypatch):
        from repro.pipeline.run_stage import _make_progress

        monkeypatch.setenv("REPRO_PROGRESS", "0")
        assert _make_progress(1.0) is None
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert _make_progress(1.0) is not None
        monkeypatch.delenv("REPRO_PROGRESS")
        # no TTY in the test harness: off by default
        assert _make_progress(1.0) is None


# ----- CLIs --------------------------------------------------------------------


def _seed_registry(tmp_path) -> RunRegistry:
    reg = RunRegistry(tmp_path / "obs")
    for w in (1.0, 1.02, 0.98, 1.01, 0.99):
        reg.record("simulation_run",
                   {"wall_per_step_s": w, "wall_s": 10 * w, "steps": 10},
                   key="k")
    return reg


class TestObsCli:
    def test_list_show_compare(self, tmp_path, capsys):
        reg = _seed_registry(tmp_path)
        root = str(reg.root)
        assert obs_main(["--dir", root, "list"]) == 0
        assert "simulation_run" in capsys.readouterr().out
        assert obs_main(["--dir", root, "show", "-1"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["data"]["steps"] == 10
        reg.record("simulation_run", {"wall_per_step_s": 2.0}, key="k")
        assert obs_main(["--dir", root, "diff", "1", "-1"]) == 0
        assert "wall_per_step_s" in capsys.readouterr().out

    def test_trend_exit_codes(self, tmp_path, capsys):
        reg = _seed_registry(tmp_path)
        root = str(reg.root)
        assert obs_main(["--dir", root, "trend", "wall_per_step_s"]) == 0
        capsys.readouterr()
        reg.record("simulation_run", {"wall_per_step_s": 2.0}, key="k")
        assert obs_main(["--dir", root, "trend", "wall_per_step_s"]) == 2
        assert "REGRESSION" in capsys.readouterr().err

    def test_missing_ref_and_timeline(self, tmp_path, capsys):
        reg = _seed_registry(tmp_path)
        root = str(reg.root)
        assert obs_main(["--dir", root, "show", "nope"]) == 1
        capsys.readouterr()
        # records carry no shard timeline: exit 1 with a hint
        assert obs_main(["--dir", root, "timeline", "-1"]) == 1
        assert "no shard timeline" in capsys.readouterr().err

    def test_empty_registry_list(self, tmp_path, capsys):
        assert obs_main(["--dir", str(tmp_path / "none"), "list"]) == 0
        assert "empty" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["trend", "wall_per_step_s", "--window", "0"],
        ["trend", "wall_per_step_s", "--window", "-2"],
        ["list", "-n", "0"],
        ["list", "-n", "-1"],
        ["top", "-1", "-n", "0"],
    ])
    def test_counts_below_one_are_usage_errors(self, tmp_path, capsys, argv):
        root = str(_seed_registry(tmp_path).root)
        with pytest.raises(SystemExit) as exc:
            obs_main(["--dir", root, *argv])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


class TestDiagGateTrend:
    """The trend gate is ``repro-obs trend``: exit 2 on a regression,
    with the attribution of what moved."""

    def test_gate_trend_regression_fails(self, tmp_path, capsys):
        reg = _seed_registry(tmp_path)
        reg.record("simulation_run", {"wall_per_step_s": 2.0}, key="k")
        rc = obs_main(["--dir", str(reg.root), "trend", "wall_per_step_s"])
        assert rc == 2
        assert "REGRESSION" in capsys.readouterr().err

    def test_gate_trend_ok(self, tmp_path, capsys):
        reg = _seed_registry(tmp_path)
        rc = obs_main(["--dir", str(reg.root), "trend", "wall_per_step_s"])
        assert rc == 0
        assert "ok: wall_per_step_s" in capsys.readouterr().out

    def test_gate_trend_regression_names_top_mover(self, tmp_path, capsys):
        """The failure path attributes the regression: the metric that
        moved is named span-by-span, not just the trend verdict."""
        reg = RunRegistry(tmp_path / "obs")
        for w in (1.0, 1.02, 0.98, 1.01, 0.99):
            reg.record("simulation_run",
                       {"wall_per_step_s": w,
                        "stage_seconds": {"evaluate": 0.5 * w}},
                       key="k")
        reg.record("simulation_run",
                   {"wall_per_step_s": 2.3,
                    "stage_seconds": {"evaluate": 1.7}},
                   key="k")
        rc = obs_main(["--dir", str(reg.root), "trend", "wall_per_step_s"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "REGRESSION" in err
        assert "attribution" in err
        assert "top movers" in err
        assert "wall_per_step_s" in err and "stage_seconds.evaluate" in err


class TestReplay:
    """Files written before the tracer carried the registry still render:
    a registry record and a trace in their earlier shapes, as literals."""

    HOT = [{"function": "evaluate_forces", "where": "gravity/treeforce.py:560",
            "calls": 3, "self_s": 0.12, "cum_s": 0.3},
           {"function": "segment_sum", "where": "gravity/treeforce.py:120",
            "calls": 90, "self_s": 0.05, "cum_s": 0.05}]

    def _record(self, n, wall):
        return {
            "obs_schema": 1, "id": f"000176000000{n}-a1b2c3", "kind": "simulation_run",
            "key": "f" * 64, "t_unix": 1760000000.0 + n,
            "t": "2025-10-09T08:53:20+0000", "git_commit": "c" * 40,
            "hostname": "node1", "cpu_count": 2, "pid": 4242,
            "data": {
                "config_sha256": "f" * 64, "engine": "tree", "n_particles": 512,
                "workers": 2, "errtol": 0.001, "a_final": 0.14, "steps": 3,
                "wall_s": 3 * wall + 0.2, "interactions_per_particle": 2400.0,
                "run_totals": {"wall_s": 3 * wall + 0.2, "steps": 3,
                               "init_force_wall_s": 0.2,
                               "init_interactions_per_particle": 600.0,
                               "step_wall_s": 3 * wall,
                               "interactions_per_particle": 2400.0},
                "stage_seconds": {"build": 0.01, "moments": 0.05, "traverse": 0.04,
                                  "evaluate": 0.9 * wall, "lattice": 0.08},
                "wall_per_step_s": wall,
                "kernel": {"interactions": 1.2e6, "gflops": 1.5},
                "timeline": [
                    {"call": 1, "events": [
                        {"shard": 0, "worker": 0, "t0": 0.0, "t1": 0.1,
                         "traverse_s": 0.04, "evaluate_s": 0.06, "attempt": 0,
                         "local": False},
                        {"shard": 1, "worker": 1, "t0": 0.0, "t1": 0.08,
                         "traverse_s": 0.03, "evaluate_s": 0.05, "attempt": 0,
                         "local": False}]}],
                "worker_summary": {"calls": 1, "wall_s": 0.1},
                "profile": {
                    "stages": {"init_force": {"seconds": 0.2, "calls": 1, "hot": self.HOT},
                               "step": {"seconds": 3 * wall, "calls": 3, "hot": self.HOT}},
                    "memory": {"tracemalloc_current_kb": 812.4,
                               "tracemalloc_peak_kb": 9120.0, "rss_max_kb": 183204},
                },
                "top_spans": [{"path": "step", "total_s": 3 * wall, "calls": 3},
                              {"path": "step/force/evaluate", "total_s": 0.27, "calls": 3}],
            },
        }

    TRACE = [
        {"type": "init_force", "a": 0.1, "wall": 0.2, "interactions_per_particle": 600.0,
         "stage_seconds": {"build": 0.003, "evaluate": 0.1}},
        {"type": "span", "path": "step/force", "seconds": 0.15, "t0": 10.0, "t1": 10.15,
         "tid": 140001},
        {"type": "span", "path": "step", "seconds": 0.2, "t0": 10.0, "t1": 10.2,
         "tid": 140001},
        {"type": "step", "step": 1, "a": 0.11, "dlna": 0.1, "wall": 0.2,
         "interactions_per_particle": 600.0, "layzer_irvine": 0.5, "kinetic": 1.0,
         "potential": -2.0, "stage_seconds": {"build": 0.003, "evaluate": 0.12}},
        {"type": "health", "monitor": "momentum", "severity": "warn",
         "message": "momentum drift 0.06", "value": 0.06, "threshold": 0.05,
         "step": 1, "a": 0.11},
        {"type": "run_totals", "wall_s": 0.4, "steps": 1, "init_force_wall_s": 0.2,
         "init_interactions_per_particle": 600.0, "step_wall_s": 0.2,
         "interactions_per_particle": 1200.0},
        {"type": "pipeline_stage", "stage": "evolve", "wall_s": 0.5},
        {"type": "metrics", "timers": {"step": {"total_s": 0.2, "calls": 1,
                                                "min_s": 0.2, "max_s": 0.2}},
         "counters": {"force.calls": 2.0}, "vectors": {}},
    ]

    def test_every_command_renders(self, tmp_path, capsys):
        obs = tmp_path / "obs"
        obs.mkdir()
        (obs / "registry.jsonl").write_text(
            "".join(json.dumps(self._record(n, w)) + "\n"
                    for n, w in ((1, 0.2), (2, 0.5))))
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(r) + "\n" for r in self.TRACE))
        root = ["--dir", str(obs)]

        assert obs_main([*root, "list"]) == 0
        assert "simulation_run" in capsys.readouterr().out
        assert obs_main([*root, "show", "-1"]) == 0
        assert json.loads(capsys.readouterr().out)["data"]["steps"] == 3
        assert obs_main([*root, "timeline", "-1"]) == 0
        assert "w0" in capsys.readouterr().out
        assert obs_main([*root, "top", "-1"]) == 0
        out = capsys.readouterr().out
        assert "evaluate_forces" in out and "Memory high-water" in out
        assert obs_main([*root, "export", "-1", "--out", str(tmp_path / "t.json"),
                         "--speedscope", str(tmp_path / "p.json")]) == 0
        assert len(json.loads((tmp_path / "p.json").read_text())["profiles"]) == 2
        assert obs_main(["export", "--spans", str(trace),
                         "--out", str(tmp_path / "s.json")]) == 0
        capsys.readouterr()
        assert obs_main([*root, "diff", "1", "2"]) == 0
        assert "stage_seconds.evaluate" in capsys.readouterr().out
        assert obs_main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "momentum drift" in out and "Force stage totals" in out
        assert obs_main(["gate", str(trace)]) == 0
        assert obs_main(["gate", str(trace), "--severity", "warn"]) == 1


# ----- trace export ------------------------------------------------------------


def _timeline_record(tmp_path, calls=2):
    """Registry with one record carrying a synthetic multi-call timeline."""
    reg = RunRegistry(tmp_path / "obs")
    tl = [_fake_call(c) for c in range(1, calls + 1)]
    reg.record(KIND_RUN, {"wall_s": 1.0, "steps": calls, "timeline": tl,
                          "worker_summary": analyze_timeline(tl)}, key="k")
    return reg, reg.last()


def _lane_busy_seconds(trace):
    """Per-lane busy seconds summed from a trace's shard X events."""
    lane_of = {e["tid"]: e["args"]["name"] for e in trace["traceEvents"]
               if e["ph"] == "M" and e["name"] == "thread_name"}
    busy = {}
    for e in trace["traceEvents"]:
        if e["ph"] == "X" and e.get("cat") == "shard":
            label = lane_of[e["tid"]]
            busy[label] = busy.get(label, 0.0) + e["dur"] / 1e6
    return busy


class TestTraceExport:
    def test_chrome_trace_schema(self, tmp_path):
        _, rec = _timeline_record(tmp_path)
        trace = chrome_trace_from_record(rec)
        events = trace["traceEvents"]
        # only complete ("X") timed events — no B/E pairs to balance —
        # plus "M" metadata (which carries no ts) and "s"/"f" flows
        assert {e["ph"] for e in events} <= {"M", "X", "s", "f"}
        ts = [e["ts"] for e in events if "ts" in e]
        assert ts == sorted(ts)
        xs = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in xs)
        # 2 calls x (1 call-summary + 3 shards)
        assert len(xs) == 8
        lanes = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert lanes == {"force calls", "w0", "w1"}
        assert trace["otherData"]["record_id"] == rec["id"]
        json.dumps(trace)  # serializable as-is

    def test_lanes_match_timeline_attribution(self, tmp_path):
        _, rec = _timeline_record(tmp_path)
        busy = _lane_busy_seconds(chrome_trace_from_record(rec))
        summary = analyze_timeline(rec["data"]["timeline"])
        assert set(busy) == set(summary["lanes"])
        for label, lane in summary["lanes"].items():
            assert busy[label] == pytest.approx(
                lane["compute_s"] + lane["recovery_s"], abs=1e-9)

    def test_recovery_flow_events(self, tmp_path):
        _, rec = _timeline_record(tmp_path)
        flows = [e for e in chrome_trace_from_record(rec)["traceEvents"]
                 if e["ph"] in ("s", "f")]
        # the attempt=1 shard of each call gets one s/f arrow pair,
        # keyed call:shard, from the call start to the re-dispatch
        assert len(flows) == 4
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        ends = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts == ends == {"1:2", "2:2"}

    def test_no_timeline_raises(self, tmp_path):
        reg = _seed_registry(tmp_path)
        with pytest.raises(LookupError):
            chrome_trace_from_record(reg.last())

    def test_span_stream_export(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = Tracer(sink=path)
        with tr.span("force"):
            with tr.span("build"):
                pass
        tr.close()
        trace = chrome_trace_from_spans(read_jsonl(path))
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"force", "force/build"}
        ts = [e["ts"] for e in trace["traceEvents"] if "ts" in e]
        assert ts == sorted(ts)
        with pytest.raises(LookupError):
            chrome_trace_from_spans([{"type": "step"}])

    def test_real_workers2_export(self, tmp_path):
        """Export of a real sharded run: per-worker lane busy time in
        the trace equals timeline.py's compute+recovery attribution."""
        tr = Tracer(registry=tmp_path / "obs")
        with Simulation(short_config(workers=2, a_final=0.12), tracer=tr) as sim:
            sim.run()
        rec = RunRegistry(tmp_path / "obs").last(kind=KIND_RUN)
        trace = chrome_trace_from_record(rec)
        busy = _lane_busy_seconds(trace)
        summary = analyze_timeline(rec["data"]["timeline"])
        assert set(busy) == set(summary["lanes"])
        for label, lane in summary["lanes"].items():
            assert busy[label] == pytest.approx(
                lane["compute_s"] + lane["recovery_s"], rel=1e-6)
        ts = [e["ts"] for e in trace["traceEvents"] if "ts" in e]
        assert ts == sorted(ts)
        # the kernel roofline counters land in the sharded run's record
        kern = rec["data"]["kernel"]
        assert kern["interactions"] > 0 and kern["gflops"] > 0

    def test_export_cli(self, tmp_path, capsys):
        reg, _ = _timeline_record(tmp_path)
        out = tmp_path / "t.json"
        assert obs_main(["--dir", str(reg.root), "export", "-1",
                         "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_export_cli_spans(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        tr = Tracer(sink=path)
        with tr.span("step"):
            pass
        tr.close()
        out = tmp_path / "t.json"
        assert obs_main(["export", "--spans", str(path),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        trace = json.loads(out.read_text())
        assert any(e["ph"] == "X" and e["name"] == "step"
                   for e in trace["traceEvents"])


# ----- speedscope --------------------------------------------------------------


SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


class TestSpeedscope:
    def test_from_record(self):
        rec = {"id": "r" * 24, "data": {"profile": {"stages": {"step": {
            "hot": [
                {"function": "f", "where": "a.py:10", "self_s": 0.5},
                {"function": "g", "where": "b.py:20", "self_s": 0.25},
                {"function": "zero", "where": "c.py:1", "self_s": 0.0},
            ]}}}}}
        doc = speedscope_from_record(rec)
        assert doc["$schema"] == SPEEDSCOPE_SCHEMA
        frames = doc["shared"]["frames"]
        # zero-self-time rows are dropped from the flamegraph
        assert {f["name"] for f in frames} == {"f", "g"}
        assert {f["line"] for f in frames} == {10, 20}
        (prof,) = doc["profiles"]
        assert prof["type"] == "sampled" and prof["unit"] == "seconds"
        assert prof["weights"] == [0.5, 0.25]
        assert prof["endValue"] == pytest.approx(0.75)
        assert all(0 <= s[0] < len(frames) for s in prof["samples"])
        with pytest.raises(LookupError):
            speedscope_from_record({"data": {}})


# ----- in-kernel roofline counters ---------------------------------------------


class TestKernelCounters:
    def _solve(self, workers=0):
        import numpy as np

        from repro.gravity import TreecodeConfig, TreecodeGravity

        rng = np.random.default_rng(3)
        pos = rng.random((512, 3))
        mass = np.full(512, 1.0 / 512)
        cfg = TreecodeConfig(p=2, errtol=1e-3, nleaf=16, periodic=True,
                             background=True, traversal="hierarchical",
                             workers=workers)
        with TreecodeGravity(cfg) as solver:
            return solver.compute(pos, mass, box=1.0)

    def test_counters_agree_with_perfmodel(self):
        from repro.perfmodel.flops import (
            FLOPS_PER_MONOPOLE_PP,
            flops_per_cell_entry,
            flops_per_cell_interaction,
        )

        res = self._solve()
        k = res.stats["kernel"]
        # counter cross-check: the kernel recomputes the interaction
        # split from the CSR lists; it must match the solver's counters
        assert k["cell_interactions"] == res.stats["cell_interactions"]
        assert k["cell_entries"] == res.stats["cell_entries"] > 0
        assert k["pp_interactions"] == res.stats["pp_interactions"]
        assert k["prism_interactions"] == res.stats["prism_interactions"]
        # flop accounting is the perfmodel count, exactly — of the
        # families ``seconds`` times: the prism pass is in neither
        assert k["prism_interactions"] > 0
        assert k["interactions"] == (
            res.stats["cell_interactions"] + res.stats["pp_interactions"]
        )
        expected = (
            res.stats["cell_interactions"]
            * flops_per_cell_interaction(2, want_potential=True)
            + res.stats["cell_entries"] * flops_per_cell_entry(2)
            + res.stats["pp_interactions"] * FLOPS_PER_MONOPOLE_PP
        )
        assert k["flops"] == pytest.approx(expected, rel=1e-9)
        fam = res.stats["family_seconds"]
        assert k["seconds"] == pytest.approx(fam["cell"] + fam["pp"] + fam["m2l"])
        assert fam["prism"] > 0
        assert k["seconds"] > 0
        assert k["interactions_per_s"] > 0 and k["gflops"] > 0
        assert 0 < k["tile_occupancy"] <= 1.0
        assert k["m_max"] >= k["m_mean"] > 0
        assert 0 < k["model_fraction"] < 1.0  # numpy is below the roofline

    def test_sharded_merge_preserves_totals(self):
        serial = self._solve().stats["kernel"]
        sharded = self._solve(workers=2).stats["kernel"]
        from repro.perfmodel.flops import flops_per_cell_entry

        assert sharded["interactions"] == serial["interactions"]
        assert sharded["cell_interactions"] == serial["cell_interactions"]
        # a sink cell that straddles two shards is translated by both:
        # the rows are the serial ones, the translations a few more
        again = sharded["cell_entries"] - serial["cell_entries"]
        assert 0 < again < serial["cell_entries"]
        assert sharded["flops"] == pytest.approx(
            serial["flops"] + again * flops_per_cell_entry(2)
        )
        assert sharded["rows"] == serial["rows"]
        assert 0 < sharded["tile_occupancy"] <= 1.0
        assert sharded["interactions_per_s"] > 0


# ----- attribution (repro-obs diff) --------------------------------------------


class TestAttribution:
    def _recs(self):
        a = {"id": "aaa", "t": "2026-01-01T00:00:00", "git_commit": "c1" * 6,
             "data": {"wall_per_step_s": 1.0,
                      "stage_seconds": {"evaluate": 0.5, "traverse": 0.2},
                      "tiny_span_s": 2e-6,
                      "kernel": {"interactions_per_s": 2.9e6},
                      "engine": "tree"}}
        b = {"id": "bbb", "t": "2026-01-02T00:00:00", "git_commit": "c2" * 6,
             "data": {"wall_per_step_s": 2.3,
                      "stage_seconds": {"evaluate": 1.7, "traverse": 0.21},
                      "tiny_span_s": 2e-5,
                      "kernel": {"interactions_per_s": 2.2e6},
                      "engine": "treepm"}}
        return a, b

    def test_ranks_seconds_moved_over_ratio(self):
        a, b = self._recs()
        report = attribute(a, b)
        movers = [m["metric"] for m in report["movers"]]
        # a 10x blowup of a 2 microsecond span must not outrank the
        # 1.2 s evaluate swing: time movers rank by seconds moved
        assert movers[0] == "wall_per_step_s"
        assert movers[1] == "stage_seconds.evaluate"
        assert movers.index("tiny_span_s") > movers.index(
            "stage_seconds.evaluate")
        # 5% jitter on traverse is below the 1.05x noise floor
        assert "stage_seconds.traverse" not in movers
        evaluate = report["movers"][1]
        assert evaluate["ratio"] == pytest.approx(3.4)
        assert evaluate["kind"] == "time"
        # a rate is a counter despite the _s suffix: its huge raw delta
        # (7e5 "seconds") must not bury the real time movers
        rate = next(m for m in report["movers"]
                    if m["metric"] == "kernel.interactions_per_s")
        assert rate["kind"] == "counter"
        assert movers.index("kernel.interactions_per_s") \
            > movers.index("tiny_span_s")

    def test_engine_change_note(self):
        a, b = self._recs()
        assert "engine changed: 'tree' -> 'treepm'" in attribute(a, b)["notes"]
        assert "engine changed: 'treepm' -> 'tree'" in attribute(b, a)["notes"]
        # a record written before the backend option was retired still diffs
        old = {"id": "old", "data": dict(a["data"], backend="numpy", backend_fallback="x")}
        assert attribute(old, a)["notes"] == []

    def test_appeared_and_vanished_metrics_noted(self):
        a = {"id": "a", "data": {"old_s": 1.0, "shared": 1.0}}
        b = {"id": "b", "data": {"new_s": 1.0, "shared": 1.0}}
        notes = attribute(a, b)["notes"]
        assert any("new in B: new_s" in n for n in notes)
        assert any("gone in B: old_s" in n for n in notes)

    def test_format_and_diff_cli(self, tmp_path, capsys):
        reg = _seed_registry(tmp_path)
        reg.record("simulation_run",
                   {"wall_per_step_s": 2.3, "wall_s": 23.0, "steps": 10,
                    "restarts": 1},
                   key="k")
        assert obs_main(["--dir", str(reg.root), "diff", "1", "-1"]) == 0
        out = capsys.readouterr().out
        assert "top movers (B vs A):" in out
        assert "wall_per_step_s" in out and "+2.30x" in out
        assert "note: metrics new in B: restarts" in out

    def test_quiet_when_nothing_moved(self):
        a = {"id": "a", "data": {"wall_s": 1.0}}
        b = {"id": "b", "data": {"wall_s": 1.001}}
        txt = format_attribution(attribute(a, b))
        assert "no metric moved beyond the noise floor" in txt


# ----- stream watch ------------------------------------------------------------


class TestWatch:
    def test_renders_known_events(self, tmp_path, capsys):
        from repro.observe.export import render_event, watch

        stream = tmp_path / "events.jsonl"
        with open(stream, "w") as fh:
            for rec in (
                {"type": "init_force", "a": 0.1, "wall": 1.5},
                {"type": "step", "step": 3, "a": 0.11, "dlna": 0.01,
                 "wall": 0.8, "interactions_per_particle": 950.0},
                {"type": "span", "path": "x", "seconds": 1.0},  # skipped
                {"type": "run_totals", "steps": 3, "wall_s": 4.1,
                 "partial": True},
            ):
                fh.write(json.dumps(rec) + "\n")
        buf = io.StringIO()
        n = watch(stream, buf, follow=False)
        out = buf.getvalue()
        assert n == 3  # the span record renders to nothing
        assert "init force" in out
        assert "step    3" in out
        assert "[PARTIAL]" in out
        assert render_event({"type": "metrics"}) is None

    def test_watch_cli_once(self, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        stream.write_text(json.dumps({"type": "checkpoint", "step": 5,
                                      "path": "ck.sdf"}) + "\n")
        assert obs_main(["watch", str(stream), "--once"]) == 0
        assert "checkpoint step 5" in capsys.readouterr().out
        assert obs_main(["watch", str(tmp_path / "empty.jsonl"),
                         "--once"]) == 0
        assert "no renderable events" in capsys.readouterr().out


# ----- concurrent multi-process appends (ISSUE 9 satellite) ---------------------


class TestConcurrentAppends:
    def test_parallel_writers_never_tear_records(self, tmp_path):
        """N processes hammering one registry concurrently must leave
        N x M whole, parseable records — the O_APPEND single-write
        contract the job-service journal inherits.  A writer may put an
        empty line before its record (see ``RunRegistry.record``)."""
        import subprocess
        import sys

        n_procs, n_recs = 6, 40
        root = tmp_path / "obs"
        script = (
            "import sys\n"
            "from repro.observe import RunRegistry\n"
            "reg = RunRegistry(sys.argv[1])\n"
            "w = int(sys.argv[2])\n"
            "for i in range(int(sys.argv[3])):\n"
            "    reg.record('stress', {'writer': w, 'i': i,"
            " 'pad': 'x' * 256}, key=f'k{w}')\n"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(root),
                              str(w), str(n_recs)])
            for w in range(n_procs)
        ]
        assert all(p.wait(timeout=120) == 0 for p in procs)

        reg = RunRegistry(root)
        # every non-blank line parses: no torn or interleaved writes at all
        lines = [ln for ln in reg.path.read_text().splitlines() if ln.strip()]
        assert len(lines) == n_procs * n_recs
        parsed = [json.loads(line) for line in lines]
        assert all(rec["data"]["pad"] == "x" * 256 for rec in parsed)
        # every (writer, i) pair arrived exactly once
        seen = {(rec["data"]["writer"], rec["data"]["i"]) for rec in parsed}
        assert len(seen) == n_procs * n_recs
        # ids are unique and the query API agrees
        assert len({rec["id"] for rec in parsed}) == n_procs * n_recs
        assert len(reg.records(kind="stress")) == n_procs * n_recs

    def test_tracer_sinks_in_two_processes_share_one_trace(self, tmp_path):
        """Two processes tracing into one file: each record is one
        ``O_APPEND`` write, so no record of one tears a record of the
        other (a writer may put an empty line before its first record)."""
        import subprocess
        import sys

        n_recs = 300
        path = tmp_path / "trace.jsonl"
        script = (
            "import sys\n"
            "from repro.observe import Tracer\n"
            "tr = Tracer(sink=sys.argv[1])\n"
            "for i in range(int(sys.argv[3])):\n"
            "    with tr.span('work'):\n"
            "        tr.emit({'type': 'stress', 'writer': int(sys.argv[2]), 'i': i,"
            " 'pad': 'x' * 512})\n"
            "tr.close()\n"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(path), str(w), str(n_recs)])
            for w in range(2)
        ]
        assert all(p.wait(timeout=120) == 0 for p in procs)
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        parsed = [json.loads(line) for line in lines]
        assert len(parsed) == 2 * (2 * n_recs + 1)
        stress = {(r["writer"], r["i"]) for r in parsed if r["type"] == "stress"}
        assert len(stress) == 2 * n_recs
        assert all(r["pad"] == "x" * 512 for r in parsed if r["type"] == "stress")
        assert sum(r["type"] == "span" for r in parsed) == 2 * n_recs
        assert sum(r["type"] == "metrics" for r in parsed) == 2
