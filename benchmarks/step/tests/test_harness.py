"""Harness tests of the whole-step benchmark (``pytest benchmarks/step/tests``).

They exercise the benchmark's own machinery on ``--quick`` inputs — the
registered names, input determinism, span accounting, the missing-entry
fallback and ``compare.py``'s verdicts — never the full-size numbers.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

STEP = Path(__file__).resolve().parents[1]
ROOT = STEP.parents[1]
for p in (str(ROOT / "src"), str(STEP)):
    if p not in sys.path:
        sys.path.insert(0, p)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_py(*args, cwd=ROOT, script=STEP / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_registered_names_match_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/step"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert "setup_s" in {m["name"] for m in doc["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


@pytest.mark.parametrize("inputs", ["early", "clustered"])
def test_inputs_follow_the_seed(inputs):
    n = workloads.QUICK_N_PER_DIM
    h = [workloads.input_hash(workloads.make_inputs(inputs, n, seed)) for seed in (3, 3, 4)]
    assert h[0] == h[1] != h[2]


def test_clump_spectrum_is_seed_independent_and_complete():
    sizes = workloads.clump_sizes(700)
    assert sizes.sum() == 700 and (sizes[:-1] >= sizes[1:]).all() and sizes.min() > 0


@pytest.fixture(scope="module")
def quick_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    records = {}
    for trace in (0, 1):
        path = out / f"t{trace}.json"
        done = run_py("--workload", "early_hier", "--quick", "--trace", str(trace), "--out", str(path))
        assert done.returncode == 0, done.stderr
        records[trace] = (json.loads(done.stdout.strip().splitlines()[-1]), json.loads(path.read_text()))
    return records


def test_driver_line_has_exactly_the_registered_metrics(quick_records):
    for trace, expected in ((0, [m[0] for m in run.END_TO_END]), (1, [m[0] for m in layers.PER_LAYER])):
        line, full = quick_records[trace]
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert list(line["metrics"]) == expected
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert full["mode"] == "quick"


def test_quick_trace_closes_and_misses_nothing(quick_records):
    _, full = quick_records[1]
    assert full["trace_missing"] == []
    assert full["per_layer"]["step.attributed_frac"] >= 0.97
    assert 0 < full["per_layer"]["trace.overhead_frac"] <= 0.05
    assert full["per_layer"]["gravity.m2l_calls"] == 0
    assert full["per_layer"]["tree.build_calls"] == 1
    assert all(c["failed"] == 0 for c in full["checks"].values())


def test_a_renamed_entry_point_reads_null_and_fails_only_the_traced_line(monkeypatch):
    table = tuple(
        (m, "build_tree_renamed" if span == "tree.build" else a, span) for m, a, span in layers.LAYERS
    )
    monkeypatch.setattr(layers, "LAYERS", table)
    args = argparse.Namespace(workload="early_hier", seed=1, seconds=1.0, trace=1, quick=True)
    result = run.measure(args)
    metrics = result["per_layer"]
    assert metrics["tree.build_s"] is None and metrics["tree.build_calls"] is None
    assert any(line.startswith("tree.build:") for line in result["trace_missing"])
    assert metrics["tree.moments_calls"] == 1 and metrics["gravity.evaluate_self_s"] > 0
    # the run itself went through; only the completeness check says no
    failed = {name for name, c in result["checks"].items() if c["failed"]}
    assert failed == {"trace_complete"}
    line = json.loads(run.contract_line(result))
    assert line["correct"] is False and line["metrics"]["tree.build_s"]["value"] == 0
    # the originals are back once the recorder is gone
    import repro.gravity.solver as solver

    assert not hasattr(solver.build_tree, "__wrapped__")


def session_members(sid: int) -> list[str]:
    """``pid state`` of every process, zombies included, whose session is ``sid``."""
    out = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == sid:
                out.append(f"{entry.name} {fields[0]}")
    return out


def test_a_run_with_a_worker_pool_leaves_no_process_behind():
    # the pool's shared memory starts multiprocessing's resource tracker, which
    # ends on its own only after the process that started it
    done = subprocess.Popen(
        [sys.executable, str(STEP / "run.py"), "--workload", "clustered_hier_w2", "--quick",
         "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, _ = done.communicate(timeout=300)
    assert done.returncode == 0 and json.loads(stdout.strip().splitlines()[-1])["correct"]
    assert session_members(done.pid) == []


def test_times_are_stated_at_the_reference_pace(quick_records):
    import pace

    assert run.at_reference_pace(3.0, [0.25, 0.1, 0.3]) == 3.0 * pace.REFERENCE_S / 0.25
    _, full = quick_records[0]
    steps = full["untraced"]
    assert len(steps["paces"]) == steps["steps"] + 1 and min(steps["paces"]) > 0
    by_step = [
        run.at_reference_pace(w, steps["paces"][i:i + 2]) for i, w in enumerate(steps["step_walls"])
    ]
    assert full["end_to_end"]["step_wall_s"] == pytest.approx(statistics.median(by_step))
    assert len(full["setups"]) == run.SETUPS and all(len(s["paces"]) >= 2 for s in full["setups"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(STEP, tmp_path / "benchmarks" / "step", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_py("--workload", "early_hier", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "benchmarks" / "step" / "run.py")
    assert done.returncode != 0 and "{" not in done.stdout


# ----- compare.py on hand-made reports ----------------------------------------------

def report(values, failed=0, mac_tests=1000):
    return {
        "mode": "full",
        "seconds": 20,
        "seed": 1,
        "end_to_end": [{"name": "step_wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "exact": ["tree.traverse.mac_tests"],
        "workloads": {
            "w": {
                "attempted": [10] * len(values),
                "failed": [failed] * len(values),
                "end_to_end": {"step_wall_s": list(values)},
                "summary": {"step_wall_s": run.quartiles(list(values))},
                "per_layer": {"tree.traverse.mac_tests": [mac_tests] * len(values)},
            }
        },
    }


STEADY = [1.00, 1.01, 0.99, 1.02, 0.98]


@pytest.mark.parametrize(
    "b_values, b_failed, expected, problems",
    [
        ([1.03, 1.04, 1.02, 1.05, 1.01], 0, "ok", 0),
        ([1.20, 1.21, 1.19, 1.22, 1.18], 0, "regressed", 1),
        ([0.80, 1.30, 1.00, 1.25, 0.85], 0, "unresolved", 0),
        ([0.50, 0.90, 0.55, 0.95, 0.60], 0, "ok", 0),  # wide, but every run beats A
        ([1.00, 1.01, 0.99, 1.02, 0.98], 1, "ok", 1),  # same speed, more failures
    ],
)
def test_compare_verdicts(b_values, b_failed, expected, problems):
    rows, found, notes = compare.compare(report(STEADY), report(b_values, b_failed))
    assert [r["verdict"] for r in rows] == [expected]
    assert len(found) == problems
    assert notes == ["w: exact counts identical"]


def test_compare_pairs_what_repeats_exactly():
    p90 = {"name": "force_err_p90", "unit": "ratio", "better": "lower", "bound": 0.1, "slack": 0.05}

    def with_p90(value, mac_tests):
        doc = report(STEADY, mac_tests=mac_tests)
        doc["end_to_end"].append(p90)
        doc["workloads"]["w"]["end_to_end"]["force_err_p90"] = [value] * len(STEADY)
        doc["workloads"]["w"]["summary"]["force_err_p90"] = run.quartiles([value] * len(STEADY))
        return doc

    # 0.02 -> 0.06 is inside 10% + 0.05 absolute; 0.02 -> 0.08 is not
    for b_value, expected in ((0.06, "ok"), (0.08, "regressed")):
        rows, _, notes = compare.compare(with_p90(0.02, 1000), with_p90(b_value, 900))
        assert [r["verdict"] for r in rows] == ["ok", expected]
        assert notes == ["w: exact counts tree.traverse.mac_tests 1000 -> 900"]
    unsteady = with_p90(0.02, 1000)
    unsteady["workloads"]["w"]["per_layer"]["tree.traverse.mac_tests"][0] = 999
    assert "NOT REPEATABLE" in compare.compare(unsteady, unsteady)[2][-1]


def test_compare_refuses_quick_reports_and_other_seeds(tmp_path):
    for key, value in (("mode", "quick"), ("seed", 2)):
        b = report(STEADY)
        b[key] = value
        (tmp_path / "a.json").write_text(json.dumps(report(STEADY)))
        (tmp_path / "b.json").write_text(json.dumps(b))
        assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
