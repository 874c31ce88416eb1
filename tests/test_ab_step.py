"""``tools/ab_step.py``: alternating pairs, their summary and the state
comparison, driven by a fake runner in place of ``benchmarks/step/run.py``."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("ab_step", TOOLS / "ab_step.py")
ab_step = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_step)


class FakeRunner:
    """Stands in for ``run_step``: the head side is 10 % faster, except
    in the pairs listed in ``slow_pairs``, and every run reaches the
    same states unless ``bad_hash`` names a (side, run) to corrupt."""

    def __init__(self, slow_pairs=(), bad_hash=None):
        self.calls = []
        self.slow_pairs = set(slow_pairs)
        self.bad_hash = bad_hash

    def __call__(self, tree, workload, seed, trace, out):
        side = tree
        i = sum(1 for c in self.calls if c[:3] == (side, workload, seed))
        self.calls.append((side, workload, seed, trace))
        wall = 0.30 + 0.001 * i
        if side == "head" and i not in self.slow_pairs:
            wall *= 0.9
        hashes = [f"{seed}-{k}" for k in range(3 + i % 2)]
        if self.bad_hash == (side, i):
            hashes[1] = "corrupt"
        return {
            "failed": 0,
            "end_to_end": {"step_wall_s": wall, "setup_s": 0.4, "force_ok_frac": 1.0},
            "per_layer": {"parallel.n_shards": 8 if side == "base" else 2,
                          "tree.build.n_cells": 73} if trace else None,
            "untraced": None if trace else {"state_hashes": hashes},
        }


TREES = {"base": "base", "head": "head"}


def test_pairs_alternate_and_traced_pairs_come_last(tmp_path):
    runner = FakeRunner()
    ab_step.ab(TREES, ["w"], [1, 13], 4, 1, tmp_path, runner=runner)
    sides = [c[0] for c in runner.calls]
    # base first in even pairs, head first in odd ones; seed by seed
    assert sides == (["base", "head", "head", "base"] * 2 + ["base", "head"]) * 2
    assert [c[2] for c in runner.calls] == [1] * 10 + [13] * 10
    assert [c[3] for c in runner.calls] == ([0] * 8 + [1] * 2) * 2


def test_summary_wins_quartiles_and_claim(tmp_path):
    run = ab_step.ab(TREES, ["w"], [1], 10, 0, tmp_path, runner=FakeRunner())
    entry = run["results"]["1"]["w"]
    wall = entry["summary"]["step_wall_s"]
    assert wall["wins"] == 10 and wall["pairs"] == 10
    assert wall["base"]["median"] == pytest.approx(0.3045)
    assert wall["head"]["median"] == pytest.approx(0.9 * 0.3045)
    assert wall["change"] == pytest.approx(-0.1)
    assert wall["claimable"]
    # a tie is not a win, and nothing moved is nothing to claim
    setup = entry["summary"]["setup_s"]
    assert setup["wins"] == 0 and not setup["claimable"]
    assert entry["state_equal"] and run["ok"]


def test_one_lost_pair_in_ten_still_claims_two_do_not(tmp_path):
    one = ab_step.ab(TREES, ["w"], [1], 10, 0, tmp_path, runner=FakeRunner(slow_pairs={3}))
    two = ab_step.ab(TREES, ["w"], [1], 10, 0, tmp_path, runner=FakeRunner(slow_pairs={3, 6}))
    assert one["results"]["1"]["w"]["summary"]["step_wall_s"]["wins"] == 9
    assert one["results"]["1"]["w"]["summary"]["step_wall_s"]["claimable"]
    assert two["results"]["1"]["w"]["summary"]["step_wall_s"]["wins"] == 8
    assert not two["results"]["1"]["w"]["summary"]["step_wall_s"]["claimable"]


def test_gain_inside_the_base_spread_is_not_claimable():
    base = [0.30, 0.40, 0.30, 0.40, 0.30, 0.40, 0.30, 0.40]
    head = [b - 0.01 for b in base]
    s = ab_step.summarize(base, head, "lower")
    assert s["wins"] == 8 and s["base"]["iqr"] == pytest.approx(0.1)
    assert not s["claimable"]
    assert ab_step.summarize([0.9] * 4, [1.0] * 4, "higher")["wins"] == 4


def test_a_differing_state_hash_fails_the_receipt(tmp_path):
    run = ab_step.ab(TREES, ["w"], [1], 3, 0, tmp_path, runner=FakeRunner(bad_hash=("head", 2)))
    assert not run["results"]["1"]["w"]["state_equal"]
    assert not run["ok"]


def test_same_state_as_compares_head_hashes_across_workloads(tmp_path):
    run = ab_step.ab(TREES, ["w2", "w"], [1], 2, 0, tmp_path, runner=FakeRunner())
    assert ab_step.cross_state(run["results"], {"w2": "w", "w": None}) == {
        "w2@1": {"as": "w", "identical": True}
    }


def test_report_names_traced_differences(tmp_path):
    run = ab_step.ab(TREES, ["w"], [1], 2, 3, tmp_path, runner=FakeRunner())
    assert run["results"]["1"]["w"]["layers"] == {"parallel.n_shards": [8, 2]}
    text = ab_step.report({"base": "b", "head": "h", "same_state": {}, **run})
    assert "== w  seed 1  state equal: True" in text
    assert "wins 2/2" in text
    assert "per-layer medians that differ over 3 traced pair(s)" in text
    assert "parallel.n_shards" in text and "8 -> 2" in text


def test_counts_equal_is_reported_and_does_not_gate(tmp_path):
    counts = ab_step.count_metrics(TOOLS.parent)
    assert {"parallel.n_shards", "tree.build.n_cells", "tree.traverse.mac_tests"} <= counts
    assert not counts & {"step_wall_s", "tree.build_s", "tree.traverse.accept_ratio"}
    same = ab_step.ab(TREES, ["w"], [1], 2, 2, tmp_path, runner=FakeRunner(),
                      counts={"tree.build.n_cells"})
    assert same["results"]["1"]["w"]["counts_equal"] is True
    moved = ab_step.ab(TREES, ["w"], [1], 2, 2, tmp_path, runner=FakeRunner(), counts=counts)
    assert moved["results"]["1"]["w"]["counts_equal"] is False and moved["ok"]
    text = ab_step.report({"base": "b", "head": "h", "same_state": {}, **moved})
    assert "state equal: True  counts equal: False" in text
    untraced = ab_step.ab(TREES, ["w"], [1], 2, 0, tmp_path, runner=FakeRunner(), counts=counts)
    assert untraced["results"]["1"]["w"]["counts_equal"] is None


def test_layer_medians_skip_equal_and_unmeasured_rows():
    base = [{"a": 1.0, "b": 5, "c": None}, {"a": 3.0, "b": 5, "c": None}]
    head = [{"a": 1.0, "b": 5, "c": 2.0}, {"a": 1.0, "b": 5, "c": 2.0}]
    assert ab_step.layer_medians(base, head) == {"a": [2.0, 1.0]}


def test_trees_are_rev_and_working_tree_without_bytecode(tmp_path):
    """On a throwaway repository: ``base`` is the commit, ``head`` the
    working tree with its untracked file, neither an ignored file."""
    repo, run = tmp_path / "repo", Path("benchmarks", "step", "run.py")
    (repo / run).parent.mkdir(parents=True)
    (repo / run).write_text("committed")
    (repo / ".gitignore").write_text("__pycache__/\n")
    git = ("git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo))
    for args in (("init", "-q"), ("add", "-A"), ("commit", "-q", "-m", "base")):
        subprocess.run((*git, *args), check=True)
    (repo / run).write_text("edited")
    (repo / "new.py").write_text("untracked")
    (repo / run.parent / "__pycache__").mkdir()
    (repo / run.parent / "__pycache__" / "run.pyc").write_bytes(b"")
    trees = ab_step.make_trees("HEAD", tmp_path / "trees", repo=repo)
    assert [(trees[side] / run).read_text() for side in ("base", "head")] == ["committed", "edited"]
    assert [(trees[side] / "new.py").exists() for side in ("base", "head")] == [False, True]
    assert not list(tmp_path.joinpath("trees").rglob("__pycache__"))


def test_same_state_as_is_read_from_the_tree_s_workloads():
    assert ab_step.same_state_as(ab_step.REPO)["clustered_hier_w2"] == "clustered_hier"
