#!/usr/bin/env python3
"""A/B the whole-step benchmark between a revision and the working tree::

    python tools/ab_step.py REV [--workloads clustered_hier_w2,clustered_hier]
        [--pairs 10] [--seeds 1,13] [--traced 5] [--out receipt.json] [--scratch DIR]

Copies REV (``git archive``) and the working tree (its tracked and
untracked, not ignored, files) into two fresh directories and runs
``benchmarks/step/run.py --workload W --seed S --trace 0`` in each, in
alternating pairs: pair i runs REV first when i is even and the working
tree first when it is odd, so a slow spell of the host costs both sides
alike.  Children run with ``PYTHONDONTWRITEBYTECODE=1``, so neither side
reads bytecode the other did not compile.  ``--traced`` more pairs a
workload and seed (default 5: one traced run is one sample, not a
median) run with ``--trace 1`` and give both sides' per-layer medians.

For every workload and seed it prints each end-to-end metric's median
and quartiles on both sides and the working tree's wins, and says
whether a gain is claimable: ahead in at least 9 of 10 pairs (the same
share of any count) with medians apart by more than REV's interquartile
range.  It compares the state hashes of every common step between the
sides, and with the workload's ``same_state_as`` workload when that one
ran too.  Over the traced pairs it also says whether the exact counts
(the per-layer metrics ``BENCHMARK.json`` gives the unit ``count``) are
equal; that is reported, not gated, since a change may mean to move
them.  Everything goes into one JSON receipt (``--out``).  Exits 1
when a run failed a check or a state hash differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
#: (metric, better) of ``run.py``'s end-to-end record
METRICS = (("step_wall_s", "lower"), ("setup_s", "lower"), ("force_ok_frac", "higher"))
CLAIM_SHARE = 0.9


def git(*args: str, repo: Path = REPO) -> str:
    return subprocess.run(("git", *args), cwd=repo, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path, repo: Path = REPO) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(("git", "archive", rev), cwd=repo, check=True, capture_output=True)
    subprocess.run(("tar", "-x", "-C", str(dest)), input=archive.stdout, check=True)


def make_trees(rev: str, root: Path, repo: Path = REPO) -> dict:
    """``root/base`` from ``rev`` of ``repo``; ``root/head`` from its working tree."""
    base, head = root / "base", root / "head"
    extract(rev, base, repo)
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                    repo=repo).split("\0"):
        src = repo / name
        if name and src.is_file():
            (head / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, head / name)
    return {"base": base, "head": head}


def run_step(tree: Path, workload: str, seed: int, trace: int, out: Path) -> dict:
    """One ``run.py --workload`` run in ``tree``; its ``--out`` record."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "benchmarks/step/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(base: list[float], head: list[float], better: str) -> dict:
    """Both sides' quartiles, head's wins, and whether a gain is claimable."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    qb, qh = quartiles(base), quartiles(head)
    gain = sign * (qb["median"] - qh["median"])
    return {
        "base": qb,
        "head": qh,
        "change": qh["median"] / qb["median"] - 1.0 if qb["median"] else 0.0,
        "wins": wins,
        "pairs": len(base),
        "claimable": wins >= CLAIM_SHARE * len(base) and gain > qb["iqr"],
    }


def layer_medians(base: list[dict], head: list[dict]) -> dict:
    """``{metric: [base median, head median]}`` over the traced runs, for
    every per-layer metric whose medians differ."""
    out = {}
    for key in sorted(set().union(*base, *head)):
        b, h = ([r[key] for r in side if r.get(key) is not None] for side in (base, head))
        if b and h and statistics.median(b) != statistics.median(h):
            out[key] = [statistics.median(b), statistics.median(h)]
    return out


def count_metrics(tree: Path) -> set[str]:
    """The per-layer metrics ``tree``'s ``BENCHMARK.json`` counts in unit ``count``."""
    doc = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc["per_layer"] if m["unit"] == "count"}


def counts_equal(base: list[dict], head: list[dict], names) -> bool | None:
    """Whether both sides' traced runs give the same values of every
    metric in ``names``; ``None`` without a traced pair."""
    if not base or not head:
        return None
    return all(Counter(r.get(k) for r in base) == Counter(r.get(k) for r in head)
               for k in names)


def same_prefix(a: list[str], b: list[str]) -> bool:
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


def same_state_as(tree: Path) -> dict:
    """``{workload: the workload it must evolve the state of}`` in ``tree``."""
    path = tree / "benchmarks" / "step" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_ab_workloads", path)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return {name: w.same_state_as for name, w in mod.WORKLOADS.items()}


def ab(trees: dict, workloads: list[str], seeds: list[int], pairs: int, traced: int,
       scratch: Path, runner=run_step, counts=()) -> dict:
    """Run the pairs; the receipt's ``results`` and whether every run held.
    ``counts`` names the exact per-layer counts :func:`counts_equal` compares."""
    results, ok = {}, True
    out = scratch / "run.json"
    for seed in seeds:
        for name in workloads:
            runs = {side: [] for side in SIDES}
            for i in range(pairs + traced):
                trace = int(i >= pairs)
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    rec = runner(trees[side], name, seed, trace, out)
                    ok &= rec["failed"] == 0
                    runs[side].append({
                        "trace": trace,
                        "first": side == order[0],
                        "failed": rec["failed"],
                        "end_to_end": rec.get("end_to_end"),
                        "per_layer": rec.get("per_layer"),
                        "state_hashes": (rec.get("untraced") or {}).get("state_hashes", []),
                    })
            plain = {side: [r for r in runs[side] if not r["trace"]] for side in SIDES}
            hashes = [r["state_hashes"] for side in SIDES for r in plain[side]]
            layers = [[r["per_layer"] for r in runs[side] if r["trace"]] for side in SIDES]
            entry = {
                "summary": {
                    metric: summarize(*([r["end_to_end"][metric] for r in plain[side]]
                                        for side in SIDES), better)
                    for metric, better in METRICS
                },
                "layers": layer_medians(*layers),
                "state_equal": all(same_prefix(hashes[0], h) for h in hashes),
                "counts_equal": counts_equal(*layers, counts),
                "runs": runs,
            }
            ok &= entry["state_equal"]
            results.setdefault(str(seed), {})[name] = entry
    return {"results": results, "ok": ok}


def cross_state(results: dict, twins: dict) -> dict:
    """Whether each workload's head hashes match its ``same_state_as`` workload's."""
    out = {}
    for seed, by_name in results.items():
        for name, entry in by_name.items():
            twin = by_name.get(twins.get(name) or "")
            if twin is None:
                continue
            mine = [r["state_hashes"] for r in entry["runs"]["head"] if not r["trace"]]
            theirs = [r["state_hashes"] for r in twin["runs"]["head"] if not r["trace"]]
            out[f"{name}@{seed}"] = {"as": twins[name], "identical": all(
                same_prefix(a, b) for a in mine for b in theirs)}
    return out


def report(receipt: dict) -> str:
    lines = [f"base {receipt['base']}  head {receipt['head']}"]
    for seed, by_name in receipt["results"].items():
        for name, entry in by_name.items():
            lines.append(f"== {name}  seed {seed}  state equal: {entry['state_equal']}  "
                         f"counts equal: {entry['counts_equal']}")
            for metric, s in entry["summary"].items():
                b, h = s["base"], s["head"]
                lines.append(
                    f"  {metric:<14} {b['median']:.4f} [{b['q1']:.4f}, {b['q3']:.4f}] -> "
                    f"{h['median']:.4f} [{h['q1']:.4f}, {h['q3']:.4f}]  {s['change']:+.1%}  "
                    f"wins {s['wins']}/{s['pairs']}  claimable: {s['claimable']}")
            if entry["layers"]:
                traced = sum(r["trace"] for r in entry["runs"]["base"])
                lines.append(f"  per-layer medians that differ over {traced} traced pair(s)")
            for key, (vb, vh) in entry["layers"].items():
                lines.append(f"    {key:<36} {vb:.6g} -> {vh:.6g}")
    for key, c in receipt["same_state"].items():
        lines.append(f"{key}: state identical to {c['as']}: {c['identical']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the revision to compare the working tree against")
    ap.add_argument("--workloads", default="clustered_hier_w2")
    ap.add_argument("--pairs", type=int, default=10, help="untraced pairs a workload and seed")
    ap.add_argument("--seeds", default="1,13")
    ap.add_argument("--traced", type=int, default=5, help="traced pairs a workload and seed")
    ap.add_argument("--out", help="write the JSON receipt here")
    ap.add_argument("--scratch", help="make the two trees under this directory (default: temp)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    scratch = Path(tempfile.mkdtemp(prefix="ab_step-", dir=args.scratch))
    try:
        trees = make_trees(args.rev, scratch)
        run = ab(trees, workloads, seeds, args.pairs, args.traced, scratch,
                 counts=count_metrics(trees["head"]))
        twins = same_state_as(trees["head"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    receipt = {
        "tool": "tools/ab_step.py",
        "base": git("rev-parse", args.rev),
        "head": f"working tree on {git('rev-parse', 'HEAD')}",
        "host": {"platform": platform.platform(), "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "workloads": workloads,
        "seeds": seeds,
        "pairs": args.pairs,
        "traced": args.traced,
        **run,
    }
    receipt["same_state"] = cross_state(receipt["results"], twins)
    receipt["ok"] = run["ok"] and all(c["identical"] for c in receipt["same_state"].values())
    print(report(receipt))
    if args.out:
        Path(args.out).write_text(json.dumps(receipt, indent=1) + "\n")
    return 0 if receipt["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
