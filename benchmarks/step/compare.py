#!/usr/bin/env python3
"""Compare two ``run.py --out`` reports of one seed: parent A against change B.

For every workload both reports hold and every end-to-end metric, prints
both medians, the change, the metric's bound and a verdict:

* ``ok``          the median of B is no worse than A's by more than the bound;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  the run-to-run spread of either side (quartile distance
  over median) is wider than the bound, so the medians cannot settle it —
  unless every run of B reads better than every run of A, which is ``ok``.

Both reports repeat one seed, so what repeats exactly for a seed is
compared exactly: the failed operations, ``force_err_p90`` (spread 0, so
never ``unresolved``) and the exact per-layer counts, whose changes are
listed by name.  A count that differs between two runs *within* one
report is flagged: the benchmark, not the change, is then at fault.

Exits 1 when any pairing regressed or B failed a larger share of its
operations than A, 2 when the reports cannot be compared at all.
"""

from __future__ import annotations

import argparse
import json
import sys


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B's value is than A's, as a share of A's."""
    return (b - a) / a if better == "lower" else (a - b) / a


def spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def verdict(a_runs, b_runs, a_sum, b_sum, spec: dict) -> str:
    better, bound = spec["better"], spec["bound"]
    if better == "lower":
        all_better = max(b_runs) < min(a_runs)
    else:
        all_better = min(b_runs) > max(a_runs)
    if all_better:
        return "ok"
    if max(spread(a_sum), spread(b_sum)) > bound:
        return "unresolved"
    a, b = a_sum["median"], b_sum["median"]
    # ``slack`` is the absolute part of a bound: a tiny value may move by it
    allowed = bound + spec.get("slack", 0.0) / abs(a)
    return "regressed" if worse_by(a, b, better) > allowed else "ok"


def failed_share(entry: dict) -> float:
    return sum(entry["failed"]) / max(sum(entry["attempted"]), 1)


def exact_changes(names, a_entry: dict, b_entry: dict) -> tuple[list[str], list[str]]:
    """(counts that differ between A and B, counts that differ within a report)."""
    changed, unsteady = [], []
    for name in names:
        a_vals, b_vals = set(a_entry["per_layer"][name]), set(b_entry["per_layer"][name])
        if len(a_vals) > 1 or len(b_vals) > 1:
            unsteady.append(name)
        elif a_vals != b_vals:
            changed.append(f"{name} {a_vals.pop()} -> {b_vals.pop()}")
    return changed, unsteady


def compare(a: dict, b: dict) -> tuple[list[dict], list[str], list[str]]:
    """(one row per workload x metric, problems that make the exit non-zero, notes)."""
    rows, problems, notes = [], [], []
    for name, a_entry in a["workloads"].items():
        b_entry = b["workloads"].get(name)
        if b_entry is None:
            continue
        for spec in a["end_to_end"]:
            metric = spec["name"]
            a_sum, b_sum = a_entry["summary"][metric], b_entry["summary"][metric]
            row = {
                "workload": name,
                "metric": metric,
                "unit": spec["unit"],
                "a": a_sum["median"],
                "b": b_sum["median"],
                "worse_by": worse_by(a_sum["median"], b_sum["median"], spec["better"]),
                "spread": max(spread(a_sum), spread(b_sum)),
                "bound": spec["bound"],
                "verdict": verdict(
                    a_entry["end_to_end"][metric], b_entry["end_to_end"][metric], a_sum, b_sum, spec
                ),
            }
            rows.append(row)
            if row["verdict"] == "regressed":
                problems.append(f"{name} {metric} regressed by {row['worse_by']:+.1%}")
        fa, fb = failed_share(a_entry), failed_share(b_entry)
        if fb > fa:
            problems.append(f"{name} failed share rose from {fa:.2%} to {fb:.2%}")
        changed, unsteady = exact_changes(a.get("exact", ()), a_entry, b_entry)
        notes.append(f"{name}: exact counts " + ("; ".join(changed) if changed else "identical"))
        if unsteady:
            notes.append(f"{name}: NOT REPEATABLE within a report: " + ", ".join(unsteady))
    return rows, problems, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="report of the parent commit")
    ap.add_argument("b", help="report of the change")
    args = ap.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["mode"] != b["mode"] or "quick" in (a["mode"], b["mode"]):
        print(f"compare.py: modes {a['mode']!r} and {b['mode']!r} are not comparable "
              "(quick reports never are)", file=sys.stderr)
        return 2
    if any(a[key] != b[key] for key in ("end_to_end", "seconds", "seed")):
        print("compare.py: the reports differ in seed or benchmark settings", file=sys.stderr)
        return 2
    rows, problems, notes = compare(a, b)
    if not rows:
        print("compare.py: the reports share no workload", file=sys.stderr)
        return 2
    print(f"{'workload':<18} {'metric':<14} {'A':>11} {'B':>11} {'worse by':>9} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:<18} {r['metric']:<14} {r['a']:>11.5g} {r['b']:>11.5g} "
              f"{r['worse_by']:>+9.1%} {r['spread']:>7.1%} {r['bound']:>6.0%}  {r['verdict']}")
    for note in notes:
        print(note)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
