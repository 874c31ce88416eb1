"""``repro-obs``: the one observability CLI over the repo's JSONL files.

One run's trace or benchmark receipt:

* ``repro-obs report trace.jsonl`` — per-step health timeline plus the
  run summary and stage totals;
* ``repro-obs gate trace.jsonl`` — exit 1 if the trace holds a health
  event at (or above) ``--severity``; ``repro-obs gate BENCH_*.json``
  judges a receipt against its own embedded ``gates`` (exit 1 on a
  failed bound) — the CI tripwires.

The persistent run registry (``--dir``, else ``REPRO_OBS_DIR``, else
``.repro_obs``):

* ``repro-obs list`` — the run/bench history, newest last;
* ``repro-obs show <ref>`` — one record in full (ref = id prefix or
  1-based index, negative from the end);
* ``repro-obs timeline <ref>`` — ASCII worker lanes for a recorded
  run's force calls plus the compute/idle/recovery attribution and
  critical-path split;
* ``repro-obs top <ref>`` — per-stage hot functions from a profiled
  run;
* ``repro-obs trend <metric>`` — fit the last-N baseline with a noise
  band and judge the newest record (exit 2 on regression, printing
  what moved against the baseline);
* ``repro-obs export <ref>`` — Chrome trace-event JSON (worker lanes)
  and a speedscope flamegraph from a recorded run, or a span-stream
  trace via ``--spans trace.jsonl``;
* ``repro-obs diff <ref> <ref>`` — ranked regression attribution: the
  top moved spans/counters plus engine-change notes;
* ``repro-obs watch <path>`` — tail a running job's JSONL event stream.

Exit codes: 0 pass; 1 a tripped gate, a failed receipt bound or a
missing record; 2 a trend regression (and bad usage).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..diagnose.monitors import SEVERITIES
from .jsonl import read_jsonl
from .report import _fmt, _table, stage_breakdown_table
from .attribution import attribute, format_attribution
from .export import (
    chrome_trace_from_record,
    chrome_trace_from_spans,
    speedscope_from_record,
    watch,
)
from .registry import RunRegistry, metric_value, registry_dir
from .timeline import analyze_timeline, render_timeline
from .trend import DEFAULT_MIN_REL, DEFAULT_SIGMAS, DEFAULT_WINDOW, trend_report

__all__ = ["build_parser", "main"]


def _registry(args) -> RunRegistry:
    return RunRegistry(registry_dir(args.dir))


def _count(text: str) -> int:
    """A count argument: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# ----- one run's trace --------------------------------------------------------
def summary_from_trace(records: list[dict]) -> dict:
    """Health/perf summary of one run's JSONL trace."""
    steps = [r for r in records if r.get("type") == "step"]
    health = [r for r in records if r.get("type") == "health"]
    totals = next((r for r in records if r.get("type") == "run_totals"), {})
    summary: dict = {
        "steps": len(steps),
        "wall_s": float(totals.get("wall_s", sum(r.get("wall", 0.0) for r in steps))),
        "interactions_per_particle": float(totals.get(
            "interactions_per_particle",
            sum(r.get("interactions_per_particle", 0.0) for r in steps),
        )),
    }
    if steps:
        walls = [float(r.get("wall", 0.0)) for r in steps]
        summary["wall_per_step_s"] = sum(walls) / len(walls)
        summary["wall_step_max_s"] = max(walls)
        li = [float(r.get("layzer_irvine", 0.0)) for r in steps]
        scale = max(
            max(abs(float(r.get("kinetic", 0.0))) for r in steps),
            max(abs(float(r.get("potential", 0.0))) for r in steps),
            1e-30,
        )
        summary["li_drift_rel"] = max(abs(x - li[0]) for x in li) / scale
    for sev in SEVERITIES:
        summary[f"{sev}_events"] = sum(1 for r in health if r.get("severity") == sev)
    by_monitor: dict[str, float] = {}
    for r in health:
        v = r.get("value")
        if isinstance(v, (int, float)):
            name = r.get("monitor", "?")
            by_monitor[name] = max(by_monitor.get(name, 0.0), float(v))
    for name, v in sorted(by_monitor.items()):
        summary[f"health_{name}_max"] = v
    return summary


def stage_totals_from_trace(records: list[dict]) -> dict[str, float]:
    """Sum per-stage force seconds over every step (and the init force)."""
    totals: dict[str, float] = {}
    for r in records:
        if r.get("type") in ("step", "init_force"):
            for name, sec in (r.get("stage_seconds") or {}).items():
                totals[name] = totals.get(name, 0.0) + float(sec)
    return totals


def health_timeline(records: list[dict]) -> str:
    """One row per streamed health event, in trace order."""
    rows = []
    for r in records:
        if r.get("type") != "health":
            continue
        rows.append((
            r.get("step", "-"),
            round(float(r.get("a", 0.0)), 4),
            r.get("monitor", "?"),
            r.get("severity", "?").upper(),
            "-" if r.get("value") is None else f"{float(r['value']):.3e}",
            r.get("message", "")[:72],
        ))
    if not rows:
        return "=== Health timeline ===\n(no health events in trace)"
    return _table(
        "Health timeline",
        ["step", "a", "monitor", "severity", "value", "message"],
        rows,
    )


def judge_gates(summary: dict, gates: dict[str, dict]):
    """Judge a receipt's summary against its embedded ``{metric: {"min",
    "max"}}`` gates.

    Returns ``(failures, rows)`` where rows tabulate every gate and
    failures lists the metrics past their bound.
    """
    rows, failures = [], []
    for metric, rule in sorted(gates.items()):
        measured = summary.get(metric)
        if measured is None:
            rows.append((metric, "-", _bound_str(rule), "SKIP (not measured)"))
            continue
        ok = True
        if "max" in rule and float(measured) > float(rule["max"]):
            ok = False
        if "min" in rule and float(measured) < float(rule["min"]):
            ok = False
        rows.append((metric, f"{float(measured):.6g}", _bound_str(rule),
                     "ok" if ok else "FAIL"))
        if not ok:
            failures.append(metric)
    return failures, rows


def _bound_str(rule: dict) -> str:
    parts = []
    if "min" in rule:
        parts.append(f">= {float(rule['min']):.6g}")
    if "max" in rule:
        parts.append(f"<= {float(rule['max']):.6g}")
    return ", ".join(parts) or "(no bound)"


# ----- subcommands -------------------------------------------------------------
def _cmd_report(args) -> int:
    records = read_jsonl(args.trace)
    summary = summary_from_trace(records)
    print(health_timeline(records))
    print()
    rows = [(k, f"{v:.6g}" if isinstance(v, float) else v)
            for k, v in summary.items()]
    print(_table("Run health/perf summary", ["metric", "value"], rows))
    stages = stage_totals_from_trace(records)
    if stages:
        print()
        print(stage_breakdown_table(stages, title="Force stage totals"))
    return 0


def _cmd_gate(args) -> int:
    # benchmark receipts with embedded gates (e.g. BENCH_force.json)
    # are judged self-contained: summary vs. the receipt's own bounds
    try:
        doc = json.loads(Path(args.trace).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        doc = None
    if isinstance(doc, dict) and "gates" in doc:
        failures, rows = judge_gates(doc.get("summary", doc), doc["gates"])
        print(_table(f"Receipt gate {args.trace}",
                     ["metric", "measured", "bound", "status"], rows))
        if failures:
            print(f"\nGATE FAILED: {', '.join(failures)}", file=sys.stderr)
            return 1
        print("\ngate passed: all receipt bounds hold")
        return 0
    records = read_jsonl(args.trace)
    threshold = SEVERITIES.index(args.severity)
    tripped = [
        r for r in records
        if r.get("type") == "health"
        and r.get("severity") in SEVERITIES
        and SEVERITIES.index(r["severity"]) >= threshold
    ]
    print(health_timeline(records))
    if tripped:
        print(
            f"\nGATE FAILED: {len(tripped)} event(s) at severity"
            f" >= {args.severity}",
            file=sys.stderr,
        )
        return 1
    print(f"\ngate passed: no events at severity >= {args.severity}")
    return 0


def _cmd_list(args) -> int:
    reg = _registry(args)
    recs = reg.records(kind=args.kind, key=args.key)
    if not recs:
        print(f"(registry {reg.path} is empty)")
        return 0
    all_ids = {r.get("id"): i + 1 for i, r in enumerate(reg.records())}
    if args.n:
        recs = recs[-args.n:]
    rows = []
    for r in recs:
        d = r.get("data") or {}
        state = "partial" if d.get("partial") else "ok"
        rows.append((
            all_ids.get(r.get("id"), "-"),
            str(r.get("id", ""))[:20],
            r.get("kind", "?"),
            (r.get("t") or "")[:19],
            (r.get("key") or "")[:10],
            (r.get("git_commit") or "")[:8],
            _fmt(metric_value(r, "wall_s")),
            _fmt(d.get("steps")),
            state,
        ))
    print(_table(
        f"Registry {reg.path}",
        ["#", "id", "kind", "t", "key", "commit", "wall_s", "steps", "state"],
        rows,
    ))
    return 0


def _cmd_show(args) -> int:
    reg = _registry(args)
    rec = dict(reg.get(args.ref))
    data = dict(rec.get("data") or {})
    tl = data.get("timeline")
    if isinstance(tl, list) and tl and not args.full:
        data["timeline"] = f"({len(tl)} force-call event groups; " \
                           f"see `repro-obs timeline {rec.get('id')}`)"
    rec["data"] = data
    print(json.dumps(rec, indent=1, sort_keys=True, default=str))
    return 0


def _cmd_timeline(args) -> int:
    reg = _registry(args)
    rec = reg.get(args.ref)
    calls = (rec.get("data") or {}).get("timeline") or []
    if not calls:
        print("record carries no shard timeline (serial run, or workers=0)",
              file=sys.stderr)
        return 1
    idx = args.call if args.call is not None else len(calls)
    if not 1 <= idx <= len(calls):
        print(f"--call must be in 1..{len(calls)}", file=sys.stderr)
        return 1
    print(render_timeline(calls[idx - 1], width=args.width))
    summary = analyze_timeline(calls)
    rows = [
        (lab, lane["shards"], lane["compute_s"], lane["recovery_s"],
         lane["idle_s"], lane["traverse_s"], lane["evaluate_s"])
        for lab, lane in sorted(summary["lanes"].items())
    ]
    print()
    print(_table(
        f"Lane attribution over {summary['calls']} force call(s), "
        f"window {summary['wall_s']:.3f}s, imbalance {summary['imbalance']:.1%}",
        ["lane", "shards", "compute_s", "recovery_s", "idle_s",
         "traverse_s", "evaluate_s"],
        rows,
    ))
    crit = summary["critical"]
    if crit:
        total = sum(crit.values()) or 1.0
        parts = ", ".join(
            f"{lab} {sec / total:.0%}" for lab, sec in
            sorted(crit.items(), key=lambda kv: -kv[1])
        )
        print(f"\ncritical path (lane closing each call): {parts}")
    return 0


def _cmd_top(args) -> int:
    reg = _registry(args)
    rec = reg.get(args.ref)
    profile = (rec.get("data") or {}).get("profile") or {}
    stages = profile.get("stages") or {}
    if not stages:
        print("record carries no profile (run with REPRO_OBS_PROFILE=1 or "
              "Tracer(profile=True))", file=sys.stderr)
        return 1
    for name, st in stages.items():
        rows = [
            (h["function"], h["where"], h["calls"],
             _fmt(h["self_s"]), _fmt(h["cum_s"]))
            for h in (st.get("hot") or [])[:args.n]
        ]
        print(_table(
            f"Hot functions: stage {name} "
            f"({st.get('seconds', 0.0):.3f}s over {st.get('calls', 0)} entries)",
            ["function", "where", "calls", "self_s", "cum_s"],
            rows,
        ))
        print()
    mem = profile.get("memory")
    if mem:
        print(_table("Memory high-water", ["metric", "value"],
                     sorted(mem.items())))
    return 0


def _cmd_trend(args) -> int:
    reg = _registry(args)
    rep = trend_report(
        reg, args.metric, kind=args.kind, key=args.key,
        window=args.window, sigmas=args.sigmas, min_rel=args.min_rel,
        direction=args.direction,
    )
    rows = [
        (p["id"][:20] if p["id"] else "-", (p["t"] or "")[:19],
         p["git_commit"] or "-", _fmt(p["value"]))
        for p in rep["series"][-(args.window + 1):]
    ]
    print(_table(f"Trend: {args.metric}" + (f" [{args.kind}]" if args.kind else ""),
                 ["id", "t", "commit", "value"], rows))
    v = rep["verdict"]
    if v["status"] in ("no-data", "insufficient-history"):
        print(f"\n{v['status']}: {v.get('n_history', 0)} comparable run(s); "
              "nothing to judge")
        return 0
    print(
        f"\nbaseline (last {v['n_history']}): center {_fmt(v['center'])}, "
        f"noise band ±{_fmt(v['band'])} -> threshold {_fmt(v['threshold'])}"
    )
    if v["regression"]:
        print(
            f"REGRESSION: {args.metric} = {_fmt(v['value'])} "
            f"({v['ratio']:.2f}x baseline)", file=sys.stderr,
        )
        _print_trend_attribution(reg, rep, args.window)
        return 2
    print(f"ok: {args.metric} = {_fmt(v['value'])} "
          f"({v['ratio']:.2f}x baseline)")
    return 0


def _print_trend_attribution(registry, report, window: int) -> None:
    """Name what moved: diff the regressed record against the window
    predecessor closest to the baseline center.  A record it cannot
    resolve is reported, not raised: the trend verdict stands on its own."""
    points = report["series"]
    center = report["verdict"]["center"]
    ref = min(points[:-1][-window:], key=lambda p: abs(p["value"] - center))
    try:
        rec_a = registry.get(ref["id"])
        rec_b = registry.get(points[-1]["id"])
    except LookupError as exc:
        print(f"\n(no attribution: {exc})", file=sys.stderr)
        return
    print("\nattribution (baseline record -> regressed record):", file=sys.stderr)
    print(format_attribution(attribute(rec_a, rec_b)), file=sys.stderr)


def _cmd_export(args) -> int:
    if args.spans:
        trace = chrome_trace_from_spans(read_jsonl(args.spans))
    else:
        reg = _registry(args)
        rec = reg.get(args.ref)
        trace = chrome_trace_from_record(rec)
    with open(args.out, "w") as fh:
        json.dump(trace, fh)
    n = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    print(f"wrote {args.out}: {n} events "
          f"({len(trace['traceEvents'])} total incl. metadata/flows)")
    if args.speedscope:
        if args.spans:
            print("--speedscope needs a registry record, not --spans",
                  file=sys.stderr)
            return 1
        prof = speedscope_from_record(rec)
        with open(args.speedscope, "w") as fh:
            json.dump(prof, fh)
        print(f"wrote {args.speedscope}: {len(prof['profiles'])} stage "
              f"profile(s), {len(prof['shared']['frames'])} frames")
    return 0


def _cmd_diff(args) -> int:
    reg = _registry(args)
    a, b = reg.get(args.ref_a), reg.get(args.ref_b)
    report = attribute(a, b, top=args.top)
    print(format_attribution(report))
    return 0


def _cmd_watch(args) -> int:
    n = watch(args.path, sys.stdout, follow=not args.once, poll_s=args.poll)
    if args.once and n == 0:
        print(f"(no renderable events in {args.path})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro-obs",
        description="Render and gate run traces and benchmark receipts; "
                    "query and judge the persistent run/bench registry.",
    )
    ap.add_argument("--dir", default=None,
                    help="registry root (default: $REPRO_OBS_DIR or .repro_obs)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="health timeline + run summary of a trace")
    p.add_argument("trace", help="JSONL trace from a monitored run")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "gate",
        help="fail on health events at a severity, or judge a benchmark "
             "receipt (JSON with embedded 'gates') against its own bounds",
    )
    p.add_argument("trace", help="JSONL trace or benchmark receipt")
    p.add_argument("--severity", choices=SEVERITIES, default="error")
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("list", help="run/bench history, newest last")
    p.add_argument("--kind", default=None,
                   help="filter: simulation_run / pipeline_stage / bench")
    p.add_argument("--key", default=None, help="filter by config hash")
    p.add_argument("-n", type=_count, default=None, help="newest N only")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("show", help="one record in full")
    p.add_argument("ref", help="record id prefix or 1-based index (-1 = newest)")
    p.add_argument("--full", action="store_true",
                   help="include the raw per-shard timeline events")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("timeline", help="worker lanes + critical path for a run")
    p.add_argument("ref")
    p.add_argument("--call", type=int, default=None,
                   help="which force call to draw (default: the last)")
    p.add_argument("--width", type=int, default=64)
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser("top", help="hot functions from a profiled run")
    p.add_argument("ref")
    p.add_argument("-n", type=_count, default=15)
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("trend", help="fit last-N baseline, judge newest record")
    p.add_argument("metric", help="e.g. wall_s, wall_per_step_s, "
                                  "run_totals.interactions_per_particle")
    p.add_argument("--kind", default=None)
    p.add_argument("--key", default=None)
    p.add_argument("--window", type=_count, default=DEFAULT_WINDOW)
    p.add_argument("--sigmas", type=float, default=DEFAULT_SIGMAS)
    p.add_argument("--min-rel", type=float, default=DEFAULT_MIN_REL)
    p.add_argument("--direction", choices=("max", "min"), default="max",
                   help="max: larger is worse (wall); min: smaller is worse")
    p.set_defaults(func=_cmd_trend)

    p = sub.add_parser(
        "export",
        help="Chrome trace (+ speedscope) from a run record or span stream",
    )
    p.add_argument("ref", nargs="?", default="-1",
                   help="record id prefix or index (ignored with --spans)")
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace-event JSON output path")
    p.add_argument("--speedscope", default=None,
                   help="also write a speedscope profile here "
                        "(needs a profiled record)")
    p.add_argument("--spans", default=None,
                   help="export a tracer JSONL span stream instead of a record")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("diff", help="ranked regression attribution A -> B")
    p.add_argument("ref_a")
    p.add_argument("ref_b")
    p.add_argument("--top", type=int, default=8, help="movers to show")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("watch", help="tail a running job's JSONL event stream")
    p.add_argument("path")
    p.add_argument("--poll", type=float, default=0.5, help="poll interval (s)")
    p.add_argument("--once", action="store_true",
                   help="render existing content and exit (no follow)")
    p.set_defaults(func=_cmd_watch)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LookupError, FileNotFoundError) as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; exit quietly
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
