"""Worker timelines: per-worker span lanes, compute/idle/recovery, critical path.

The executor measures load imbalance as one scalar; this module shows
*where it lives*.  Each sharded force call reports per-shard events
(worker id, start/end offsets from the call's first shard, the
traverse/evaluate split, the dispatch attempt, whether the parent ran
it serially as a recovery) — see
``stats["executor"]["shard_events"]``.  From a list of such calls
(what the driver accumulates into ``Simulation.shard_timeline`` and
the registry stores per run):

* :func:`analyze_timeline` attributes wall time per lane to **compute**
  (first-attempt shard work), **recovery** (re-dispatched shards and
  parent serial fallbacks) and **idle** (lane present but not running
  while the call was still open), and identifies the **critical path**
  — the lane whose last shard ends each call, i.e. the lane every other
  worker waited for;
* :func:`render_timeline` draws one call's lanes as ASCII rows
  (``#`` compute, ``R`` recovery, ``.`` idle) so a terminal shows at a
  glance which worker stretched the step.
"""

from __future__ import annotations

__all__ = ["lane_label", "recovered", "call_groups", "analyze_timeline", "render_timeline"]


def lane_label(event: dict) -> str:
    """Lane name for one shard event: ``w<id>``, or ``parent`` for a
    serial-fallback shard computed in the parent process."""
    if event.get("local"):
        return "parent"
    return f"w{event.get('worker', '?')}"


def recovered(event: dict) -> bool:
    """The attribution rule: a shard is recovery work when the parent
    ran it serially (``local``) or it was re-dispatched (``attempt > 0``)."""
    return bool(event.get("local")) or int(event.get("attempt", 0) or 0) > 0


def call_groups(timeline) -> list[tuple[int, list[dict]]]:
    """``(call number, shard events)`` per force call, from
    ``{"call": n, "events": [...]}`` groups or bare event lists
    (numbered by position)."""
    groups = []
    for i, group in enumerate(timeline or []):
        if isinstance(group, dict):
            groups.append((int(group.get("call", i + 1)), list(group.get("events") or [])))
        else:
            groups.append((i + 1, list(group or [])))
    return groups


def analyze_timeline(calls) -> dict:
    """Aggregate lane attribution over a run's force-call timeline.

    Returns a JSON-ready summary::

        {"calls": n, "wall_s": sum of per-call windows,
         "lanes": {label: {"compute_s", "recovery_s", "idle_s",
                           "traverse_s", "evaluate_s", "shards"}},
         "critical": {label: seconds of call windows this lane closed},
         "imbalance": max_lane_busy / mean_lane_busy - 1}

    Per call, the window is the latest shard end (offsets are already
    relative to the call's first shard start); a lane's idle time is
    the window minus its busy time, so lanes that finished early and
    waited on the critical lane show the wait explicitly.
    """
    lanes: dict[str, dict] = {}
    critical: dict[str, float] = {}
    total_window = 0.0
    n_calls = 0
    for _, events in call_groups(calls):
        if not events:
            continue
        n_calls += 1
        window = max(float(e.get("t1", 0.0)) for e in events)
        total_window += window
        busy_here: dict[str, float] = {}
        last_end = -1.0
        crit_lane = None
        for e in events:
            lab = lane_label(e)
            lane = lanes.setdefault(lab, {
                "compute_s": 0.0, "recovery_s": 0.0, "idle_s": 0.0,
                "traverse_s": 0.0, "evaluate_s": 0.0, "shards": 0,
            })
            dur = max(float(e.get("t1", 0.0)) - float(e.get("t0", 0.0)), 0.0)
            lane["recovery_s" if recovered(e) else "compute_s"] += dur
            lane["traverse_s"] += float(e.get("traverse_s", 0.0))
            lane["evaluate_s"] += float(e.get("evaluate_s", 0.0))
            lane["shards"] += 1
            busy_here[lab] = busy_here.get(lab, 0.0) + dur
            if float(e.get("t1", 0.0)) > last_end:
                last_end = float(e.get("t1", 0.0))
                crit_lane = lab
        for lab, busy in busy_here.items():
            lanes[lab]["idle_s"] += max(window - busy, 0.0)
        if crit_lane is not None:
            critical[crit_lane] = critical.get(crit_lane, 0.0) + window
    busy_totals = [
        lane["compute_s"] + lane["recovery_s"]
        for lab, lane in lanes.items() if lab != "parent"
    ]
    mean_busy = sum(busy_totals) / len(busy_totals) if busy_totals else 0.0
    for lane in lanes.values():
        for k in ("compute_s", "recovery_s", "idle_s", "traverse_s", "evaluate_s"):
            lane[k] = round(lane[k], 6)
    return {
        "calls": n_calls,
        "wall_s": round(total_window, 6),
        "lanes": lanes,
        "critical": {k: round(v, 6) for k, v in sorted(critical.items())},
        "imbalance": round(max(busy_totals) / mean_busy - 1.0, 4)
        if mean_busy > 0 else 0.0,
    }


def render_timeline(call, width: int = 64) -> str:
    """ASCII lanes for one force call: one row per worker, ``#`` while a
    first-attempt shard runs, ``R`` for recovery work (re-dispatched or
    parent-serial shards), ``.`` idle; shard boundaries show as ``|``."""
    ((_, events),) = call_groups([call])
    if not events:
        return "(no shard events)"
    window = max(float(e.get("t1", 0.0)) for e in events)
    if window <= 0:
        return "(zero-length call)"
    scale = (width - 1) / window
    by_lane: dict[str, list[dict]] = {}
    for e in events:
        by_lane.setdefault(lane_label(e), []).append(e)
    labels = sorted(by_lane, key=lambda s: (s == "parent", s))
    pad = max(len(s) for s in labels)
    lines = []
    call_no = call.get("call") if isinstance(call, dict) else None
    header = f"force call {call_no}, " if call_no is not None else ""
    lines.append(f"{header}window {window * 1e3:.1f} ms, {len(events)} shard(s)")
    for lab in labels:
        row = ["."] * width
        busy = 0.0
        for e in sorted(by_lane[lab], key=lambda e: float(e.get("t0", 0.0))):
            c0 = int(float(e.get("t0", 0.0)) * scale)
            c1 = max(int(float(e.get("t1", 0.0)) * scale), c0 + 1)
            mark = "R" if recovered(e) else "#"
            for c in range(c0, min(c1, width)):
                row[c] = mark
            if c0 < width and row[c0] != ".":
                row[c0] = "|" if row[c0] == "#" and c0 > 0 and row[c0 - 1] == "#" else row[c0]
            busy += max(float(e.get("t1", 0.0)) - float(e.get("t0", 0.0)), 0.0)
        lines.append(
            f"{lab.rjust(pad)} [{''.join(row)}] busy {busy * 1e3:.1f} ms"
            f" ({busy / window:.0%})"
        )
    return "\n".join(lines)
