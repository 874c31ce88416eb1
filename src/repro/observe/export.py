"""Standard-format export of observatory data + live stream watch.

Three consumers, three formats:

* **Chrome trace events** (``chrome://tracing`` / Perfetto): the
  per-call shard timelines a sharded run records become per-worker
  lanes — one complete ("X") event per shard, named ``compute`` or
  ``recovery`` by the worker-timeline analyzer's own rule
  (:func:`repro.observe.timeline.recovered`), and
  a flow arrow ("s"/"f") from the call start to every re-dispatched
  shard.  Tracer span streams (``{"type": "span", ...}`` JSONL
  records) export the same way, one lane per emitting thread.
* **speedscope** (https://www.speedscope.app): the hot-function
  extract a profiled run's registry record carries becomes one sampled
  profile per stage, frames weighted by self time.
* **watch**: an incremental JSONL tail that renders the run's step /
  health / checkpoint / recovery / stage records as human lines, for
  following a job that is still writing.

Everything here is read-only over already-recorded data; nothing in
this module runs during a simulation.
"""

from __future__ import annotations

import time

from ..instrument.events import read_records
from .timeline import call_groups, lane_label, recovered

__all__ = [
    "chrome_trace_from_record",
    "chrome_trace_from_spans",
    "speedscope_from_record",
    "render_event",
    "watch",
]

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

#: fixed tid of the per-call summary lane; worker lanes follow
_CALLS_TID = 0


def chrome_trace_from_record(record: dict) -> dict:
    """Chrome trace-event JSON from a registry record's shard timeline.

    pid is the recorded process, tids are the worker lanes of
    :func:`repro.observe.timeline.analyze_timeline` (plus a per-call
    summary lane at tid 0).  Successive force calls are laid out
    back-to-back on one time axis; within a call the shard offsets are
    the recorded monotonic-clock offsets.  Timestamps are microseconds,
    as the format requires.
    """
    data = record.get("data") or {}
    timeline = data.get("timeline")
    if not timeline:
        raise LookupError(
            "record carries no shard timeline (serial run? workers=0)"
        )
    pid = int(record.get("pid") or 1)
    groups = call_groups(timeline)
    # stable lane order: parent first, then workers by index
    labels = sorted(
        {lane_label(e) for _, events in groups for e in events},
        key=lambda s: (-1 if s == "parent" else int(s[1:]) if s[1:].isdigit() else 1 << 20, s),
    )
    tid_of = {label: i + 1 for i, label in enumerate(labels)}
    events = [
        {"ph": "M", "pid": pid, "name": "process_name",
         "args": {"name": f"repro run {record.get('id', '?')[:20]}"}},
        {"ph": "M", "pid": pid, "tid": _CALLS_TID, "name": "thread_name",
         "args": {"name": "force calls"}},
    ]
    for label, tid in tid_of.items():
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name", "args": {"name": label}})
    origin = 0.0
    for call, shard_events in groups:
        window = max((float(e.get("t1", 0.0)) for e in shard_events), default=0.0)
        call_ts = origin * 1e6
        events.append({
            "name": f"force call {call}", "ph": "X", "cat": "call",
            "pid": pid, "tid": _CALLS_TID,
            "ts": call_ts, "dur": window * 1e6,
            "args": {"call": call, "shards": len(shard_events)},
        })
        for e in shard_events:
            t0 = float(e.get("t0", 0.0))
            t1 = float(e.get("t1", t0))
            recovery = recovered(e)
            ts = (origin + t0) * 1e6
            events.append({
                "name": "recovery" if recovery else "compute",
                "ph": "X", "cat": "shard",
                "pid": pid, "tid": tid_of[lane_label(e)],
                "ts": ts, "dur": (t1 - t0) * 1e6,
                "args": {
                    "call": call,
                    "shard": int(e.get("shard", -1)),
                    "worker": e.get("worker"),
                    "attempt": int(e.get("attempt", 0) or 0),
                    "local": bool(e.get("local")),
                    "traverse_s": e.get("traverse_s"),
                    "evaluate_s": e.get("evaluate_s"),
                },
            })
            if recovery:
                flow_id = f"{call}:{int(e.get('shard', -1))}"
                events.append({
                    "name": "redispatch", "ph": "s", "cat": "recovery",
                    "id": flow_id, "pid": pid, "tid": _CALLS_TID,
                    "ts": call_ts,
                })
                events.append({
                    "name": "redispatch", "ph": "f", "bp": "e",
                    "cat": "recovery", "id": flow_id, "pid": pid,
                    "tid": tid_of[lane_label(e)], "ts": ts,
                })
        origin += window
    events.sort(key=lambda e: e.get("ts", 0.0))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "record_id": record.get("id"),
            "kind": record.get("kind"),
            "key": record.get("key"),
            "git_commit": record.get("git_commit"),
            "exporter": "repro-obs export",
        },
    }


def chrome_trace_from_spans(records) -> dict:
    """Chrome trace-event JSON from a tracer span stream.

    ``records`` is an iterable of JSONL records (see
    :func:`repro.instrument.events.read_jsonl`); ``span`` records carry
    ``t0/t1`` perf-counter stamps and an optional emitting-thread
    ``tid``.  One lane per thread; nesting renders from ts/dur overlap.
    """
    spans = [r for r in records
             if r.get("type") == "span" and "t0" in r and "t1" in r]
    if not spans:
        raise LookupError("stream carries no span records "
                          "(a trace written before spans were streamed?)")
    t_origin = min(float(s["t0"]) for s in spans)
    threads = sorted({s.get("tid", 0) for s in spans}, key=str)
    tid_of = {t: i for i, t in enumerate(threads)}
    events = [
        {"ph": "M", "pid": 1, "name": "process_name",
         "args": {"name": "repro trace"}},
    ]
    for t, tid in tid_of.items():
        events.append({"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                       "args": {"name": f"thread {t}"}})
    for s in spans:
        t0 = float(s["t0"]) - t_origin
        events.append({
            "name": s.get("path", "?"), "ph": "X", "cat": "span",
            "pid": 1, "tid": tid_of[s.get("tid", 0)],
            "ts": t0 * 1e6,
            "dur": max(float(s["t1"]) - float(s["t0"]), 0.0) * 1e6,
            "args": {"seconds": s.get("seconds")},
        })
    events.sort(key=lambda e: e.get("ts", 0.0))
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"exporter": "repro-obs export"}}


# ---------------------------------------------------------------------------
# speedscope
# ---------------------------------------------------------------------------


def speedscope_from_record(record: dict) -> dict:
    """speedscope profile from the hot-function extract of a profiled
    registry record (``REPRO_OBS_PROFILE=1`` runs): one sampled profile
    per stage, one single-frame sample per function weighted by its
    self time (a self-time flamegraph)."""
    stages = ((record.get("data") or {}).get("profile") or {}).get("stages")
    if not stages:
        raise LookupError("record carries no profile data "
                          "(run with REPRO_OBS_PROFILE=1)")
    frames: list[dict] = []
    index: dict[tuple[str, str], int] = {}
    profiles = []
    for stage, info in stages.items():
        samples, weights = [], []
        for h in info.get("hot") or []:
            func, where = h.get("function", "?"), h.get("where", "?")
            self_s = float(h.get("self_s", 0.0))
            if self_s <= 0.0:
                continue
            key = (func, where)
            if key not in index:
                index[key] = len(frames)
                file, _, line = where.rpartition(":")
                frames.append({
                    "name": func,
                    "file": file or where,
                    "line": int(line) if line.isdigit() else 0,
                })
            samples.append([index[key]])
            weights.append(self_s)
        profiles.append({
            "type": "sampled",
            "name": stage,
            "unit": "seconds",
            "startValue": 0,
            "endValue": float(sum(weights)),
            "samples": samples,
            "weights": weights,
        })
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": f"run {record.get('id', '?')[:20]}",
        "exporter": "repro-obs export",
        "shared": {"frames": frames},
        "profiles": profiles,
    }


# ---------------------------------------------------------------------------
# live watch
# ---------------------------------------------------------------------------


def render_event(rec: dict) -> str | None:
    """One human line per stream record; None = skip (spans, metrics)."""
    t = rec.get("type")
    if t == "step":
        return (f"step {rec.get('step', '?'):>4}  a={rec.get('a', 0.0):.4f}  "
                f"dlna={rec.get('dlna', 0.0):.4f}  "
                f"wall {rec.get('wall', 0.0):.2f}s  "
                f"ipp {rec.get('interactions_per_particle', 0.0):.0f}")
    if t == "init_force":
        return (f"init force  a={rec.get('a', 0.0):.4f}  "
                f"wall {rec.get('wall', 0.0):.2f}s")
    if t == "health":
        return (f"health [{rec.get('severity', '?')}] "
                f"{rec.get('monitor', '?')}: {rec.get('message', '')}")
    if t == "health_fatal":
        return f"health FATAL: {rec.get('message', '')}"
    if t == "executor_recovery":
        return (f"recovery {rec.get('kind', '?')} "
                f"shard={rec.get('shard', '?')} worker={rec.get('worker', '?')}")
    if t == "checkpoint":
        return f"checkpoint step {rec.get('step', '?')} -> {rec.get('path', '?')}"
    if t == "run_totals":
        return (f"run totals: {rec.get('steps', '?')} steps, "
                f"wall {rec.get('wall_s', 0.0):.1f}s"
                + ("  [PARTIAL]" if rec.get("partial") else ""))
    if t == "pipeline_stage":
        return (f"stage {rec.get('stage', '?')} done  "
                f"wall {rec.get('wall_s', 0.0):.1f}s")
    return None


def watch(path, out, follow: bool = True, poll_s: float = 0.5) -> int:
    """Tail a JSONL event stream, rendering records as they land.

    Existing content renders immediately; with ``follow`` the file is
    then polled for appended lines until interrupted (partial trailing
    lines — a writer mid-record — are left pending, never mangled).
    Returns the number of lines rendered.
    """
    rendered = 0
    pos = 0
    try:
        while True:
            recs, pos = read_records(path, pos)
            for rec in recs:
                line = render_event(rec)
                if line is not None:
                    print(line, file=out, flush=True)
                    rendered += 1
            if not follow:
                return rendered
            time.sleep(poll_s)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return rendered
