"""Differential regression attribution between two registry records.

``repro-obs diff A B`` and the ``repro-obs trend`` regression path
both want the same thing: not *that* run B is slower than run A,
but *what moved*.  This module compares two records span-by-span and
counter-by-counter (every dotted numeric leaf of the payloads — stage
seconds, top spans, kernel roofline counters, interaction counts) and
ranks the movers so the headline names the culprit:

    wall_per_step_s              1.02 -> 2.31   (+2.3x)
    stage_seconds.evaluate       0.48 -> 1.61   (+3.4x)
    kernel.gflops                1.92 -> 0.41   (-4.7x)
    engine changed: 'tree' -> 'treepm'

Ranking: time-like metrics (``*_s``, ``wall*``, ``*seconds*``) score
by seconds moved — a 0.5 s swing outranks a 10x blowup of a 2 µs
span — and pure counters score by log-ratio; time movers are listed
first.  The force engine is not numeric, so a change of it is reported
as an explicit note, not buried.
"""

from __future__ import annotations

import math

__all__ = ["attribute", "format_attribution"]

#: below this ratio a metric is noise, not a mover
MIN_RATIO = 1.05

#: string-valued payload fields worth calling out when they change
_STRING_FIELDS = ("engine",)


def _is_time(name: str) -> bool:
    if name.endswith("_per_s"):  # a rate, not a duration
        return False
    return (name.endswith("_s") or "wall" in name or "seconds" in name
            or name.endswith(".total_s"))


def _flatten(node, prefix: str = "", out: dict | None = None, depth: int = 0) -> dict:
    """A payload's numeric leaves by dotted name (bools and lists skipped)."""
    if out is None:
        out = {}
    if depth > 6 or not isinstance(node, dict):
        return out
    for k, v in node.items():
        name = f"{prefix}.{k}" if prefix else str(k)
        if isinstance(v, bool):
            continue
        if isinstance(v, (int, float)):
            out[name] = float(v)
        elif isinstance(v, dict):
            _flatten(v, name, out, depth + 1)
    return out


def _string_leaf(data: dict, dotted: str):
    node = data
    for part in dotted.split("."):
        if not isinstance(node, dict):
            return None
        node = node.get(part)
    return node if isinstance(node, str) else None


def attribute(rec_a: dict, rec_b: dict, top: int = 8) -> dict:
    """Compare two registry records and rank what moved.

    Returns ``{"a", "b", "movers", "notes"}`` where each mover is
    ``{"metric", "a", "b", "ratio", "delta", "kind"}`` (ratio is b/a,
    None when a is 0) sorted worst-first, and ``notes`` are string
    observations (engine changes, appeared/vanished metrics).
    """
    da = rec_a.get("data") or {}
    db = rec_b.get("data") or {}
    fa = _flatten(da)
    fb = _flatten(db)
    movers = []
    for name in sorted(set(fa) & set(fb)):
        va, vb = fa[name], fb[name]
        ratio = (vb / va) if va else None
        if ratio is not None and ratio > 0:
            if max(ratio, 1.0 / ratio) < MIN_RATIO:
                continue
            log_r = abs(math.log2(ratio))
        else:
            if va == vb:
                continue
            log_r = float("inf") if (va == 0.0) != (vb == 0.0) else 0.0
        kind = "time" if _is_time(name) else "counter"
        score = abs(vb - va) if kind == "time" else min(log_r, 64.0)
        movers.append({
            "metric": name, "a": va, "b": vb, "ratio": ratio,
            "delta": vb - va, "kind": kind, "score": score,
        })
    movers.sort(key=lambda m: (m["kind"] != "time", -m["score"]))
    notes = []
    for field in _STRING_FIELDS:
        sa, sb = _string_leaf(da, field), _string_leaf(db, field)
        if sa != sb:
            notes.append(f"{field} changed: {sa!r} -> {sb!r}")
    only_a = sorted(set(fa) - set(fb))
    only_b = sorted(set(fb) - set(fa))
    if only_b:
        notes.append("metrics new in B: " + ", ".join(only_b[:6])
                     + (" ..." if len(only_b) > 6 else ""))
    if only_a:
        notes.append("metrics gone in B: " + ", ".join(only_a[:6])
                     + (" ..." if len(only_a) > 6 else ""))
    return {
        "a": {"id": rec_a.get("id"), "t": rec_a.get("t"),
              "git_commit": (rec_a.get("git_commit") or "")[:12] or None},
        "b": {"id": rec_b.get("id"), "t": rec_b.get("t"),
              "git_commit": (rec_b.get("git_commit") or "")[:12] or None},
        "movers": movers[:top],
        "notes": notes,
    }


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.3g}"
    return f"{v:.4g}"


def _fmt_ratio(m: dict) -> str:
    r = m["ratio"]
    if r is None or r <= 0:
        return "appeared" if m["a"] == 0 else "vanished"
    if r >= 1:
        return f"+{r:.2f}x"
    return f"-{1.0 / r:.2f}x"


def format_attribution(report: dict) -> str:
    """Render an attribution report as aligned text lines."""
    lines = [
        f"A: {report['a'].get('id', '?')}  ({report['a'].get('t', '?')}"
        f"{', ' + report['a']['git_commit'] if report['a'].get('git_commit') else ''})",
        f"B: {report['b'].get('id', '?')}  ({report['b'].get('t', '?')}"
        f"{', ' + report['b']['git_commit'] if report['b'].get('git_commit') else ''})",
    ]
    if not report["movers"]:
        lines.append("no metric moved beyond the noise floor")
    else:
        lines.append("top movers (B vs A):")
        width = max(len(m["metric"]) for m in report["movers"])
        for m in report["movers"]:
            lines.append(
                f"  {m['metric']:<{width}}  "
                f"{_fmt(m['a']):>10} -> {_fmt(m['b']):>10}   {_fmt_ratio(m)}"
            )
    for note in report["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines)
