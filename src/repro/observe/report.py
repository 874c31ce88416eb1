"""Render measured metrics as Table-2-style reports.

The paper's Table 2 presents one production timestep as a per-stage
wall-clock breakdown (domain decomposition / tree build / traversal /
communication / force evaluation / imbalance).  This module renders the
same shape from *measured* tracer output: :func:`stage_breakdown_table`
for any dict of stage seconds; ``repro-obs`` prints its tables with the
same cell format.
"""

from __future__ import annotations

__all__ = ["force_stage_totals", "stage_breakdown_table"]


def force_stage_totals(stage_times: dict[str, float]) -> dict[str, float]:
    """Sum the solver's per-stage times across all force calls of a run.

    ``stage_times`` is :meth:`Tracer.stage_times` output; every path of
    the form ``.../force/<stage>`` contributes to ``<stage>``, whatever
    outer spans (init_force, step, pipeline.evolve) it ran under.
    """
    totals: dict[str, float] = {}
    for path, sec in stage_times.items():
        parts = path.split("/")
        if len(parts) >= 2 and parts[-2] == "force":
            totals[parts[-1]] = totals.get(parts[-1], 0.0) + sec
    return totals


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if v != 0 and (abs(v) < 1e-3 or abs(v) >= 1e5):
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)


def _table(title: str, headers: list[str], rows: list[tuple]) -> str:
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    lines = [f"=== {title} ==="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def stage_breakdown_table(
    stage_seconds: dict[str, float], title: str = "Stage breakdown"
) -> str:
    """A Table-2-style breakdown: stage, seconds, fraction of the stages' sum."""
    t = max(sum(stage_seconds.values()), 1e-300)
    rows = [
        (name, round(sec, 6), round(sec / t, 3)) for name, sec in stage_seconds.items()
    ]
    rows.append(("Total", round(t, 6), 1.0))
    return _table(title, ["stage", "seconds", "fraction"], rows)
