"""Render measured metrics as Table-2-style reports.

The paper's Table 2 presents one production timestep as a per-stage
wall-clock breakdown (domain decomposition / tree build / traversal /
communication / force evaluation / imbalance).  This module renders the
same shape from *measured* tracer output: :func:`stage_breakdown_table`
for any dict of stage seconds, :func:`force_stage_table` for the
solver's canonical stage names, and :func:`step_summary_table` for the
driver's per-step records.
"""

from __future__ import annotations

__all__ = [
    "FORCE_STAGE_LABELS",
    "force_stage_totals",
    "stage_breakdown_table",
    "force_stage_table",
    "step_summary_table",
]

#: solver span name -> Table-2-style row label
FORCE_STAGE_LABELS = {
    "domain": "Domain Decomposition",
    "build": "Tree Build",
    "moments": "Moments (upward pass)",
    "traverse": "Tree Traversal",
    "comm": "Data Communication",
    "pm": "Particle Mesh (FFT)",
    "prune": "Short-Range Prune",
    "evaluate": "Force Evaluation",
    "execute": "Sharded Traverse+Evaluate",
    "lattice": "Periodic Lattice Expansion",
}


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
    stage_seconds: dict[str, float],
    total: float | None = None,
    title: str = "Stage breakdown",
    labels: dict[str, str] | None = None,
    extra_rows: list[tuple] | None = None,
    sub_rows: dict[str, dict[str, float]] | None = None,
) -> str:
    """A Table-2-style breakdown: stage, seconds, fraction of total.

    ``total`` defaults to the sum of the stages; when a measured total
    is given and exceeds the stage sum, the residual appears as an
    "(unattributed)" row so the fractions always close to 1.
    ``extra_rows`` are informational ``(label, seconds)`` rows — e.g.
    the paper's "Load Imbalance" — appended before the total but *not*
    added to it (they overlap stages already counted).  ``sub_rows``
    maps a stage to ``{part: seconds}`` printed indented under it, not
    added to the total either.
    """
    labels = labels or {}
    stage_sum = sum(stage_seconds.values())
    t = total if total is not None else stage_sum
    t = max(t, 1e-300)
    rows = []
    for name, sec in stage_seconds.items():
        rows.append((labels.get(name, name), round(sec, 6), round(sec / t, 3)))
        for part, part_sec in ((sub_rows or {}).get(name) or {}).items():
            rows.append((f"  {part}", round(part_sec, 6), round(part_sec / t, 3)))
    if total is not None and total > stage_sum:
        rows.append(("(unattributed)", round(total - stage_sum, 6),
                     round((total - stage_sum) / t, 3)))
    for label, sec in extra_rows or []:
        rows.append((label, round(sec, 6), round(sec / t, 3)))
    rows.append(("Total", round(t, 6), 1.0))
    return _table(title, ["stage", "seconds", "fraction"], rows)


def force_stage_table(stats: dict, title: str = "Force stage breakdown (Table 2 style)") -> str:
    """Render a solver's ``ForceResult.stats`` stage breakdown.

    Expects the ``stage_seconds`` / ``force_seconds`` entries written by
    :meth:`TreecodeGravity.compute` under an enabled tracer.  Sharded
    runs (``stats["executor"]`` present) gain the paper's "Load
    Imbalance" row: wall time the slowest worker spent beyond the mean,
    i.e. time the pool's tail added to the execute stage.  The
    evaluator's ``family_seconds`` (cell / pp / m2l / prism) print under
    the evaluate row — under execute for sharded runs, where they are
    busy seconds summed over the workers — followed by the parts of the
    cell family (``cell_seconds``) and of the prism family
    (``prism_seconds``: merging the cubes, evaluating the boxes).
    """
    stage = stats.get("stage_seconds")
    if not stage:
        raise ValueError(
            "stats carries no stage_seconds — run compute() with tracing "
            "enabled (set_tracer(Tracer()) or pass tracer=)"
        )
    extra = None
    ex = stats.get("executor")
    if ex and ex.get("worker_busy_s"):
        busy = ex["worker_busy_s"]
        mean = sum(busy) / len(busy)
        extra = [(f"Load Imbalance ({ex['load_imbalance']:.1%})", max(busy) - mean)]
    return stage_breakdown_table(
        stage,
        total=stats.get("force_seconds"),
        title=title,
        labels=FORCE_STAGE_LABELS,
        extra_rows=extra,
        sub_rows={
            "execute" if "execute" in stage else "evaluate": {
                **(stats.get("family_seconds") or {}),
                **{
                    f"{fam}: {part}": sec
                    for fam in ("cell", "prism")
                    for part, sec in (stats.get(f"{fam}_seconds") or {}).items()
                },
            }
        },
    )


def step_summary_table(records, title: str = "Per-step summary") -> str:
    """Tabulate the driver's per-step records.

    Accepts :class:`~repro.simulation.driver.StepRecord` objects or the
    equivalent dicts read back from a JSONL stream (records whose
    ``type`` is not ``"step"`` are skipped).
    """
    rows = []
    for i, r in enumerate(records):
        if isinstance(r, dict):
            if r.get("type", "step") != "step":
                continue
            get = r.get
            step = get("step", i)
        else:
            get = lambda k, d=0.0: getattr(r, k, d)  # noqa: E731
            step = i + 1
        rows.append(
            (
                step,
                round(float(get("a", 0.0)), 5),
                round(float(get("dlna", 0.0)), 5),
                round(float(get("wall", get("wall_s", 0.0) or 0.0)), 4),
                round(float(get("interactions_per_particle", 0.0)), 1),
                round(float(get("layzer_irvine", 0.0)), 6),
            )
        )
    return _table(
        title,
        ["step", "a", "dlna", "wall_s", "inter/particle", "layzer_irvine"],
        rows,
    )
