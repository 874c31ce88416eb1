"""Instrumentation: hierarchical timers, counters, structured events.

The measurement layer behind the paper's evaluation — Table 2's stage
breakdown, §7's interactions-per-particle efficiency metric and the
Gflops accounting — as a cross-cutting subsystem: a thread-safe
:class:`Tracer` with nestable spans and monotonic counters, a per-run
:class:`Metrics` registry, a JSONL structured-event sink and
Table-2-style report rendering.  The tracer is the one object a run
records through: its sink is the run's trace, ``registry=`` files the
run's record in the :mod:`repro.observe` registry and ``profile=True``
adds the stages' hot functions to it.  The default tracer is a no-op
(:data:`NULL_TRACER`), so uninstrumented runs pay nothing;
``REPRO_OBS_DIR`` makes the default a recording tracer.

Force counters: every treecode and TreePM force call, serial or
sharded, counts ``force.calls``, ``force.interactions``,
``force.cells`` and ``force.flops``, and the walk's
``traverse.mac_tests`` (geometric MAC evaluations — one per frontier
pair in the mutual hierarchical walk), ``traverse.frontier_peak``
(peak frontier width), and the accept split
``traverse.accepts_inherited`` (recorded at interior sink cells,
pushed down by the inheritance pass) vs. ``traverse.accepts_leaf``
(decided at sink leaves).  All are read from the call's stats, which
sharded runs merge first (:func:`repro.gravity.solver.merge_stats`:
sums, max for the peak).  The flop count itself is
:func:`repro.perfmodel.flops.flops_from_stats`.
"""

from .events import JsonlSink, read_jsonl
from .metrics import Metrics, TimerStat
from .report import (
    FORCE_STAGE_LABELS,
    force_stage_table,
    force_stage_totals,
    stage_breakdown_table,
    step_summary_table,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "FORCE_STAGE_LABELS",
    "JsonlSink",
    "Metrics",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TimerStat",
    "Tracer",
    "force_stage_table",
    "force_stage_totals",
    "get_tracer",
    "read_jsonl",
    "set_tracer",
    "stage_breakdown_table",
    "step_summary_table",
    "use_tracer",
]
