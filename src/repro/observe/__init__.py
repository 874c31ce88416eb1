"""Run observatory: persistent run history, deep profiling, worker
timelines and perf-trend regression detection.

The longitudinal layer over :mod:`repro.instrument` (which measures one
run) and :mod:`repro.diagnose` (which judges one run): an append-only
:class:`RunRegistry` records every ``Simulation.run``, pipeline stage
and benchmark emission keyed by the provenance-manifest hash, so the
repo accumulates a perf *trajectory* across commits instead of
overwritten snapshots.  On top of the registry sit the hot-function
extract of a profiled run's stages (:mod:`.profiler`), per-worker
span-lane reconstruction with compute/idle/recovery attribution
(:mod:`.timeline`), a robust last-N baseline trend engine
(:mod:`.trend`), standard-format export (Chrome trace events,
speedscope) plus a live JSONL watch (:mod:`.export`), and differential
regression attribution that names what moved between two records
(:mod:`.attribution`).  ``repro-obs`` (:mod:`.cli`, never imported
from here, so no run pays for it) is the one observability CLI: it
renders and gates one run's trace or benchmark receipt as well as
querying and judging the registry.

Nothing here records: the :class:`~repro.instrument.Tracer` does.
``Tracer(registry=DIR, profile=True)`` files a run's record (with its
stages' hot functions), and setting ``REPRO_OBS_DIR`` (plus
``REPRO_OBS_PROFILE``) makes the process-wide default tracer do so,
opting a whole process in without touching call sites.
"""

from .attribution import attribute, format_attribution
from .export import (
    chrome_trace_from_record,
    chrome_trace_from_spans,
    speedscope_from_record,
    watch,
)
from .profiler import top_functions
from .registry import OBS_SCHEMA_VERSION, RunRegistry, metric_value
from .timeline import analyze_timeline, lane_label, render_timeline
from .trend import detect_regression, robust_baseline, trend_report

__all__ = [
    "OBS_SCHEMA_VERSION",
    "RunRegistry",
    "analyze_timeline",
    "attribute",
    "chrome_trace_from_record",
    "chrome_trace_from_spans",
    "detect_regression",
    "format_attribution",
    "lane_label",
    "metric_value",
    "render_timeline",
    "robust_baseline",
    "speedscope_from_record",
    "top_functions",
    "trend_report",
    "watch",
]
