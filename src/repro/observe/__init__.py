"""Observability: the tracer a run records through, the JSONL log, run
provenance, the run registry and the readers over all of them.

The measurement layer behind the paper's evaluation — Table 2's stage
breakdown, §7's interactions-per-particle efficiency metric and the
Gflops accounting — and its longitudinal memory, in one package:

* :mod:`.tracer` — the thread-safe :class:`Tracer` with nestable spans,
  counters and a timer per span path; ``sink=`` is the run's JSONL
  trace, ``registry=`` files the run's record in the run registry and
  ``profile=True`` adds the stages' hot functions (:mod:`.profiler`) to
  it.  The default tracer is a no-op (:data:`NULL_TRACER`), so
  uninstrumented runs pay nothing; ``REPRO_OBS_DIR`` (plus
  ``REPRO_OBS_PROFILE``) makes the default a recording tracer, opting a
  whole process in without touching call sites.
* :mod:`.jsonl` — the one JSONL contract: one appender, one reader.
* :mod:`.manifest` — the one provenance stamp, the config hash and the
  run manifest.
* :mod:`.registry` — the append-only :class:`RunRegistry`, keyed by the
  config hash, so the repo accumulates a perf *trajectory* across
  commits instead of overwritten snapshots.
* readers: Table-2-style reports (:mod:`.report`), per-worker
  span-lane reconstruction with compute/idle/recovery attribution
  (:mod:`.timeline`), a robust last-N baseline trend engine
  (:mod:`.trend`), Chrome trace / speedscope export plus a live JSONL
  watch (:mod:`.export`) and differential regression attribution
  (:mod:`.attribution`).  ``repro-obs`` (:mod:`.cli`) is the one
  observability CLI over all of it.

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

Importing this package loads only the tracer and the JSONL module; every
other name below is imported on first use, so a run that records
nothing never loads the readers.
"""

import importlib

from .jsonl import JsonlAppender, jsonable, read_jsonl, read_records
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

#: submodule -> the names imported from it on first use (:func:`__getattr__`)
_LAZY = {
    "attribution": ("attribute", "format_attribution"),
    "export": ("chrome_trace_from_record", "chrome_trace_from_spans", "speedscope_from_record",
               "watch"),
    "manifest": ("build_manifest", "config_hash", "git_commit", "provenance", "write_manifest"),
    "profiler": ("top_functions",),
    "registry": ("OBS_SCHEMA_VERSION", "RunRegistry", "metric_value"),
    "report": ("FORCE_STAGE_LABELS", "force_stage_table", "force_stage_totals",
               "stage_breakdown_table"),
    "timeline": ("analyze_timeline", "lane_label", "render_timeline"),
    "trend": ("detect_regression", "robust_baseline", "trend_report"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "JsonlAppender", "NULL_TRACER", "NullTracer", "Span", "Tracer", "get_tracer", "jsonable",
    "read_jsonl", "read_records", "set_tracer", "use_tracer", *_MODULE_OF,
]
