"""The observer: who records into the registry, and at what depth.

Mirrors the tracer/health contracts exactly: the process-wide default
is :data:`NULL_OBSERVER`, whose hooks are empty methods — a run without
observation pays one attribute test per hook site.  A real
:class:`Observer` bundles a :class:`~.registry.RunRegistry` with a
profiling depth (:class:`ObserveConfig`): the driver, the pipeline
stage runner and the benchmark writer all fetch the observer through
:func:`get_observer` and call ``record_run`` / ``record_stage`` /
``record_bench``; recording failures are swallowed (observation must
never kill the run it observes).

Environment activation: setting ``REPRO_OBS_DIR`` makes the first
:func:`get_observer` call build an observer over that directory, so
pipelines and CI jobs opt in without touching call sites
(``REPRO_OBS_PROFILE=1`` / ``REPRO_OBS_MEMORY=1`` add the deep hooks).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .profiler import NULL_PROFILER, StageProfiler
from .registry import DEFAULT_DIR, KIND_BENCH, KIND_RUN, KIND_STAGE, RunRegistry, registry_dir

__all__ = [
    "ObserveConfig",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "get_observer",
    "set_observer",
    "use_observer",
    "measure_disabled_overhead",
]


@dataclass
class ObserveConfig:
    """Where the registry lives and how deep the hooks go."""

    #: registry root directory (created on first record)
    dir: str | Path = DEFAULT_DIR
    #: per-stage cProfile capture with hot-function top-N extraction
    profile: bool = False
    #: tracemalloc + RSS high-water memory tracking
    memory: bool = False
    #: hot functions kept per stage
    top_n: int = 15


class NullObserver:
    """The zero-cost default: every hook is a no-op."""

    enabled = False
    registry = None

    def profiler(self):
        return NULL_PROFILER

    def record_run(self, payload: dict, key: str | None = None):
        return None

    def record_stage(self, payload: dict, key: str | None = None):
        return None

    def record_bench(self, payload: dict, key: str | None = None):
        return None


NULL_OBSERVER = NullObserver()


class Observer:
    """The enabled path: a registry plus optional deep profiling."""

    enabled = True

    def __init__(self, config: ObserveConfig | str | Path | None = None):
        if config is None or isinstance(config, (str, Path)):
            config = ObserveConfig(dir=config or DEFAULT_DIR)
        self.config = config
        self.registry = RunRegistry(config.dir)

    def profiler(self):
        """A fresh per-run profiler at the configured depth (the no-op
        singleton when neither deep hook is on)."""
        c = self.config
        if c.profile or c.memory:
            return StageProfiler(cprofile=c.profile, memory=c.memory, top_n=c.top_n)
        return NULL_PROFILER

    # ----- recording (never raises into the observed run) ----------------------
    def _safe_record(self, kind: str, payload: dict, key: str | None):
        try:
            return self.registry.record(kind, payload, key=key)
        except Exception:
            return None

    def record_run(self, payload: dict, key: str | None = None):
        return self._safe_record(KIND_RUN, payload, key)

    def record_stage(self, payload: dict, key: str | None = None):
        return self._safe_record(KIND_STAGE, payload, key)

    def record_bench(self, payload: dict, key: str | None = None):
        return self._safe_record(KIND_BENCH, payload, key)


# ----- process-wide default ----------------------------------------------------
_global_lock = threading.Lock()
_global_observer = None  # None = not yet resolved (environment check pending)


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "on", "yes")


def _from_environment():
    d = registry_dir(default=None)
    if not d:
        return NULL_OBSERVER
    return Observer(ObserveConfig(
        dir=d,
        profile=_env_flag("REPRO_OBS_PROFILE"),
        memory=_env_flag("REPRO_OBS_MEMORY"),
    ))


def get_observer():
    """The process-wide observer.

    Defaults to :data:`NULL_OBSERVER`; on the first call, an observer is
    built from ``REPRO_OBS_DIR`` if that is set.
    """
    global _global_observer
    if _global_observer is None:
        with _global_lock:
            if _global_observer is None:
                _global_observer = _from_environment()
    return _global_observer


def set_observer(observer) -> None:
    """Install ``observer`` process-wide; ``None`` restores the no-op
    (the environment is *not* re-read after an explicit install)."""
    global _global_observer
    with _global_lock:
        _global_observer = observer if observer is not None else NULL_OBSERVER


@contextmanager
def use_observer(observer):
    """Temporarily install ``observer`` as the process-wide default."""
    previous = get_observer()
    set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)


def measure_disabled_overhead(iters: int = 100_000) -> float:
    """Measured seconds of disabled-observer work per driver step.

    Times exactly what a step pays when observation is off — the
    :func:`get_observer` lookup, the null profiler's ``stage`` context
    and the enabled-attribute test — and returns the per-iteration
    cost.  The CI observatory job holds this under 1% of a measured
    step from the perf-smoke bench.
    """
    obs = NULL_OBSERVER
    t0 = time.perf_counter()
    for _ in range(iters):
        o = get_observer()
        prof = obs.profiler()
        with prof.stage("step"):
            if o.enabled:  # pragma: no cover - NULL observer branch
                pass
    return (time.perf_counter() - t0) / iters
