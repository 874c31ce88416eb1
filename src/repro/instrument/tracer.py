"""Hierarchical tracer: the one object a run records through.

The measurement layer the paper's evaluation implies: Table 2's stage
breakdown needs per-stage wall-clock, §7's efficiency metric needs
interaction counters, and the Gflops accounting needs flop counters —
all attributable to *where in the call tree* they happened.  A
:class:`Tracer` provides

* ``with tracer.span("tree_build"):`` — nestable, per-thread spans
  whose closures accumulate into a shared :class:`Metrics` registry
  under hierarchical paths ("force/tree_build");
* ``tracer.count("interactions", n)`` / ``count_vec`` — monotonic
  scalar and per-rank vector counters;
* ``tracer.emit({...})`` — structured records streamed to a JSONL sink,
  which also gets one ``span`` record per closed span;
* ``tracer.record(kind, payload)`` — one record in the run registry
  under ``registry=`` (:mod:`repro.observe.registry`);
* ``with tracer.stage("step"):`` — a span that a ``profile=True``
  tracer also runs under ``cProfile``; :meth:`Tracer.take_profile`
  hands over the hot functions of the stages run since the last take.

Instrumentation must cost nothing when off: the module-level default is
:data:`NULL_TRACER`, whose ``span`` returns one preallocated no-op
context manager and whose other methods are empty — call sites pay a
dict lookup and an attribute test, nothing else.  ``set_tracer`` /
``use_tracer`` install a real tracer process-wide; without one, the
first :func:`get_tracer` call builds a tracer from the environment when
``REPRO_OBS_DIR`` names a registry (``REPRO_OBS_PROFILE=1`` turns on
profiling), so pipelines and CI jobs opt in without touching call
sites.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

from .events import JsonlSink
from .metrics import Metrics

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


class _NullSpan:
    """Shared do-nothing span; ``seconds`` is always 0.0."""

    __slots__ = ()
    seconds = 0.0
    path = ""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: every operation is a no-op."""

    enabled = False
    registry = None
    profile = False

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def count_vec(self, name: str, values) -> None:
        pass

    stage = span

    def emit(self, record: dict) -> None:
        pass

    def record(self, kind: str, payload: dict, key: str | None = None) -> None:
        return None

    def stage_times(self) -> dict:
        return {}

    @property
    def counters(self) -> dict:
        return {}

    def flush(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Span:
    """One timed region; created by :meth:`Tracer.span`, used as a
    context manager.  After exit, ``seconds`` holds the elapsed wall
    time and the closure has been recorded under ``path``."""

    __slots__ = ("name", "path", "seconds", "_tracer", "_t0")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self.name = name
        self.path = ""
        self.seconds = 0.0
        self._t0 = 0.0

    def __enter__(self):
        self.path = self._tracer._push(self.name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        self._tracer._pop(self)
        return False


class _ProfiledSpan(Span):
    """A span whose body also runs under the stage's pooled
    ``cProfile.Profile`` (see :meth:`Tracer.stage`)."""

    __slots__ = ("_prof",)

    def __enter__(self):
        self._prof = self._tracer._profile_enable(self.name)
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self._tracer._profile_disable(self.name, self._prof, self.seconds)
        return False


class Tracer:
    """Thread-safe hierarchical tracer backed by a :class:`Metrics`
    registry and (optionally) a JSONL event sink and a run registry.

    Each thread keeps its own span stack, so concurrent traversals
    nest independently while their timings land in one registry.

    Parameters
    ----------
    sink:
        A :class:`~repro.instrument.events.JsonlSink`, a path (a sink
        is opened for it), or None for metrics-only tracing.  Besides
        the records passed to :meth:`emit`, the sink gets one ``span``
        record per closed span (``t0``/``t1`` perf-counter stamps and
        the thread id, so ``repro-obs export --spans`` can draw lanes)
        and, on :meth:`close`, a ``metrics`` snapshot.
    registry:
        Run-registry directory :meth:`record` appends to (None: records
        are dropped).  A :class:`~repro.simulation.Simulation` run, a
        pipeline stage and a benchmark receipt each file one record.
    profile:
        Run every :meth:`stage` under ``cProfile``; a recorded run
        carries the stages' hot functions.
    """

    enabled = True

    def __init__(self, sink=None, registry=None, profile: bool = False):
        if sink is not None and not isinstance(sink, JsonlSink):
            sink = JsonlSink(sink)
        self.sink = sink
        self.registry = registry
        self.profile = bool(profile)
        self.metrics = Metrics()
        self._tls = threading.local()
        #: stage name -> [cProfile.Profile, seconds, entries] since the
        #: last :meth:`take_profile`
        self._profiles: dict = {}
        self._profiling = False

    # ----- span stack (per thread) ---------------------------------------------
    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def _push(self, name: str) -> str:
        stack = self._stack()
        path = f"{stack[-1]}/{name}" if stack else name
        stack.append(path)
        return path

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] == span.path:
            stack.pop()
        elif span.path in stack:  # exception unwound through inner spans
            del stack[stack.index(span.path):]
        self.metrics.add_time(span.path, span.seconds)
        if self.sink is not None:
            # t0/t1 are perf_counter stamps (arbitrary origin, shared
            # within the process) so a trace supports lane/timeline
            # reconstruction, not just per-path totals; tid keys the
            # emitting thread to a lane in trace-event exports
            self.sink.emit(
                {"type": "span", "path": span.path, "seconds": span.seconds,
                 "t0": span._t0, "t1": span._t0 + span.seconds,
                 "tid": threading.get_ident()}
            )

    @property
    def current_path(self) -> str:
        stack = self._stack()
        return stack[-1] if stack else ""

    # ----- stage profiling -------------------------------------------------------
    def _profile_enable(self, name: str):
        """Start the stage's pooled profile; None when another stage's
        profile is already running (it captures this one) or cProfile
        cannot start."""
        try:
            import cProfile

            pot = self._profiles.get(name)
            if pot is None:
                pot = self._profiles[name] = [cProfile.Profile(), 0.0, 0]
            if self._profiling:
                return None
            pot[0].enable()
        except Exception:
            return None
        self._profiling = True
        return pot[0]

    def _profile_disable(self, name: str, prof, seconds: float) -> None:
        if prof is not None:
            prof.disable()
            self._profiling = False
        pot = self._profiles.get(name)
        if pot is not None:
            pot[1] += seconds
            pot[2] += 1

    def take_profile(self) -> dict | None:
        """The ``profile`` payload of the stages run since the last take —
        ``{"stages": {name: {"seconds", "calls", "hot"}}}``, the top 15
        functions by self time — or None when nothing was profiled."""
        pots, self._profiles = self._profiles, {}
        if not pots:
            return None
        from ..observe.profiler import top_functions

        stages = {}
        for name, (prof, seconds, calls) in pots.items():
            try:
                hot = top_functions(prof)
            except Exception:  # a nested stage's profile never ran
                hot = []
            stages[name] = {"seconds": round(seconds, 6), "calls": calls, "hot": hot}
        return {"stages": stages}

    # ----- public API -----------------------------------------------------------
    def span(self, name: str) -> Span:
        return Span(self, name)

    def stage(self, name: str) -> Span:
        """A :meth:`span` that a profiling tracer also runs under cProfile,
        pooled per stage name (a stage nested in another is timed, and
        profiled as part of the outer one)."""
        return _ProfiledSpan(self, name) if self.profile else Span(self, name)

    def count(self, name: str, value: float = 1.0) -> None:
        self.metrics.add_count(name, value)

    def count_vec(self, name: str, values) -> None:
        self.metrics.add_vec(name, values)

    def emit(self, record: dict) -> None:
        if self.sink is not None:
            self.sink.emit(record)

    def record(self, kind: str, payload: dict, key: str | None = None):
        """Append one record to the run registry; returns what was written,
        or None without a registry.  A recording failure never raises
        into the run it records (it returns None too)."""
        if self.registry is None:
            return None
        try:
            from ..observe.registry import RunRegistry

            return RunRegistry(self.registry).record(kind, payload, key=key)
        except Exception:
            return None

    def stage_times(self) -> dict[str, float]:
        return self.metrics.stage_times()

    @property
    def counters(self) -> dict[str, float]:
        return dict(self.metrics.counters)

    def flush(self) -> None:
        """Put every record emitted so far on disk."""
        if self.sink is not None:
            self.sink.flush()

    def close(self) -> None:
        """Stream a counter/timer snapshot and close the sink."""
        if self.sink is not None:
            self.sink.emit({"type": "metrics", **self.metrics.to_dict()})
            self.sink.close()


_global_lock = threading.Lock()
_global_tracer = None  # None = not yet resolved (environment check pending)


def _from_environment():
    registry = os.environ.get("REPRO_OBS_DIR", "").strip()
    if not registry:
        return NULL_TRACER
    profile = os.environ.get("REPRO_OBS_PROFILE", "").strip().lower()
    return Tracer(registry=registry, profile=profile in ("1", "true", "on", "yes"))


def get_tracer():
    """The process-wide tracer.

    Defaults to :data:`NULL_TRACER`; on the first call, a tracer filing
    into ``REPRO_OBS_DIR`` is built if that is set.
    """
    global _global_tracer
    tracer = _global_tracer
    if tracer is None:
        with _global_lock:
            if _global_tracer is None:
                _global_tracer = _from_environment()
            tracer = _global_tracer
    return tracer


def set_tracer(tracer) -> None:
    """Install ``tracer`` process-wide; ``None`` restores the no-op
    (the environment is *not* re-read after an explicit install)."""
    global _global_tracer
    with _global_lock:
        _global_tracer = tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer):
    """Temporarily install ``tracer`` as the process-wide default."""
    previous = get_tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
