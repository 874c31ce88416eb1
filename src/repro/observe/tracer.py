"""Hierarchical tracer: the one object a run records through.

The measurement layer the paper's evaluation implies: Table 2's stage
breakdown needs per-stage wall-clock, §7's efficiency metric needs
interaction counters, and the Gflops accounting needs flop counters —
all attributable to *where in the call tree* they happened.  A
:class:`Tracer` provides

* ``with tracer.span("tree_build"):`` — nestable, per-thread spans
  whose closures accumulate into ``tracer.timers`` (``{path: [total_s,
  calls]}``) under hierarchical paths ("force/tree_build");
* ``tracer.count("interactions", n)`` — monotonic counters in
  ``tracer.counters``;
* ``tracer.emit({...})`` — structured records appended to the run's
  JSONL trace (the sink), which also gets one ``span`` record per
  closed span.  Every record is on disk when ``emit`` returns;
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

from .jsonl import JsonlAppender

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
    """Thread-safe hierarchical tracer: timers and counters under one
    lock, and (optionally) a JSONL trace and a run registry.

    Each thread keeps its own span stack, so concurrent traversals
    nest independently while their timings land in one ``timers`` dict.

    Parameters
    ----------
    sink:
        Path of the run's JSONL trace (appended to through one
        :class:`~repro.observe.jsonl.JsonlAppender` held until
        :meth:`close`), or None for timers and counters only.  Besides
        the records passed to :meth:`emit`, the trace gets one ``span``
        record per closed span (``t0``/``t1`` perf-counter stamps and
        the thread id, so ``repro-obs export --spans`` can draw lanes)
        and, on :meth:`close`, a ``metrics`` snapshot of the timers and
        counters.
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
        self.sink = JsonlAppender(sink) if sink is not None else None
        self.registry = registry
        self.profile = bool(profile)
        #: span path -> [total seconds, closures]
        self.timers: dict[str, list] = {}
        #: counter name -> accumulated value
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
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
        self.add_time(span.path, span.seconds)
        if self.sink is not None:
            # t0/t1 are perf_counter stamps (arbitrary origin, shared
            # within the process) so a trace supports lane/timeline
            # reconstruction, not just per-path totals; tid keys the
            # emitting thread to a lane in trace-event exports
            self.emit(
                {"type": "span", "path": span.path, "seconds": span.seconds,
                 "t0": span._t0, "t1": span._t0 + span.seconds,
                 "tid": threading.get_ident()}
            )

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
        from .profiler import top_functions

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

    def add_time(self, path: str, seconds: float) -> None:
        """Add one closure of ``seconds`` to the timer at ``path``."""
        with self._lock:
            timer = self.timers.get(path)
            if timer is None:
                self.timers[path] = [float(seconds), 1]
            else:
                timer[0] += seconds
                timer[1] += 1

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def emit(self, record: dict) -> None:
        if self.sink is not None:
            with self._lock:
                self.sink.append(record)

    def record(self, kind: str, payload: dict, key: str | None = None):
        """Append one record to the run registry; returns what was written,
        or None without a registry.  A recording failure never raises
        into the run it records (it returns None too)."""
        if self.registry is None:
            return None
        try:
            from .registry import RunRegistry

            return RunRegistry(self.registry).record(kind, payload, key=key)
        except Exception:
            return None

    def stage_times(self) -> dict[str, float]:
        """Total seconds per span path."""
        with self._lock:
            return {path: timer[0] for path, timer in self.timers.items()}

    def close(self) -> None:
        """Append a ``metrics`` snapshot of the timers and counters to the
        trace and close it."""
        with self._lock:
            sink, self.sink = self.sink, None
            if sink is not None:
                timers = {path: {"total_s": s, "calls": n}
                          for path, (s, n) in self.timers.items()}
                sink.append({"type": "metrics", "timers": timers,
                             "counters": dict(self.counters)})
                sink.close()


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
