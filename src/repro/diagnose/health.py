"""Health orchestration: configuration, the monitor set, the no-op default.

The default is :data:`NULL_HEALTH`, whose hooks return an empty tuple
— a disabled run pays one attribute test per step and nothing else (no
monitor objects, no array copies), as the tracer's
:data:`~repro.instrument.NULL_TRACER` does for recording.  A
:class:`HealthMonitor` built from a :class:`HealthConfig` runs every
enabled monitor per step, collects their events, and arms a fail-fast
:class:`~.monitors.HealthError` when the state guard trips (the driver
streams the event to the tracer's sink, raises, and the run's records
are on disk before the error leaves ``run``, so the trace records the
cause of death).
"""

from __future__ import annotations

from dataclasses import dataclass

from .monitors import (
    HealthContext,
    HealthError,
    HealthEvent,
    LayzerIrvineMonitor,
    MomentumMonitor,
    StateGuard,
)
from .probe import ForceErrorProbe
from .structural import (
    ExecutorBalanceMonitor,
    InteractionDriftMonitor,
    RecoveryMonitor,
    TreeShapeMonitor,
)

__all__ = ["HealthConfig", "NullHealth", "NULL_HEALTH", "HealthMonitor", "make_health"]


@dataclass
class HealthConfig:
    """Thresholds and switches for the in-situ health monitors.

    All drift thresholds are relative (see the individual monitors for
    the normalization); probe thresholds are multiples of the MAC
    budget (the solver's ``errtol``).
    """

    enabled: bool = True
    # Layzer-Irvine energy budget (fraction of max(|T|, |W|))
    li_warn: float = 0.05
    li_error: float = 0.5
    # momentum / center-of-mass drift
    momentum_warn: float = 1e-3
    momentum_error: float = 5e-2
    com_warn: float = 1e-3
    com_error: float = 5e-2
    # NaN/overflow fail-fast guard
    guard: bool = True
    snapshot_dir: str = "."
    # sampled force-error probe (0 = off: it costs O(samples x N))
    probe_interval: int = 0
    probe_samples: int = 8
    probe_warn: float = 1.0
    probe_error: float = 10.0
    probe_seed: int = 20131117
    # structural monitors
    structure: bool = True
    occupancy_factor_warn: float = 4.0
    depth_warn: int = 21
    imbalance_warn: float = 0.5
    imbalance_error: float = 2.0
    interaction_jump_warn: float = 3.0
    #: also stream info-severity events (warn/error always stream)
    emit_info: bool = False


class NullHealth:
    """The zero-cost default: no monitors, no events, never fatal."""

    enabled = False
    fatal = None

    def on_init(self, sim, acc):
        return ()

    def on_step(self, sim, record, acc):
        return ()

    def summary(self) -> dict:
        return {}


NULL_HEALTH = NullHealth()


class HealthMonitor:
    """The enabled path: run every configured monitor per step."""

    enabled = True

    def __init__(self, config: HealthConfig | None = None):
        self.config = c = config or HealthConfig()
        self.monitors = []
        if c.guard:
            self.monitors.append(StateGuard(snapshot_dir=c.snapshot_dir))
        self.monitors.append(LayzerIrvineMonitor(warn=c.li_warn, error=c.li_error))
        self.monitors.append(MomentumMonitor(
            warn=c.momentum_warn, error=c.momentum_error,
            com_warn=c.com_warn, com_error=c.com_error,
        ))
        if c.probe_interval > 0:
            self.monitors.append(ForceErrorProbe(
                interval=c.probe_interval, n_samples=c.probe_samples,
                warn_factor=c.probe_warn, error_factor=c.probe_error,
                seed=c.probe_seed,
            ))
        if c.structure:
            self.monitors.append(TreeShapeMonitor(
                occupancy_factor=c.occupancy_factor_warn, depth_warn=c.depth_warn,
            ))
            self.monitors.append(ExecutorBalanceMonitor(
                warn=c.imbalance_warn, error=c.imbalance_error,
            ))
            self.monitors.append(InteractionDriftMonitor(
                jump_factor=c.interaction_jump_warn,
            ))
            self.monitors.append(RecoveryMonitor())
        self.events_seen = {"info": 0, "warn": 0, "error": 0}
        self.fatal: HealthError | None = None
        self._steps = 0

    # ----- driver hooks ---------------------------------------------------------
    def _run(self, hook: str, ctx: HealthContext) -> list[HealthEvent]:
        out = []
        for mon in self.monitors:
            for ev in getattr(mon, hook)(ctx):
                self.events_seen[ev.severity] = self.events_seen.get(ev.severity, 0) + 1
                if ev.severity != "info" or self.config.emit_info:
                    out.append(ev)
            tripped = getattr(mon, "fatal", None)
            if tripped is not None and self.fatal is None:
                self.fatal = tripped
        return out

    def on_init(self, sim, acc) -> list[HealthEvent]:
        """After the pre-loop force evaluation (step 0 baselines)."""
        return self._run("start", HealthContext(sim=sim, step=0, acc=acc))

    def on_step(self, sim, record, acc) -> list[HealthEvent]:
        self._steps += 1
        return self._run(
            "check", HealthContext(sim=sim, step=self._steps, acc=acc, record=record)
        )

    # ----- reading --------------------------------------------------------------
    def summary(self) -> dict:
        """Run-level health rollup (JSON-ready; lands in ``run_totals``)."""
        return {
            "steps": self._steps,
            "events": dict(self.events_seen),
            "fatal": str(self.fatal) if self.fatal is not None else None,
            "monitors": {m.name: m.summary() for m in self.monitors},
        }


def make_health(spec) -> "HealthMonitor | NullHealth":
    """Normalize a health spec: None/False -> the no-op singleton,
    a :class:`HealthConfig` -> a fresh monitor, a monitor -> itself."""
    if spec is None or spec is False:
        return NULL_HEALTH
    if isinstance(spec, (HealthMonitor, NullHealth)):
        return spec
    if spec is True:
        return HealthMonitor(HealthConfig())
    if isinstance(spec, HealthConfig):
        return HealthMonitor(spec) if spec.enabled else NULL_HEALTH
    raise TypeError(f"cannot build a health monitor from {type(spec).__name__}")
