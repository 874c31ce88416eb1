"""Health orchestration: the switch and the monitor set.

A run is monitored when it is built with
``Simulation(config, health=HealthConfig(...))`` (or resumed with
``Simulation.resume(path, health=...)``); the default ``health=None``
builds nothing, and the driver pays one ``is None`` test per step, as
the tracer's :data:`~repro.observe.NULL_TRACER` does for recording.
The monitor is never part of :class:`~repro.simulation.SimulationConfig`,
so a monitored and an unmonitored run of the same physics share one
config hash.

A :class:`HealthMonitor` runs every monitor per step, collects their
events, and arms a fail-fast :class:`~.monitors.HealthError` when the
state guard trips (the driver streams the event to the tracer's sink,
raises, and the run's records are on disk before the error leaves
``run``, so the trace records the cause of death).  The warn/error
thresholds are class constants of the monitor that grades them.
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
    StepCapMonitor,
)
from .probe import ForceErrorProbe
from .structural import (
    ExecutorBalanceMonitor,
    InteractionDriftMonitor,
    RecoveryMonitor,
    TreeShapeMonitor,
)

__all__ = ["HealthConfig", "HealthMonitor"]


@dataclass
class HealthConfig:
    """The two settings of a monitored run."""

    #: where the state guard writes its diagnostic ``.npz`` snapshot
    snapshot_dir: str = "."
    #: sampled force-error probe every N steps (0 = off: it costs O(samples x N))
    probe_interval: int = 0


class HealthMonitor:
    """Run every monitor per step; stream warn and error events.

    ``info`` events are counted in :meth:`summary` but not returned.
    """

    def __init__(self, config: HealthConfig):
        self.monitors = [
            StateGuard(snapshot_dir=config.snapshot_dir),
            LayzerIrvineMonitor(),
            MomentumMonitor(),
            StepCapMonitor(),
        ]
        if config.probe_interval > 0:
            self.monitors.append(ForceErrorProbe(interval=config.probe_interval))
        self.monitors += [
            TreeShapeMonitor(),
            ExecutorBalanceMonitor(),
            InteractionDriftMonitor(),
            RecoveryMonitor(),
        ]
        self.events_seen = {"info": 0, "warn": 0, "error": 0}
        self.fatal: HealthError | None = None
        self._steps = 0

    # ----- driver hooks ---------------------------------------------------------
    def _run(self, hook: str, ctx: HealthContext) -> list[HealthEvent]:
        out = []
        for mon in self.monitors:
            for ev in getattr(mon, hook)(ctx):
                self.events_seen[ev.severity] = self.events_seen.get(ev.severity, 0) + 1
                if ev.severity != "info":
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
