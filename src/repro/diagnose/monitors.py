"""Health events and the physics monitors that emit them.

The paper buys correctness with machinery whose failure is *quiet*:
the absolute-error MAC (§2.2.2) bounds each interaction, symplectic
integration (§2.3) conserves the Layzer-Irvine integral, and mutual
gravity conserves total momentum exactly (Dehnen 2000) — but nothing
in a running simulation says so unless something watches.  Each
monitor here observes one conserved quantity (or invariant) per step,
classifies the drift against its warn/error class constants, and
reports structured :class:`HealthEvent` records that stream through
the same JSONL sink as the per-step records.

Monitors follow one protocol: ``start(ctx)`` once after the pre-loop
force evaluation, ``check(ctx)`` per step returning a list of events,
``summary()`` at the end.  A :class:`HealthContext` carries the live
simulation object; monitors read state, never mutate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "SEVERITIES",
    "HealthError",
    "HealthEvent",
    "HealthContext",
    "Monitor",
    "LayzerIrvineMonitor",
    "MomentumMonitor",
    "StateGuard",
    "StepCapMonitor",
]

#: severity order: events escalate left to right
SEVERITIES = ("info", "warn", "error")


class HealthError(RuntimeError):
    """Fail-fast health failure (non-finite state, guard tripped).

    Carries the snapshot path written before raising so the corrupted
    state can be inspected instead of silently reaching a checkpoint.
    """

    def __init__(self, message: str, snapshot: str | None = None):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass
class HealthEvent:
    """One classified observation from one monitor."""

    monitor: str
    severity: str  # one of SEVERITIES
    message: str
    value: float | None = None
    threshold: float | None = None
    step: int | None = None
    a: float | None = None

    def to_record(self) -> dict:
        """The structured JSONL record (``type: "health"``)."""
        rec = {"type": "health", "monitor": self.monitor, "severity": self.severity,
               "message": self.message}
        for key in ("value", "threshold", "step", "a"):
            v = getattr(self, key)
            if v is not None:
                rec[key] = v
        return rec


@dataclass
class HealthContext:
    """What monitors see each step: the live simulation and step state."""

    sim: object
    step: int
    acc: np.ndarray | None = None
    record: object | None = None

    @property
    def a(self) -> float:
        return float(self.sim.particles.a)


def classify(value: float, warn: float, error: float) -> str:
    """Severity of ``value`` against warn/error thresholds (info if below).

    A non-finite value is always ``"error"`` — NaN compares False
    against any threshold and must not slip through as healthy.
    """
    if not np.isfinite(value):
        return "error"
    if error > 0 and value > error:
        return "error"
    if warn > 0 and value > warn:
        return "warn"
    return "info"


class Monitor:
    """Base monitor: subclasses set ``name`` and implement ``check``."""

    name = "monitor"

    def start(self, ctx: HealthContext) -> list[HealthEvent]:
        return []

    def check(self, ctx: HealthContext) -> list[HealthEvent]:
        return []

    def summary(self) -> dict:
        return {}

    def _event(self, ctx, severity, message, value=None, threshold=None) -> HealthEvent:
        return HealthEvent(
            monitor=self.name, severity=severity, message=message,
            value=None if value is None else float(value),
            threshold=None if threshold is None else float(threshold),
            step=ctx.step, a=ctx.a,
        )


class LayzerIrvineMonitor(Monitor):
    """Per-step budget on the Layzer-Irvine (cosmic energy) drift.

    The driver accumulates ``T + W + ∫(da/a)(2T + W)``, which exact
    forces and exact integration keep constant; its drift measures the
    combined force + integration error (§2.3).  The drift is normalized
    by ``max(|T|, |W|)`` so the budget is scale-free.
    """

    name = "layzer_irvine"
    #: drift as a fraction of max(|T|, |W|)
    WARN = 0.05
    ERROR = 0.5

    def __init__(self):
        self._li0: float | None = None
        self.max_drift = 0.0

    def check(self, ctx: HealthContext) -> list[HealthEvent]:
        rec = ctx.record
        if rec is None or not getattr(ctx.sim.config, "track_energy", False):
            return []
        li = float(rec.layzer_irvine)
        if self._li0 is None:
            self._li0 = li
            return []
        scale = max(abs(float(rec.kinetic)), abs(float(rec.potential)), 1e-30)
        drift = abs(li - self._li0) / scale
        self.max_drift = max(self.max_drift, drift)
        sev = classify(drift, self.WARN, self.ERROR)
        return [self._event(
            ctx, sev,
            f"Layzer-Irvine drift {drift:.3e} of max(|T|,|W|)",
            value=drift, threshold=self.WARN,
        )]

    def summary(self) -> dict:
        return {"max_drift": self.max_drift, "warn": self.WARN, "error": self.ERROR}


class StepCapMonitor(Monitor):
    """Steps the factor-of-two ladder could not make small enough.

    :class:`~repro.simulation.integrator.StepController` takes
    ``dlna_max / 2^max_refine`` when even that step fails its
    displacement criteria; such a step integrates with an error the
    criteria were meant to bound.  Warn on every one.
    """

    name = "step_cap"

    def __init__(self):
        self._seen = 0
        self.capped = 0

    def start(self, ctx: HealthContext) -> list[HealthEvent]:
        self._seen = ctx.sim.controller.capped_steps
        return []

    def check(self, ctx: HealthContext) -> list[HealthEvent]:
        ctl = ctx.sim.controller
        new, self._seen = ctl.capped_steps - self._seen, ctl.capped_steps
        if not new:
            return []
        self.capped += new
        return [self._event(
            ctx, "warn",
            f"step capped at dlna_max / 2^{ctl.max_refine} and still past its "
            f"criterion ({self.capped} of {ctx.step} steps so far)",
            value=self.capped,
        )]

    def summary(self) -> dict:
        return {"capped_steps": self.capped}


class MomentumMonitor(Monitor):
    """Total-momentum and center-of-mass drift.

    Mutual pairwise interactions conserve total canonical momentum
    *exactly* (Dehnen 2000); a one-sided tree approximation does not,
    so the drift is a direct, cheap proxy for force error.  The
    center-of-mass track accumulates mass-weighted minimum-image
    displacements (robust against periodic wrapping) and should stay
    put when total momentum stays zero.
    """

    name = "momentum"
    #: relative total-momentum drift
    WARN = 1e-3
    ERROR = 5e-2
    #: center-of-mass drift in box lengths
    COM_WARN = 1e-3
    COM_ERROR = 5e-2

    def __init__(self):
        self._p0: np.ndarray | None = None
        self._prev_pos: np.ndarray | None = None
        self._com_shift = np.zeros(3)
        self.max_drift = 0.0
        self.max_com_drift = 0.0

    def start(self, ctx: HealthContext) -> list[HealthEvent]:
        ps = ctx.sim.particles
        self._p0 = ps.momentum_total().copy()
        self._prev_pos = ps.pos.copy()
        return []

    def check(self, ctx: HealthContext) -> list[HealthEvent]:
        ps = ctx.sim.particles
        if self._p0 is None:
            return self.start(ctx)
        p = ps.momentum_total()
        scale = max(float(np.abs(ps.mass[:, None] * ps.mom).sum()), 1e-30)
        drift = float(np.abs(p - self._p0).max()) / scale
        self.max_drift = max(self.max_drift, drift)
        events = [self._event(
            ctx, classify(drift, self.WARN, self.ERROR),
            f"total momentum drift {drift:.3e} (relative)",
            value=drift, threshold=self.WARN,
        )]
        # center of mass via minimum-image displacements since last step
        d = ps.pos - self._prev_pos
        d -= np.round(d)
        w = ps.mass / max(ps.total_mass, 1e-300)
        self._com_shift += w @ d
        self._prev_pos = ps.pos.copy()
        com = float(np.abs(self._com_shift).max())  # box units
        self.max_com_drift = max(self.max_com_drift, com)
        events.append(self._event(
            ctx, classify(com, self.COM_WARN, self.COM_ERROR),
            f"center-of-mass drift {com:.3e} box lengths",
            value=com, threshold=self.COM_WARN,
        ))
        return events

    def summary(self) -> dict:
        return {"max_drift": self.max_drift, "max_com_drift": self.max_com_drift,
                "warn": self.WARN, "error": self.ERROR}


class StateGuard(Monitor):
    """NaN/overflow guard on positions and momenta.

    A non-finite value anywhere is unrecoverable — integrating it
    forward corrupts every subsequent state and, worse, the next
    checkpoint.  Accelerations need no scan here: every solve raises
    :class:`FloatingPointError` on non-finite output
    (:func:`repro.gravity.solver.raise_if_nonfinite`), so a non-finite
    value can only enter the state after the solve, e.g. from a
    callback.  The guard writes a diagnostic snapshot (``.npz`` with
    the full particle state and acceleration) and arms a
    :class:`HealthError` that the driver raises *after* streaming the
    event, so the trace records why the run died.
    """

    name = "state_guard"

    def __init__(self, snapshot_dir: str | Path = "."):
        self.snapshot_dir = Path(snapshot_dir)
        self.fatal: HealthError | None = None
        self.checks = 0

    def _scan(self, ctx: HealthContext) -> list[str]:
        ps = ctx.sim.particles
        bad = []
        for label, arr in (("pos", ps.pos), ("mom", ps.mom)):
            if not np.isfinite(arr).all():
                n = int(np.count_nonzero(~np.isfinite(arr)))
                bad.append(f"{label}: {n} non-finite")
        return bad

    def _snapshot(self, ctx: HealthContext) -> str:
        ps = ctx.sim.particles
        self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        path = self.snapshot_dir / f"health_snapshot_step{ctx.step:05d}.npz"
        np.savez_compressed(
            path, pos=ps.pos, mom=ps.mom, mass=ps.mass, ids=ps.ids,
            acc=ctx.acc if ctx.acc is not None else np.empty((0, 3)),
            a=ps.a, a_mom=ps.a_mom, step=ctx.step,
        )
        return str(path)

    def _check(self, ctx: HealthContext) -> list[HealthEvent]:
        self.checks += 1
        bad = self._scan(ctx)
        if not bad:
            return []
        snap = self._snapshot(ctx)
        msg = f"non-finite state ({'; '.join(bad)}); snapshot: {snap}"
        self.fatal = HealthError(msg, snapshot=snap)
        return [self._event(ctx, "error", msg, value=1.0)]

    start = _check
    check = _check

    def summary(self) -> dict:
        return {"checks": self.checks, "tripped": self.fatal is not None}
