"""When to checkpoint: every N steps, or at the Young/Daly optimum.

The paper's §3.4.2 arithmetic — one failure per ~80 wallclock hours,
~6 minutes per write, checkpoint every ~4 hours — is the Young/Daly
first-order optimum implemented analytically in
:func:`repro.perfmodel.checkpoint.optimal_interval`.  This scheduler
turns that model into a live policy: configure the MTBF, *measure* the
write cost from the first checkpoint actually written, and space the
rest ``sqrt(2 * write * MTBF)`` apart.  The fixed every-N-steps policy
serves tests and short runs where the optimum degenerates; it counts
completed steps of the whole run, so a resumed run keeps its cadence.
"""

from __future__ import annotations

import math

from ..perfmodel.checkpoint import optimal_interval

__all__ = ["CheckpointScheduler"]

#: floor on the Young/Daly spacing [s]: a write measured at ~0 s must
#: not turn into a checkpoint after every step
_DALY_FLOOR_S = 1.0


class CheckpointScheduler:
    """Decides, step by step, whether a checkpoint is due.

    Policies compose with OR — a checkpoint is written when *any*
    enabled criterion fires:

    * ``every_steps > 0`` — after every completed step that is a
      multiple of N (steps count across resumes);
    * ``mtbf_h > 0`` — Young/Daly: the first checkpoint is written
      immediately (it doubles as the write-cost measurement), then the
      wall interval is re-derived from the measured cost via
      ``optimal_interval``.

    The driver calls :meth:`due` after each step and :meth:`wrote`
    after each write (with the measured seconds).
    """

    def __init__(self, every_steps: int = 0, mtbf_h: float = 0.0):
        self.every_steps = int(every_steps)
        self.mtbf_h = float(mtbf_h)
        self.write_s: float | None = None
        self.daly_interval_s: float | None = None
        self.n_written = 0
        self._t_last_write: float | None = None

    @property
    def enabled(self) -> bool:
        return self.every_steps > 0 or self.mtbf_h > 0

    def due(self, step: int, now: float) -> bool:
        """Should a checkpoint be written after completed step ``step``?"""
        if self.every_steps > 0 and step % self.every_steps == 0:
            return True
        if self.mtbf_h > 0:
            if self.write_s is None:
                # bootstrap: first write measures the cost the optimum needs
                return True
            if now - self._t_last_write >= self.daly_interval_s:
                return True
        return False

    def wrote(self, now: float, write_s: float) -> None:
        """Record a completed write; re-derives the Young/Daly spacing."""
        self.n_written += 1
        self._t_last_write = now
        # running average keeps the interval honest as file size grows
        if self.write_s is None:
            self.write_s = float(write_s)
        else:
            self.write_s += (float(write_s) - self.write_s) / self.n_written
        if self.mtbf_h > 0:
            tau_h = optimal_interval(self.write_s / 3600.0, self.mtbf_h)
            self.daly_interval_s = max(tau_h * 3600.0, _DALY_FLOOR_S)

    def describe(self) -> dict:
        """JSON-ready policy summary (lands in checkpoint events)."""
        d = {
            "every_steps": self.every_steps,
            "mtbf_h": self.mtbf_h,
            "n_written": self.n_written,
        }
        if self.write_s is not None:
            d["write_s"] = self.write_s
        if self.daly_interval_s is not None and math.isfinite(self.daly_interval_s):
            d["daly_interval_s"] = self.daly_interval_s
        return d
