"""Symplectic comoving leapfrog (paper §2.3).

Implements the Quinn et al. (1997) kick-drift-kick scheme that 2HOT
"fully adopted" after the logarithmic-timestep leapfrog of Efstathiou
et al. (1985) proved inadequate:

* drift:  x += p * ∫ da / (a^3 E)     (exact free motion in canonical vars)
* kick:   p += g(x) * ∫ da / (a^2 E)  (g: background-subtracted comoving acc)

Two of the paper's specific refinements are reproduced:

* **Timestep changes restricted to exact factors of two** — every step
  uses d(ln a) = dlna_max / 2^k; "occasional larger adjustments rather
  than continuous small adjustment ... appears to provide slightly
  better convergence" than GADGET-2's incremental changes.  A change
  of timestep breaks symplecticity, so the factor-of-two ladder
  changes it as rarely as possible.
* **Checkpoint-preserving leapfrog offset** — the stepper operates on
  a :class:`~repro.simulation.particles.ParticleSet` whose positions
  and momenta carry separate epochs (a, a_mom); restarting from a
  half-stepped state keeps 2nd-order accuracy instead of re-priming
  with a 1st-order initial half kick.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..cosmology import CosmologyParams, DriftKickIntegrals
from .particles import ParticleSet

__all__ = ["StepController", "LeapfrogIntegrator"]

#: one set of drift/kick integrals per cosmology in the process
_integrals = functools.lru_cache(maxsize=8)(DriftKickIntegrals)


@dataclass
class StepController:
    """Chooses d(ln a) from accuracy criteria, quantized to 2^-k.

    The base step is ``dlna_max``; it is divided by the smallest power
    of two such that both criteria pass:

    * acceleration criterion: dt^2 * max|dp/dt|/a_typ <= ETA_ACC * eps
      (a displacement-per-step limit against the softening length),
    * velocity criterion:     dt * max|v| <= ETA_VEL * box fraction.

    When even ``dlna_max / 2^max_refine`` fails them the cap binds: that
    step is taken anyway and counted in ``capped_steps`` and in the
    tracer counter ``simulation.capped_steps``.
    """

    ETA_ACC = 0.5
    ETA_VEL = 0.05

    dlna_max: float = 0.125
    eps: float = 0.01
    #: cap on factor-of-two refinements; with global timesteps an
    #: unbounded criterion would let a single collapsed halo core drive
    #: the whole box to micro-steps (production codes use per-particle
    #: step hierarchies for this; see DESIGN.md)
    max_refine: int = 4
    #: steps chosen at the cap that still fail a criterion
    capped_steps: int = field(init=False, default=0)

    def choose(
        self,
        params: CosmologyParams,
        ps: ParticleSet,
        acc: np.ndarray,
        a: float,
        tracer=None,
    ) -> float:
        dk = _integrals(params)
        vmax = float(np.sqrt((ps.mom**2).sum(axis=1)).max())
        amax = float(np.sqrt((acc**2).sum(axis=1)).max())
        for k in range(self.max_refine + 1):
            dlna = self.dlna_max / (1 << k)
            a1 = a * np.exp(dlna)
            drift = dk.drift_factor(a, a1)
            kick = dk.kick_factor(a, a1)
            dx_vel = vmax * drift
            dx_acc = kick * drift * amax
            if dx_vel <= self.ETA_VEL and dx_acc <= self.ETA_ACC * self.eps:
                return dlna
        self.capped_steps += 1
        if tracer is not None:
            tracer.count("simulation.capped_steps")
        return self.dlna_max / (1 << self.max_refine)


@dataclass
class LeapfrogIntegrator:
    """KDK stepper over ln(a) with pluggable force callback.

    ``force`` maps a ParticleSet to comoving accelerations g with
    dp/dt = -g/a... (sign handled internally: the callback returns the
    attractive acceleration in comoving coordinates, i.e. exactly what
    :class:`repro.gravity.TreecodeGravity` produces in code units).
    """

    params: CosmologyParams
    force: Callable[[ParticleSet], np.ndarray]
    n_force_calls: int = field(init=False, default=0)

    def __post_init__(self):
        self._dk = _integrals(self.params)

    def kick(self, ps: ParticleSet, acc: np.ndarray, a0: float, a1: float) -> None:
        ps.mom += acc * self._dk.kick_factor(a0, a1)
        ps.a_mom = a1

    def drift(self, ps: ParticleSet, a0: float, a1: float) -> None:
        ps.pos += ps.mom * self._dk.drift_factor(a0, a1)
        ps.wrap()
        ps.a = a1

    def step_kdk(self, ps: ParticleSet, a_next: float, acc0: np.ndarray | None = None):
        """One synchronized KDK step from ps.a to a_next.

        Requires ps.a == ps.a_mom (synchronized state).  Returns the
        acceleration at the end of the step (reusable as the next
        step's acc0 — one force evaluation per step).
        """
        if abs(ps.a - ps.a_mom) > 1e-14:
            raise ValueError("step_kdk requires synchronized positions/momenta")
        a0, a1 = ps.a, a_next
        am = np.sqrt(a0 * a1)  # geometric midpoint in ln a
        if acc0 is None:
            acc0 = self.force(ps)
            self.n_force_calls += 1
        self.kick(ps, acc0, a0, am)
        self.drift(ps, a0, a1)
        acc1 = self.force(ps)
        self.n_force_calls += 1
        self.kick(ps, acc1, am, a1)
        return acc1
