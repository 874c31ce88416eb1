"""Sampled in-situ force-error probe (the paper's §5 ladder, in flight).

The treecode promises an *absolute* acceleration error per particle
bounded by ``errtol`` (§2.2.2).  The probe audits that promise while
the run is alive: every few steps it draws a small random particle
subset, recomputes their accelerations with the verification rungs of
:mod:`repro.gravity.direct` / :mod:`repro.gravity.ewald`, and compares
the realized error of the solver's last force call against the MAC
budget.

Reference construction
----------------------
* Open boundaries: direct summation with the solver's softening kernel
  is exact — one :func:`~repro.gravity.direct.direct_accelerations`
  call per sample.
* Periodic boundaries: the background-subtracted treecode solves the
  delta-rho (Ewald) problem, so the reference is the Ewald sum of the
  *unsoftened* kernel plus a softening correction evaluated by two
  minimum-image direct sums::

      a_ref = a_ewald + (a_direct^softened - a_direct^newtonian)

  The correction cancels exactly outside the kernel's near field
  (where minimum image and the full lattice sum agree), so the
  composite is exact to Ewald truncation (~1e-9 with the probe's
  image/mode counts) — far below any useful errtol.

Cost is O(samples x N) per probe, a vanishing fraction of a force
solve for the probe's 8 samples, and zero when the probe is off.
"""

from __future__ import annotations

import numpy as np

from .monitors import HealthContext, HealthEvent, Monitor, classify

__all__ = [
    "reference_accelerations",
    "force_balance",
    "probe_force_error",
    "ForceErrorProbe",
]


def force_balance(mass: np.ndarray, acc: np.ndarray) -> float:
    """Normalized net-force residual ``|sum m_i a_i| / sum m_i |a_i|``.

    An isolated self-gravitating system must have zero total force
    (Newton's third law), so this ratio sits at the floating-point
    floor (~1e-15 .. 1e-12) when every interaction is evaluated
    mutually — the fmm-hybrid traversal's cell-cell accepts are
    momentum-conserving by construction.  One-sided cell accepts break
    the pairwise symmetry and push the ratio up to the MAC error level.
    Periodic runs add non-mutual lattice/prism corrections, so the
    floor argument only holds for open boundaries without background
    subtraction.
    """
    mass = np.asarray(mass, dtype=np.float64)
    acc = np.asarray(acc, dtype=np.float64)
    net = np.linalg.norm((mass[:, None] * acc).sum(axis=0))
    scale = float((mass * np.linalg.norm(acc, axis=1)).sum())
    return float(net / max(scale, 1e-300))


#: sources per vectorized block of :func:`_ewald_acc_at`
_EWALD_BLOCK = 2048


def _ewald_acc_at(ew, pos, mass, i) -> np.ndarray:
    """Ewald acceleration at particle ``i``, blocked over sources."""
    keep = np.arange(len(pos)) != i
    dx = pos[i] - pos[keep]
    m = mass[keep]
    out = np.zeros(3)
    for s in range(0, len(dx), _EWALD_BLOCK):
        e = min(s + _EWALD_BLOCK, len(dx))
        out += (ew.acceleration_pair(dx[s:e]) * m[s:e, None]).sum(axis=0)
    return out


def reference_accelerations(
    pos: np.ndarray,
    mass: np.ndarray,
    indices: np.ndarray,
    softening=None,
    periodic: bool = False,
    box: float = 1.0,
    ewald=None,
) -> np.ndarray:
    """Exact-reference accelerations at ``pos[indices]`` (see module doc)."""
    from ..gravity.direct import direct_accelerations

    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    if periodic and ewald is None:
        from ..gravity.ewald import EwaldSummation

        # rmax=2/kmax=4 at alpha*L=2 truncates below ~1e-9 absolute —
        # plenty under any errtol worth probing, and 6x cheaper than
        # the reference-grade defaults
        ewald = EwaldSummation(box=box, rmax=2, kmax=4)
    out = np.empty((len(indices), 3), dtype=np.float64)
    n = len(pos)
    for j, i in enumerate(indices):
        keep = np.arange(n) != i
        src, m = pos[keep], mass[keep]
        tgt = pos[i: i + 1]
        if not periodic:
            out[j] = direct_accelerations(src, m, softening=softening, targets=tgt)[0]
            continue
        a = _ewald_acc_at(ewald, pos, mass, int(i))
        if softening is not None:
            a_soft = direct_accelerations(src, m, softening=softening, box=box, targets=tgt)[0]
            a_newt = direct_accelerations(src, m, softening=None, box=box, targets=tgt)[0]
            a = a + (a_soft - a_newt)
        out[j] = a
    return out


def _solver_force_setup(solver) -> tuple:
    """(periodic, softening kernel, MAC budget) of a force engine."""
    from ..gravity.smoothing import make_softening

    cfg = solver.config
    kernel = make_softening(cfg.softening, cfg.eps)
    # TreePM has no `periodic` knob — its PM half is intrinsically periodic
    periodic = bool(getattr(cfg, "periodic", True))
    return periodic, kernel, float(cfg.errtol)


def probe_force_error(
    sim, acc: np.ndarray, n_samples: int = 8, rng=None, ewald=None
) -> dict:
    """Compare ``acc`` (the solver's last field) against the reference
    at a random particle subset; returns the realized-error summary."""
    rng = np.random.default_rng(rng)
    ps = sim.particles
    n = len(ps)
    idx = rng.choice(n, size=min(n_samples, n), replace=False)
    periodic, kernel, budget = _solver_force_setup(sim._solver)
    ref = reference_accelerations(
        ps.pos, ps.mass, idx, softening=kernel, periodic=periodic, ewald=ewald
    )
    err = np.linalg.norm(np.asarray(acc, dtype=np.float64)[idx] - ref, axis=1)
    ref_mag = np.linalg.norm(ref, axis=1)
    p50, p90, p99 = np.percentile(err, (50, 90, 99)) / budget
    return {
        "n_samples": int(len(idx)),
        "max_abs_err": float(err.max()),
        "rms_abs_err": float(np.sqrt((err**2).mean())),
        "max_rel_err": float((err / np.maximum(ref_mag, 1e-300)).max()),
        # the error distribution in units of the budget
        "p50_over_budget": float(p50),
        "p90_over_budget": float(p90),
        "p99_over_budget": float(p99),
        "mac_budget": budget,
        "periodic": periodic,
        # whole-field momentum-conservation diagnostic (free: no extra
        # reference sums) — see :func:`force_balance`
        "momentum_balance": force_balance(ps.mass, acc),
    }


class ForceErrorProbe(Monitor):
    """Run the probe every ``interval`` steps and grade the realized
    absolute error against the MAC budget (warn/error are multiples of
    ``errtol``; Ewald state is cached across probes)."""

    name = "force_error"
    N_SAMPLES = 8
    WARN_FACTOR = 1.0
    ERROR_FACTOR = 10.0
    #: the step number is added, so each probe draws a fresh subset
    SEED = 20131117

    def __init__(self, interval: int = 4):
        self.interval = max(int(interval), 1)
        self._ewald = None
        self.last: dict = {}
        self.max_abs_err = 0.0
        self.max_momentum_balance = 0.0
        self.probes = 0

    def _probe(self, ctx: HealthContext) -> list[HealthEvent]:
        if ctx.acc is None:
            return []
        if self._ewald is None and bool(
            getattr(ctx.sim._solver.config, "periodic", True)
        ):
            from ..gravity.ewald import EwaldSummation

            self._ewald = EwaldSummation(box=1.0, rmax=2, kmax=4)
        res = probe_force_error(
            ctx.sim, ctx.acc, n_samples=self.N_SAMPLES,
            rng=np.random.default_rng(self.SEED + ctx.step), ewald=self._ewald,
        )
        self.probes += 1
        self.last = res
        self.max_abs_err = max(self.max_abs_err, res["max_abs_err"])
        self.max_momentum_balance = max(
            self.max_momentum_balance, res["momentum_balance"]
        )
        budget = res["mac_budget"]
        ratio = res["max_abs_err"] / max(budget, 1e-300)
        sev = classify(ratio, self.WARN_FACTOR, self.ERROR_FACTOR)
        return [self._event(
            ctx, sev,
            f"sampled force error {res['max_abs_err']:.3e} "
            f"({ratio:.2f} x MAC budget {budget:.1e}, "
            f"{res['n_samples']} samples, "
            f"momentum balance {res['momentum_balance']:.1e})",
            value=res["max_abs_err"], threshold=budget * self.WARN_FACTOR,
        )]

    def start(self, ctx: HealthContext) -> list[HealthEvent]:
        return self._probe(ctx)

    def check(self, ctx: HealthContext) -> list[HealthEvent]:
        if ctx.step % self.interval:
            return []
        return self._probe(ctx)

    def summary(self) -> dict:
        return {"probes": self.probes, "max_abs_err": self.max_abs_err,
                "max_momentum_balance": self.max_momentum_balance,
                "last": dict(self.last)}
