"""Force smoothing kernels (paper §2.5).

The standard practice in cosmological N-body work is to soften the
force below a smoothing scale.  2HOT implements the Plummer and spline
kernels plus the additional kernels of Dehnen (2001), and adopts
Dehnen's *compensating* K1 kernel for production because its force —
slightly super-Newtonian near the outer edge of the kernel —
compensates the interior suppression and removes the leading force
bias.

Every kernel provides, for the pairwise interaction of a unit-mass
source at separation r,

* ``force_factor(r)``: F(r) with acc = -m * dx * F(r)   (F -> 1/r^3),
* ``potential(r)``:    psi(r) with pot = +m * psi(r)    (psi -> 1/r),

both in float64 — the definitions.  The force evaluator's compiled pp
loop (:mod:`repro.gravity.native`) applies them inside the kernel's
support radius ``h`` and forms Newtonian 1/r^3 and 1/r outside it.

The K1 kernel here is derived from its defining property — enclosed
mass M(x) with zero mean force bias, i.e. ∫ 4π y^3 rho(y) dy = 0 over
the kernel, achieved with the density rho(x) ∝ (1-x^2)(1-2x^2) which
is negative in an outer shell — and verified in the tests to produce
edge forces above Newtonian (the property the paper cites).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SofteningKernel",
    "NoSoftening",
    "PlummerSoftening",
    "SplineSoftening",
    "DehnenK1Softening",
    "make_softening",
]


class SofteningKernel:
    """Interface for pairwise force smoothing."""

    #: nominal smoothing length (meaning depends on the kernel family)
    eps: float = 0.0
    #: support radius: a pair at r >= h interacts exactly as 1/r
    h: float = np.inf

    def force_factor(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def potential(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class NoSoftening(SofteningKernel):
    """Pure Newtonian 1/r^2 (diverges at r=0; callers guard self-pairs)."""

    h = 0.0

    def __init__(self):
        self.eps = 0.0

    def force_factor(self, r):
        r = np.asarray(r, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return 1.0 / (r * r * r)

    def potential(self, r):
        r = np.asarray(r, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return 1.0 / r


class PlummerSoftening(SofteningKernel):
    """F = (r^2 + eps^2)^{-3/2}: globally biased low, but simple."""

    def __init__(self, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)

    def force_factor(self, r):
        r = np.asarray(r, dtype=np.float64)
        return (r * r + self.eps * self.eps) ** -1.5

    def potential(self, r):
        r = np.asarray(r, dtype=np.float64)
        return (r * r + self.eps * self.eps) ** -0.5


class SplineSoftening(SofteningKernel):
    """Monaghan-Lattanzio cubic spline, GADGET-2 convention h = 2.8 eps.

    Exactly Newtonian for r >= h; matches the Plummer eps at small r in
    the sense used by GADGET-2 (phi(0) = -1/eps).
    """

    def __init__(self, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)
        self.h = 2.8 * float(eps)

    def force_factor(self, r):
        # piecewise forms exactly as in GADGET-2's forcetree.c
        r = np.asarray(r, dtype=np.float64)
        h = self.h
        u = r / h
        out = np.empty_like(r)
        far = u >= 1.0
        out[far] = 1.0 / np.maximum(r[far], 1e-300) ** 3
        near = u < 0.5
        un = u[near]
        out[near] = (10.666666666667 + un * un * (32.0 * un - 38.4)) / h**3
        mid = ~far & ~near
        um = u[mid]
        out[mid] = (
            21.333333333333
            - 48.0 * um
            + 38.4 * um * um
            - 10.666666666667 * um**3
            - 0.066666666667 / um**3
        ) / h**3
        return out

    def potential(self, r):
        r = np.asarray(r, dtype=np.float64)
        h = self.h
        u = r / h
        out = np.empty_like(r)
        far = u >= 1.0
        out[far] = 1.0 / np.maximum(r[far], 1e-300)
        near = u < 0.5
        un = u[near]
        out[near] = -1.0 / h * (-2.8 + un**2 * (5.333333333333 + un**2 * (6.4 * un - 9.6)))
        mid = ~far & ~near
        um = u[mid]
        out[mid] = -1.0 / h * (
            -3.2
            + 0.066666666667 / um
            + um**2
            * (10.666666666667 + um * (-16.0 + um * (9.6 - 2.133333333333 * um)))
        )
        return out


class DehnenK1Softening(SofteningKernel):
    """Dehnen (2001) compensating K1 kernel.

    Density rho(x) = (105 / 8 pi h^3) (1 - x^2)(1 - 2 x^2) for x = r/h < 1
    (negative in the outer shell), zero outside.  Enclosed mass

        M(x) = 35/2 x^3 - 63/2 x^5 + 15 x^7

    reaches M > 1 inside the kernel, so the edge force exceeds
    Newtonian — the compensation the paper relies on.  The mean force
    bias ∫ 4π y^3 rho dy vanishes identically.
    """

    def __init__(self, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)
        self.h = float(eps)

    def force_factor(self, r):
        r = np.asarray(r, dtype=np.float64)
        h = self.h
        u = np.minimum(r / h, 1.0)
        inside = r < h
        out = np.empty_like(r)
        rsafe = np.maximum(r, 1e-300)
        out[~inside] = 1.0 / rsafe[~inside] ** 3
        ui = u[inside]
        # F = M(u)/r^3 = (17.5 u^3 - 31.5 u^5 + 15 u^7) / (u h)^3
        out[inside] = (17.5 - 31.5 * ui**2 + 15.0 * ui**4) / h**3
        return out

    def potential(self, r):
        r = np.asarray(r, dtype=np.float64)
        h = self.h
        u = r / h
        out = np.empty_like(r)
        far = u >= 1.0
        out[far] = 1.0 / np.maximum(r[far], 1e-300)
        ui = u[~far]
        # psi(u) = (1/h) (35/8 - 35/4 u^2 + 63/8 u^4 - 5/2 u^6)
        out[~far] = (4.375 - 8.75 * ui**2 + 7.875 * ui**4 - 2.5 * ui**6) / h
        return out


def make_softening(kind: str, eps: float) -> SofteningKernel:
    """Factory: 'none', 'plummer', 'spline', or 'dehnen_k1'."""
    kind = kind.lower()
    if kind == "none":
        return NoSoftening()
    if kind == "plummer":
        return PlummerSoftening(eps)
    if kind == "spline":
        return SplineSoftening(eps)
    if kind in ("dehnen_k1", "k1"):
        return DehnenK1Softening(eps)
    raise ValueError(f"unknown softening kind {kind!r}")
