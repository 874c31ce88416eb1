"""Analytic gravity of a homogeneous rectangular prism.

2HOT's background subtraction needs the force *inside* a uniform cube
(§2.2.1, Fig. 2): near the inter-particle separation the treecode
defines a cube surrounding the sink's local region and removes the
background contribution of that region analytically, citing Waldvogel
(1976) and Seidov & Skvirsky (2000).  The closed forms implemented
here are the classic MacMillan/Nagy prism expressions, valid for field
points inside or outside the body:

    U(P)  = G rho ||| xi eta ln(zeta + r) + eta zeta ln(xi + r)
                   + zeta xi ln(eta + r)
                   - xi^2/2  atan(eta zeta / (xi r))
                   - eta^2/2 atan(zeta xi / (eta r))
                   - zeta^2/2 atan(xi eta / (zeta r)) |||
    g_x(P) = G rho ||| eta ln(zeta + r) + zeta ln(eta + r)
                   - xi atan(eta zeta / (xi r)) |||

where (xi, eta, zeta) = corner - P, r = |(xi, eta, zeta)|, and
||| . ||| alternates sign over the eight corners (+ when an even
number of lower corners is involved).  Sign conventions follow the
rest of :mod:`repro.multipoles`: potential is positive and the
acceleration is its gradient, so a point displaced from the cube
center is pulled back toward it.

Shared terms.  The three force integrands and the potential integrand
are built from one r, three logs and three arctangents per corner,
    Lx = ln(xi + r)             Ax = atan(eta zeta / (xi r))   (cyclic),
    f_x = eta Lz + zeta Ly - xi Ax                             (cyclic),
    U   = (xi f_x + eta f_y + zeta f_z) / 2,
so one pass over the eight corners yields all four outputs.

Degenerate logs/arctangents on corner axes are guarded (log argument
floored at ``_TINY``, arctangent 0 where its denominator is 0); their
coefficients vanish in the same limit.
"""

from __future__ import annotations

import numpy as np

from ..util import scratch

__all__ = ["prism_potential", "prism_acceleration"]

_TINY = 1e-300


def _corner_terms(x, y, z, r, f, w, nz):
    """Write the force integrands (f_x, f_y, f_z) of one corner into ``f[:3]``.

    ``x, y, z`` are the corner-relative coordinate rows and ``r`` their
    norm; ``w`` is eight work rows and ``nz`` a boolean row of the same
    length.  Nothing is allocated.
    """
    lx, ly, lz, ax, ay, az, num, den = w
    for c, log_c in ((x, lx), (y, ly), (z, lz)):
        np.add(c, r, out=log_c)
        np.maximum(log_c, _TINY, out=log_c)
        np.log(log_c, out=log_c)
    for a, b, c, atan_a in ((x, y, z, ax), (y, z, x, ay), (z, x, y, az)):
        # atan(b c / (a r)), 0 where the denominator is (the prefactor
        # a vanishes there too)
        np.multiply(b, c, out=num)
        np.multiply(a, r, out=den)
        np.not_equal(den, 0.0, out=nz)
        atan_a.fill(0.0)
        np.divide(num, den, out=atan_a, where=nz)
        np.arctan(atan_a, out=atan_a)
    for a, b, c, log_b, log_c, atan_a, f_a in (
        (x, y, z, ly, lz, ax, f[0]),
        (y, z, x, lz, lx, ay, f[1]),
        (z, x, y, lx, ly, az, f[2]),
    ):
        np.multiply(b, log_c, out=f_a)
        np.multiply(c, log_b, out=num)
        f_a += num
        np.multiply(a, atan_a, out=num)
        f_a -= num


def prism_acceleration(
    points, lo, hi, density: float = 1.0, want_potential: bool = False
):
    """Acceleration grad(U) of the homogeneous box [lo, hi] at ``points``.

    Returns an (N, 3) array; with positive density the field points
    toward the interior of the box (attractive).  ``lo``/``hi`` may be
    single (3,) corners or per-point (N, 3) arrays (one box per
    evaluation point — the tree near field, where every interaction row
    has its own background cube).  With ``want_potential`` the return
    is ``(acc, pot)``, the potential accumulated from the same corner
    terms.  Intermediates live in the process-wide scratch pool
    (:func:`repro.util.scratch`), so concurrent calls from threads of
    one process are not supported; the returned arrays are fresh.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = points.shape[0]
    total = np.zeros((4 if want_potential else 3, n))
    # rows 0-2: lo - P per axis, rows 3-5: hi - P; then their squares
    c = scratch("prism.c", (6, n))
    for axis in range(3):
        np.subtract(lo[..., axis], points[:, axis], out=c[axis])
        np.subtract(hi[..., axis], points[:, axis], out=c[3 + axis])
    sq = scratch("prism.sq", (6, n))
    np.multiply(c, c, out=sq)
    sxy, r = scratch("prism.r", (2, n))
    f = scratch("prism.f", (4, n))
    w = scratch("prism.w", (8, n))
    nz = scratch("prism.nz", (n,), bool)
    for i in range(2):
        x = c[3 * i]
        for j in range(2):
            y = c[3 * j + 1]
            np.add(sq[3 * i], sq[3 * j + 1], out=sxy)
            for k in range(2):
                z = c[3 * k + 2]
                np.add(sxy, sq[3 * k + 2], out=r)
                np.sqrt(r, out=r)
                _corner_terms(x, y, z, r, f, w, nz)
                # + when an odd number of upper corners is involved:
                # the sum is -dU/dP (coordinates are corner - P)
                accumulate = np.add if (i + j + k) % 2 else np.subtract
                accumulate(total[:3], f[:3], out=total[:3])
                if want_potential:
                    u, t = f[3], w[6]
                    np.multiply(x, f[0], out=u)
                    np.multiply(y, f[1], out=t)
                    u += t
                    np.multiply(z, f[2], out=t)
                    u += t
                    accumulate(total[3], u, out=total[3])
    # negate to return grad U, which points toward the attracting mass
    total[:3] *= -density
    if want_potential:
        total[3] *= 0.5 * density
        return total[:3].T, total[3]
    return total[:3].T


def prism_potential(points, lo, hi, density: float = 1.0) -> np.ndarray:
    """Potential U = rho * integral dV/|P-Q| of the box [lo, hi] at ``points``."""
    return prism_acceleration(points, lo, hi, density, want_potential=True)[1]


