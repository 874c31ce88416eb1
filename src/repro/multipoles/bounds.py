"""Multipole error bounds and the absolute-error MAC (paper §2.2.2).

2HOT's multipole acceptance criterion descends from Salmon & Warren
(1994) "Skeletons from the treecode closet": instead of a geometric
opening angle, each cell carries a rigorous bound on the acceleration
error committed by using its truncated expansion, and the traversal
opens a cell only when the bound at the sink's distance exceeds the
user's absolute tolerance.

Derivation used here (documented because the code is its proof): for a
source distribution inside radius b_max about the expansion center and
a field point at distance d > b_max, the order-n term of the expansion
of 1/|R - delta| is bounded by B_n / d^{n+1} (potential) and
(n+1) B_n / d^{n+2} (acceleration), where

    B_n = sum_j m_j |y_j - z|^n

are the absolute moments.  Using B_n <= B_{p+1} b_max^{n-p-1} for
n > p and summing the resulting geometric-polynomial series:

    err_pot(d) <= B_{p+1} / d^{p+2} * 1 / (1 - x)
    err_acc(d) <= B_{p+1} / d^{p+3} * ((p+2) - (p+1) x) / (1 - x)^2

with x = b_max / d < 1.  Both bounds are monotone decreasing in d, so
each cell has a unique *critical radius* r_crit with
err_acc(r_crit) = tol; the MAC during traversal is then the cheap test
d > r_crit, exactly as in HOT.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "acceleration_error_bound",
    "moment_error_estimate",
    "dtensor_frobenius_const",
    "critical_radius",
    "critical_radius_moment",
]


def acceleration_error_bound(d, p: int, bmax, b_p1):
    """Rigorous bound on |acc_exact - acc_multipole| at distance d.

    Parameters
    ----------
    d:
        Distance(s) from the expansion center to the field point.
    p:
        Expansion order actually used.
    bmax:
        Radius of the smallest center-ball containing all sources.
    b_p1:
        Absolute moment B_{p+1} of the sources.

    Returns +inf where d <= bmax (the expansion may diverge there).
    """
    d = np.asarray(d, dtype=np.float64)
    bmax = np.asarray(bmax, dtype=np.float64)
    b_p1 = np.asarray(b_p1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = bmax / d
        bound = (
            b_p1
            / d ** (p + 3)
            * ((p + 2) - (p + 1) * x)
            / (1.0 - x) ** 2
        )
    return np.where(d > bmax, bound, np.inf)


import functools as _functools


@_functools.lru_cache(maxsize=32)
def dtensor_frobenius_const(n: int) -> float:
    """Frobenius norm of the rank-n derivative tensor of 1/r at r = 1.

    By spherical symmetry the norm is direction-independent, so one
    evaluation suffices; at distance d it scales as C_n / d^{n+1}.
    """
    from .dtensors import derivative_tensors
    from .multiindex import multi_index_set
    from .radial import NewtonianKernel

    mis = multi_index_set(n)
    d = derivative_tensors(np.array([[1.0, 0.0, 0.0]]), NewtonianKernel(), n)[0]
    sl = mis.slice_of_order(n)
    return float(np.sqrt((mis.multinomial[sl] * d[sl] ** 2).sum()))


def moment_error_estimate(d, p: int, bmax, mnorm_p1, mnorm_p2=None):
    """Neglected-term estimate of the acceleration error.

    Uses the *actual* (possibly background-subtracted, hence signed and
    cancelling) moments of orders p+1 and p+2: by Cauchy-Schwarz in the
    tensor inner product each neglected order n contributes at most
    ||M^{(n)}||_F / n! * C_{n+1} / d^{n+2}, with C_n the (direction-
    independent) Frobenius norm of d^n(1/r) at unit distance.  Two
    consecutive orders are combined — one alone is parity-blind for
    near-symmetric cells — and a (1-x)^-2 factor allows for the
    geometric tail beyond p+2.  Unlike the rigorous absolute-moment
    bound this estimate *sees the cancellation* produced by background
    subtraction (§2.2.1: "the MAC based on an absolute error also
    becomes much better behaved").
    """
    import math

    d = np.asarray(d, dtype=np.float64)
    bmax = np.asarray(bmax, dtype=np.float64)
    mnorm_p1 = np.asarray(mnorm_p1, dtype=np.float64)
    c1 = dtensor_frobenius_const(p + 2) / math.factorial(p + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = bmax / d
        est = c1 * mnorm_p1 / d ** (p + 3)
        if mnorm_p2 is not None:
            c2 = dtensor_frobenius_const(p + 3) / math.factorial(p + 2)
            est = est + c2 * np.asarray(mnorm_p2, dtype=np.float64) / d ** (p + 4)
        est = est / (1.0 - x) ** 2
    return np.where(d > bmax, est, np.inf)


#: bisection steps of the critical-radius solvers (2^-64 of the bracket)
_BISECT_ITERS = 64


def _critical_radius_generic(err_fn, bmax, amplitude, tol: float):
    bmax = np.atleast_1d(np.asarray(bmax, dtype=np.float64))
    amplitude = np.atleast_1d(np.asarray(amplitude, dtype=np.float64))
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    lo = np.maximum(bmax * (1.0 + 1e-9), 1e-12)
    hi = np.maximum(lo * 2.0, 1e-6)
    for _ in range(200):
        need = err_fn(hi) > tol
        if not np.any(need):
            break
        hi = np.where(need, hi * 2.0, hi)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        too_big = err_fn(mid) > tol
        lo = np.where(too_big, mid, lo)
        hi = np.where(too_big, hi, mid)
    return np.where(amplitude <= 0.0, bmax, hi)


def critical_radius_moment(
    p: int, bmax, mnorm_p1, tol: float, mnorm_p2=None
):
    """Critical MAC radius from the moment-norm error estimate."""
    bmax_a = np.atleast_1d(np.asarray(bmax, dtype=np.float64))
    mn = np.atleast_1d(np.asarray(mnorm_p1, dtype=np.float64))
    mn2 = (
        None
        if mnorm_p2 is None
        else np.atleast_1d(np.asarray(mnorm_p2, dtype=np.float64))
    )
    amp = mn if mn2 is None else mn + mn2
    return _critical_radius_generic(
        lambda d: moment_error_estimate(d, p, bmax_a, mn, mn2), bmax_a, amp, tol
    )


def critical_radius(p: int, bmax, b_p1, tol: float):
    """Distance at which the acceleration error bound equals ``tol``.

    Vectorized bisection over cells: beyond the returned radius a cell
    of order-p expansion is guaranteed accurate to ``tol`` in absolute
    acceleration.  Cells with zero moments (e.g. fully-cancelled
    background-subtracted cells) get r_crit = bmax, i.e. always
    acceptable outside their own bounding ball.
    """
    bmax = np.atleast_1d(np.asarray(bmax, dtype=np.float64))
    b_p1 = np.atleast_1d(np.asarray(b_p1, dtype=np.float64))
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    lo = np.maximum(bmax * (1.0 + 1e-9), 1e-12)
    # expand hi until the bound is below tol everywhere
    hi = np.maximum(lo * 2.0, 1e-6)
    for _ in range(200):
        vals = acceleration_error_bound(hi, p, bmax, b_p1)
        need = vals > tol
        if not np.any(need):
            break
        hi = np.where(need, hi * 2.0, hi)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        vals = acceleration_error_bound(mid, p, bmax, b_p1)
        too_big = vals > tol
        lo = np.where(too_big, mid, lo)
        hi = np.where(too_big, hi, mid)
    out = hi
    zero = b_p1 <= 0.0
    out = np.where(zero, bmax, out)
    return out
