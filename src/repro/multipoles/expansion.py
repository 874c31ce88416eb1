"""Cartesian multipole and local expansions (paper eqs. 4-6).

The upward pass (M2M) and the lattice L2P run compiled
(:func:`repro.gravity.native.upward`); their numpy forms are the test
references in ``tests/oracle.py``.

Conventions (packed multi-index layout from
:mod:`repro.multipoles.multiindex`):

* moments about a center z:    M_alpha = sum_j m_j (y_j - z)^alpha
* potential (G = 1 kernel):    phi(x) = sum_alpha ((-1)^{|a|}/a!) M_a D_a(x - z)
* acceleration:                acc_i(x) = sum_alpha ((-1)^{|a|}/a!) M_a D_{a+e_i}
* local expansion about c:     phi(x) = sum_beta ((x-c)^b / b!) L_b
  with M2L:                    L_b = sum_a ((-1)^{|a|}/a!) M_a D_{a+b}(c - z)

The sign convention is "potential = sum m/r > 0, acceleration =
gradient of potential", which gives the physically attractive
gravitational acceleration directly.

All routines are vectorized over batches (cells or evaluation points)
and accept a ``dtype`` so that the float32 behaviour of Figure 6 can
be reproduced.
"""

from __future__ import annotations

import numpy as np

from .dtensors import derivative_tensors
from .multiindex import MultiIndexSet, multi_index_set
from .radial import NewtonianKernel, RadialKernel

__all__ = [
    "p2m",
    "m2p",
    "m2l",
    "eval_coeffs",
]

_NEWTON = NewtonianKernel()


def eval_coeffs(mis: MultiIndexSet) -> np.ndarray:
    """The (-1)^{|alpha|} / alpha! weights used by M2P and M2L."""
    return ((-1.0) ** mis.order) / mis.factorial


def p2m(
    positions: np.ndarray,
    masses: np.ndarray,
    center: np.ndarray,
    p: int,
) -> np.ndarray:
    """Particle-to-multipole: packed moments of order <= p about ``center``.

    2HOT takes moments about geometric cell centers (not centers of
    mass) so the uniform-background expansion can be subtracted with a
    few operations (§2.2.1); dipole terms are therefore generally
    non-zero.
    """
    mis = multi_index_set(p)
    d = np.asarray(positions, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    mono = mis.powers(d)  # (N, ncoef)
    return np.asarray(masses, dtype=np.float64) @ mono


def m2p(
    moments: np.ndarray,
    center: np.ndarray,
    targets: np.ndarray,
    p: int,
    kernel: RadialKernel | None = None,
    dtype=np.float64,
    want_potential: bool = True,
):
    """Multipole-to-particle: evaluate field of one expansion at many points.

    Returns (potential, acceleration) with shapes (N,) and (N, 3);
    potential is None when ``want_potential`` is False.
    """
    kernel = kernel or _NEWTON
    mis = multi_index_set(p)
    targets = np.asarray(targets, dtype=np.float64)
    dx = targets - np.asarray(center, dtype=np.float64)
    dtens = derivative_tensors(dx, kernel, p + 1, dtype=dtype)
    w = eval_coeffs(mis).astype(dtype)
    m = np.asarray(moments, dtype=np.float64).astype(dtype)
    ncoef = len(mis)
    wm = w * m
    pot = dtens[:, :ncoef] @ wm if want_potential else None
    acc = np.empty((targets.shape[0], 3), dtype=dtype)
    mis_hi = multi_index_set(p + 1)
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        cols = np.array(
            [
                mis_hi.index[(int(a[0]) + e[0], int(a[1]) + e[1], int(a[2]) + e[2])]
                for a in mis.alphas
            ],
            dtype=np.intp,
        )
        acc[:, i] = dtens[:, cols] @ wm
    return pot, acc


def m2l(
    moments: np.ndarray,
    r0: np.ndarray,
    p_src: int,
    p_loc: int,
    kernel: RadialKernel | None = None,
) -> np.ndarray:
    """Multipole-to-local: convert an expansion into a local one.

    Parameters
    ----------
    moments:
        packed source moments (order <= p_src) about z.
    r0:
        (3,) vector c - z from the source center to the local center.
    p_loc:
        order of the local expansion produced.

    Returns packed local coefficients L_beta, |beta| <= p_loc.
    """
    kernel = kernel or _NEWTON
    mis_s = multi_index_set(p_src)
    mis_l = multi_index_set(p_loc)
    mis_hi = multi_index_set(p_src + p_loc)
    r0 = np.asarray(r0, dtype=np.float64).reshape(1, 3)
    dtens = derivative_tensors(r0, kernel, p_src + p_loc)[0]
    w = eval_coeffs(mis_s)
    m = np.asarray(moments, dtype=np.float64)
    out = np.zeros(len(mis_l), dtype=np.float64)
    for bi, b in enumerate(mis_l.alphas):
        cols = np.array(
            [
                mis_hi.index[(int(a[0] + b[0]), int(a[1] + b[1]), int(a[2] + b[2]))]
                for a in mis_s.alphas
            ],
            dtype=np.intp,
        )
        out[bi] = np.dot(w * m, dtens[cols])
    return out
