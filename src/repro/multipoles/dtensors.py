"""Derivative tensors of radial Green's functions.

The Cartesian multipole expansion (paper eq. 5) needs the rank-n
tensors D_alpha = d^alpha G evaluated at separation vectors R.  For a
radial kernel G(x) = g(|x|) with scaled derivative chain
g_{m+1} = (1/r) g_m', the tensors obey the Hermite/McMurchie-Davidson
recurrence

    R^m_{000}        = g_m(r)
    R^m_{alpha+e_i}  = alpha_i * R^{m+1}_{alpha-e_i} + x_i * R^{m+1}_{alpha}

and R^0_alpha is the desired D_alpha.  The paper generates its p=8
interaction routines (6561 raw terms) with a computer algebra system;
here the same role is played by a precomputed recurrence *plan* (one
fused-multiply-add per packed coefficient) executed with vectorized
NumPy over the interaction batch — see also
:mod:`repro.multipoles.codegen`, which emits the fully unrolled
source just as the paper's metaprogramming pipeline does.
"""

from __future__ import annotations

import functools

import numpy as np

from .multiindex import MultiIndexSet, multi_index_set, n_coeffs
from .radial import RadialKernel

__all__ = ["recurrence_plan", "derivative_tensors"]


@functools.lru_cache(maxsize=32)
def recurrence_plan(p: int):
    """Build the evaluation plan for derivative tensors up to order p.

    For every packed multi-index alpha with 1 <= |alpha| <= p we choose
    the direction i with the smallest nonzero alpha_i (ties to the
    lowest axis) and record

        (target, i, idx(alpha - e_i), idx(alpha - 2 e_i) or -1, alpha_i - 1)

    so the recurrence can be applied order by order.  The recurrence
    holds along any axis with alpha_i > 0; the smallest one makes most
    steps a single multiply (alpha_i = 1: no second term) or a multiply
    and an add (alpha_i = 2: the factor is 1), which is what every
    consumer of the plan pays per step — the interpreted recurrence
    below, the code generator and the flop model.
    """
    mis = multi_index_set(p)
    plan = []
    for tgt in range(1, len(mis)):
        a = mis.alphas[tgt]
        i = min((int(a[k]), k) for k in range(3) if a[k] > 0)[1]
        e = [0, 0, 0]
        e[i] = 1
        lower1 = tuple(int(x) for x in (a - e))
        idx1 = mis.index[lower1]
        ai = int(a[i])
        if ai >= 2:
            e2 = [0, 0, 0]
            e2[i] = 2
            lower2 = tuple(int(x) for x in (a - e2))
            idx2 = mis.index[lower2]
        else:
            idx2 = -1
        plan.append((tgt, i, idx1, idx2, float(ai - 1)))
    return mis, plan


def derivative_tensors(
    dx: np.ndarray,
    kernel: RadialKernel,
    p: int,
    dtype=np.float64,
) -> np.ndarray:
    """Evaluate D_alpha = d^alpha G at displacement vectors ``dx``.

    Parameters
    ----------
    dx:
        (N, 3) displacement vectors (field point minus source center).
    kernel:
        The radial kernel supplying g_m.
    p:
        Maximum derivative order (use p_expansion + 1 when forces are
        needed).

    Returns
    -------
    (N, n_coeffs(p)) array; column j holds D_alpha for the packed
    multi-index alpha_j.
    """
    dx = np.asarray(dx, dtype=np.float64)
    if dx.ndim != 2 or dx.shape[1] != 3:
        raise ValueError("dx must be (N, 3)")
    n = dx.shape[0]
    mis, plan = recurrence_plan(p)
    r = np.sqrt(np.einsum("ij,ij->i", dx, dx))
    g = kernel.radial_derivs(r, p)  # (p+1, N)

    # work[m] holds R^m for all orders computed so far; we fill orders
    # incrementally so R^{m+1} entries of order n are ready before R^m
    # entries of order n+1 are formed.
    ncoef = len(mis)
    work = [np.zeros((n, n_coeffs(p - m)), dtype=np.float64) for m in range(p + 1)]
    for m in range(p + 1):
        work[m][:, 0] = g[m]
    x = [dx[:, 0], dx[:, 1], dx[:, 2]]
    # process plan entries in order of |alpha| (plan is already ordered
    # because packed indices are ordered by total order)
    orders = mis.order
    for tgt, i, idx1, idx2, fac in plan:
        o = int(orders[tgt])
        # R^m_alpha exists for m <= p - |alpha|
        for m in range(p - o, -1, -1):
            val = x[i] * work[m + 1][:, idx1]
            if idx2 >= 0 and fac != 0.0:
                val += fac * work[m + 1][:, idx2]
            work[m][:, tgt] = val
    out = work[0]
    if dtype is not np.float64:
        out = out.astype(dtype)
    return out
