"""The multipole field as radial functions times polynomials.

For a radial Green's function G(x) = g(|x|) with the scaled derivative
chain g_{k+1} = (1/r) g_k', every derivative tensor is a finite sum

    D_alpha(x) = d^alpha G = sum_k g_k(r) h_{alpha,k}(x)

of *polynomials* h_{alpha,k}, homogeneous of degree 2k - |alpha|, with
integer coefficients that do not depend on g: substituting
R^m_alpha = sum_k g_{m+k} h_{alpha,k} into the recurrence of
:mod:`repro.multipoles.dtensors` gives

    h_{0,0} = 1,   h_{alpha+e_i,k} = alpha_i h_{alpha-e_i,k-1} + x_i h_{alpha,k-1}

(D_xx = g_1 + x^2 g_2, D_xy = x y g_2, ...).  The field of a multipole
with weighted moments wm_alpha = (-1)^|alpha| M_alpha / alpha! is
therefore

    phi(x) = sum_alpha wm_alpha D_alpha(x) = sum_{k=0}^{p} g_k(r) P_k(x),
    P_k(x) = sum_alpha wm_alpha h_{alpha,k}(x),

with P_k a polynomial of degree <= k, and because g_k' = r g_{k+1} its
gradient is

    d_i phi = x_i S + T_i,   S = sum_k g_{k+1} P_k,   T_i = sum_k g_k d_i P_k.

Everything that depends on the direction of x is polynomial, and a
polynomial can be re-centred *exactly*: with x = delta + d,

    P_k(delta + d) = sum_{|gamma| <= k} X_gamma(delta) Q_{k,gamma}(d),
    X_gamma = delta^gamma / gamma!,
    Q_{k,gamma} = d^gamma P_k (d) = sum_{nu >= 0} b_{k,gamma+nu} d^nu / nu!,

where b_{k,beta} = beta! [x^beta] P_k are the Taylor coefficients of P_k
at the origin.  This is a finite identity, not a truncated series —
valid for any delta, however large — which is what lets the evaluator
of :mod:`repro.gravity.treeforce` move the source-side work of an
interaction to the centre of the sink *cell* that accepted it without
touching the one-sided error model of paper §2.2.2.

:func:`hermite_table` holds the h_{alpha,k}; :func:`field_table` packs
them into the matrix that turns a cell's moments into its b_{k,beta},
laid out the way the shift routine
(:func:`repro.multipoles.codegen.compiled_shift_function`) and the
per-order matrix products read them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dtensors import recurrence_plan
from .multiindex import multi_index_set, n_coeffs

__all__ = ["hermite_table", "FieldTable", "field_table", "shift_plan"]


@functools.lru_cache(maxsize=16)
def hermite_table(p: int) -> tuple:
    """The polynomials h_{alpha,k} for |alpha| <= p.

    Entry j (packed index of alpha) is a dict ``{k: {beta: c}}``: the
    integer coefficient c of x^beta in h_{alpha,k}; absent (k, beta)
    are zero.  Built by walking :func:`recurrence_plan` once — the plan
    steps along one axis per target, and the table does not depend on
    which (the decomposition over the g_k is unique).
    """
    mis, plan = recurrence_plan(p)
    table: list[dict] = [{} for _ in range(len(mis))]
    table[0] = {0: {(0, 0, 0): 1}}
    for tgt, i, idx1, idx2, fac in plan:
        out: dict = {}
        for k, poly in table[idx1].items():
            terms = out.setdefault(k + 1, {})
            for beta, c in poly.items():
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                terms[up] = terms.get(up, 0) + c
        if idx2 >= 0 and fac != 0.0:
            for k, poly in table[idx2].items():
                terms = out.setdefault(k + 1, {})
                for beta, c in poly.items():
                    terms[beta] = terms.get(beta, 0) + int(fac) * c
        table[tgt] = out
    return tuple(table)


@dataclass(frozen=True)
class FieldTable:
    """Layout and moment matrix of the polynomials P_0 .. P_p.

    One row per (k, gamma), |gamma| <= k, ordered by k and then in the
    packed multi-index order: the rows of order k are the contiguous
    block ``[offsets[k], offsets[k + 1])`` of n_coeffs(k) rows, so a
    block is directly the (K_k, entries) operand of a matrix product.
    """

    p: int
    #: (p + 2,) first row of each order's block; ``offsets[-1]`` rows in all
    offsets: np.ndarray
    #: (rows, n_coeffs(p)) ``b = matrix @ M``: raw moments to b_{k,gamma}
    matrix: np.ndarray
    #: (rows,) which rows carry a coefficient before the shift
    #: (2k - p <= |gamma| <= k); the others are produced by it
    filled: np.ndarray
    #: maximal runs [a, b) of filled rows (what a gather has to fetch)
    segments: tuple
    #: (rows,) |gamma| - 2k - 1: with lengths in units of u the field is
    #: sum_k g'_k(r/u) P'_k(x/u), g'_k = u^(2k+1) g_k, and row (k, gamma)
    #: of P'_k is b_{k,gamma} * u**unit_power
    unit_power: np.ndarray


@functools.lru_cache(maxsize=16)
def field_table(p: int) -> FieldTable:
    """Build (and cache) the :class:`FieldTable` of order ``p``."""
    mis = multi_index_set(p)
    offsets = np.concatenate(([0], np.cumsum([n_coeffs(k) for k in range(p + 1)])))
    matrix = np.zeros((int(offsets[-1]), len(mis)))
    weight = ((-1.0) ** mis.order) / mis.factorial
    for j, by_k in enumerate(hermite_table(p)):
        for k, poly in by_k.items():
            for beta, c in poly.items():
                b = mis.index[beta]
                matrix[offsets[k] + b, j] = c * mis.factorial[b] * weight[j]
    filled = np.any(matrix != 0.0, axis=1)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], filled, [0]))))
    segments = tuple((int(a), int(b)) for a, b in zip(edges[::2], edges[1::2]))
    unit_power = np.concatenate(
        [mis.order[: n_coeffs(k)] - (2 * k + 1) for k in range(p + 1)]
    )
    return FieldTable(
        p=p, offsets=offsets, matrix=matrix, filled=filled, segments=segments,
        unit_power=unit_power,
    )


@functools.lru_cache(maxsize=16)
def shift_plan(p: int) -> tuple:
    """Steps that turn the rows b_{k,gamma} into Q_{k,gamma}(d), in place.

    The shift exp(d . grad) factors into one pass per axis, and in the
    gamma!-scaled basis a pass has no binomial factors:

        row(gamma) += sum_{j >= 1} (d_i^j / j!) row(gamma + j e_i).

    Each step ``(dst, src, axis, j, fresh)`` adds ``d_axis^j / j! *
    row[src]`` to ``row[dst]`` (``fresh``: ``row[dst]`` holds nothing
    yet, the product is stored).  Within a pass targets ascend along
    the axis, so every source row is read before it is updated; rows
    that are still empty contribute no step.
    """
    tab = field_table(p)
    mis = multi_index_set(p)
    alphas = [tuple(int(x) for x in a) for a in mis.alphas]
    live = tab.filled.copy()
    steps = []
    for axis in range(3):
        for k in range(p + 1):
            base = int(tab.offsets[k])
            # ascending along ``axis``: packed order is not, so sort
            for gamma in sorted(alphas[: n_coeffs(k)], key=lambda a: a[axis]):
                dst = base + mis.index[gamma]
                for j in range(1, k - sum(gamma) + 1):
                    up = gamma[:axis] + (gamma[axis] + j,) + gamma[axis + 1 :]
                    src = base + mis.index[up]
                    if live[src]:
                        steps.append((dst, src, axis, j, not live[dst]))
                        live[dst] = True
    return tuple(steps)
