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

Everything that depends on the direction of x is polynomial, with the
Taylor coefficients b_{k,beta} = beta! [x^beta] P_k of P_k at the
origin: P_k(x) = sum_beta b_{k,beta} X_beta(x) with the scaled
monomials X_beta = x^beta / beta!, and d_i X_beta = X_{beta - e_i}, so
the gradient of P_k reads the same coefficients.  The generated C
evaluator (:func:`repro.multipoles.codegen.generate_evaluator_source`)
evaluates exactly this at each particle's x, from the unshifted b.

:func:`hermite_table` holds the h_{alpha,k}; :func:`field_table` packs
them into the matrix that turns a cell's moments into its b_{k,beta}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dtensors import recurrence_plan
from .multiindex import multi_index_set, n_coeffs

__all__ = ["hermite_table", "FieldTable", "field_table"]


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
    block ``[offsets[k], offsets[k + 1])`` of n_coeffs(k) rows.
    """

    p: int
    #: (p + 2,) first row of each order's block; ``offsets[-1]`` rows in all
    offsets: np.ndarray
    #: (rows, n_coeffs(p)) ``b = matrix @ M``: raw moments to b_{k,gamma}
    matrix: np.ndarray
    #: (rows,) which rows carry a coefficient (2k - p <= |gamma| <= k)
    filled: np.ndarray
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
    unit_power = np.concatenate(
        [mis.order[: n_coeffs(k)] - (2 * k + 1) for k in range(p + 1)]
    )
    return FieldTable(
        p=p, offsets=offsets, matrix=matrix, filled=filled, unit_power=unit_power,
    )
