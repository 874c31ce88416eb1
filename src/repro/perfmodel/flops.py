"""Flop accounting for the gravitational kernels.

The paper counts 28 flops per monopole interaction (Table 3) and
582,000 flops per particle for its production mix of 1.05e15
hexadecapole + 1.46e15 quadrupole + 4.68e14 monopole interactions on
68.7e9 particles (Table 2).  Here the per-order interaction costs are
*counted from the tables the kernels themselves consume* — the
derivative-tensor recurrence plan that the code generator unrolls, the
M2L contraction tables — plus the moment-contraction and radial-chain
work, keeping the accounting honest as the kernels change.
"""

from __future__ import annotations

import functools

from ..multipoles.dtensors import recurrence_plan
from ..multipoles.multiindex import n_coeffs

__all__ = [
    "FLOPS_PER_MONOPOLE_PP",
    "flops_per_cell_interaction",
    "flops_per_m2l",
    "flops_per_l2p",
    "flops_per_prism_interaction",
    "flops_per_particle",
]

#: the paper's number for the pairwise monopole inner loop (Table 3):
#: dx (3), r^2 (5), 1/r^3 via rsqrt+mults (~6), acc fma (6), pot (2),
#: softening (~6) — counted as 28 in HOT's convention.
FLOPS_PER_MONOPOLE_PP = 28


@functools.lru_cache(maxsize=16)
def flops_per_cell_interaction(p: int, want_potential: bool = True) -> int:
    """Arithmetic operations of one particle-cell interaction at order p.

    Counts the order-(p+1) derivative-tensor recurrence from the plan
    the code generator unrolls (each step fills p + 1 - |target| + 1
    levels; a level costs the x_i multiply, plus an add when the
    recurrence has a second term, plus that term's factor multiply
    unless the factor is 1 — the generated code elides it), the
    radial-derivative chain, and the contraction with the moments (a
    multiply-add per coefficient per output).
    """
    pmax = p + 1
    mis_hi, plan = recurrence_plan(pmax)
    dtensor_ops = 0
    for tgt, _i, _idx1, idx2, fac in plan:
        if idx2 < 0 or fac == 0.0:
            per_level = 1
        else:
            per_level = 2 if fac == 1.0 else 3
        dtensor_ops += per_level * (pmax - int(mis_hi.order[tgt]) + 1)
    # radial chain g_0..g_{p+1}: ~4 ops per level, plus r from dx: 8
    radial_ops = 4 * (p + 2) + 8
    ncoef = n_coeffs(p)
    # acceleration: 3 axes x (mul + add) per coefficient; potential: 2 per
    contraction = (6 + (2 if want_potential else 0)) * ncoef
    # applying the (-1)^n/n! weights is folded into the moments once per
    # cell, not per interaction — excluded
    return dtensor_ops + radial_ops + contraction


@functools.lru_cache(maxsize=16)
def flops_per_m2l(p: int) -> int:
    """Arithmetic operations of one cell-to-local (M2L) translation.

    Counts the plan-driven derivative-tensor recurrence at the M2L
    order p+2 (each step fills pmax - |target| + 1 levels with a
    multiply and a fused multiply-add), the radial chain, and the
    triangular moment-gather contraction (a multiply-add per flat table
    entry) — all measured from the same tables the kernels consume.
    """
    from ..gravity.localexp import m2l_tables

    pmax = p + 2
    mis_hi, plan = recurrence_plan(pmax)
    rec_ops = sum(3 * (pmax - int(mis_hi.order[s[0]]) + 1) for s in plan)
    radial_ops = 4 * (pmax + 1) + 8
    return rec_ops + radial_ops + 2 * len(m2l_tables(p).acol)


@functools.lru_cache(maxsize=16)
def flops_per_l2p(p: int, want_potential: bool = True) -> int:
    """Arithmetic operations of one local-to-particle evaluation.

    Monomial build at the local order p+2 plus the three gradient
    contractions over the order-p+1 coefficients (and the potential
    contraction when requested).
    """
    nloc = n_coeffs(p + 2)
    ncoef = n_coeffs(p + 1)
    ops = 3 * (p + 2) + 2 * nloc + 6 * ncoef
    if want_potential:
        ops += 2 * nloc
    return ops


def flops_per_prism_interaction(want_potential: bool = True) -> int:
    """Arithmetic operations of one particle x analytic-cube interaction.

    Counted from the fused kernel of :mod:`repro.multipoles.prism`, one
    per elementwise operation (a sqrt, log, arctangent or divide counts
    once, like an add): 6 corner-relative coordinates and their squares,
    4 partial norms; per corner 1 add + 1 sqrt for r, 3 x (add, floor,
    log), 3 x (2 multiplies, zero test, divide, arctangent), 15 for the
    three force integrands, 3 to accumulate them and 6 more for the
    potential; the final scaling.  Of these 8 are sqrt, 24 log and 24
    arctangent — nothing like the 28-flop monopole it used to be
    counted as.
    """
    per_corner = 2 + 3 * 3 + 3 * 5 + 15 + 3 + (6 if want_potential else 0)
    return 12 + 4 + 8 * per_corner + (4 if want_potential else 3)


def flops_per_particle(
    interaction_mix: dict, want_potential: bool = True
) -> float:
    """Total flops per particle for a mix {order_or_'pp': count_per_particle}.

    Example reproducing the paper's Table 2 arithmetic::

        flops_per_particle({4: n_hex, 2: n_quad, "pp": n_mono})
    """
    total = 0.0
    for key, count in interaction_mix.items():
        if key == "pp":
            total += FLOPS_PER_MONOPOLE_PP * count
        else:
            total += flops_per_cell_interaction(int(key), want_potential) * count
    return total
