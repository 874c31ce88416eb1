"""Flop accounting for the gravitational kernels.

The paper counts 28 flops per monopole interaction (Table 3) and
582,000 flops per particle for its production mix of 1.05e15
hexadecapole + 1.46e15 quadrupole + 4.68e14 monopole interactions on
68.7e9 particles (Table 2).  Here the per-order interaction costs are
*counted from what the kernels themselves execute* — the statements of
the generated C cell row and of the generated derivative-tensor
routine, the M2L contraction tables — plus the radial-chain work,
keeping the accounting honest as the kernels change.
"""

from __future__ import annotations

import functools

from ..multipoles.codegen import cell_row_ops, compiled_dtensor_function
from ..multipoles.multiindex import n_coeffs
from .machines import MachineModel

__all__ = [
    "FLOPS_PER_MONOPOLE_PP",
    "flops_per_cell_interaction",
    "flops_per_m2l",
    "flops_per_m2l_tensor",
    "flops_per_l2p",
    "flops_per_prism_interaction",
    "flops_per_particle",
    "flops_from_stats",
    "kernel_counters",
]

#: the paper's number for the pairwise monopole inner loop (Table 3):
#: dx (3), r^2 (5), 1/r^3 via rsqrt+mults (~6), acc fma (6), pot (2),
#: softening (~6) — counted as 28 in HOT's convention.
FLOPS_PER_MONOPOLE_PP = 28


def flops_per_cell_interaction(p: int, want_potential: bool = True) -> int:
    """Arithmetic operations of one particle x cell row at order p.

    The statements of the generated C row
    (:func:`repro.multipoles.codegen.cell_row_ops`): the difference and
    r (9), the 1/r radial chain g_0 .. g_{p+1}, the scaled monomials,
    P_k and d_i P_k, the combination a_i = x_i S + T_i, and phi when the
    potential is wanted — one per ``+ - * /`` or square root.  TreePM's
    erfc chain is float64 library calls and counts as the 1/r chain it
    replaces.  Gathering an entry's coefficients is data movement, not
    arithmetic, and is not counted.
    """
    return cell_row_ops(p, want_potential)


@functools.lru_cache(maxsize=16)
def flops_per_m2l_tensor(p: int) -> int:
    """Arithmetic operations of one M2L derivative tensor.

    The generated derivative-tensor routine at the M2L order p+2 (its
    own statement count) and the radial chain.  The evaluator computes
    one per reflection class — per distinct |displacement|
    (:func:`repro.gravity.localexp.accumulate_m2l`) — and every
    translation of the class shares it.
    """
    pmax = p + 2
    return compiled_dtensor_function(pmax).n_ops + 4 * (pmax + 1) + 8


@functools.lru_cache(maxsize=16)
def flops_per_m2l(p: int) -> int:
    """Nominal arithmetic operations of one cell-to-local (M2L) translation.

    Its own derivative tensor (:func:`flops_per_m2l_tensor`) plus the
    triangular moment-gather contraction (a multiply-add per flat table
    entry), as if the translation were evaluated alone.  What a solve
    executes shares the tensor: :func:`flops_from_stats` charges it once
    per class and the contraction once per translation.
    """
    from ..gravity.localexp import m2l_tables

    return flops_per_m2l_tensor(p) + 2 * len(m2l_tables(p).acol)


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

    Counted from the fused kernel of :mod:`repro.multipoles.prism`, whose
    arithmetic the compiled ``prism_field`` row repeats term for term, one
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


def flops_from_stats(
    stats: dict, want_potential: bool = True, *, prism: bool = True
) -> float:
    """Flops of one force solve, from its counts — the one flop formula.

    ``stats`` is a ``ForceResult.stats`` (serial, or summed over shards
    by :func:`repro.gravity.solver.merge_stats`); missing counts read 0.
    The cell family costs its particle x cell rows at the recorded
    ``order``; pp pairs the paper's 28-flop monopole; the m2l
    family its derivative tensors (one per reflection class,
    ``m2l_classes``), the contraction of every translation
    (``m2l_pairs``) and the L2P evaluations (``m2l_interactions`` minus
    the pairs).  With ``prism`` the particle x merged box rows that ran
    (``prism_interactions``, not the ``prism_cubes`` they stand for) add
    the fused 8-corner kernel's count: ``stats["flops"]`` of the solvers.
    Without it the sum is ``kernel["flops"]``, the families
    ``kernel["seconds"]`` times.
    """
    p = int(stats.get("order", 4))
    m2l_pairs = int(stats.get("m2l_pairs", 0))
    flops = (
        int(stats.get("cell_interactions", 0)) * flops_per_cell_interaction(p, want_potential)
        + int(stats.get("pp_interactions", 0)) * FLOPS_PER_MONOPOLE_PP
    )
    if m2l_pairs:
        tensor = flops_per_m2l_tensor(p)
        l2p = int(stats.get("m2l_interactions", 0)) - m2l_pairs
        flops += (
            int(stats.get("m2l_classes", 0)) * tensor
            + m2l_pairs * (flops_per_m2l(p) - tensor)
            + l2p * flops_per_l2p(p, want_potential)
        )
    if prism:
        flops += int(stats.get("prism_interactions", 0)) * flops_per_prism_interaction(
            want_potential
        )
    return float(flops)


def kernel_counters(stats: dict, want_potential: bool = True) -> dict:
    """Roofline counters of one force solve (paper §3.2/§3.4), from its counts.

    A pure function of the additive counts :func:`evaluate_forces
    <repro.gravity.treeforce.evaluate_forces>` records — so a sharded
    solve, whose counts :func:`repro.gravity.solver.merge_stats` sums,
    reads like the serial one whatever the worker count: interactions
    by family, the flop count of :func:`flops_from_stats`, achieved
    interactions/s and effective GFLOP/s over the kernel seconds, the
    m x n tile shape the blocked evaluator sees (m = sink particles per
    CSR row, ``sink_particles / sink_rows``, the widest ``m_max``;
    n = sources per pp entry, ``pp_entry_particles / pp_entries``) with
    its register-block occupancy, and the fraction of the machine-model
    prediction reached.

    ``seconds`` is the cell, pp and m2l families' share of
    ``stats["family_seconds"]`` (busy seconds summed over shards, so the
    rates are per busy second — comparable to a single-thread rate, not
    to the pool wall-clock), and ``interactions`` and ``flops`` count
    those families only; the prism pass is carried as
    ``prism_interactions`` (particle x merged box rows evaluated) and
    ``prism_cubes`` (the particle x cube pairs they stand for) and stays
    out of the rates.  The zero rows that pad an M2L class to whole
    tiles and the zero entries of the blocks outside the triangle are
    multiplied but not counted.
    """
    cell = int(stats["cell_interactions"])
    pp = int(stats["pp_interactions"])
    m2l_pairs = int(stats["m2l_pairs"])
    l2p = int(stats["m2l_interactions"]) - m2l_pairs
    total = cell + pp + m2l_pairs + l2p
    flops = flops_from_stats(stats, want_potential, prism=False)
    family = stats["family_seconds"]
    seconds = float(family["cell"] + family["pp"] + family["m2l"])
    rows = int(stats["sink_rows"])
    m_max = int(stats["m_max"])
    m_mean = int(stats["sink_particles"]) / rows if rows else 0.0
    pp_entries = int(stats["pp_entries"])
    sec = max(seconds, 1e-12)
    gflops = flops / sec / 1e9
    model_gflops = MachineModel().flops_per_core / 1e9
    return {
        "seconds": seconds,
        "interactions": total,
        "cell_interactions": cell,
        "cell_entries": int(stats["cell_entries"]),
        "pp_interactions": pp,
        "m2l_pairs": m2l_pairs,
        "l2p_interactions": l2p,
        "prism_interactions": int(stats["prism_interactions"]),
        "prism_cubes": int(stats["prism_cubes"]),
        "flops": flops,
        "interactions_per_s": total / sec,
        "gflops": gflops,
        "rows": rows,
        "m_mean": m_mean,
        "m_max": m_max,
        "n_pp_mean": int(stats["pp_entry_particles"]) / pp_entries if pp_entries else 0.0,
        "tile_occupancy": (m_mean / m_max) if m_max else 0.0,
        "model_gflops": model_gflops,
        "model_fraction": gflops / model_gflops if model_gflops else 0.0,
    }
