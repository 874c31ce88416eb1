"""Flop accounting for the gravitational kernels.

The paper counts 28 flops per monopole interaction (Table 3) and
582,000 flops per particle for its production mix of 1.05e15
hexadecapole + 1.46e15 quadrupole + 4.68e14 monopole interactions on
68.7e9 particles (Table 2).  Here the per-order interaction costs are
*counted from what the kernels themselves execute* — the statements of
the generated shift and derivative-tensor routines, the widths of the
matrix products, the M2L contraction tables — plus the radial-chain
work, keeping the accounting honest as the kernels change.
"""

from __future__ import annotations

import functools

from ..multipoles.codegen import compiled_dtensor_function, compiled_shift_function
from ..multipoles.multiindex import n_coeffs
from .machines import MachineModel

__all__ = [
    "FLOPS_PER_MONOPOLE_PP",
    "flops_per_cell_interaction",
    "flops_per_cell_entry",
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


@functools.lru_cache(maxsize=16)
def flops_per_cell_interaction(p: int, want_potential: bool = True) -> int:
    """Arithmetic operations of one particle x cell row at order p.

    Counts what the evaluator of :mod:`repro.gravity.treeforce` executes
    per interaction row: its share of the matrix products — P_k and its
    three derivatives, a multiply-add per column of the order-k block,
    k = 1..p — the radial-derivative chain, and the combination
    (phi = sum g_k P_k when the potential is wanted, S = sum g_{k+1}
    P_k, T_i = sum g_k d_i P_k, a_i = x_i S + T_i: a multiply per term
    and an add per term after the first).  What is done once per
    accept-level entry is :func:`flops_per_cell_entry`.
    """
    gemm = 2 * 4 * sum(n_coeffs(k) for k in range(1, p + 1))
    # dx and r^2: 8; the radial chain g_0..g_{p+1} at a nominal 4 per
    # level, whatever the kernel (1/r executes 1 root, 3 for g_0 and
    # 1/r^2 and 2 a level after that; Plummer 2 more; the erf family
    # several times that).  Casts and copies are not arithmetic: moving
    # the chain from float64 temporaries to ``dtype`` rows changed the
    # time of these operations, not their number
    radial_ops = 4 * (p + 2) + 8
    sums = (2 if want_potential else 1) * (2 * p + 1)
    combination = sums + (3 * (2 * p - 1) if p else 0) + (6 if p else 3)
    return gemm + radial_ops + combination


@functools.lru_cache(maxsize=16)
def flops_per_cell_entry(p: int) -> int:
    """Arithmetic operations per accept-level entry of the cell family.

    The statements of the generated shift routine (read from the
    routine itself) plus the 3 subtractions of the shift vector; the
    entry's rows then share the result.
    """
    return compiled_shift_function(p).n_ops + 3


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


def flops_from_stats(
    stats: dict, want_potential: bool = True, *, prism: bool = True
) -> float:
    """Flops of one force solve, from its counts — the one flop formula.

    ``stats`` is a ``ForceResult.stats`` (serial, or summed over shards
    by :func:`repro.gravity.solver.merge_stats`); missing counts read 0.
    The cell family costs its particle x cell rows at the recorded
    ``order`` plus the translation of each accept-level entry
    (``cell_entries``); pp pairs the paper's 28-flop monopole; the m2l
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
        + int(stats.get("cell_entries", 0)) * flops_per_cell_entry(p)
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
