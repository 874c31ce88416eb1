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

import numpy as np

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
    "kernel_counters",
    "merge_kernel_counters",
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
    executes shares the tensor: :func:`kernel_counters` charges it once
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


def kernel_counters(
    tree,
    inter,
    *,
    p: int,
    want_potential: bool,
    seconds: float,
    cell_interactions: int,
    cell_entries: int,
    prism_interactions: int = 0,
    prism_cubes: int = 0,
    m2l_classes: int = 0,
) -> dict:
    """Roofline counters of one CSR force evaluation (paper §3.2/§3.4).

    Everything is derived from the CSR interaction lists plus the
    measured kernel seconds: interactions by family, an honest flop
    count from the functions above, achieved interactions/s and
    effective GFLOP/s, the m x n tile shape the blocked evaluator sees
    (m = sink particles per CSR row, n = sources per entry) with its
    register-block occupancy, and the fraction of the machine-model
    prediction reached.

    ``seconds`` covers the cell, pp and m2l families, so ``interactions``
    and ``flops`` count those only; the prism pass (timed separately in
    ``stats["family_seconds"]``) is carried as ``prism_interactions``
    (particle x merged box rows evaluated) and ``prism_cubes`` (the
    particle x cube pairs they stand for) and stays out of the rates.
    The cell family is counted by the evaluator —
    ``cell_interactions`` particle x cell rows from
    ``cell_entries`` accept-level entries, each with its own flop count;
    the m2l family by the evaluator too — ``m2l_classes`` derivative
    tensors, each shared by the translations of its class, and the
    contraction of every translation.  The zero rows that pad a class to
    whole tiles and the zero entries of the blocks outside the triangle
    are multiplied but not counted.
    """
    sinks = inter.sink_leaves
    rows = int(len(sinks))
    leaf_np = tree.cell_count[sinks] if rows else np.zeros(0, dtype=np.int64)
    n_pp_mean = (
        float(tree.cell_count[inter.leaf_src].mean()) if len(inter.leaf_src) else 0.0
    )
    cell_inter = int(cell_interactions)
    pp_inter = inter.n_pp_interactions(tree)
    m2l_pairs = 0
    l2p_inter = 0
    if getattr(inter, "m2l_src", None) is not None and len(inter.m2l_src):
        m2l_pairs = int(len(inter.m2l_src))
        l2p_inter = int(leaf_np.sum())
    total = cell_inter + pp_inter + m2l_pairs + l2p_inter
    flops = float(
        cell_inter * flops_per_cell_interaction(p, want_potential)
        + int(cell_entries) * flops_per_cell_entry(p)
        + pp_inter * FLOPS_PER_MONOPOLE_PP
    )
    if m2l_pairs:
        tensor = flops_per_m2l_tensor(p)
        flops += float(
            int(m2l_classes) * tensor
            + m2l_pairs * (flops_per_m2l(p) - tensor)
            + l2p_inter * flops_per_l2p(p, want_potential)
        )
    m_mean = float(leaf_np.mean()) if rows else 0.0
    m_max = int(leaf_np.max()) if rows else 0
    sec = max(float(seconds), 1e-12)
    gflops = flops / sec / 1e9
    model_gflops = MachineModel().flops_per_core / 1e9
    return {
        "seconds": float(seconds),
        "interactions": total,
        "cell_interactions": cell_inter,
        "cell_entries": int(cell_entries),
        "pp_interactions": pp_inter,
        "m2l_pairs": m2l_pairs,
        "l2p_interactions": l2p_inter,
        "prism_interactions": int(prism_interactions),
        "prism_cubes": int(prism_cubes),
        "flops": flops,
        "interactions_per_s": total / sec,
        "gflops": gflops,
        "rows": rows,
        "m_mean": m_mean,
        "m_max": m_max,
        "n_pp_mean": n_pp_mean,
        "tile_occupancy": (m_mean / m_max) if m_max else 0.0,
        "model_gflops": model_gflops,
        "model_fraction": gflops / model_gflops if model_gflops else 0.0,
    }


def merge_kernel_counters(parts: list[dict]) -> dict | None:
    """Combine per-shard kernel counters into one record.

    Additive fields sum; ``seconds`` sums *busy* kernel seconds across
    shards, so the recomputed rates are per-busy-second throughput —
    comparable to a single-thread rate, not to the pool wall-clock.
    Shape fields average weighted by interaction rows.
    """
    parts = [k for k in parts if k]
    if not parts:
        return None
    out = {}
    for key in ("interactions", "cell_interactions", "cell_entries",
                "pp_interactions", "m2l_pairs", "l2p_interactions",
                "prism_interactions", "prism_cubes", "rows"):
        out[key] = int(sum(k.get(key, 0) for k in parts))
    out["flops"] = float(sum(k.get("flops", 0.0) for k in parts))
    out["seconds"] = float(sum(k.get("seconds", 0.0) for k in parts))
    sec = max(out["seconds"], 1e-12)
    out["interactions_per_s"] = out["interactions"] / sec
    out["gflops"] = out["flops"] / sec / 1e9
    # weights: every row a shard ran through its tiles, prism included
    w = np.array(
        [
            max(k.get("interactions", 0) + k.get("prism_interactions", 0), 1)
            for k in parts
        ],
        dtype=float,
    )
    for key in ("m_mean", "n_pp_mean", "tile_occupancy"):
        out[key] = float(np.average([k.get(key, 0.0) for k in parts], weights=w))
    out["m_max"] = int(max(k.get("m_max", 0) for k in parts))
    out["model_gflops"] = float(max(k.get("model_gflops", 0.0) for k in parts))
    out["model_fraction"] = (
        out["gflops"] / out["model_gflops"] if out["model_gflops"] else 0.0
    )
    return out
