"""Sink-side local expansions for the fmm-hybrid far field (M2L/L2L/L2P).

The ``traversal="fmm-hybrid"`` walk emits mutual (sink cell, source
cell, image offset) accepts as a CSR family keyed by sink cell
(:class:`repro.tree.traversal.InteractionLists` ``m2l_*``).  This
module turns those pairs into per-particle accelerations in three
deterministic stages:

* **M2L** — each accepted source multipole is translated into a Taylor
  local expansion about the sink cell's center.  The expansion is
  *triangular* at total order ``P = p + 2`` (the moment pass stores
  source moments through exactly that order): a local coefficient
  L_beta sums source moments M_alpha with ``|alpha| + |beta| <= P``,
  i.e. the source order shrinks as the local order grows.  The force
  only reads ``L_{gamma+e_i}`` with ``|gamma| <= P - 1``, so the
  force-relevant domain ``|alpha| + |gamma| <= P - 1`` is symmetric
  under swapping the roles of the two cells — with the mutual accept
  emitting both directions of every pair (and the derivative tensors
  obeying D(-d) = (-1)^|d| D(d) exactly in floating point), the
  pairwise forces cancel analytically and total momentum is conserved
  to the rounding floor (Dehnen astro-ph/0003209).  Running two orders
  above the one-sided cell family also absorbs the sink-side Taylor
  truncation the cell family does not have, keeping the realized error
  inside the same errtol budget.

* **L2L** — locals are swept down the tree to the leaves by exact
  polynomial recentering (no additional truncation, so the momentum
  property survives the sweep); cells outside any accepted subtree are
  skipped.

* **L2P** — at each sink leaf the local polynomial and its gradient
  are evaluated at the particle positions.

The numpy M2L batches pairs by *displacement class*: tree cubes are
dyadic subdivisions of the box, so sink-center - source-center - image
offsets repeat massively (hundreds of pairs share one exact vector),
and each class needs one derivative tensor and one dense
(n_local x n_source) translation matrix driven through BLAS.

All three stages are bit-deterministic: each sink cell's local sums
accumulate in an order intrinsic to its own interaction segment
(ascending displacement-class key — never batch or shard layout), and
a shard-restricted walk reproduces exactly the per-cell M2L segments
and ancestor chains of the full walk, so workers > 1 stays
bit-identical to serial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..multipoles import multi_index_set
from ..multipoles.codegen import dtensors_soa
from ..multipoles.multiindex import n_coeffs
from ..util import expand_ranges

__all__ = [
    "accumulate_m2l",
    "sweep_l2l",
    "local_expansions",
    "l2p_accumulate",
]


@dataclass(frozen=True)
class M2LTables:
    """Flat triangular M2L gather tables at force order ``p``.

    Local coefficients live on the order-``P = p + 2`` multi-index set
    (``nloc`` of them) — the full stored moment order.  For local index
    ``bi`` the admissible source moments are exactly the first
    ``n_coeffs(P - |beta_bi|)`` packed coefficients (the packing is by
    total order), so the flat table is a list of contiguous prefix
    segments: entry ``t`` multiplies weighted source moment ``acol[t]``
    with derivative tensor coefficient ``ccol[t] = index(alpha +
    beta)``, and ``biptr`` delimits each ``bi``'s segment.
    """

    p: int
    P: int
    nloc: int
    acol: np.ndarray  # (T,) source moment column (packed, order <= P)
    ccol: np.ndarray  # (T,) derivative tensor column (order <= P)
    biptr: np.ndarray  # (nloc + 1,)
    wsrc: np.ndarray  # (n_coeffs(P),) (-1)^|alpha| / alpha!
    wloc: np.ndarray  # (nloc,) 1 / beta!


@functools.lru_cache(maxsize=8)
def m2l_tables(p: int) -> M2LTables:
    P = p + 2
    mis = multi_index_set(P)
    nloc = len(mis)
    acol, ccol, biptr = [], [], [0]
    for bi, beta in enumerate(mis.alphas):
        na = n_coeffs(P - int(mis.order[bi]))
        for ai in range(na):
            acol.append(ai)
            s = mis.alphas[ai] + beta
            ccol.append(mis.index[tuple(int(x) for x in s)])
        biptr.append(len(acol))
    return M2LTables(
        p=p,
        P=P,
        nloc=nloc,
        acol=np.array(acol, dtype=np.int64),
        ccol=np.array(ccol, dtype=np.int64),
        biptr=np.array(biptr, dtype=np.int64),
        wsrc=((-1.0) ** mis.order) / mis.factorial,
        wloc=1.0 / mis.factorial,
    )


@functools.lru_cache(maxsize=8)
def m2l_matrix_scatter(p: int) -> np.ndarray:
    """Flat indices placing table entries into the dense (nloc, nhi)
    per-class translation matrix ``T[bi, acol] = D[ccol]``."""
    t = m2l_tables(p)
    nhi = n_coeffs(t.P)
    bi_of_t = np.repeat(np.arange(t.nloc), np.diff(t.biptr))
    return bi_of_t * nhi + t.acol


@functools.lru_cache(maxsize=8)
def l2p_gradient_columns(p: int) -> np.ndarray:
    """(3, n_coeffs(P-1)) indices of beta + e_axis inside mis(P)."""
    P = p + 2
    mis_lo = multi_index_set(P - 1)
    mis_hi = multi_index_set(P)
    cols = np.empty((3, len(mis_lo)), dtype=np.int64)
    for bi, b in enumerate(mis_lo.alphas):
        for ax in range(3):
            up = (
                int(b[0]) + (ax == 0),
                int(b[1]) + (ax == 1),
                int(b[2]) + (ax == 2),
            )
            cols[ax, bi] = mis_hi.index[up]
    return cols


def _displacement_keys(dx: np.ndarray, box: float, max_level: int) -> np.ndarray:
    """Pack displacement vectors into exact integer class keys.

    Cell centers are odd multiples of ``box * 2^-(level+1)`` and image
    offsets are integer multiples of ``box``, so every sink-source
    displacement is an exact integer multiple of the finest half-cell
    ``box * 2^-(max_level+1)``.  Rounding to that grid and packing the
    three signed integers into one int64 gives a key whose ascending
    order is the lexicographic order of the displacement — the
    canonical class order the deterministic accumulation relies on.
    """
    scale = np.exp2(max_level + 1) / box
    q = np.round(dx * scale).astype(np.int64)
    span = np.int64(2) << np.int64(max_level + 3)  # |q| < span/2 with ws images
    return (q[:, 0] * span + q[:, 1]) * span + q[:, 2]


def accumulate_m2l(tree, moms, inter, kernel) -> np.ndarray:
    """Per-sink-cell local expansions from the accepted M2L pairs.

    Returns an ``(len(inter.m2l_cells), nloc)`` array of local
    coefficients.  Two entries of one sink segment can never share a
    displacement class (same sink + same displacement would be the
    same source cell), so the per-class BLAS products scatter-add into
    distinct rows and each row accumulates exactly once per class, in
    ascending class-key order — a property of the segment's content
    alone, so shard restriction cannot change a single bit.
    """
    p = moms.p
    t = m2l_tables(p)
    cells = inter.m2l_cells
    locs = np.zeros((len(cells), t.nloc))
    if inter.m2l_src is None or len(inter.m2l_src) == 0:
        return locs
    nhi = n_coeffs(t.P)
    # fold the (-1)^|alpha|/alpha! weights into the moments once
    wm_all = moms.moments[:, :nhi] * t.wsrc
    scatter = m2l_matrix_scatter(p)
    src = inter.m2l_src
    offs = inter.offsets[inter.m2l_off]
    centers = tree.cell_center
    rows = np.repeat(
        np.arange(len(cells)), np.diff(inter.m2l_indptr)
    )
    dx = centers[cells][rows] - (centers[src] + offs)
    keys = _displacement_keys(dx, tree.box, tree.max_level)
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    bounds = np.append(starts, len(ks))
    dxu = dx[order[starts]]
    r = np.sqrt(np.einsum("ij,ij->i", dxu, dxu))
    g = kernel.radial_derivs(r, t.P)
    # one row per displacement class (the generated routine is SoA)
    D = np.ascontiguousarray(
        dtensors_soa(dxu[:, 0], dxu[:, 1], dxu[:, 2], g, t.P).T
    )
    # the triangular table splits into two dense BLAS blocks: low local
    # orders (|beta| <= 2) read the full moment width, the rest only the
    # order-<=3 prefix — 3x fewer flops than one dense (nloc, nhi)
    # product.  Every product runs through a fixed-shape zero-padded
    # (TILE, nhi) buffer: BLAS accumulation order depends on the matrix
    # shape, so fixed tiles make each entry's contribution bitwise a
    # function of its own moment row and the class matrix alone —
    # independent of how many other entries share the class (the
    # serial-vs-sharded bit-identity contract).
    n_low = n_coeffs(2)
    n_cut = n_coeffs(t.P - 3)
    tmat = np.zeros((t.nloc, nhi))
    tflat = tmat.reshape(-1)
    TILE = 256
    buf = np.zeros((TILE, nhi))
    for c in range(len(starts)):
        sl = order[starts[c]: bounds[c + 1]]
        tflat[scatter] = D[c, t.ccol]
        for s in range(0, len(sl), TILE):
            se = sl[s: s + TILE]
            m = len(se)
            buf[:m] = wm_all[src[se]]
            buf[m:] = 0.0
            rc = rows[se]
            locs[rc, :n_low] += (buf @ tmat[:n_low].T)[:m]
            locs[rc, n_low:] += (
                buf[:, :n_cut] @ tmat[n_low:, :n_cut].T
            )[:m]
        tflat[scatter] = 0.0
    return locs


def sweep_l2l(tree, cells, locs) -> np.ndarray:
    """Translate locals down the tree (dense over all cells).

    Scatters the per-cell M2L sums into a dense ``(n_cells, nloc)``
    array and pushes each touched cell's expansion onto its non-ghost
    children level by level; untouched subtrees are skipped.  Each cell
    receives its own M2L scatter first and exactly one parent
    translation, so the result is independent of sharding for every
    cell on a shard's ancestor chains.
    """
    nloc = locs.shape[1]
    n_all = tree.n_cells
    loc_all = np.zeros((n_all, nloc))
    if len(locs) == 0:
        return loc_all
    loc_all[cells] = locs
    has = np.zeros(n_all, dtype=bool)
    has[cells] = True
    p_loc = None
    for p_try in range(1, 16):
        if n_coeffs(p_try) == nloc:
            p_loc = p_try
            break
    mis = multi_index_set(p_loc)
    tgt, srcb, shift, _binom = mis.translation_table
    weights = 1.0 / mis.factorial[shift]
    for level in range(0, tree.max_level):
        cl = tree.cells_at_level(level)
        act = cl[(tree.cell_first_child[cl] >= 0) & has[cl]]
        if len(act) == 0:
            continue
        nch = tree.cell_nchildren[act]
        kids = expand_ranges(tree.cell_first_child[act], nch)
        par = np.repeat(act, nch)
        real = ~tree.cell_is_ghost[kids]
        kids = kids[real]
        par = par[real]
        if len(kids) == 0:
            continue
        d = tree.cell_center[kids] - tree.cell_center[par]
        parent_local = loc_all[par]
        mono = mis.powers(d)
        out = np.zeros_like(parent_local)
        contrib = parent_local[:, tgt] * mono[:, shift] * weights
        np.add.at(out.T, srcb, contrib.T)
        loc_all[kids] += out
        has[kids] = True
    return loc_all


def local_expansions(tree, moms, inter, kernel) -> np.ndarray:
    """M2L accumulation + L2L sweep: dense per-cell local expansions."""
    locs = accumulate_m2l(tree, moms, inter, kernel)
    return sweep_l2l(tree, inter.m2l_cells, locs)


def l2p_accumulate(
    tree,
    inter,
    loc_all,
    p: int,
    *,
    want_potential: bool,
    pid,
    row_of_p,
    s0: int,
    acc,
    pot,
    chunk: int = 65536,
) -> None:
    """Evaluate the leaf local expansions at the sink particles.

    Adds ``acc_i += sum_beta (x - z)^beta / beta! * L_{beta+e_i}`` (and
    the matching potential) into the evaluator's output arrays; ``pid``
    / ``row_of_p`` / ``s0`` are the evaluator's particle bookkeeping.
    Per-particle sums are closed-form reductions, so chunking cannot
    change the result.
    """
    sinks = inter.sink_leaves
    P = p + 2
    mis_hi = multi_index_set(P)
    row_local = loc_all[sinks]
    cols = l2p_gradient_columns(p)
    wf = 1.0 / mis_hi.factorial
    ncoef = n_coeffs(P - 1)
    centers = tree.cell_center[sinks]
    for a in range(0, len(pid), chunk):
        b = min(a + chunk, len(pid))
        rw = row_of_p[a:b]
        s = tree.pos[pid[a:b]] - centers[rw]
        mono = mis_hi.powers(s)
        lp = row_local[rw]
        base = mono[:, :ncoef] * wf[:ncoef]
        out = pid[a:b] - s0
        for ax in range(3):
            acc[out, ax] += np.einsum("ij,ij->i", base, lp[:, cols[ax]])
        if want_potential:
            pot[out] += np.einsum("ij,ij->i", mono * wf, lp)
