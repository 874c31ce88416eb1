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

The numpy M2L batches pairs by *reflection class*: tree cubes are
dyadic subdivisions of the box, so every sink-center - source-center -
image-offset displacement is an exact integer vector ``q`` in units of
the finest half-cell, and a few hundred distinct ``|q|`` cover hundreds
of thousands of pairs.  The derivative tensor of a reflected vector is
the reflected tensor, ``D_gamma(s * d) = s^gamma D_gamma(d)`` bit for
bit (the generated routine only multiplies and adds the components), so
one tensor at ``|d|`` serves all eight sign patterns ``s``: the
reflection moves onto the weighted source moments (``s^alpha``) and back
off the local (``s^beta``), both exact.

All three stages are bit-deterministic: each sink cell's local sums
accumulate in an order intrinsic to its own interaction segment
(ascending class key, then reflection — never batch or shard layout),
and a shard-restricted walk reproduces exactly the per-cell M2L segments
and ancestor chains of the full walk, so workers > 1 stays bit-identical
to serial.
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
    "l2p_accumulate",
]

#: rows of every M2L matrix product: BLAS row bits depend on the shape
#: of the product, so each class's entries are zero-padded to whole tiles
_TILE = 256
#: rows one gather / product / scatter round of a class handles
_CHUNK = 2 * _TILE
#: sink particles per L2P block (pace memory; sums are per particle)
_L2P_CHUNK = 65536


@dataclass(frozen=True)
class M2LTables:
    """Triangular M2L tables at force order ``p``.

    Local coefficients live on the order-``P = p + 2`` multi-index set
    (``nloc`` of them) — the full stored moment order.  For local index
    ``bi`` the admissible source moments are exactly the first
    ``n_coeffs(P - |beta_bi|)`` packed coefficients (the packing is by
    total order), so the flat table is a list of contiguous prefix
    segments: entry ``t`` multiplies weighted source moment ``acol[t]``
    with derivative tensor coefficient ``ccol[t] = index(alpha +
    beta)``, and ``biptr`` delimits each ``bi``'s segment.

    The evaluator multiplies the same table as dense blocks of two local
    orders (a lone last order joins the block before it): block ``(lo,
    hi, ns)`` holds local columns ``lo:hi`` against the first ``ns``
    source moments, as many as its lowest order reads, and ``bcols`` has
    its ``(ns, hi - lo)`` tensor columns — ``nloc``, an appended zero,
    where an entry lies outside the triangle.  ``sign[r]`` is
    ``s^alpha`` of reflection ``r``, whose bits (4, 2, 1) mark the
    negated axes (x, y, z).
    """

    p: int
    P: int
    nloc: int
    acol: np.ndarray  # (T,) source moment column (packed, order <= P)
    ccol: np.ndarray  # (T,) derivative tensor column (order <= P)
    biptr: np.ndarray  # (nloc + 1,)
    wsrc: np.ndarray  # (n_coeffs(P),) (-1)^|alpha| / alpha!
    blocks: tuple  # ((lo, hi, ns), ...)
    bcols: tuple  # per block, (ns, hi - lo) columns of the tensor
    sign: np.ndarray  # (8, nloc) s^alpha per reflection


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
    acol, ccol, biptr = (np.array(a, dtype=np.int64) for a in (acol, ccol, biptr))
    edges = list(range(0, P, 2)) + [P + 1]
    blocks, bcols = [], []
    for k0, k1 in zip(edges[:-1], edges[1:]):
        lo, hi, ns = n_coeffs(k0 - 1), n_coeffs(k1 - 1), n_coeffs(P - k0)
        cols = np.full((ns, hi - lo), nloc, dtype=np.int64)
        for bi in range(lo, hi):
            seg = slice(biptr[bi], biptr[bi + 1])
            cols[acol[seg], bi - lo] = ccol[seg]
        blocks.append((lo, hi, ns))
        bcols.append(cols)
    flips = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
    return M2LTables(
        p=p,
        P=P,
        nloc=nloc,
        acol=acol,
        ccol=ccol,
        biptr=biptr,
        wsrc=((-1.0) ** mis.order) / mis.factorial,
        blocks=tuple(blocks),
        bcols=tuple(bcols),
        sign=1.0 - 2.0 * ((flips @ mis.alphas.T) & 1),
    )


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


def _reflection_keys(tree, inter):
    """Class key and reflection of every M2L entry.

    Cell centers are odd multiples of ``box * 2^-(level+1)`` and image
    offsets integer multiples of ``box``, so each displacement
    ``sink center - source center - offset`` is an exact integer vector
    ``q`` in units of the finest half-cell ``h = box * 2^-(max_level+1)``.
    The key packs ``(|q_x|, |q_y|, |q_z|)`` into one int64, most
    significant first, in fields as wide as the largest component needs,
    so ascending keys are the lexicographic order of ``|q|``; bits
    (4, 2, 1) of the reflection mark the negative components of ``q``.
    Returns ``(key, reflection, field width, h)``.
    """
    h = np.ldexp(tree.box, -(tree.max_level + 1))
    # |q| < (ws + 1) 2^(max_level + 1): int32 to the key depth of 21
    cell_q = np.rint(np.ascontiguousarray(tree.cell_center.T) / h).astype(np.int32)
    off_q = np.rint(np.ascontiguousarray(inter.offsets.T) / h).astype(np.int32)
    counts = np.diff(inter.m2l_indptr)
    refl = np.zeros(len(inter.m2l_src), dtype=np.int32)
    absq = []
    for axis in range(3):
        q = np.repeat(cell_q[axis].take(inter.m2l_cells), counts)
        q -= cell_q[axis].take(inter.m2l_src)
        q -= off_q[axis].take(inter.m2l_off)
        refl |= (q >> 31) & (4 >> axis)
        absq.append(np.abs(q, out=q).astype(np.int64))
    width = int(max(a.max() for a in absq)).bit_length()
    if 3 * width > 63:
        raise OverflowError(f"M2L class key needs 3 x {width} bits, more than an int64 holds")
    key = (absq[0] << 2 * width) | (absq[1] << width) | absq[2]
    return key, refl, width, h


def accumulate_m2l(tree, moms, inter, kernel, *, stats=None) -> np.ndarray:
    """Per-sink-cell local expansions from the accepted M2L pairs.

    Returns an ``(len(inter.m2l_cells), nloc)`` array of local
    coefficients.  Entries are sorted by reflection class; each class
    evaluates one derivative tensor at ``|d|`` and runs its entries —
    gathered from the reflection's copy of the source moments,
    zero-padded to whole ``_TILE``-row tiles — through the blocks of
    :func:`m2l_tables`.  Products go into a ``(sink row, reflection)``
    accumulator, and since one sink row with one reflection and one
    ``|q|`` names one source (cell and image), each accumulator row
    receives at most one entry per class, in ascending class-key order;
    the reflections are then undone per row, ``L = sum_r s^beta
    acc[r]`` in ``r`` order.  Both orders are properties of the sink
    segment's content alone and a tile's rows do not depend on each
    other, so shard restriction cannot change a single bit.

    ``stats``, when given, receives ``m2l_classes`` (tensors evaluated)
    and ``m2l_tile_rows`` (padded rows through the products).
    """
    t = m2l_tables(moms.p)
    nloc = t.nloc
    cells = inter.m2l_cells
    locs = np.zeros((len(cells), nloc))
    if inter.m2l_src is None or len(inter.m2l_src) == 0:
        return locs
    src = inter.m2l_src
    key, refl, width, h = _reflection_keys(tree, inter)
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sizes = np.diff(np.append(starts, len(key)))
    # one tensor per class at |d| = |q| h (exact), with a zero column
    # for the blocks' entries outside the triangle
    kc = key[starts]
    field = (1 << width) - 1
    x, y, z = np.stack([kc >> 2 * width, (kc >> width) & field, kc & field]) * h
    r = np.sqrt((x * x + y * y) + z * z)
    tens = np.zeros((len(kc), nloc + 1))
    tens[:, :nloc] = dtensors_soa(x, y, z, kernel.radial_derivs(r, t.P), t.P).T
    mats = [tens[:, cols] for cols in t.bcols]
    # eight sign-flipped copies of each source cell's weighted moments,
    # and a zero row last that pads the tiles
    used = np.zeros(tree.n_cells, dtype=bool)
    used[src] = True
    wm = moms.moments[used, :nloc] * t.wsrc
    w8 = np.zeros((8 * len(wm) + 1, nloc))
    np.multiply(wm[:, None], t.sign, out=w8[:-1].reshape(len(wm), 8, nloc))
    slot = np.cumsum(used) - 1
    pad_start = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(-(-sizes // _TILE) * _TILE, out=pad_start[1:])
    gather = np.full(pad_start[-1], len(w8) - 1)
    gather[expand_ranges(pad_start[:-1], sizes)] = (slot[src] * 8 + refl)[order]
    sink_row = np.repeat(np.arange(len(cells)) * 8, np.diff(inter.m2l_indptr))
    target = (sink_row + refl)[order]
    acc = np.zeros((len(cells) * 8, nloc))
    for c, (e, n, a0, a1) in enumerate(
        zip(starts.tolist(), sizes.tolist(), pad_start[:-1].tolist(), pad_start[1:].tolist())
    ):
        for a in range(a0, a1, _CHUNK):
            b = min(a + _CHUNK, a1)
            lo, hi = e + a - a0, e + min(b - a0, n)
            w = w8.take(gather[a:b], axis=0).reshape(-1, _TILE, nloc)
            out = np.empty((b - a, nloc))
            tiles = out.reshape(-1, _TILE, nloc)
            for (c0, c1, ns), mat in zip(t.blocks, mats):
                np.matmul(w[:, :, :ns], mat[c], out=tiles[:, :, c0:c1])
            acc[target[lo:hi]] += out[: hi - lo]
    acc = acc.reshape(len(cells), 8, nloc)
    for k in range(8):
        locs += acc[:, k] * t.sign[k]
    if stats is not None:
        stats["m2l_classes"] = len(sizes)
        stats["m2l_tile_rows"] = int(pad_start[-1])
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
    # nloc = n_coeffs(p + 2) = (p + 3)(p + 4)(p + 5) / 6
    t = m2l_tables(round((6 * nloc) ** (1 / 3)) - 4)
    if t.nloc != nloc:
        raise ValueError(f"no local order has {nloc} coefficients")
    mis = multi_index_set(t.P)
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
    for a in range(0, len(pid), _L2P_CHUNK):
        b = min(a + _L2P_CHUNK, len(pid))
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
