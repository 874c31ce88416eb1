"""Vectorized force evaluation from interaction lists (paper §3.3).

Consumes the interaction lists produced by the traversal and evaluates
them in large blocked batches — the Python/NumPy analogue of 2HOT's
m x n interaction blocking with structure-of-arrays swizzling (§3.2):
m sink particles meet their n sources (cells, source-leaf particles or
background boxes) in one dense tile, whatever depends on one side of
the tile only is computed once per tile, every operand is one
contiguous row over the block's interactions, and a block is thousands
of interactions long, so the per-interaction interpreter overhead is
amortized exactly the way the paper amortizes data-movement cost.  The
pp and prism families tile per sink leaf (:func:`_leaf_blocks`); the
cell family tiles per sink *cell*, where the walk recorded the accept.

Three interaction families:

* **cell**  — particle x multipole at the expansion order p of the tree
  moments, evaluated at the sink cell that accepted the source: the
  field is a sum of radial functions times polynomials
  (:mod:`repro.multipoles.hermite`), the polynomials are re-centred on
  the sink cell once per accept (an exact identity, generated code) and
  evaluated for a panel of its particles against all its accepts by
  one matrix product per order; only the radial chain and ~10 p sums
  are left per particle x cell row;
* **pp**    — particle x particle within directly-interacting leaf
  pairs, with any softening kernel (the 28-flop monopole inner loop of
  Table 3);
* **prism** — particle x analytic uniform box, the near-field
  background subtraction of §2.2.1: the ghost cells and, in background
  mode, the cube of every directly-interacting real leaf.  The
  background is one uniform density, so its field adds over disjoint
  regions and a run of face-adjacent cubes *is* one box: each sink
  leaf's cubes are merged into a few rectangular boxes first (an
  identity — the paper's one "larger cube which approximately
  surrounds the local region" is the special case), and the sink
  leaf's particles meet those.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..observe import get_tracer
from ..keys import cell_coordinates
from ..multipoles import multi_index_set
from ..multipoles.codegen import compiled_shift_function
from ..multipoles.hermite import field_table
from ..multipoles.multiindex import n_coeffs
# benchmarks/step/layers.py resolves both prism names in this module
from ..multipoles.prism import prism_acceleration, prism_potential  # noqa: F401
from ..multipoles.radial import NewtonianKernel, RadialKernel
from ..perfmodel.flops import kernel_counters
from ..tree.moments import TreeMoments
from ..tree.structure import Tree
from ..tree.traversal import InteractionLists
from ..util import expand_ranges, release_scratch, scratch
from .smoothing import NoSoftening, SofteningKernel

__all__ = ["ForceResult", "evaluate_forces", "autotune_chunks", "segment_sum"]


def segment_sum(contrib: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum each row of ``contrib`` over the contiguous segments beginning
    at ``starts``, in float64.

    ``contrib`` is (outputs, rows) in the working precision — one
    contiguous row of interaction terms per output — and the result
    (outputs, segments) float64: every family's per-particle sums are
    closed here, the only reduction the evaluator has.  ``starts`` must
    be strictly increasing (zero-length segments filtered out by the
    caller) with an implicit final boundary at the last row.
    ``np.add.reduceat`` touches each contribution once; a ``bincount``
    over expanded segment ids has to materialize a per-contribution id
    array first, which lost at every size the evaluator produces
    (BENCH_force.json's ``segment_sum`` receipt).
    """
    return np.add.reduceat(contrib, starts, axis=1, dtype=np.float64)


@dataclass
class ForceResult:
    """Accelerations/potentials (original particle order) plus counters."""

    acc: np.ndarray
    pot: np.ndarray | None
    stats: dict = field(default_factory=dict)


#: interaction rows per evaluation block of the cell, pp and prism
#: families.  Fixed, not calibrated: a one-shot timing per process picked
#: differently from run to run and moved step time and peak RSS with it
#: (benchmarks/step/README.md, baseline findings).  Blocks are aligned
#: to sink leaves / whole particles, so the values change speed only.
#: The prism kernel keeps ~26 float64 rows live per block and is fastest
#: while they fit the L2 cache: on the merged boxes 8k rows measured
#: 0.0176 / 0.0537 s against 0.0193 / 0.0610 at 4k, 0.0168 / 0.0568 at
#: 16k and 0.0175 / 0.0541 at 32k (early_hybrid / clustered_hier, median
#: of 8 solves); pp is flat from 32k to 128k.  The
#: cell family's ~80 calls per block carry a fixed cost and its ~60 live
#: rows leave the 4 MB L2 cache above 16k: 8k / 16k / 32k rows measured
#: 1.11 / 1 / 1.03 x (early_hier) and 0.99 / 1 / 1.04 x (clustered_hier)
#: the cell seconds of 16k (seven alternating solves each).
_CELL_CHUNK = 16384
_PP_CHUNK = 65536
_PRISM_CHUNK = 8192

#: sink particles per matrix-product panel of the cell family.  Part of
#: the arithmetic, not a tuning knob to change lightly: the bits of a
#: BLAS product depend on its shape, so results are reproducible across
#: row budgets and shards because every panel is this many particles
#: from its cell's first one.  16 / 32 / 64 measured 1.02 / 1 / 0.97 x
#: and 1.09 / 1 / 1.03 x the cell seconds of 32.
_CELL_PANEL = 32
#: accept-level entries translated per call of the shift routine, and
#: sink particles per batch of monomials; both pace memory (280 B per
#: entry, 560 B per particle at p = 4) and measured flat from half to
#: twice these values.
_CELL_SHIFT_CHUNK = 16384
_CELL_MONO_CHUNK = 8192


def autotune_chunks(p: int, dtype_str: str) -> tuple[int, int]:
    """The (cell_chunk, pp_chunk) row budgets used when none are passed.

    The same constants for every order and dtype; the step benchmark
    records this pair with every run.
    """
    return _CELL_CHUNK, _PP_CHUNK


def _leaf_blocks(leaf_np, indptr, budget):
    """Cut the CSR rows of one family into m x n evaluation blocks.

    Yields ``(a, b, e0, e1, tiles)``: sink particles [a, b) (positions in
    the row-major particle order) meet CSR entries [e0, e1).  A block is
    a run of whole rows whose n_L x E interaction rows fit ``budget``; a
    row that alone exceeds it is split by particles (into equal parts),
    never by entries.  So a block is a stack of dense tiles, one per
    row with entries: ``(r0, p0, n_t, c0, n_e)`` says block rows
    [r0, r0 + n_t * n_e), particle-major, pair block particles
    [p0, p0 + n_t) with block entries [c0, c0 + n_e).
    """
    nent = np.diff(indptr)
    rows = leaf_np * nent
    p_start = np.concatenate(([0], np.cumsum(leaf_np)))
    csum = np.cumsum(rows)
    la = 0
    while la < len(leaf_np):
        base = csum[la - 1] if la else 0
        lb = int(np.searchsorted(csum, base + budget, side="right"))
        if lb > la:
            keep = rows[la:lb] > 0
            tiles = zip(
                (csum[la:lb] - rows[la:lb] - base)[keep].tolist(),
                (p_start[la:lb] - p_start[la])[keep].tolist(),
                leaf_np[la:lb][keep].tolist(),
                (indptr[la:lb] - indptr[la])[keep].tolist(),
                nent[la:lb][keep].tolist(),
            )
            yield int(p_start[la]), int(p_start[lb]), indptr[la], indptr[lb], list(tiles)
            la = lb
            continue
        n_l, n_e = int(leaf_np[la]), int(nent[la])
        parts = -(-n_l // max(1, budget // n_e))
        step = -(-n_l // parts)
        for a in range(int(p_start[la]), int(p_start[la + 1]), step):
            b = min(a + step, int(p_start[la + 1]))
            yield a, b, indptr[la], indptr[la + 1], [(0, 0, b - a, 0, n_e)]
        la += 1


def _coalesce_boxes(row, lo, hi, n_rows):
    """Merge the face-adjacent boxes of each row into larger boxes.

    Box i is ``[lo[:, i], hi[:, i])`` — integer corners, shape (3, n) —
    and belongs to row ``row[i]`` of ``n_rows``; the boxes of one row
    are pairwise disjoint.  One sweep per axis, x then y then z: the
    boxes are sorted by (row, extents across the axis, ``lo`` along
    it), and a box whose ``lo`` is the previous box's ``hi`` on the same
    row and cross-section is fused with it.  A run of cubes becomes a
    bar, a stack of equal bars a slab, a stack of equal slabs a block;
    the union of a row's boxes does not change.  Returns ``(box_lo,
    box_hi, box_indptr)``: the merged corners as a CSR over the rows,
    each row's boxes in an order set by its own boxes alone.

    The sort key is the six fields packed, most significant first, into
    as few int64 words as hold them — one for a tree a few levels deep,
    three at the key depth of 21 — ordered by one ``np.lexsort``.
    """
    if len(row):
        base = lo.min()
        lo, hi = lo - base, hi - base
        widths = [n_rows.bit_length()] + [int(hi.max()).bit_length()] * 5
        for axis in range(3):
            b, c = (axis + 1) % 3, (axis + 2) % 3
            words, used = [], 63
            for fld, width in zip((row, lo[b], hi[b], lo[c], hi[c], lo[axis]), widths):
                if used + width > 63:
                    words.append(fld)
                    used = width
                else:
                    words[-1] = (words[-1] << width) | fld
                    used += width
            order = np.lexsort(words[::-1])
            # box i continues box i - 1 of the sorted order where its key
            # is that box's key with hi in place of lo (the last field)
            words = [w[order] for w in words]
            end = words[-1] + (hi[axis] - lo[axis])[order]
            first = np.ones(len(row), dtype=bool)
            np.not_equal(words[-1][1:], end[:-1], out=first[1:])
            for w in words[:-1]:
                first[1:] |= w[1:] != w[:-1]
            first = np.flatnonzero(first)
            top = hi[axis][order[np.append(first[1:], len(row)) - 1]]
            keep = order[first]
            row, lo, hi = row[keep], lo.take(keep, axis=1), hi.take(keep, axis=1)
            hi[axis] = top
        lo += base
        hi += base
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=indptr[1:])
    return lo, hi, indptr


def _background_boxes(tree, inter):
    """The analytic background of every sink leaf's near field, as boxes.

    The ghost cubes and the source cubes of the direct leaf pairs of one
    row are taken together, placed on the integer grid of the finest
    level among them (cell coordinates from the Morton keys, image
    offsets in whole boxes: no rounding) and merged by
    :func:`_coalesce_boxes`.  Returns float64 ``(box_lo, box_hi)`` of
    shape (3, n_boxes) and ``box_indptr`` over ``inter.sink_leaves``.
    """
    n_rows = len(inter.sink_leaves)
    rows = np.arange(n_rows)
    row = np.concatenate(
        [np.repeat(rows, np.diff(ip)) for ip in (inter.ghost_indptr, inter.leaf_indptr)]
    )
    src = np.concatenate((inter.ghost_src, inter.leaf_src))
    off = np.concatenate((inter.ghost_off, inter.leaf_off))
    idx, level = cell_coordinates(tree.cell_key)
    unit = int(level[src].max()) if len(src) else 0
    # (cells finer than the unit are in no list)
    shift = np.maximum(unit - level, 0)
    image = np.rint(inter.offsets / tree.box).astype(np.int64)
    # (3, n) rows, contiguous per axis
    lo = np.take(np.ascontiguousarray(idx.T) << shift, src, axis=1)
    lo += np.take(np.ascontiguousarray(image.T) << unit, off, axis=1)
    hi = lo + (1 << shift)[src]
    lo, hi, indptr = _coalesce_boxes(row, lo, hi, n_rows)
    h = tree.box / (1 << unit)
    return lo * h, hi * h, indptr


def _cell_panels(tree, inter, owned, panel):
    """Matrix-product panels of the cell family, in evaluation order.

    A panel is ``panel`` consecutive particles of a sink cell, counted
    from the cell's first particle (the cell's last panel holds the
    remainder), against *all* of the cell's entries — a pure function of
    the sink cell, because the bits of a BLAS product depend on its
    shape.  Returns ``(row, p0, m)`` per panel — the cell's row in
    ``inter.cell_cells``, first particle and particle count — for the
    panels that hold a sink particle (``owned`` flags them in
    key-sorted order), ordered by cell row.
    """
    count = tree.cell_count[inter.cell_cells]
    n_pan = -(-count // panel)
    n_pan[np.diff(inter.cell_indptr) == 0] = 0
    row = np.repeat(np.arange(len(count)), n_pan)
    first = expand_ranges(np.zeros(len(count), dtype=np.int64), n_pan) * panel
    p0 = tree.cell_start[inter.cell_cells][row] + first
    m = np.minimum(panel, count[row] - first)
    cum = np.concatenate(([0], np.cumsum(owned)))
    keep = cum[p0 + m] > cum[p0]
    return row[keep], p0[keep], m[keep]


def _runs(weight, breaks, budget):
    """Cut ``range(len(weight))`` into runs whose weights sum to at most
    ``budget`` (a single item may exceed it) and that never span one of
    the positions in ``breaks``; yields ``(a, b)``."""
    csum = np.cumsum(weight)
    stops = np.append(breaks, len(weight))
    a = 0
    for stop in stops.tolist():
        while a < stop:
            base = csum[a - 1] if a else 0
            b = int(np.searchsorted(csum, base + budget, side="right"))
            b = min(max(b, a + 1), stop)
            yield a, b
            a = b


def _scaled_monomials(delta, p, dtype):
    """``[X; d_x X; d_y X; d_z X]`` for the columns of ``delta`` (3, n).

    ``X[:, c] = delta^gamma_c / gamma_c!`` over the packed multi-indices
    of order <= p, computed in float64 and rounded once; differentiating
    a scaled monomial shifts its index, ``d_i X_gamma = X_{gamma - e_i}``
    (zero where gamma_i = 0), so the three derivative matrices are
    column gathers of X.  Returns a (4, n, n_coeffs(p)) array.
    """
    mis = multi_index_set(p)
    n = delta.shape[1]
    # (one spare column of zeros for the gathers below)
    x = np.zeros((n, len(mis) + 1))
    np.divide(mis.powers(delta.T), mis.factorial, out=x[:, :-1])
    out = np.empty((4, n, len(mis)), dtype=dtype)
    out[0] = x[:, :-1]
    out[1:] = x[:, _lowered_columns(p)].transpose(1, 0, 2)
    return out


@functools.lru_cache(maxsize=16)
def _lowered_columns(p: int) -> np.ndarray:
    """(3, n_coeffs(p)) packed index of gamma - e_i, or n_coeffs(p) where
    gamma_i = 0 (the spare zero column of :func:`_scaled_monomials`)."""
    mis = multi_index_set(p)
    low = mis.alphas - np.eye(3, dtype=np.int64)[:, None, :]
    return np.where(mis.alphas.T > 0, mis.packed_index(np.maximum(low, 0)), len(mis))


def _evaluate_cells(tree, moms, inter, kernel, dtype, cell_chunk, pid, s0, acc, pot):
    """Add the cell family's accelerations (and potentials, unless
    ``pot`` is None) of the sink particles ``pid`` into ``acc`` /
    ``pot`` (offset ``s0``); returns the seconds spent translating.

    Three nested runs, each amortizing one thing (see
    :func:`evaluate_forces`): sink cells whose entries are translated
    together, panels that share one batch of sink-side monomials, and
    panels that share a block of elementwise work.  Blocks never span
    a tree level, so no particle occurs twice in one.

    *Length unit.*  A level is evaluated in units of u, the power of
    two at or below its cells' side: positions and centres are divided
    by u before they are differenced, row (k, gamma) of the coefficient
    table is multiplied by u^(|gamma| - 2k - 1) in float64 before it is
    rounded, the radial chain comes from ``kernel.in_units(u)`` — so
    that sum_k g'_k(r/u) P'_k(x/u) is the same potential — and the
    reduced gradient is divided by u.  In box units g_{p+1} ~ r^-(2p+3)
    leaves float32's range for an accept closer than 6e-4 (p = 4); in
    units of the sink cell r is of order one at any depth.  A power of
    two moves exponents only: shards, row budgets and the unit itself
    change no bit of the result.
    """
    p = moms.p
    tab = field_table(p)
    shift = compiled_shift_function(p)
    orders = [(k, int(tab.offsets[k]), n_coeffs(k)) for k in range(1, p + 1)]
    cells, indptr = inter.cell_cells, inter.cell_indptr
    nent = np.diff(indptr)
    # every cell's b_{k,gamma}, one row per coefficient; rounded once,
    # in the length unit of the run that reads it
    coef64 = tab.matrix @ moms.moments[:, : n_coeffs(p)].T
    owned = np.zeros(tree.n_particles, dtype=bool)
    owned[pid] = True
    pan_row, pan_p0, pan_m = _cell_panels(tree, inter, owned, _CELL_PANEL)
    pan_first = np.searchsorted(pan_row, np.arange(len(cells) + 1))
    level = tree.cell_level[cells]
    level_breaks = np.flatnonzero(np.diff(level)) + 1
    box_exp = math.frexp(tree.box)[1] - 1
    unit_exp = None
    n_out = 3 if pot is None else 4
    translate_s = 0.0
    for ga, gb in _runs(nent, level_breaks, _CELL_SHIFT_CHUNK):
        pa, pb = pan_first[ga], pan_first[gb]
        if pa == pb:
            continue
        t0 = time.perf_counter()
        # -- per tree level: the length unit u = 2^unit_exp, its kernel
        # and the coefficient table in it
        if unit_exp != box_exp - level[ga]:
            unit_exp = box_exp - int(level[ga])
            inv_u = math.ldexp(1.0, -unit_exp)
            kernel_u = kernel.in_units(math.ldexp(1.0, unit_exp))
            coef = coef64 * np.ldexp(1.0, unit_exp * tab.unit_power)[:, None]
            coef = coef.astype(dtype, copy=False)
        # -- per run of sink cells: their entries' source centres, and
        # the source coefficients shifted to the sink-cell centres
        e0, e1 = indptr[ga], indptr[gb]
        src = inter.cell_src[e0:e1]
        src_ctr = (tree.cell_center[src] + inter.offsets[inter.cell_off[e0:e1]]).T
        src_ctr *= inv_u
        sink_ctr = tree.cell_center[cells[ga:gb]] * inv_u
        d = scratch("d", (3, e1 - e0), dtype)
        d[...] = np.repeat(sink_ctr, nent[ga:gb], axis=0).T - src_ctr
        Q = scratch("Q", (len(coef), e1 - e0), dtype)
        for a, b in tab.segments:
            # (mode="clip": the default "raise" copies through a buffer)
            np.take(coef[a:b], src, axis=1, mode="clip", out=Q[a:b])
        if shift.n_ops:
            shift(d, Q, scratch("Wq", (shift.n_scratch, e1 - e0), dtype))
        translate_s += time.perf_counter() - t0
        for xa, xb in _runs(pan_m[pa:pb], (), _CELL_MONO_CHUNK):
            # -- per batch of panels: the particles' scaled monomials
            # about their sink-cell centre, and where everything sits
            batch = slice(pa + xa, pa + xb)
            m_x, row_x = pan_m[batch], pan_row[batch]
            n_x, c0_x = nent[row_x], indptr[row_x] - e0
            part = expand_ranges(pan_p0[batch], m_x)
            pos = tree.pos[part].T * inv_u
            XS = _scaled_monomials(
                pos - np.repeat(sink_ctr[row_x - ga], m_x, axis=0).T, p, dtype
            )
            own = owned[part]
            out_rows = part - s0
            q_end, r_end = np.cumsum(m_x), np.cumsum(m_x * n_x)
            seg_len = np.repeat(n_x, m_x)
            seg0 = np.cumsum(seg_len) - seg_len
            # per panel: its particles [q0, q1) of the batch, entries
            # [c0, c1) of the run, rows [r0, r1) of the batch
            panels = list(
                zip((q_end - m_x).tolist(), q_end.tolist(), c0_x.tolist(),
                    (c0_x + n_x).tolist(), (r_end - m_x * n_x).tolist(), r_end.tolist())
            )
            for ba, bb in _runs(m_x * n_x, (), cell_chunk):
                # -- per block of whole panels: the per-row work
                qa, qb = panels[ba][0], panels[bb - 1][1]
                ra, rb = panels[ba][4], panels[bb - 1][5]
                n_rows = rb - ra
                x = scratch("x", (3, n_rows), dtype)
                P0 = scratch("P0", (n_rows,), dtype)
                PD = scratch("PD", (p, 4, n_rows), dtype)
                for q0, q1, c0, c1, r0, r1 in panels[ba:bb]:
                    tile, shape = slice(r0 - ra, r1 - ra), (q1 - q0, c1 - c0)
                    # a float64 difference, rounded to ``dtype`` on store
                    np.subtract(
                        pos[:, q0:q1, None],
                        src_ctr[:, None, c0:c1],
                        out=x[:, tile].reshape(3, *shape),
                    )
                    P0[tile].reshape(shape)[...] = Q[0, c0:c1]
                    for k, row0, width in orders:
                        np.matmul(
                            XS[:, q0:q1, :width],
                            Q[row0 : row0 + width, c0:c1],
                            out=PD[k - 1, :, tile].reshape(4, *shape),
                        )
                # r^2 = (x x + y y) + z z, spelled out: an einsum over a
                # block of one row sums in another order
                r, t = scratch("r", (2, n_rows), dtype)
                np.multiply(x[0], x[0], out=r)
                for axis in (1, 2):
                    np.multiply(x[axis], x[axis], out=t)
                    r += t
                np.sqrt(r, out=r)
                g = kernel_u.radial_derivs(r, p + 1, out=scratch("g", (p + 2, n_rows), dtype))
                # rows: a_x, a_y, a_z, [potential]; then S and a spare
                sums = scratch("sums", (8, n_rows), dtype)
                T, S, tmp = sums[:3], sums[4], sums[5:]
                np.multiply(g[1], P0, out=S)
                for k in range(1, p + 1):
                    np.multiply(g[k + 1], PD[k - 1, 0], out=tmp[0])
                    np.add(S, tmp[0], out=S)
                if pot is not None:
                    np.multiply(g[0], P0, out=sums[3])
                    for k in range(1, p + 1):
                        np.multiply(g[k], PD[k - 1, 0], out=tmp[0])
                        np.add(sums[3], tmp[0], out=sums[3])
                # acceleration_i = x_i S + T_i, T_i = sum_k g_k d_i P_k
                np.multiply(x, S, out=x)
                if p:
                    np.multiply(g[1], PD[0, 1:], out=T)
                    for k in range(2, p + 1):
                        np.multiply(g[k], PD[k - 1, 1:], out=tmp)
                        np.add(T, tmp, out=T)
                    np.add(T, x, out=T)
                else:
                    T[...] = x
                # each particle's entries are one run of rows; the
                # gradient is per unit length
                keep = own[qa:qb]
                rows = out_rows[qa:qb][keep]
                total = segment_sum(sums[:n_out], seg0[qa:qb] - ra)[:, keep]
                acc[rows] += total[:3].T * inv_u
                if pot is not None:
                    pot[rows] += total[3]
    return translate_s


def evaluate_forces(
    tree: Tree,
    moms: TreeMoments,
    inter: InteractionLists,
    softening: SofteningKernel | None = None,
    G: float = 1.0,
    dtype=np.float64,
    want_potential: bool = True,
    kernel: RadialKernel | None = None,
    cell_chunk: int | None = None,
    pp_chunk: int | None = None,
    particle_range: tuple[int, int] | None = None,
) -> ForceResult:
    """Evaluate all interactions; returns fields in original particle order.

    Parameters
    ----------
    kernel:
        Radial Green's function for the *cell* interactions (default
        Newtonian 1/r; a short-range ErfcKernel turns this into the
        tree half of a TreePM split).
    dtype:
        Accumulation precision (float32 reproduces the single-precision
        behaviour of Fig. 6 / Table 3).
    cell_chunk, pp_chunk:
        Interaction-rows per evaluation block for the cell family and
        for the pp and prism families.  ``None`` means the fixed
        defaults (:func:`autotune_chunks`; the prism family has its own,
        ``_PRISM_CHUNK``).  They pace memory and speed only; results do
        not depend on them.  (A cell-family block is at least one
        panel, however small the budget.)
    particle_range:
        Half-open (start, end) range of *key-sorted* particle indices
        covering every sink in ``inter`` (a shard of SFC-contiguous
        sink leaves).  Output arrays then have length ``end - start``,
        stay in key-sorted order and skip the final unsort/astype — the
        caller (the shared-memory executor) merges disjoint shard
        slices and unsorts once.

    Rows of the pp and prism families follow ``inter.sink_leaves`` (SFC
    order), so generating contributions row by row is automatically
    *sink-particle-major*: each sink particle's contributions form one
    contiguous run, closed by a single :func:`segment_sum` over the run
    boundaries, and each particle lands in exactly one block (blocks
    split only between particles), making the result independent of
    the block sizes.  Both are m x n-blocked (:func:`_leaf_blocks`); a
    block gathers what belongs to its entries once, the sink leaf's
    particles share it through broadcasts into pooled scratch, and
    every operand is a contiguous row over the block's interactions.

    *cell*: an accept is evaluated at the sink cell S that recorded it
    (``inter.cell_cells``), for every sink particle under S.  With
    x = x_p - z_c, the field of a multipole is phi = sum_k g_k(r) P_k(x)
    with polynomials P_k of degree <= k (:mod:`repro.multipoles.hermite`),
    and its gradient ``x_i S + T_i`` with ``S = sum_k g_{k+1} P_k``,
    ``T_i = sum_k g_k d_i P_k``.  Once per solve one matrix product
    turns the moments into every cell's polynomial coefficients; once
    per entry the generated shift routine re-centres them on z_S — an
    identity, so the one-sided error model of §2.2.2 is untouched — in
    runs of ``_CELL_SHIFT_CHUNK`` entries; once per sink particle and
    cell the scaled monomials of delta = x_p - z_S
    (:func:`_scaled_monomials`); then per *panel* — ``_CELL_PANEL``
    consecutive particles of S against all of S's entries
    (:func:`_cell_panels`) — ``np.matmul`` of the stacked monomial
    matrices ``[X; d_x X; d_y X; d_z X]`` with the order-k block of
    shifted coefficients yields P_k and d_i P_k for all m x n rows,
    k = 1..p.  Per row that leaves x, r, the radial chain and the sums
    above: 10 p + 5 row operations.  All of it runs level by level in
    units of the sink cells' side (:func:`_evaluate_cells`).  As
    many whole panels as fit ``cell_chunk`` rows share one block of
    that elementwise work; a panel is never cut, so its matrix shapes
    — and with them its bits — depend on the sink cell alone, whatever
    the row budget and whichever shard evaluates it (a shard evaluates
    every panel that holds one of its particles and keeps those rows).
    Blocks stay within one tree level, so no particle occurs twice in
    one, and a particle's per-level sums are added in level order.

    *pp*: entries are the source particles of the
    row's source leaves (a source-particle CSR derived from
    ``leaf_indptr``) — indices, image-shifted positions and masses
    gathered once per sink leaf, self-pairs masked on the home image
    only.
    *prism*: one pass.  The ghost entries and the direct leaf pairs of
    a row name the cubes whose background has to go; their exact
    integer corners are run-merged along x, then y, then z into
    rectangular boxes (:func:`_background_boxes`,
    :func:`_coalesce_boxes`) — a pure function of the row's own list,
    so the boxes, their order and the bits of the result are the same
    for every block size and shard.  Entries of the tiles are
    the merged boxes, and the block's rows go through one call of the
    fused 8-corner kernel
    (:func:`repro.multipoles.prism.prism_acceleration`), which returns
    acceleration and potential from the same corner terms.

    *Precision.*  Every family differences float64 positions in
    float64 and rounds the difference to ``dtype`` on store; from
    there every row of the cell and pp families — r, the radial chain
    (:meth:`RadialKernel.radial_derivs` with ``out=``), the pair force
    (:meth:`SofteningKernel.force_and_potential`), the sums — is
    computed in ``dtype``, in place in pooled scratch (the erf-family
    chain and the pair force inside a softening kernel's support are
    float64 definitions, rounded on store); the prism terms are
    float64.  A block's contributions are laid out (outputs, rows), and
    :func:`segment_sum` adds each particle's run of rows into float64.

    ``stats["family_seconds"]`` holds the seconds spent in the cell,
    pp, m2l and prism families, ``stats["cell_seconds"]`` the cell
    family's again as ``translate`` (per entry) and ``rows`` (the rest);
    ``stats["kernel"]`` rates the first three families against their
    own interaction and flop counts, derived from the counts here by
    :func:`~repro.perfmodel.flops.kernel_counters`.
    ``stats["cell_interactions"]`` counts the rows of this call's own
    sink particles — exact under sharding — and ``stats["cell_entries"]``
    the accept-level entries it translated (a sink cell that straddles
    two shards is translated by both).  ``stats["prism_interactions"]``
    counts the rows that went through the prism kernel (sink particles
    x merged boxes) and ``stats["prism_cubes"]`` the particle x cube
    pairs they stand for; both add up exactly over shards.
    ``stats["prism_seconds"]`` splits the prism family's seconds into
    ``coalesce`` (building and merging the boxes) and ``rows``.  Every
    stat is a count or seconds that adds up over shards, except the
    few :func:`~repro.gravity.solver.merge_stats` names.
    """
    softening = softening or NoSoftening()
    kernel = kernel or NewtonianKernel()
    p = moms.p
    tr = get_tracer()
    s0, s1 = particle_range if particle_range is not None else (0, tree.n_particles)
    n = s1 - s0
    acc = np.zeros((n, 3), dtype=np.float64)
    pot = np.zeros(n, dtype=np.float64) if want_potential else None
    if cell_chunk is None:
        cell_chunk = _CELL_CHUNK
    if pp_chunk is None:
        pp_chunk, prism_chunk = _PP_CHUNK, _PRISM_CHUNK
    else:
        prism_chunk = pp_chunk

    def loc(idx):
        return idx - s0 if s0 else idx

    sinks = inter.sink_leaves
    leaf_np = tree.cell_count[sinks]
    stats = {
        "cell_interactions": 0,
        "cell_entries": 0,
        "pp_interactions": 0,
        "prism_interactions": 0,
        "prism_cubes": 0,
        "m2l_pairs": 0,
        "m2l_classes": 0,
        "m2l_tile_rows": 0,
        "m2l_interactions": 0,
        # the tile shape of ``kernel``: sink rows and their particles,
        # pp entries and their source particles
        "sink_rows": len(sinks),
        "sink_particles": int(leaf_np.sum()),
        "m_max": int(leaf_np.max(initial=0)),
        "pp_entries": len(inter.leaf_src),
        "pp_entry_particles": int(tree.cell_count[inter.leaf_src].sum()),
        "order": p,
    }

    # per sink particle: global key-sorted index and owning CSR row
    pid = expand_ranges(tree.cell_start[sinks], leaf_np)
    row_of_p = np.repeat(np.arange(len(sinks), dtype=np.int64), leaf_np)

    def reduce_into(contrib, a, b, lens):
        # contrib: (3 or 4, rows), particle a + i owns the next lens[i]
        starts = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        nz = lens > 0
        if not np.any(nz):
            return
        rows = loc(pid[a:b][nz])
        total = segment_sum(contrib, starts[nz])
        acc[rows] += total[:3].T
        if want_potential:
            pot[rows] += total[3]

    # cell + pp + m2l is the denominator of the roofline counters
    family_s = {"cell": 0.0, "pp": 0.0, "m2l": 0.0, "prism": 0.0}
    stats["family_seconds"] = family_s
    # the cell family's seconds again, split into the per-entry and the
    # per-row part
    cell_s = {"translate": 0.0, "rows": 0.0}
    stats["cell_seconds"] = cell_s
    # and the prism family's: merging the cubes, evaluating the boxes
    prism_s = {"coalesce": 0.0, "rows": 0.0}
    stats["prism_seconds"] = prism_s

    # ----- cell (multipole) interactions --------------------------------------
    cells = inter.cell_cells
    if len(inter.cell_src):
        nent = np.diff(inter.cell_indptr)
        stats["cell_entries"] = len(inter.cell_src)
        # sink particles only: a cell that straddles two shards is
        # split between them, not counted twice
        stats["cell_interactions"] = int(
            (inter.sink_particles_under(tree, cells) * nent).sum()
        )
        _tk0 = time.perf_counter()
        cell_s["translate"] = _evaluate_cells(
            tree, moms, inter, kernel, dtype, cell_chunk, pid, s0, acc, pot
        )
        release_scratch()
        family_s["cell"] += time.perf_counter() - _tk0
        cell_s["rows"] = family_s["cell"] - cell_s["translate"]

    # ----- particle-particle interactions --------------------------------------
    if len(inter.leaf_sink):
        # source-particle CSR: row -> its entries' particles, flattened
        ct_ent = tree.cell_count[inter.leaf_src]
        sp_cum = np.concatenate(([0], np.cumsum(ct_ent)))
        src_indptr = sp_cum[inter.leaf_indptr]
        src_per_row = np.diff(src_indptr)
        stats["pp_interactions"] = int((src_per_row * leaf_np).sum())
        _tk0 = time.perf_counter()
        mass_w = tree.mass.astype(dtype, copy=False)
        home_off = int(np.flatnonzero(np.all(inter.offsets == 0.0, axis=1))[0])
        m_p = src_per_row[row_of_p]
        n_out = 4 if want_potential else 3
        for a, b, s_lo, s_hi, tiles in _leaf_blocks(leaf_np, src_indptr, pp_chunk):
            lens = m_p[a:b]
            n_rows = int(lens.sum())
            if not n_rows:
                continue
            # once per block: the source particles of its entries
            # (sp_cum turns the particle range back into the entry
            # range), their image-shifted positions and masses.
            # Positions stay float64 until they are differenced: dx is
            # computed in double and rounded to ``dtype`` on store (a
            # float32 position is 6e-8 absolute, 1e-3 of a clump-core
            # separation)
            e0, e1 = np.searchsorted(sp_cum, (s_lo, s_hi))
            reps = ct_ent[e0:e1]
            src_part = expand_ranges(tree.cell_start[inter.leaf_src[e0:e1]], reps)
            off = np.repeat(inter.leaf_off[e0:e1], reps)
            src_pos = (tree.pos[src_part] + inter.offsets[off]).T
            src_mass = mass_w[src_part]
            # a particle meets itself only through the home image
            src_home = np.where(off == home_off, src_part, -1)
            sink_part = pid[a:b]
            sink_pos = tree.pos[sink_part].T
            dx = scratch("dx", (3, n_rows), dtype)
            mass_row = scratch("mass", (n_rows,), dtype)
            self_pair = scratch("self", (n_rows,), bool)
            for r0, p0, n_t, c0, n_e in tiles:
                tile = slice(r0, r0 + n_t * n_e)
                np.subtract(
                    sink_pos[:, p0 : p0 + n_t, None],
                    src_pos[:, None, c0 : c0 + n_e],
                    out=dx[:, tile].reshape(3, n_t, n_e),
                )
                mass_row[tile].reshape(n_t, n_e)[...] = src_mass[c0 : c0 + n_e]
                np.equal(
                    sink_part[p0 : p0 + n_t, None],
                    src_home[None, c0 : c0 + n_e],
                    out=self_pair[tile].reshape(n_t, n_e),
                )
            r, t = scratch("r", (2, n_rows), dtype)
            np.multiply(dx[0], dx[0], out=r)
            for axis in (1, 2):
                np.multiply(dx[axis], dx[axis], out=t)
                r += t
            np.sqrt(r, out=r)
            f, psi = fpsi = scratch("fpsi", (2, n_rows), dtype)
            softening.force_and_potential(r, fpsi, want_potential)
            # a self-pair's row holds F(0) and psi(0), infinite unsoftened
            np.copyto(f, 0.0, where=self_pair)
            np.negative(mass_row, out=t)
            np.multiply(t, f, out=t)
            contrib = scratch("contrib", (n_out, n_rows), dtype)
            np.multiply(t, dx, out=contrib[:3])
            if want_potential:
                np.copyto(psi, 0.0, where=self_pair)
                np.multiply(mass_row, psi, out=contrib[3])
            reduce_into(contrib, a, b, lens)
        release_scratch()
        family_s["pp"] += time.perf_counter() - _tk0

    # ----- m2l local expansions + L2P (fmm-hybrid far field) -------------------
    if inter.m2l_cells is not None and inter.m2l_src is not None and len(
        inter.m2l_src
    ):
        from . import localexp

        _tk0 = time.perf_counter()
        stats["m2l_pairs"] = int(len(inter.m2l_src))
        stats["m2l_interactions"] = stats["m2l_pairs"] + int(leaf_np.sum())
        with tr.span("m2l"):
            locs = localexp.accumulate_m2l(tree, moms, inter, kernel, stats=stats)
            loc_all = localexp.sweep_l2l(tree, inter.m2l_cells, locs)
            localexp.l2p_accumulate(
                tree, inter, loc_all, p,
                want_potential=want_potential,
                pid=pid, row_of_p=row_of_p, s0=s0,
                acc=acc, pot=pot,
            )
        family_s["m2l"] += time.perf_counter() - _tk0

    # ----- analytic background boxes -------------------------------------------
    if moms.background:
        _tk0 = time.perf_counter()
        rho = -moms.mean_density  # subtract the background
        # per row: its ghost cubes and the source cube of every direct
        # leaf pair
        n_cubes = np.diff(inter.ghost_indptr) + np.diff(inter.leaf_indptr)
        stats["prism_cubes"] = int((leaf_np * n_cubes).sum())
        box_lo, box_hi, box_indptr = _background_boxes(tree, inter)
        prism_s["coalesce"] = time.perf_counter() - _tk0
        m_p = np.diff(box_indptr)[row_of_p]
        stats["prism_interactions"] = int(m_p.sum())
        for a, b, e0, e1, tiles in _leaf_blocks(leaf_np, box_indptr, prism_chunk):
            lens = m_p[a:b]
            n_rows = int(lens.sum())
            if not n_rows:
                continue
            blk_lo, blk_hi = box_lo[:, e0:e1], box_hi[:, e0:e1]
            sink_pos = tree.pos[pid[a:b]].T
            pts, lo, hi = scratch("prism", (3, 3, n_rows), np.float64)
            for r0, p0, n_t, c0, n_e in tiles:
                tile = slice(r0, r0 + n_t * n_e)
                pts[:, tile].reshape(3, n_t, n_e)[...] = sink_pos[
                    :, p0 : p0 + n_t, None
                ]
                lo[:, tile].reshape(3, n_t, n_e)[...] = blk_lo[
                    :, None, c0 : c0 + n_e
                ]
                hi[:, tile].reshape(3, n_t, n_e)[...] = blk_hi[
                    :, None, c0 : c0 + n_e
                ]
            # one call per block: the step benchmark times the
            # module-global name
            out = prism_acceleration(
                pts.T, lo.T, hi.T, rho, want_potential=want_potential
            )
            # (rows, 3) [and (rows,)] restacked as (outputs, rows)
            reduce_into(np.vstack((out[0].T, out[1])) if want_potential else out.T, a, b, lens)
        release_scratch()
        family_s["prism"] += time.perf_counter() - _tk0
        prism_s["rows"] = family_s["prism"] - prism_s["coalesce"]

    if G != 1.0:
        acc *= G
        if want_potential:
            pot *= G

    stats["kernel"] = kernel_counters(stats, want_potential)

    if particle_range is not None:
        return ForceResult(acc=acc, pot=pot, stats=stats)

    # unsort; the float64 sums are rounded to ``dtype`` on store
    acc_out = np.empty(acc.shape, dtype=dtype)
    acc_out[tree.order] = acc
    pot_out = None
    if want_potential:
        pot_out = np.empty(pot.shape, dtype=dtype)
        pot_out[tree.order] = pot
    return ForceResult(acc=acc_out, pot=pot_out, stats=stats)
