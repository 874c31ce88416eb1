"""Force evaluation from interaction lists (paper §3.3).

Consumes the interaction lists produced by the traversal.  Three
interaction families:

* **cell**  — particle x multipole at the expansion order p of the tree
  moments, evaluated at the sink cell that accepted the source: the
  field is a sum of radial functions times polynomials
  (:mod:`repro.multipoles.hermite`), and the generated C of
  :func:`repro.multipoles.codegen.generate_evaluator_source` evaluates
  each row's polynomials straight-line, in registers, over blocks of
  the sink cell's entries gathered into structure-of-arrays form — the
  m x n interaction blocking and swizzling of §3.2;
* **pp**    — particle x particle within directly-interacting leaf
  pairs, with any softening kernel (the 28-flop monopole inner loop of
  Table 3), the same compiled unit looping over the source particles in
  place;
* **prism** — particle x analytic uniform box, the near-field
  background subtraction of §2.2.1: the ghost cells and, in background
  mode, the cube of every directly-interacting real leaf.  The
  background is one uniform density, so its field adds over disjoint
  regions and a run of face-adjacent cubes *is* one box: each sink
  leaf's cubes are merged into a few rectangular boxes first (an
  identity — the paper's one "larger cube which approximately
  surrounds the local region" is the special case) in numpy, and the
  same compiled unit meets every particle of the sink leaf with those
  boxes, eight corners of float64 straight-line code a box, vectorized
  over a block of boxes with glibc's vector ``log`` and ``atan``.

:func:`segment_sum` and the re-exported ``prism_acceleration`` /
``prism_potential`` are no longer called by the evaluator; they stay
importable here because the step benchmark's layer table names them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..observe import get_tracer
from ..keys import cell_coordinates
from ..multipoles.hermite import field_table
from ..multipoles.multiindex import n_coeffs
# benchmarks/step/layers.py resolves both prism names in this module
from ..multipoles.prism import prism_acceleration, prism_potential  # noqa: F401
from ..multipoles.radial import NewtonianKernel, RadialKernel
from ..perfmodel.flops import kernel_counters
from ..tree.moments import TreeMoments
from ..tree.structure import Tree
from ..tree.traversal import InteractionLists
from ..util import expand_ranges
from . import native
from .smoothing import NoSoftening, SofteningKernel

__all__ = ["ForceResult", "evaluate_forces", "segment_sum"]


def segment_sum(contrib: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum each row of ``contrib`` over the contiguous segments beginning
    at ``starts``, in float64.

    ``contrib`` is (outputs, rows) in the working precision — one
    contiguous row of interaction terms per output — and the result
    (outputs, segments) float64.  ``starts`` must be strictly
    increasing (zero-length segments filtered out by the caller) with
    an implicit final boundary at the last row.  ``np.add.reduceat``
    touches each contribution once; a ``bincount`` over expanded
    segment ids has to materialize a per-contribution id array first,
    which lost at every size the evaluator produced
    (BENCH_force.json's ``segment_sum`` receipt).  The evaluator's
    families now sum in C; the step benchmark still times this name.
    """
    return np.add.reduceat(contrib, starts, axis=1, dtype=np.float64)


@dataclass
class ForceResult:
    """Accelerations/potentials (original particle order) plus counters."""

    acc: np.ndarray
    pot: np.ndarray | None
    stats: dict = field(default_factory=dict)


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


def _p(a: np.ndarray) -> int:
    return a.ctypes.data


def _cells_in_c(tree, moms, inter, kernel, dtype, pid, s0, acc, pot):
    """Add the cell family's accelerations (and potentials, unless
    ``pot`` is None) of the sink particles ``pid`` into ``acc`` / ``pot``
    (offset ``s0``) through the compiled ``cell_field``.

    Once per solve, numpy turns the moments into every cell's polynomial
    coefficients b_{k,gamma} (``field_table(p).matrix @ moments``, the
    rows that carry one).  Per sink-cell row the C code scales a gathered
    block of them to the row's length unit and rounds them to ``dtype``;
    then each owned particle under the cell meets the block.

    *Length unit.*  A row is evaluated in units of u, the power of two
    at or below its sink cell's side: positions and centres are divided
    by u before they are differenced, row (k, gamma) of the coefficients
    is multiplied by u^(|gamma| - 2k - 1) in float64 before it is
    rounded, the radial chain is g'_k = u^(2k+1) g_k — so that
    sum_k g'_k(r/u) P'_k(x/u) is the same potential (1/r is its own
    chain in any unit; the erfc chain is computed in box units and
    scaled) — and the summed gradient is divided by u.  In box units g_{p+1} ~ r^-(2p+3) leaves
    float32's range for an accept closer than 6e-4 (p = 4); in units of
    the sink cell r is of order one at any depth.
    """
    p = moms.p
    tab = field_table(p)
    coef = np.ascontiguousarray(
        (tab.matrix[tab.filled] @ moms.moments[:, : n_coeffs(p)].T).T
    )
    owned = np.zeros(tree.n_particles, dtype=np.uint8)
    owned[pid] = 1
    cells = inter.cell_cells
    box_exp = math.frexp(tree.box)[1] - 1
    row_unit = (box_exp - tree.cell_level[cells]).astype(np.int64)
    kind, alpha, *tables = native.radial_spec(kernel, p + 1)
    args = [
        np.ascontiguousarray(tree.pos, dtype=np.float64), owned,
        np.ascontiguousarray(tree.cell_start, dtype=np.int64),
        np.ascontiguousarray(tree.cell_count, dtype=np.int64),
        np.ascontiguousarray(tree.cell_center, dtype=np.float64),
        np.ascontiguousarray(cells, dtype=np.int64), row_unit,
        np.ascontiguousarray(inter.cell_indptr, dtype=np.int64),
        np.ascontiguousarray(inter.cell_src, dtype=np.int64),
        np.ascontiguousarray(inter.cell_off, dtype=np.int64),
        np.ascontiguousarray(inter.offsets, dtype=np.float64), coef, *tables,
    ]
    status = native.evaluator(p, dtype).cell_field(
        *map(_p, args[:5]), len(cells), *map(_p, args[5:12]), kind, alpha,
        *map(_p, args[12:]), pot is not None, s0, _p(acc), _p(pot) if pot is not None else None,
    )
    if status:
        raise MemoryError("cell_field could not allocate its per-cell sums")


def _pp_in_c(tree, inter, softening, dtype, p, s0, acc, pot):
    """Add the pp family of every sink leaf through the compiled ``pp_field``."""
    kind, h, eps, r_split = native.softening_spec(softening)
    # compared in dtype, against the smallest value of dtype at or above
    # h: the same rows as r < h in float64
    hthr = np.dtype(dtype).type(softening.h)
    if hthr < softening.h:
        hthr = np.nextafter(hthr, np.dtype(dtype).type(np.inf))
    home_off = int(np.flatnonzero(np.all(inter.offsets == 0.0, axis=1))[0])
    args = [
        np.ascontiguousarray(tree.pos, dtype=np.float64),
        np.ascontiguousarray(tree.mass, dtype=dtype),
        np.ascontiguousarray(tree.cell_start, dtype=np.int64),
        np.ascontiguousarray(tree.cell_count, dtype=np.int64),
        np.ascontiguousarray(inter.sink_leaves, dtype=np.int64),
        np.ascontiguousarray(inter.leaf_indptr, dtype=np.int64),
        np.ascontiguousarray(inter.leaf_src, dtype=np.int64),
        np.ascontiguousarray(inter.leaf_off, dtype=np.int64),
        np.ascontiguousarray(inter.offsets, dtype=np.float64),
    ]
    native.evaluator(p, dtype).pp_field(
        *map(_p, args[:4]), len(inter.sink_leaves), *map(_p, args[4:]),
        home_off, kind, float(hthr), h, eps, r_split, pot is not None, s0,
        _p(acc), _p(pot) if pot is not None else None,
    )


def _prism_in_c(tree, inter, boxes, rho, dtype, p, s0, acc, pot):
    """Add the field of density ``rho`` over every sink leaf's merged
    ``boxes`` (:func:`_background_boxes`) through the compiled
    ``prism_field``, which runs in float64 in the unit of any ``dtype``."""
    box_lo, box_hi, box_indptr = boxes
    args = [
        np.ascontiguousarray(tree.pos, dtype=np.float64),
        np.ascontiguousarray(tree.cell_start, dtype=np.int64),
        np.ascontiguousarray(tree.cell_count, dtype=np.int64),
        np.ascontiguousarray(inter.sink_leaves, dtype=np.int64),
        np.ascontiguousarray(box_lo, dtype=np.float64),
        np.ascontiguousarray(box_hi, dtype=np.float64),
        np.ascontiguousarray(box_indptr, dtype=np.int64),
    ]
    status = native.evaluator(p, dtype).prism_field(
        *map(_p, args[:3]), len(inter.sink_leaves), *map(_p, args[3:6]), box_lo.shape[1],
        _p(args[6]), rho, pot is not None, s0, _p(acc), _p(pot) if pot is not None else None,
    )
    if status:
        raise MemoryError("prism_field could not allocate its per-particle sums")


def evaluate_forces(
    tree: Tree,
    moms: TreeMoments,
    inter: InteractionLists,
    softening: SofteningKernel | None = None,
    dtype=np.float64,
    want_potential: bool = True,
    kernel: RadialKernel | None = None,
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
    particle_range:
        Half-open (start, end) range of *key-sorted* particle indices
        covering every sink in ``inter`` (a shard of SFC-contiguous
        sink leaves).  Output arrays then have length ``end - start``,
        stay in key-sorted order and skip the final unsort/astype — the
        caller (the shared-memory executor) merges disjoint shard
        slices and unsorts once.

    Every particle's sums are float64 and run in a fixed order — its
    cell rows in ``inter.cell_cells`` order, each over the row's entries
    in list order, then its pp entries, then its prism boxes — so the
    result depends on neither blocking, shard cut nor worker count.

    *cell*: an accept is evaluated at the sink cell S that recorded it
    (``inter.cell_cells``), for every sink particle under S (a shard
    evaluates only its own particles of a straddling cell).  With
    x = x_p - z_c, the field of a multipole is phi = sum_k g_k(r) P_k(x)
    with polynomials P_k of degree <= k (:mod:`repro.multipoles.hermite`),
    and its gradient ``x_i S + T_i`` with ``S = sum_k g_{k+1} P_k``,
    ``T_i = sum_k g_k d_i P_k``: the generated straight-line C of
    :mod:`repro.multipoles.codegen`, one row per (particle, entry), in
    the sink level's length unit (:func:`_cells_in_c`).

    *pp*: per sink particle, the source particles of the row's source
    leaves, read in place; self-pairs masked on the home image only.

    *prism*: one pass.  The ghost entries and the direct leaf pairs of
    a row name the cubes whose background has to go; their exact
    integer corners are run-merged along x, then y, then z into
    rectangular boxes (:func:`_background_boxes`,
    :func:`_coalesce_boxes`) — a pure function of the row's own list,
    so the boxes, their order and the bits of the result are the same
    for every block size and shard.  Then every particle of the sink
    leaf meets the row's boxes in the compiled ``prism_field``
    (:func:`_prism_in_c`): the arithmetic of
    :func:`repro.multipoles.prism.prism_acceleration`, acceleration and
    potential from the same eight corners, vectorized over a block of
    boxes padded so that every box takes the same vector ``log`` and
    ``atan``.

    *Precision.*  Every family differences float64 positions in
    float64 and rounds the difference to ``dtype``; from there every
    row of the cell and pp families — r, the radial chain, the
    polynomials, the pair force — is computed in ``dtype`` (the erfc
    chain and the pair force inside a softening kernel's support are
    float64 definitions, rounded on store); the prism terms are
    float64.  All sums are float64.

    ``stats["family_seconds"]`` holds the seconds spent in the cell,
    pp, m2l and prism families; ``stats["kernel"]`` rates the first
    three against their own interaction and flop counts, derived from
    the counts here by :func:`~repro.perfmodel.flops.kernel_counters`.
    ``stats["cell_interactions"]`` counts the rows of this call's own
    sink particles — exact under sharding — and ``stats["cell_entries"]``
    the accept-level entries it gathered (a sink cell that straddles
    two shards is gathered by both).  ``stats["prism_interactions"]``
    counts the rows that went through the prism kernel (sink particles
    x merged boxes) and ``stats["prism_cubes"]`` the particle x cube
    pairs they stand for; both add up exactly over shards.
    ``stats["prism_seconds"]`` splits the prism family's seconds into
    ``coalesce`` (building and merging the boxes) and ``rows`` (the
    compiled pass).  Every
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

    # per sink particle: global key-sorted index
    pid = expand_ranges(tree.cell_start[sinks], leaf_np)

    # cell + pp + m2l is the denominator of the roofline counters
    family_s = {"cell": 0.0, "pp": 0.0, "m2l": 0.0, "prism": 0.0}
    stats["family_seconds"] = family_s
    # and the prism family's: merging the cubes, evaluating the boxes
    prism_s = {"coalesce": 0.0, "rows": 0.0}
    stats["prism_seconds"] = prism_s

    # ----- cell (multipole) interactions --------------------------------------
    if len(inter.cell_src):
        nent = np.diff(inter.cell_indptr)
        stats["cell_entries"] = len(inter.cell_src)
        # sink particles only: a cell that straddles two shards is
        # split between them, not counted twice
        stats["cell_interactions"] = int(
            (inter.sink_particles_under(tree, inter.cell_cells) * nent).sum()
        )
        _tk0 = time.perf_counter()
        _cells_in_c(tree, moms, inter, kernel, dtype, pid, s0, acc, pot)
        family_s["cell"] += time.perf_counter() - _tk0

    # ----- particle-particle interactions --------------------------------------
    if len(inter.leaf_sink):
        # source particles per row
        sp_cum = np.concatenate(([0], np.cumsum(tree.cell_count[inter.leaf_src])))
        src_per_row = np.diff(sp_cum[inter.leaf_indptr])
        stats["pp_interactions"] = int((src_per_row * leaf_np).sum())
        _tk0 = time.perf_counter()
        _pp_in_c(tree, inter, softening, dtype, p, s0, acc, pot)
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
                pid=pid, s0=s0,
                row_of_p=np.repeat(np.arange(len(sinks), dtype=np.int64), leaf_np),
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
        boxes = _background_boxes(tree, inter)
        prism_s["coalesce"] = time.perf_counter() - _tk0
        stats["prism_interactions"] = int((leaf_np * np.diff(boxes[2])).sum())
        _prism_in_c(tree, inter, boxes, rho, dtype, p, s0, acc, pot)
        family_s["prism"] += time.perf_counter() - _tk0
        prism_s["rows"] = family_s["prism"] - prism_s["coalesce"]

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
