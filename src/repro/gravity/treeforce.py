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
  surrounds the local region" is the special case) row by row in C,
  by ``merge_boxes`` of the upward unit, and the evaluator meets every
  particle of the sink leaf with those boxes, eight corners of float64
  straight-line code a box, vectorized over a block of boxes with
  glibc's vector ``log`` and ``atan``.

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


def _merged_boxes(tree, inter):
    """The analytic background of every sink leaf's near field, as boxes.

    The ghost cubes and the source cubes of the direct leaf pairs of one
    row are taken together, placed on the integer grid of the tree's
    finest level (cell coordinates from the Morton keys, image offsets in
    whole boxes: no rounding) and run-merged along x, then y, then z by
    the compiled ``merge_boxes``, row by row.  Returns float64
    ``(box_lo, box_hi)`` of shape (3, cubes) — the merged boxes fill the
    first ``box_indptr[-1]`` columns — and ``box_indptr`` over
    ``inter.sink_leaves``.
    """
    n_rows = len(inter.sink_leaves)
    n_cubes = len(inter.ghost_src) + len(inter.leaf_src)
    idx, level = cell_coordinates(tree.cell_key)
    # the finest level of the tree: a finer grid than the lists need only
    # scales every corner by a power of two, which no bit of lo * h sees
    unit = int(level.max(initial=0))
    shift = (unit - level)[:, None]
    cell_lo = idx << shift
    box_lo, box_hi = np.empty((3, n_cubes)), np.empty((3, n_cubes))
    indptr = np.empty(n_rows + 1, dtype=np.int64)
    native.upward().merge_boxes(
        n_rows=n_rows, ghost_indptr=inter.ghost_indptr, ghost_src=inter.ghost_src,
        ghost_off=inter.ghost_off, leaf_indptr=inter.leaf_indptr, leaf_src=inter.leaf_src,
        leaf_off=inter.leaf_off, cell_lo=cell_lo, cell_hi=cell_lo + (1 << shift),
        image=np.rint(inter.offsets / tree.box).astype(np.int64) << unit,
        h=tree.box / (1 << unit), stride=n_cubes, box_lo=box_lo, box_hi=box_hi, indptr=indptr,
    )
    return box_lo, box_hi, indptr


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
    coef = (tab.matrix[tab.filled] @ moms.moments[:, : n_coeffs(p)].T).T
    owned = np.zeros(tree.n_particles, dtype=np.uint8)
    owned[pid] = 1
    cells = inter.cell_cells
    box_exp = math.frexp(tree.box)[1] - 1
    row_unit = box_exp - tree.cell_level[cells]
    kind, alpha, e_pow, e_coef, e_ptr, g_pow, g_coef, g_ptr = native.radial_spec(kernel, p + 1)
    native.evaluator(p, dtype).cell_field(
        pos=tree.pos, owned=owned, cell_start=tree.cell_start, cell_count=tree.cell_count,
        cell_center=tree.cell_center, n_rows=len(cells), row_cell=cells, row_unit=row_unit,
        indptr=inter.cell_indptr, src=inter.cell_src, off=inter.cell_off, offsets=inter.offsets,
        coef=coef, kern=kind, alpha=alpha, e_pow=e_pow, e_coef=e_coef, e_ptr=e_ptr,
        g_pow=g_pow, g_coef=g_coef, g_ptr=g_ptr, want_pot=pot is not None, s0=s0, acc=acc, pot=pot,
    )


def _pp_in_c(tree, inter, softening, dtype, p, s0, acc, pot):
    """Add the pp family of every sink leaf through the compiled ``pp_field``."""
    kind, h, eps, r_split = native.softening_spec(softening)
    # compared in dtype, against the smallest value of dtype at or above
    # h: the same rows as r < h in float64
    hthr = np.dtype(dtype).type(softening.h)
    if hthr < softening.h:
        hthr = np.nextafter(hthr, np.dtype(dtype).type(np.inf))
    home_off = int(np.flatnonzero(np.all(inter.offsets == 0.0, axis=1))[0])
    native.evaluator(p, dtype).pp_field(
        pos=tree.pos, mass=tree.mass, cell_start=tree.cell_start, cell_count=tree.cell_count,
        n_rows=len(inter.sink_leaves), sink_leaves=inter.sink_leaves, indptr=inter.leaf_indptr,
        src=inter.leaf_src, off=inter.leaf_off, offsets=inter.offsets, home_off=home_off,
        soft=kind, hthr_in=hthr, soft_h=h, soft_eps=eps, r_split=r_split,
        want_pot=pot is not None, s0=s0, acc=acc, pot=pot,
    )


def _prism_in_c(tree, inter, boxes, rho, dtype, p, s0, acc, pot):
    """Add the field of density ``rho`` over every sink leaf's merged
    ``boxes`` (:func:`_merged_boxes`) through the compiled
    ``prism_field``, which runs in float64 in the unit of any ``dtype``."""
    box_lo, box_hi, box_indptr = boxes
    native.evaluator(p, dtype).prism_field(
        pos=tree.pos, cell_start=tree.cell_start, cell_count=tree.cell_count,
        n_rows=len(inter.sink_leaves), sink_leaves=inter.sink_leaves, box_lo=box_lo,
        box_hi=box_hi, n_boxes=box_lo.shape[1], indptr=box_indptr, rho=rho,
        want_pot=pot is not None, s0=s0, acc=acc, pot=pot,
    )


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
    rectangular boxes, row by row in the compiled ``merge_boxes``
    (:func:`_merged_boxes`) — a pure function of the row's own list,
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
        boxes = _merged_boxes(tree, inter)
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
