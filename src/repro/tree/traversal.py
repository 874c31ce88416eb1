"""Batched dual-tree traversal with the absolute-error MAC (paper §3.2-3.3).

:func:`traverse_hierarchical` is the sink-hierarchical *dual* walk
(Dehnen's O(N) amortization, astro-ph/0202512, applied to the 2HOT
MAC): the frontier holds (sink *cell*, source cell, image offset)
triples starting from (root, root).  The MAC is tested against the
whole sink cell with d_eff = |x_sink - x_src| - b_max(sink cell),
which lower-bounds the distance from *every* particle under the sink
cell to the source, so an accept at an interior sink cell is
conservative for all descendants and the §2.2.2 error bound holds
unchanged.  An accepted interaction stays with the sink cell —
interior or leaf — that recorded it: every particle under that cell
inherits it, and the evaluator applies it there, once for all of them
(:mod:`repro.gravity.treeforce`), instead of fanning it out to the
leaves.  Undecided pairs refine on the sink or source side (the side
with the larger b_max splits).  Distant periodic images resolve in
O(1) pairs at the root instead of O(n_leaves) — with background
subtraction the root monopole vanishes and all 26 ws=1 images are
accepted in the first rounds.

The frontier is processed breadth-first with vectorized accept /
direct / split decisions; seeding with the 3^3 or 5^3 periodic image
offsets of the root reproduces the paper's ws = 1 / ws = 2 near-image
handling (§2.4).

Outputs are :class:`InteractionLists` consumed by
:mod:`repro.gravity.treeforce`:

* ``cell_pairs``   — (sink *cell*, source cell, offset) one-sided multipole
  accepts, keyed by the sink cell that recorded them,
* ``leaf_pairs``   — (sink leaf, source leaf, offset) particle-particle blocks,
* ``ghost_pairs``  — (sink leaf, ghost cell, offset) near-field analytic
  background cubes (only in background-subtraction mode),
* ``m2l_pairs``    — (sink *cell*, source cell, offset) mutual cell–cell
  accepts feeding sink-side Taylor local expansions (``m2l=True``, the
  ``traversal="fmm-hybrid"`` mode; Dehnen astro-ph/0202512).  Keyed by
  sink cell — interior or leaf — and translated down to particles by
  the L2L/L2P machinery in :mod:`repro.gravity.localexp`.

The lists come out in **CSR form**.  The leaf and ghost families are
sorted by sink leaf (rows follow ``sink_leaves``, which is in
SFC/particle order) with ``*_indptr`` arrays delimiting each leaf's
segment, so the evaluator sums contiguous per-sink segments instead of
scatter-adding.  The cell and m2l families are sorted by sink cell
(rows follow ``cell_cells`` / ``m2l_cells`` in ascending cell index,
i.e. level by level and in particle order within a level), each cell's
segment in the order the walk emitted it.

Restricted traversals (the ``sink_leaves`` parameter, used by the
shard executor and the simulated ranks) run the *same* walk from the
global root with sink descent masked to cells containing selected
leaves.  Decisions are pure functions of (sink cell, source cell,
offset), so every decision a restricted walk makes is identical to the
decision the full walk makes for that pair — per-leaf and per-cell CSR
segments (contents *and* order) are independent of the sharding: a
sink cell that straddles a shard boundary shows up, with its whole
segment, in both shards' lists.  That is what keeps the executor's
disjoint-slice merge bit-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..util import expand_ranges
from .moments import TreeMoments
from .structure import Tree

__all__ = [
    "InteractionLists",
    "traverse_hierarchical",
    "traverse_lists",
    "filter_csr_indptr",
]


@dataclass
class InteractionLists:
    """CSR interaction lists plus bookkeeping counters.

    The leaf / ghost families are sorted by sink leaf (row order =
    ``sink_leaves``) and their ``*_indptr`` arrays hold the CSR row
    ranges.  The cell family is keyed by the sink *cell* that recorded
    each accept (see ``cell_cells``).
    """

    sink_leaves: np.ndarray  # all sink leaf cell indices traversed
    offsets: np.ndarray  # (n_off, 3) image offsets used
    # one-sided cell accepts: CSR keyed by the sink cell (interior or
    # leaf) that recorded them.  Rows follow cell_cells in ascending
    # cell index, i.e. level by level and in SFC order within a level;
    # cell_indptr delimits each cell's (source cell, image offset)
    # segment, kept in the walk's emission order.
    cell_cells: np.ndarray
    cell_src: np.ndarray
    cell_off: np.ndarray
    leaf_sink: np.ndarray
    leaf_src: np.ndarray
    leaf_off: np.ndarray
    ghost_sink: np.ndarray
    ghost_src: np.ndarray
    ghost_off: np.ndarray
    cell_indptr: np.ndarray  # CSR row ranges over cell_cells
    # CSR row ranges over sink_leaves
    leaf_indptr: np.ndarray
    ghost_indptr: np.ndarray
    rounds: int = 0
    # mutual cell-cell accepts (fmm-hybrid walk only): CSR keyed by sink
    # *cell* (interior or leaf), rows follow m2l_cells in ascending cell
    # index; each row's segment lists (source cell, image offset) pairs
    # absorbed into that sink cell's local expansion
    m2l_cells: np.ndarray | None = None
    m2l_src: np.ndarray | None = None
    m2l_off: np.ndarray | None = None
    m2l_indptr: np.ndarray | None = None
    # traversal-cost counters
    mac_tests: int = 0
    frontier_peak: int = 0
    inherited_accepts: int = 0  # accepts recorded at interior sink cells
    leaf_accepts: int = 0  # accepts recorded at sink leaves
    m2l_accepts: int = 0  # mutual cell-cell accepts (per direction)

    def _leaf_rows_under(self, tree: Tree, cells: np.ndarray):
        """Rows ``[lo, hi)`` of ``sink_leaves`` inside each of ``cells``.

        A cell's particle range is contiguous and tiles exactly over its
        descendant leaves, so the selected leaves under it are one
        slice of the (SFC-ordered) row universe.
        """
        starts = tree.cell_start[self.sink_leaves]
        first = tree.cell_start[cells]
        lo = np.searchsorted(starts, first, side="left")
        hi = np.searchsorted(starts, first + tree.cell_count[cells], side="left")
        return lo, hi

    def sink_particles_under(self, tree: Tree, cells: np.ndarray) -> np.ndarray:
        """Particles of ``sink_leaves`` inside each of ``cells``.

        ``tree.cell_count[cells]`` for a full walk; for a restricted one
        only the selected leaves count, so a cell that straddles two
        shards is split between them instead of counted twice.
        """
        lo, hi = self._leaf_rows_under(tree, cells)
        cum = np.concatenate(([0], np.cumsum(tree.cell_count[self.sink_leaves])))
        return cum[hi] - cum[lo]

    def n_cell_interactions(self, tree: Tree) -> int:
        """Total (sink particle, cell-multipole) interaction count.

        An accept counts once per particle of ``sink_leaves`` under the
        cell that recorded it, so the counts of restricted walks over
        disjoint shards add up to the full walk's exactly.
        """
        under = self.sink_particles_under(tree, self.cell_cells)
        return int((under * np.diff(self.cell_indptr)).sum())

    def n_pp_interactions(self, tree: Tree) -> int:
        """Total particle-particle interaction count."""
        return int(
            (tree.cell_count[self.leaf_sink] * tree.cell_count[self.leaf_src]).sum()
        )

    def n_prism_interactions(self, tree: Tree) -> int:
        """Total (particle, ghost cell) pair count of the walk.

        Ghost entries only — the walk's own fourth family.  The
        evaluator also removes the background cube of every direct
        leaf pair (20 times as many pairs on a clustered input) and
        merges adjacent cubes before it evaluates them; what it ran is
        ``stats["prism_cubes"]`` (pairs) and
        ``stats["prism_interactions"]`` (rows after merging).
        """
        return int(tree.cell_count[self.ghost_sink].sum())

    def n_m2l_interactions(self, tree: Tree) -> int:
        """M2L pair translations plus one L2P per sink particle.

        Counts each cell-to-local translation once and adds one
        local-to-particle evaluation per particle under a sink leaf —
        the actual work units of the far-field path, comparable to the
        per-particle counts of the other families.
        """
        if self.m2l_src is None or len(self.m2l_src) == 0:
            return 0
        return int(len(self.m2l_src)) + int(
            tree.cell_count[self.sink_leaves].sum()
        )

    def interactions_per_particle(self, tree: Tree) -> float:
        n = max(tree.n_particles, 1)
        return (
            self.n_cell_interactions(tree)
            + self.n_pp_interactions(tree)
            + self.n_prism_interactions(tree)
            + self.n_m2l_interactions(tree)
        ) / n


def _image_offsets(box: float, ws: int) -> np.ndarray:
    r = np.arange(-ws, ws + 1)
    gx, gy, gz = np.meshgrid(r, r, r, indexing="ij")
    off = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1).astype(np.float64)
    # put the home image first (cosmetic, helps debugging)
    order = np.argsort(np.einsum("ij,ij->i", off, off), kind="stable")
    return off[order] * box


def filter_csr_indptr(indptr: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Row pointer of a CSR list after masking entries with ``keep``."""
    seg = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    counts = np.bincount(seg[keep], minlength=len(indptr) - 1)
    out = np.zeros(len(indptr), dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _sink_relevance(tree: Tree, sinks: np.ndarray | None) -> np.ndarray:
    """Boolean mask over cells: subtree contains >= 1 selected sink leaf.

    With no restriction every real (particle-bearing) cell qualifies;
    ghost cells never do (they are empty and only ever sources).
    """
    if sinks is None:
        return tree.cell_count > 0
    relevant = np.zeros(tree.n_cells, dtype=bool)
    relevant[sinks] = True
    for level in range(tree.max_level - 1, -1, -1):
        cells = tree.cells_at_level(level)
        internal = cells[tree.cell_first_child[cells] >= 0]
        if len(internal) == 0:
            continue
        nch = tree.cell_nchildren[internal]
        kids = expand_ranges(tree.cell_first_child[internal], nch)
        kid_parent = np.repeat(internal, nch)
        np.logical_or.at(relevant, kid_parent, relevant[kids])
    return relevant


def traverse_hierarchical(
    tree: Tree,
    moms: TreeMoments,
    periodic: bool = False,
    ws: int = 1,
    sink_leaves: np.ndarray | None = None,
    xmax: float = 0.6,
    m2l: bool = False,
    cc_xmax: float = 0.5,
) -> InteractionLists:
    """Sink-hierarchical mutual dual traversal emitting CSR lists.

    See the module docstring for the scheme.  ``periodic`` includes the
    (2 ws + 1)^3 periodic images of the source tree; ``sink_leaves``
    restricts the walk to these sink leaf cell indices (default: all
    real leaves).  ``xmax`` caps the expansion parameter x = b_max/d: a
    cell is never accepted by the MAC when x would exceed it, whatever
    the error estimate says.  Moment-norm estimates are blind to
    pathologically cancelling cells at close range (the §2.2.1
    near-field breakdown), so interactions with slowly-converging
    expansions always go to the split/direct path; the series tail is
    then geometrically controlled by xmax.

    The frontier holds *unordered* cell pairs (a, b, image offset) with a
    two-bit direction mask — bit 1 for "a sinks b", bit 2 for "b sinks
    a" — so one geometric test (``mac_tests`` counts these) serves both
    directions of a mirrored pair; a direction retires independently
    when it is accepted or recorded as direct.  The effective distance
    for a sink cell is the tighter of two conservative lower bounds on
    the sink-particle-to-source distance: ``dist - b_max(sink)`` and
    the per-axis gap to the sink cell's cube.

    With ``m2l=True`` (the ``traversal="fmm-hybrid"`` mode) one-sided
    cell accepts are replaced by *mutual* cell-cell accepts: a pair is
    absorbed — both directions at once — into sink-side local
    expansions when it passes the dual MAC, the combined-size
    separation criterion ``b_max(a) + b_max(b) < cc_xmax * dist``
    (Dehnen astro-ph/0202512, which bounds the error-correlation the
    paper worries about in §2.2.2 via a knob separate from ``xmax``)
    AND each non-ghost side's one-sided MAC against the other as
    source.  Accepted pairs land in the ``m2l_*`` family; everything
    the mutual accept does not retire refines exactly as before and
    ends in the pp family, so the cell family stays empty and every
    far-field pair is applied symmetrically (exact momentum
    conservation, astro-ph/0003209).  The decision remains a pure
    function of (a, b, offset), never of which directions are live, so
    restricted shard walks replay identical accepts.

    The returned leaf and ghost lists are sorted by sink leaf
    (``sink_leaves`` comes back in SFC/particle order) with
    ``leaf_indptr`` / ``ghost_indptr`` delimiting each leaf's segment;
    the cell and m2l families are keyed by sink *cell* (``cell_cells``
    / ``m2l_cells`` ascending, ``cell_indptr`` / ``m2l_indptr``
    delimiting each cell's (source, offset) segment in a
    shard-independent order).
    """
    restricted = sink_leaves is not None
    if restricted:
        sinks = np.asarray(sink_leaves, dtype=np.int64)
    else:
        sinks = tree.leaf_indices
    # row universe in SFC (particle) order: evaluation output slices are
    # then contiguous and ascending for SFC-contiguous shards
    sinks = sinks[np.argsort(tree.cell_start[sinks], kind="stable")]
    offsets = (
        _image_offsets(tree.box, ws) if periodic else np.zeros((1, 3), dtype=np.float64)
    )
    n_off = len(offsets)
    # index of each offset's mirror image (-off); home maps to itself
    if n_off > 1:
        key = {tuple(o): i for i, o in enumerate(np.round(offsets, 9).tolist())}
        mirror = np.array(
            [key[tuple(o)] for o in np.round(-offsets, 9).tolist()], dtype=np.int64
        )
    else:
        mirror = np.zeros(1, dtype=np.int64)
    home = 0  # _image_offsets puts the home image first
    relevant = _sink_relevance(tree, sinks if restricted else None)

    root = int(np.flatnonzero(tree.cell_level == 0)[0])
    # seed one canonical entry per unordered (root, root image) pair:
    # the home self-pair carries a single direction, each +/- image
    # pair carries both
    canon = np.flatnonzero(np.arange(n_off) <= mirror)
    f_a = np.full(len(canon), root, dtype=np.int64)
    f_b = np.full(len(canon), root, dtype=np.int64)
    f_off = canon.astype(np.int64)
    f_fl = np.where(mirror[canon] == canon, 1, 3).astype(np.int8)

    acc_sink, acc_src, acc_off = [], [], []
    dir_sink, dir_src, dir_off = [], [], []
    m2l_sink_p, m2l_src_p, m2l_off_p = [], [], []

    cell_center = tree.cell_center
    bmax = moms.bmax
    r_crit = moms.r_crit
    is_leaf = tree.is_leaf
    is_ghost = tree.cell_is_ghost
    first_child = tree.cell_first_child
    nchildren = tree.cell_nchildren
    half = tree.box / np.exp2(tree.cell_level + 1)  # cell half-side
    rounds = 0
    mac_tests = 0
    frontier_peak = 0
    inherited = 0
    leaf_accepts = 0
    m2l_accepts = 0

    def cube_gap(absd, cells):
        g = np.maximum(absd - half[cells][:, None], 0.0)
        return np.sqrt(np.einsum("ij,ij->i", g, g))

    while len(f_a):
        rounds += 1
        mac_tests += len(f_a)
        frontier_peak = max(frontier_peak, len(f_a))
        bmax_a = bmax[f_a]
        bmax_b = bmax[f_b]
        d = cell_center[f_a] - (cell_center[f_b] + offsets[f_off])
        dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        absd = np.abs(d)
        bit1 = (f_fl & 1).astype(bool)
        bit2 = (f_fl & 2).astype(bool)
        # direction a<-b: d_eff lower-bounds the distance from any
        # particle under sink a to source b's expansion center
        d_eff1 = np.maximum(dist - bmax_a, cube_gap(absd, f_a))
        # direction b<-a: same separation, mirrored image offset
        d_eff2 = np.maximum(dist - bmax_b, cube_gap(absd, f_b))
        if m2l:
            # mutual cell-cell accept: both directions retire into
            # local expansions at once; one-sided accepts are disabled
            # so the far field stays exactly momentum-symmetric.  The
            # waiver for ghost sides is on sink quality only — ghosts
            # are empty and never sink, but still pass their r_crit
            # as sources.
            ok1 = (d_eff1 > r_crit[f_b]) & (bmax_b < xmax * d_eff1)
            ok2 = (d_eff2 > r_crit[f_a]) & (bmax_a < xmax * d_eff2)
            sep = bmax_a + bmax_b < cc_xmax * dist
            mutual = sep & (ok1 | is_ghost[f_a]) & (ok2 | is_ghost[f_b])
            acc1 = acc2 = np.zeros(len(f_a), dtype=bool)
            if np.any(mutual):
                mm1 = mutual & bit1
                mm2 = mutual & bit2
                if np.any(mm1):
                    m2l_sink_p.append(f_a[mm1])
                    m2l_src_p.append(f_b[mm1])
                    m2l_off_p.append(f_off[mm1])
                if np.any(mm2):
                    m2l_sink_p.append(f_b[mm2])
                    m2l_src_p.append(f_a[mm2])
                    m2l_off_p.append(mirror[f_off[mm2]])
                m2l_accepts += int(np.count_nonzero(mm1)) + int(
                    np.count_nonzero(mm2)
                )
        else:
            mutual = np.zeros(len(f_a), dtype=bool)
            acc1 = bit1 & (d_eff1 > r_crit[f_b]) & (bmax_b < xmax * d_eff1)
            acc2 = bit2 & (d_eff2 > r_crit[f_a]) & (bmax_a < xmax * d_eff2)
        ret1 = acc1 | mutual  # direction a<-b retired this round
        ret2 = acc2 | mutual
        leaf_a = is_leaf[f_a]
        leaf_b = is_leaf[f_b]
        both_leaf = leaf_a & leaf_b
        dir1 = bit1 & ~ret1 & both_leaf
        dir2 = bit2 & ~ret2 & both_leaf

        # an accept stays with the sink cell that recorded it, interior
        # or leaf: every particle under that cell inherits it
        if np.any(acc1):
            acc_sink.append(f_a[acc1])
            acc_src.append(f_b[acc1])
            acc_off.append(f_off[acc1])
            n_leaf = int(np.count_nonzero(acc1 & leaf_a))
            leaf_accepts += n_leaf
            inherited += len(acc_sink[-1]) - n_leaf
        if np.any(acc2):
            acc_sink.append(f_b[acc2])
            acc_src.append(f_a[acc2])
            acc_off.append(mirror[f_off[acc2]])
            n_leaf = int(np.count_nonzero(acc2 & leaf_b))
            leaf_accepts += n_leaf
            inherited += len(acc_sink[-1]) - n_leaf
        if np.any(dir1):
            dir_sink.append(f_a[dir1])
            dir_src.append(f_b[dir1])
            dir_off.append(f_off[dir1])
        if np.any(dir2):
            dir_sink.append(f_b[dir2])
            dir_src.append(f_a[dir2])
            dir_off.append(mirror[f_off[dir2]])

        live1 = bit1 & ~ret1 & ~both_leaf
        live2 = bit2 & ~ret2 & ~both_leaf
        undecided = live1 | live2
        if not np.any(undecided):
            break
        fl_live = (live1.astype(np.int8) + 2 * live2.astype(np.int8))[undecided]
        ua = f_a[undecided]
        ub = f_b[undecided]
        uo = f_off[undecided]
        u_leaf_a = leaf_a[undecided]
        # the home self-pair splits into the unordered triangle of its
        # children; every other pair splits its larger (internal) side
        selfp = (ua == ub) & (uo == home)
        split_b = ~selfp & (
            u_leaf_a | (~leaf_b[undecided] & (bmax_b[undecided] >= bmax_a[undecided]))
        )
        split_a = ~selfp & ~split_b
        parts_a, parts_b, parts_o, parts_f = [], [], [], []
        if np.any(split_b):
            pb = ub[split_b]
            nch = nchildren[pb]
            kids = expand_ranges(first_child[pb], nch)
            ka = np.repeat(ua[split_b], nch)
            ko = np.repeat(uo[split_b], nch)
            kf = np.repeat(fl_live[split_b], nch)
            # the split side's sink direction survives only into kids
            # holding selected sink leaves
            kf = (kf & 1) | np.where(relevant[kids], kf & 2, 0).astype(np.int8)
            keep = kf != 0
            parts_a.append(ka[keep])
            parts_b.append(kids[keep])
            parts_o.append(ko[keep])
            parts_f.append(kf[keep])
        if np.any(split_a):
            pa = ua[split_a]
            nch = nchildren[pa]
            kids = expand_ranges(first_child[pa], nch)
            kb = np.repeat(ub[split_a], nch)
            ko = np.repeat(uo[split_a], nch)
            kf = np.repeat(fl_live[split_a], nch)
            kf = np.where(relevant[kids], kf & 1, 0).astype(np.int8) | (kf & 2)
            keep = kf != 0
            parts_a.append(kids[keep])
            parts_b.append(kb[keep])
            parts_o.append(ko[keep])
            parts_f.append(kf[keep])
        if np.any(selfp):
            # unordered children pairs {k_i, k_j}, i <= j, of each
            # self-pair cell; diagonals are new single-direction
            # self-pairs, off-diagonals carry both directions
            sa = ua[selfp]
            nch_s = nchildren[sa]
            for n in np.unique(nch_s):
                grp = sa[nch_s == n]
                iu, ju = np.triu_indices(int(n))
                first = first_child[grp]
                ka = (first[:, None] + iu[None, :]).ravel()
                kb = (first[:, None] + ju[None, :]).ravel()
                kf = (
                    np.where(relevant[ka], 1, 0) | np.where(relevant[kb], 2, 0)
                ).astype(np.int8)
                kf = np.where(ka == kb, kf & 1, kf).astype(np.int8)
                keep = kf != 0
                parts_a.append(ka[keep])
                parts_b.append(kb[keep])
                parts_o.append(np.full(int(keep.sum()), home, dtype=np.int64))
                parts_f.append(kf[keep])
        if not parts_a:
            break
        f_a = np.concatenate(parts_a)
        f_b = np.concatenate(parts_b)
        f_off = np.concatenate(parts_o)
        f_fl = np.concatenate(parts_f)

    def cat(parts):
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    a_sink, a_src, a_off = cat(acc_sink), cat(acc_src), cat(acc_off)
    d_sink, d_src, d_off = cat(dir_sink), cat(dir_src), cat(dir_off)

    def by_sink_cell(sink, src, off):
        """CSR keyed by sink cell, rows ascending by cell index; the
        stable sort keeps each cell's segment in the BFS emission order,
        which a restricted walk reproduces exactly."""
        # (16-bit keys take numpy's radix path in the stable sort)
        n_all = tree.n_cells
        key = sink.astype(np.int16 if n_all < np.iinfo(np.int16).max else np.int64)
        order = np.argsort(key, kind="stable")
        cells, counts = np.unique(sink[order], return_counts=True)
        indptr = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cells.astype(np.int64), src[order], off[order], indptr

    # cell family: where it was accepted — no fan-out to the leaves
    c_cells, cc, co, c_indptr = by_sink_cell(
        a_sink, a_src.astype(np.int32), a_off.astype(np.int16)
    )

    # leaf and ghost families: one row per sink leaf.  A cell's particle
    # range is contiguous, so a leaf's row is one searchsorted lookup in
    # the (SFC-ordered) row universe.
    leaf_starts = tree.cell_start[sinks]
    n_rows = len(sinks)
    row_dtype = np.int16 if n_rows < np.iinfo(np.int16).max else np.int32

    def rows_of_leaves(s):
        return np.searchsorted(
            leaf_starts, tree.cell_start[s], side="left"
        ).astype(row_dtype)

    def finalize(row, src, off):
        order = np.argsort(row, kind="stable")
        counts = np.bincount(row, minlength=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return np.repeat(sinks, counts), src[order], off[order], indptr

    ghosts = tree.cell_is_ghost[d_src] if len(d_src) else np.zeros(0, dtype=bool)
    ls, lc, lo_, l_indptr = finalize(
        rows_of_leaves(d_sink[~ghosts]), d_src[~ghosts], d_off[~ghosts]
    )
    gs, gc, go, g_indptr = finalize(
        rows_of_leaves(d_sink[ghosts]), d_src[ghosts], d_off[ghosts]
    )

    m2l_fields = {}
    if m2l:
        m_cells, m_src, m_off, m_indptr = by_sink_cell(
            cat(m2l_sink_p), cat(m2l_src_p), cat(m2l_off_p)
        )
        m2l_fields = dict(
            m2l_cells=m_cells, m2l_src=m_src, m2l_off=m_off, m2l_indptr=m_indptr
        )

    return InteractionLists(
        sink_leaves=sinks,
        offsets=offsets,
        cell_cells=c_cells,
        cell_src=cc,
        cell_off=co,
        leaf_sink=ls,
        leaf_src=lc,
        leaf_off=lo_,
        ghost_sink=gs,
        ghost_src=gc,
        ghost_off=go,
        rounds=rounds,
        cell_indptr=c_indptr,
        leaf_indptr=l_indptr,
        ghost_indptr=g_indptr,
        mac_tests=mac_tests,
        frontier_peak=frontier_peak,
        inherited_accepts=inherited,
        leaf_accepts=leaf_accepts,
        m2l_accepts=m2l_accepts,
        **m2l_fields,
    )


def traverse_lists(
    tree: Tree,
    moms: TreeMoments,
    traversal: str = "hierarchical",
    **kwargs,
) -> InteractionLists:
    """Dispatch to the requested walk.

    ``"hierarchical"`` — sink-hierarchical mutual dual walk (default);
    ``"fmm-hybrid"`` — the same walk with mutual cell-cell accepts into
    sink-side local expansions (``cc_xmax`` tunes the dual MAC).
    """
    if traversal == "hierarchical":
        kwargs.pop("cc_xmax", None)
        return traverse_hierarchical(tree, moms, **kwargs)
    if traversal == "fmm-hybrid":
        return traverse_hierarchical(tree, moms, m2l=True, **kwargs)
    raise ValueError(f"unknown traversal kind {traversal!r}")
