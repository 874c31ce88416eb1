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
i.e. level by level and in particle order within a level).  Every
segment is sorted by (source cell, image offset): the lists are a
function of the set of decisions, not of the order the walk made them
in.

Restricted traversals (the ``sink_leaves`` parameter, used by the
shard executor and the simulated ranks) run the *same* walk from the
global root with sink descent masked to cells containing selected
leaves.  Decisions are pure functions of (sink cell, source cell,
offset), so every decision a restricted walk makes is identical to the
decision the full walk makes for that pair — per-leaf and per-cell CSR
segments are independent of the sharding: a sink cell that straddles a
shard boundary shows up, with its whole segment, in both shards'
lists.  That is what keeps the executor's disjoint-slice merge
bit-identical at any worker count.

A walk keeps its record (:class:`WalkRecord`): every pair it tested,
with the geometric terms of the test and the decision.  Given the last
walk's lists as ``previous``, a walk over a tree of the same topology
and geometry *replays* that record instead of starting at the root: a
decision is a pure function of the topology and the moments' ``bmax``
and ``r_crit``, so it re-decides every recorded pair in one vectorised
pass and walks again only below the pairs whose decision changed.  The
decision set — and so every list — is a fresh walk's.
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


#: per-pair arrays of a :class:`WalkRecord` and how they are stored
_PAIR_DTYPES = {
    "a": np.int32,
    "b": np.int32,
    "off": np.int16,
    "fl": np.int8,
    "parent": np.int32,
    "dist": np.float64,
    "gap_a": np.float64,
    "gap_b": np.float64,
    "code": np.uint8,
}
_PAIR_FIELDS = tuple(_PAIR_DTYPES)


@dataclass
class WalkRecord:
    """Every pair one walk tested, round by round, and what it decided.

    Rows ``round_ptr[r]:round_ptr[r + 1]`` are the pairs of round r:
    cells ``a`` and ``b`` and image ``off``, the live direction bits
    ``fl`` they entered with, the row of the round-(r-1) pair that split
    into them (``parent``; -1 for the root pairs), the geometric terms
    of their test (``dist`` and the cube gaps of ``a`` and ``b``) and
    their decision ``code`` (:func:`_decide`, which also carries the
    pair's topology bits).  A replay keeps the rows whose decision held
    and adds the ones it walked, so its record holds the pairs a fresh
    walk tests, round by round.  ``topology`` (cell keys, levels,
    children, ghost flags and the sink leaves) and ``geometry`` (box,
    images, ``xmax``, ``cc_xmax``, walk mode) are what the record holds
    for: a later walk with the same ones replays it.
    """

    a: np.ndarray
    b: np.ndarray
    off: np.ndarray
    fl: np.ndarray
    parent: np.ndarray
    dist: np.ndarray
    gap_a: np.ndarray
    gap_b: np.ndarray
    code: np.ndarray
    round_ptr: np.ndarray
    topology: tuple
    geometry: tuple
    #: pairs of the previous record this walk re-decided (0: a fresh walk)
    redecided: int = 0
    #: pairs this walk's round loop tested (every pair on a fresh walk)
    walked: int = 0

    def valid_for(self, topology: tuple, geometry: tuple) -> bool:
        return self.geometry == geometry and all(
            x is y or np.array_equal(x, y) for x, y in zip(self.topology, topology)
        )


@dataclass
class InteractionLists:
    """CSR interaction lists plus bookkeeping counters.

    The leaf / ghost families are sorted by sink leaf (row order =
    ``sink_leaves``) and their ``*_indptr`` arrays hold the CSR row
    ranges.  The cell family is keyed by the sink *cell* that recorded
    each accept (see ``cell_cells``).  Every segment of every family is
    sorted by (source cell, image offset), so the lists are a function
    of the walk's decisions and not of the order it made them in.
    ``walk`` is the record of the walk that produced them, before any
    pruning; it is what a later walk replays.
    """

    sink_leaves: np.ndarray  # all sink leaf cell indices traversed
    offsets: np.ndarray  # (n_off, 3) image offsets used
    # one-sided cell accepts: CSR keyed by the sink cell (interior or
    # leaf) that recorded them.  Rows follow cell_cells in ascending
    # cell index, i.e. level by level and in SFC order within a level;
    # cell_indptr delimits each cell's (source cell, image offset)
    # segment.
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
    walk: WalkRecord | None = field(default=None, repr=False, compare=False)

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


#: bits of a pair's decision code: a<-b retires, b<-a retires, an
#: undecided pair splits its b side; then the pair's topology: a is a
#: leaf, b is a leaf, it is the home self-pair of a cell
RET1, RET2, SPLIT_B, LEAF_A, LEAF_B, SELF = 1, 2, 4, 8, 16, 32
_TOPOLOGY_BITS = LEAF_A | LEAF_B | SELF
#: pairs per block of the per-pair passes: a block's temporaries stay in cache
_BLOCK = 1 << 14


def _pair_topology(a, b, off, is_leaf, home) -> np.ndarray:
    """The ``LEAF_A | LEAF_B | SELF`` bits of each pair's code."""
    return (
        is_leaf[a].view(np.uint8) * np.uint8(LEAF_A)
        | is_leaf[b].view(np.uint8) * np.uint8(LEAF_B)
        | ((a == b) & (off == home)).view(np.uint8) * np.uint8(SELF)
    )


def _pair_geometry(a, b, off, center, images, half):
    """``dist`` and the cube gaps of a and b of each pair (a, b, image).

    ``dist`` = |x_a - (x_b + image)|; a cube gap is the distance from
    the other cell's center to the cube of half-side ``half`` around a
    cell's center — a lower bound on the distance from any particle in
    that cube.  ``center`` / ``images`` are per axis (3, n).  Blocks of
    pairs, one axis at a time, so every temporary stays in cache; the
    squares add up x, y, z in order.
    """
    n = len(a)
    dist, gap_a, gap_b = np.empty(n), np.empty(n), np.empty(n)
    for lo in range(0, n, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        ba, bb, bo = a[blk], b[blk], off[blk]
        d = [center[ax][ba] - (center[ax][bb] + images[ax][bo]) for ax in range(3)]
        dist[blk] = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        absd = [np.abs(x) for x in d]
        for h, gap in ((half[ba], gap_a), (half[bb], gap_b)):
            g = [np.maximum(x - h, 0.0) for x in absd]
            gap[blk] = np.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2])
    return dist, gap_a, gap_b


def _decide(a, b, fl, dist, gap_a, gap_b, topo, ctx) -> np.ndarray:
    """Decision code of each tested pair (a, b, image offset).

    ``topo`` holds the pair's topology bits (:func:`_pair_topology`);
    the code adds ``RET1`` / ``RET2`` for each direction that is live
    in ``fl`` and retires (accepted), and ``SPLIT_B`` for an undecided
    pair that splits its b side (an undecided pair that is not ``SELF``
    and leaves it clear splits its a side).  Direct is topology: a live
    direction of two leaves that does not retire.  A code is a pure
    function of the pair's cells, its live bits, the geometric terms
    ``dist`` / cube gaps and the moments' ``bmax`` / ``r_crit``, so a
    replay re-decides recorded pairs with exactly the arithmetic of a
    fresh walk.
    """
    bmax, r_crit, is_ghost, xmax, cc_xmax, m2l = ctx
    code = np.empty(len(a), dtype=np.uint8)
    for lo in range(0, len(a), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        ba = a[blk].astype(np.intp, copy=False)
        bb = b[blk].astype(np.intp, copy=False)
        bmax_a = bmax[ba]
        bmax_b = bmax[bb]
        # direction a<-b: d_eff lower-bounds the distance from any
        # particle under sink a to source b's expansion center
        d_eff = dist[blk] - bmax_a
        np.maximum(d_eff, gap_a[blk], out=d_eff)
        ok1 = d_eff > r_crit[bb]
        d_eff *= xmax
        ok1 &= bmax_b < d_eff
        # direction b<-a: same separation, mirrored image offset
        d_eff = np.subtract(dist[blk], bmax_b, out=d_eff)
        np.maximum(d_eff, gap_b[blk], out=d_eff)
        ok2 = d_eff > r_crit[ba]
        d_eff *= xmax
        ok2 &= bmax_a < d_eff
        if m2l:
            # mutual cell-cell accept: both directions retire into
            # local expansions at once; one-sided accepts are disabled
            # so the far field stays exactly momentum-symmetric.  The
            # waiver for ghost sides is on sink quality only — ghosts
            # are empty and never sink, but still pass their r_crit as
            # sources.
            sep = bmax_a + bmax_b < cc_xmax * dist[blk]
            ok1 = ok2 = sep & (ok1 | is_ghost[ba]) & (ok2 | is_ghost[bb])
        t = topo[blk]
        leaf_a = (t & LEAF_A).astype(bool)
        leaf_b = (t & LEAF_B).astype(bool)
        bit1 = (fl[blk] & 1).astype(bool)
        bit2 = (fl[blk] & 2).astype(bool)
        ret1 = bit1 & ok1
        ret2 = bit2 & ok2
        undecided = ((bit1 & ~ret1) | (bit2 & ~ret2)) & ~(leaf_a & leaf_b)
        # the home self-pair splits into the unordered triangle of its
        # children; every other pair splits its larger (internal) side
        split_b = undecided & ~(t & SELF).astype(bool)
        split_b &= leaf_a | (~leaf_b & (bmax_b >= bmax_a))
        code[blk] = (
            t
            | ret1.view(np.uint8)
            | (ret2.view(np.uint8) << 1)
            | (split_b.view(np.uint8) << 2)
        )
    return code


class _KeyPacker:
    """(row, source cell, image) triples as one sortable integer key."""

    def __init__(self, n_rows: int, n_src: int, n_off: int):
        self.n_rows = n_rows
        self.b_off = max(int(n_off) - 1, 0).bit_length()
        self.b_src = max(int(n_src) - 1, 0).bit_length()
        b_row = max(int(n_rows) - 1, 0).bit_length()
        # (row n_rows, one past the last, is a key too: see csr)
        self.dtype = np.int32 if b_row + self.b_src + self.b_off <= 30 else np.int64

    def pack(self, rows, src, off) -> np.ndarray:
        key = rows.astype(self.dtype)
        key <<= self.b_src + self.b_off
        src = src.astype(self.dtype)
        src <<= self.b_off
        key |= src
        key |= off
        return key

    def csr(self, keys, src_dtype, off_dtype):
        """Sorted ``keys`` as CSR: (source, image) of each entry and the
        row pointer over all ``n_rows`` rows."""
        bounds = np.arange(self.n_rows + 1, dtype=self.dtype) << (self.b_src + self.b_off)
        indptr = np.searchsorted(keys, bounds).astype(np.int64)
        src = ((keys >> self.b_off) & ((1 << self.b_src) - 1)).astype(src_dtype)
        return src, (keys & ((1 << self.b_off) - 1)).astype(off_dtype), indptr


def _entry_keys(a, b, off, fl, code, mirror, by_cell, by_row, row_of, is_ghost):
    """Keys of the list entries pairs (a, b, image ``off``) emit.

    A live direction that retired is an accept (a mutual one in the
    hybrid walk), keyed (sink cell, source, image); a live direction of
    two leaves that did not is direct, keyed (sink-leaf row, source,
    image), ghost sources apart.  Returns (accept, direct, ghost) keys,
    unsorted.  Direction b<-a reads the mirror image of ``off``.
    """
    both_leaf = (code & (LEAF_A | LEAF_B)) == LEAF_A | LEAF_B
    accepts, direct = [], []
    for sink, src, img, live, ret in (
        (a, b, off, 1, RET1),
        (b, a, mirror.astype(np.int16)[off.astype(np.intp)], 2, RET2),
    ):
        acc = (code & ret).astype(bool)
        accepts.append(by_cell.pack(sink, src, img)[acc])
        d = np.flatnonzero((fl & live).astype(bool) & ~acc & both_leaf)
        direct.append((row_of[sink[d]], src[d], img[d]))
    sink, src, img = (np.concatenate(x) for x in zip(*direct))
    ghost = is_ghost[src]
    return (
        np.concatenate(accepts),
        by_row.pack(sink[~ghost], src[~ghost], img[~ghost]),
        by_row.pack(sink[ghost], src[ghost], img[ghost]),
    )


def _replay_plan(old: WalkRecord, code: np.ndarray):
    """(dropped, seeds) masks over ``old``'s pairs, given their new codes.

    A pair whose code changed is a seed: the walk tests it again and
    walks its new subtree.  It is dropped from the record, and so is
    everything recorded below it; every other pair is kept with its
    decision.
    """
    changed = code != old.code
    below = np.zeros(len(code), dtype=bool)
    dropped = changed.copy()
    rp = old.round_ptr
    # a round's parents sit in the round before it, already settled
    for r in range(1, len(rp) - 1):
        s = slice(rp[r], rp[r + 1])
        below[s] = dropped[old.parent[s]]
        dropped[s] |= below[s]
    return dropped, changed & ~below


def traverse_hierarchical(
    tree: Tree,
    moms: TreeMoments,
    periodic: bool = False,
    ws: int = 1,
    sink_leaves: np.ndarray | None = None,
    xmax: float = 0.6,
    m2l: bool = False,
    cc_xmax: float = 0.5,
    previous: InteractionLists | None = None,
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

    ``previous`` is the last walk's lists.  When its record
    (:class:`WalkRecord`) was taken on the same topology, sink set and
    geometry, the walk *replays* it: every recorded pair is re-decided
    against these moments in one pass (:func:`_decide`), the subtree of
    each pair whose decision changed is dropped, and the round loop
    walks only those pairs, each in its own round.  The lists and
    counters are those of a fresh walk bit for bit; otherwise
    ``previous`` is ignored.

    The returned leaf and ghost lists are sorted by sink leaf
    (``sink_leaves`` comes back in SFC/particle order) with
    ``leaf_indptr`` / ``ghost_indptr`` delimiting each leaf's segment;
    the cell and m2l families are keyed by sink *cell* (``cell_cells``
    / ``m2l_cells`` ascending, ``cell_indptr`` / ``m2l_indptr``
    delimiting each cell's segment).  Every segment is sorted by
    (source cell, image offset).
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

    center = np.ascontiguousarray(tree.cell_center.T)
    images = np.ascontiguousarray(offsets.T)
    is_leaf = tree.is_leaf
    is_ghost = tree.cell_is_ghost
    first_child = tree.cell_first_child
    nchildren = tree.cell_nchildren
    half = tree.box / np.exp2(tree.cell_level + 1)  # cell half-side
    ctx = (moms.bmax, moms.r_crit, is_ghost, xmax, cc_xmax, m2l)
    topology = (
        tree.cell_key, tree.cell_level, first_child, nchildren, is_ghost, sinks
    )
    geometry = (tree.box, periodic, ws, xmax, cc_xmax, m2l)

    old = previous.walk if previous is not None else None
    if old is not None and not old.valid_for(topology, geometry):
        old = None
    n_old_rounds = 0
    if old is not None:
        recoded = _decide(
            old.a, old.b, old.fl, old.dist, old.gap_a, old.gap_b,
            old.code & _TOPOLOGY_BITS, ctx,
        )
        dropped, seeded = _replay_plan(old, recoded)
        kept = ~dropped
        # kept pairs before each row of the old record
        n_before = np.concatenate(([0], np.cumsum(kept)))
        n_old_rounds = len(old.round_ptr) - 1

    empty = np.empty(0, dtype=np.int64)
    # next round's walked children: cells, image, live bits, parent row
    c_a, c_b, c_off, c_fl, c_par = empty, empty, empty, empty.astype(np.int8), empty
    if old is None:
        # seed one canonical entry per unordered (root, root image) pair:
        # the home self-pair carries a single direction, each +/- image
        # pair carries both
        root = int(np.flatnonzero(tree.cell_level == 0)[0])
        canon = np.flatnonzero(np.arange(n_off) <= mirror)
        c_a = np.full(len(canon), root, dtype=np.int64)
        c_b = c_a.copy()
        c_off = canon.astype(np.int64)
        c_fl = np.where(mirror[canon] == canon, 1, 3).astype(np.int8)
        c_par = np.full(len(canon), -1, dtype=np.int64)

    rec = {f: [] for f in _PAIR_FIELDS}
    round_ptr = [0]
    walked = 0
    r = 0
    while True:
        # round r records the kept pairs of the previous walk's round r
        # (a replay), then its walked pairs: the seeds re-tested in round
        # r followed by the children of round r-1's undecided walked pairs
        n_prev = 0
        f_a, f_b, f_off, f_fl, f_par = c_a, c_b, c_off, c_fl, c_par
        if r < n_old_rounds:
            s = slice(int(old.round_ptr[r]), int(old.round_ptr[r + 1]))
            n_prev = int(n_before[s.stop] - n_before[s.start])
            par = old.parent[s]
            if r:
                # round r-1's kept pairs lead its new round, in order
                prev = int(old.round_ptr[r - 1])
                par = n_before[par] + (round_ptr[r - 1] - n_before[prev])
            # (a view of the old rows when the round kept them all)
            keep = slice(None) if n_prev == s.stop - s.start else kept[s]
            for name in _PAIR_FIELDS:
                col = par if name == "parent" else getattr(old, name)[s]
                rec[name].append(col[keep].astype(_PAIR_DTYPES[name], copy=False))
            seeds = np.flatnonzero(seeded[s])
            f_a = np.concatenate((old.a[s][seeds], c_a))
            f_b = np.concatenate((old.b[s][seeds], c_b))
            f_off = np.concatenate((old.off[s][seeds], c_off))
            f_fl = np.concatenate((old.fl[s][seeds], c_fl))
            f_par = np.concatenate((par[seeds], c_par))
        if not n_prev and not len(f_a):
            break
        base = round_ptr[-1] + n_prev
        round_ptr.append(base + len(f_a))
        r += 1
        walked += len(f_a)
        dist, gap_a, gap_b = _pair_geometry(f_a, f_b, f_off, center, images, half)
        topo = _pair_topology(f_a, f_b, f_off, is_leaf, home)
        code = _decide(f_a, f_b, f_fl, dist, gap_a, gap_b, topo, ctx)
        for name, col in zip(
            _PAIR_FIELDS, (f_a, f_b, f_off, f_fl, f_par, dist, gap_a, gap_b, code)
        ):
            rec[name].append(col.astype(_PAIR_DTYPES[name], copy=False))

        both_leaf = (code & (LEAF_A | LEAF_B)) == LEAF_A | LEAF_B
        live1 = (f_fl & 1).astype(bool) & ~(code & RET1).astype(bool) & ~both_leaf
        live2 = (f_fl & 2).astype(bool) & ~(code & RET2).astype(bool) & ~both_leaf
        undecided = live1 | live2
        fl_live = (live1.astype(np.int8) + 2 * live2.astype(np.int8))[undecided]
        rows = base + np.flatnonzero(undecided)
        ua = f_a[undecided]
        ub = f_b[undecided]
        uo = f_off[undecided]
        selfp = (code[undecided] & SELF).astype(bool)
        split_b = (code[undecided] & SPLIT_B).astype(bool)
        split_a = ~selfp & ~split_b
        parts_a, parts_b, parts_o, parts_f, parts_p = [], [], [], [], []
        if np.any(split_b):
            pb = ub[split_b]
            nch = nchildren[pb]
            kids = expand_ranges(first_child[pb], nch)
            ka = np.repeat(ua[split_b], nch)
            ko = np.repeat(uo[split_b], nch)
            kf = np.repeat(fl_live[split_b], nch)
            kp = np.repeat(rows[split_b], nch)
            # the split side's sink direction survives only into kids
            # holding selected sink leaves
            kf = (kf & 1) | np.where(relevant[kids], kf & 2, 0).astype(np.int8)
            keep = kf != 0
            parts_a.append(ka[keep])
            parts_b.append(kids[keep])
            parts_o.append(ko[keep])
            parts_f.append(kf[keep])
            parts_p.append(kp[keep])
        if np.any(split_a):
            pa = ua[split_a]
            nch = nchildren[pa]
            kids = expand_ranges(first_child[pa], nch)
            kb = np.repeat(ub[split_a], nch)
            ko = np.repeat(uo[split_a], nch)
            kf = np.repeat(fl_live[split_a], nch)
            kp = np.repeat(rows[split_a], nch)
            kf = np.where(relevant[kids], kf & 1, 0).astype(np.int8) | (kf & 2)
            keep = kf != 0
            parts_a.append(kids[keep])
            parts_b.append(kb[keep])
            parts_o.append(ko[keep])
            parts_f.append(kf[keep])
            parts_p.append(kp[keep])
        if np.any(selfp):
            # unordered children pairs {k_i, k_j}, i <= j, of each
            # self-pair cell; diagonals are new single-direction
            # self-pairs, off-diagonals carry both directions
            sa = ua[selfp]
            srow = rows[selfp]
            nch_s = nchildren[sa]
            for n in np.unique(nch_s):
                grp = nch_s == n
                iu, ju = np.triu_indices(int(n))
                first = first_child[sa[grp]]
                ka = (first[:, None] + iu[None, :]).ravel()
                kb = (first[:, None] + ju[None, :]).ravel()
                kp = np.repeat(srow[grp], len(iu))
                kf = (
                    np.where(relevant[ka], 1, 0) | np.where(relevant[kb], 2, 0)
                ).astype(np.int8)
                kf = np.where(ka == kb, kf & 1, kf).astype(np.int8)
                keep = kf != 0
                parts_a.append(ka[keep])
                parts_b.append(kb[keep])
                parts_o.append(np.full(int(keep.sum()), home, dtype=np.int64))
                parts_f.append(kf[keep])
                parts_p.append(kp[keep])
        c_a, c_b, c_off, c_fl, c_par = (
            (np.concatenate(p) if p else e)
            for p, e in (
                (parts_a, empty), (parts_b, empty), (parts_o, empty),
                (parts_f, empty.astype(np.int8)), (parts_p, empty),
            )
        )

    # (one field at a time, so the record is never held twice)
    rec = {name: np.concatenate(rec.pop(name)) for name in _PAIR_FIELDS}
    walk = WalkRecord(
        **rec,
        round_ptr=np.asarray(round_ptr, dtype=np.int64),
        topology=topology,
        geometry=geometry,
        redecided=0 if old is None else len(old.a),
        walked=walked,
    )
    # the record's entries, sorted: the same for a fresh walk and a replay
    n_cells, n_rows = tree.n_cells, len(sinks)
    by_cell = _KeyPacker(n_cells, n_cells, n_off)
    by_row = _KeyPacker(n_rows, n_cells, n_off)
    row_of = np.zeros(n_cells, dtype=np.int64)
    row_of[sinks] = np.arange(n_rows)
    keys = _entry_keys(
        rec["a"], rec["b"], rec["off"], rec["fl"], rec["code"],
        mirror, by_cell, by_row, row_of, is_ghost,
    )
    keys = tuple(np.sort(k) for k in keys)
    return _lists_from_walk(tree, walk, keys, sinks, offsets, m2l, by_cell, by_row)


def _lists_from_walk(tree, walk, keys, sinks, offsets, m2l: bool, by_cell, by_row):
    """The CSR lists and counters of a walk, from its sorted entry keys."""
    accepts, direct, ghost = keys
    sizes = np.diff(walk.round_ptr)  # pairs tested per round

    def by_sink_cell(keys, src_dtype, off_dtype):
        """CSR keyed by sink cell, rows ascending by cell index."""
        src, off, indptr = by_cell.csr(keys, src_dtype, off_dtype)
        cells = np.flatnonzero(np.diff(indptr))
        return cells, src, off, np.concatenate(([0], indptr[cells + 1]))

    # one-sided accepts stay with the sink cell that recorded them,
    # interior or leaf — no fan-out to the leaves; mutual ones feed the
    # sink cells' local expansions
    counts = dict(inherited_accepts=0, leaf_accepts=0, m2l_accepts=0)
    m2l_fields = {}
    if m2l:
        m_cells, m_src, m_off, m_indptr = by_sink_cell(accepts, np.int64, np.int64)
        m2l_fields = dict(
            m2l_cells=m_cells, m2l_src=m_src, m2l_off=m_off, m2l_indptr=m_indptr
        )
        counts["m2l_accepts"] = len(m_src)
        accepts = accepts[:0]
    c_cells, cc, co, c_indptr = by_sink_cell(accepts, np.int32, np.int16)
    if not m2l:
        n_leaf = int(np.diff(c_indptr)[tree.is_leaf[c_cells]].sum())
        counts.update(leaf_accepts=n_leaf, inherited_accepts=len(cc) - n_leaf)

    # leaf and ghost families: one row per sink leaf, in the (SFC-ordered)
    # row universe
    def by_sink_leaf(keys):
        src, off, indptr = by_row.csr(keys, np.int64, np.int64)
        return np.repeat(sinks, np.diff(indptr)), src, off, indptr

    ls, lc, lo_, l_indptr = by_sink_leaf(direct)
    gs, gc, go, g_indptr = by_sink_leaf(ghost)

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
        rounds=len(sizes),
        cell_indptr=c_indptr,
        leaf_indptr=l_indptr,
        ghost_indptr=g_indptr,
        mac_tests=int(walk.round_ptr[-1]),
        frontier_peak=int(sizes.max()),
        **counts,
        **m2l_fields,
        walk=walk,
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
    ``previous=`` (the last walk's lists) replays that walk where it
    can (:func:`traverse_hierarchical`).
    """
    if traversal == "hierarchical":
        kwargs.pop("cc_xmax", None)
        return traverse_hierarchical(tree, moms, **kwargs)
    if traversal == "fmm-hybrid":
        return traverse_hierarchical(tree, moms, m2l=True, **kwargs)
    raise ValueError(f"unknown traversal kind {traversal!r}")
