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

The round loop is C: ``dual_walk`` of the upward unit
(:data:`repro.multipoles.codegen.UPWARD_SOURCE`, loaded by
:func:`repro.gravity.native.upward`).  It takes the same decisions with
the same float64 arithmetic, in the same order, as the numpy reference
walk (``oracle_walk`` of ``tests/oracle.py``), breadth first, and emits each
family's entries as packed (row, source, image) keys, which numpy sorts
into the CSR lists.  The keys of a walk are unique and the lists depend
only on their sorted order, so the lists, the counters and every force
bit are the numpy walk's.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

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
    each accept (see ``cell_cells``).  Every segment of every family is
    sorted by (source cell, image offset), so the lists are a function
    of the walk's decisions and not of the order it made them in.
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

    With no restriction every real (particle-bearing) cell qualifies.
    Otherwise a cell qualifies when the first particle of a selected
    leaf (``sinks``, in SFC order) falls in its particle range, which
    holds exactly for the leaf's ancestors and itself; ghost cells,
    with an empty range, never do (they are empty and only ever
    sources).
    """
    if sinks is None:
        return tree.cell_count > 0
    starts = tree.cell_start[sinks]
    lo = np.searchsorted(starts, tree.cell_start, side="left")
    return np.searchsorted(starts, tree.cell_start + tree.cell_count, side="left") > lo


class _KeyPacker:
    """(row, source cell, image) triples as one sortable integer key."""

    def __init__(self, n_rows: int, n_src: int, n_off: int):
        self.n_rows = n_rows
        self.b_off = max(int(n_off) - 1, 0).bit_length()
        self.b_src = max(int(n_src) - 1, 0).bit_length()
        b_row = max(int(n_rows) - 1, 0).bit_length()
        # (row n_rows, one past the last, is a key too: see csr)
        self.dtype = np.int32 if b_row + self.b_src + self.b_off <= 30 else np.int64

    def csr(self, keys, src_dtype, off_dtype):
        """Sorted ``keys`` as CSR: (source, image) of each entry and the
        row pointer over all ``n_rows`` rows."""
        bounds = np.arange(self.n_rows + 1, dtype=self.dtype) << (self.b_src + self.b_off)
        indptr = np.searchsorted(keys, bounds).astype(np.int64)
        # each field written once, in its own dtype (a narrowing cast keeps
        # the low bits, which hold the masked field)
        src = np.right_shift(keys, self.b_off, out=np.empty(len(keys), src_dtype),
                             casting="unsafe")
        src &= (1 << self.b_src) - 1
        off = np.bitwise_and(keys, (1 << self.b_off) - 1, out=np.empty(len(keys), off_dtype),
                             casting="unsafe")
        return src, off, indptr


def _walk_frame(tree: Tree, periodic: bool, ws: int, sink_leaves):
    """A walk's sink leaves in SFC (particle) order, its image offsets
    (home first) and the index of each offset's mirror image."""
    sinks = tree.leaf_indices if sink_leaves is None else np.asarray(sink_leaves, dtype=np.int64)
    # row universe in SFC (particle) order: evaluation output slices are
    # then contiguous and ascending for SFC-contiguous shards
    sinks = sinks[np.argsort(tree.cell_start[sinks], kind="stable")]
    offsets = (
        _image_offsets(tree.box, ws) if periodic else np.zeros((1, 3), dtype=np.float64)
    )
    # index of each offset's mirror image (-off); home maps to itself
    ints = np.rint(offsets / tree.box)
    mirror = np.argmax((ints[None, :, :] == -ints[:, None, :]).all(axis=2), axis=1)
    return sinks, offsets, mirror


#: the compiled walk's key buffers (accept, direct, ghost), kept from walk
#: to walk (one set per thread) and grown to the most a walk has needed:
#: pages a walk faults in fresh cost more than its arithmetic
_KEY_BUFFERS = threading.local()
#: keys per sink particle of each family's first buffer
_FIRST_ROOM = 160


def _walk_keys(tree, moms, frame, relevant, xmax, m2l, cc_xmax, packer):
    """The compiled walk's (accept, direct, ghost) entry keys in
    ``packer``'s dtype, unsorted, as views of buffers the thread's next
    walk overwrites, and its ``(mac_tests, rounds, frontier_peak)``."""
    from ..gravity import native  # (repro.gravity imports this module)

    sinks, offsets, mirror = frame
    row_of = np.zeros(tree.n_cells, dtype=np.int64)
    row_of[sinks] = np.arange(len(sinks))
    width = np.dtype(packer.dtype).itemsize
    buffers = getattr(_KEY_BUFFERS, "bytes", None)
    if buffers is None:
        room = _FIRST_ROOM * max(int(tree.cell_count[sinks].sum()), 1) * 8
        buffers = [np.empty(room, dtype=np.uint8) for _ in range(3)]
    counts = np.zeros(9, dtype=np.int64)
    walk = functools.partial(
        native.upward().dual_walk,
        root=int(np.flatnonzero(tree.cell_level == 0)[0]), n_off=len(offsets),
        images=offsets, mirror=mirror, cell_center=tree.cell_center,
        half=tree.box / np.exp2(tree.cell_level + 1), bmax=moms.bmax, r_crit=moms.r_crit,
        is_leaf=tree.is_leaf, is_ghost=tree.cell_is_ghost, first_child=tree.cell_first_child,
        nchildren=tree.cell_nchildren, relevant=relevant, row_of=row_of, xmax=xmax,
        cc_xmax=cc_xmax, m2l=int(m2l), b_src=packer.b_src, b_off=packer.b_off,
        wide=int(width == 8),
    )
    while True:
        walk(cap_accept=len(buffers[0]) // width, cap_direct=len(buffers[1]) // width,
             cap_ghost=len(buffers[2]) // width, accept=buffers[0], direct=buffers[1],
             ghost=buffers[2], counts=counts)
        short = [int(n) * width > len(b) for n, b in zip(counts[3:6], buffers)]
        if not any(short):
            break
        buffers = [np.empty(int(n) * 8, dtype=np.uint8) if s else b
                   for n, s, b in zip(counts[3:6], short, buffers)]
    _KEY_BUFFERS.bytes = buffers
    keys = tuple(b[: n * width].view(packer.dtype) for b, n in zip(buffers, counts[:3]))
    return keys, counts[6:].tolist()


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
    restricted shard walks repeat identical accepts.

    The returned leaf and ghost lists are sorted by sink leaf
    (``sink_leaves`` comes back in SFC/particle order) with
    ``leaf_indptr`` / ``ghost_indptr`` delimiting each leaf's segment;
    the cell and m2l families are keyed by sink *cell* (``cell_cells``
    / ``m2l_cells`` ascending, ``cell_indptr`` / ``m2l_indptr``
    delimiting each cell's segment).  Every segment is sorted by
    (source cell, image offset).
    """
    frame = _walk_frame(tree, periodic, ws, sink_leaves)
    sinks, offsets, _ = frame
    relevant = _sink_relevance(tree, None if sink_leaves is None else sinks)
    by_cell = _KeyPacker(tree.n_cells, tree.n_cells, len(offsets))
    by_row = _KeyPacker(len(sinks), tree.n_cells, len(offsets))
    keys, counters = _walk_keys(tree, moms, frame, relevant, xmax, m2l, cc_xmax, by_cell)
    for k in keys:
        k.sort()
    return _lists_from_walk(tree, keys, counters, sinks, offsets, m2l, by_cell, by_row)


def _lists_from_walk(tree, keys, counters, sinks, offsets, m2l: bool, by_cell, by_row):
    """The CSR lists of a walk, from its sorted entry keys, and its
    ``(mac_tests, rounds, frontier_peak)`` counters."""
    accepts, direct, ghost = keys
    mac_tests, rounds, frontier_peak = counters

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
        rounds=rounds,
        cell_indptr=c_indptr,
        leaf_indptr=l_indptr,
        ghost_indptr=g_indptr,
        mac_tests=mac_tests,
        frontier_peak=frontier_peak,
        **counts,
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
