"""Hierarchical (sink-cell) mutual traversal and CSR evaluation tests.

Covers the completeness invariant (every sink particle sees every
source mass exactly once per periodic image), agreement with direct
and Ewald sums, CSR structural validity, restricted-walk identity (the property that
makes sharded execution bit-identical), the compiled walk's equality
with the numpy one (``TestCompiledWalk``), and block-size invariance of
the evaluator.  The cell family is keyed by the sink cell that recorded
each accept; the exactly-once references read it through the derived
per-leaf view (``tests.oracle.cell_leaf_csr``).
"""

import contextlib
import dataclasses
import functools
import hashlib
import math
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gravity import TreecodeConfig, TreecodeGravity, direct_accelerations, make_softening
from repro.gravity import native, treeforce
from repro.gravity.treeforce import _merged_boxes, evaluate_forces
from repro.multipoles.codegen import generate_evaluator_source
from repro.multipoles.prism import prism_acceleration
from repro.parallel.domain import sfc_cut
from repro.tree import (
    build_tree,
    compute_moments,
    traverse_hierarchical,
    traverse_lists,
)
from repro.tree import traversal
from repro.tree.traversal import filter_csr_indptr
from repro.util import expand_ranges

from .oracle import (
    cell_leaf_csr,
    last_lists,
    oracle_background_boxes,
    oracle_coalesce_boxes,
    oracle_forces,
    oracle_pair_geometry,
    oracle_sink_relevance,
    oracle_walk,
    per_cube_background,
)


@functools.lru_cache(maxsize=None)
def unit_with_block(p, dtype_name, blk):
    """The compiled evaluator of order ``p`` built with ``BLK`` = ``blk``."""
    source = f"#define BLK {blk}\n" + generate_evaluator_source(p, dtype_name)
    return native.Unit(native.library_path(source), "evaluator", dtype_name)


def evaluate_with_blocks(tree, moms, inter, blk=None, **kw):
    """:func:`evaluate_forces` with the compiled unit built at ``BLK`` =
    ``blk`` (cell entries gathered per block, source particles per pp
    block, merged boxes per prism block); ``None`` keeps the default."""
    with contextlib.ExitStack() as stack:
        if blk is not None:
            stack.enter_context(mock.patch.object(
                native, "evaluator",
                lambda p, dtype: unit_with_block(p, np.dtype(dtype).name, blk),
            ))
        return evaluate_forces(tree, moms, inter, **kw)


def cloud(n=1500, seed=0, clustered=False):
    rng = np.random.default_rng(seed)
    if clustered:
        c = rng.random((5, 3))
        pos = (c[rng.integers(0, 5, n)] + 0.04 * rng.standard_normal((n, 3))) % 1.0
    else:
        pos = rng.random((n, 3))
    return pos, np.full(n, 1.0 / n)


def setup(n=1500, seed=0, background=False, clustered=False, nleaf=8, tol=1e-4):
    pos, mass = cloud(n, seed=seed, clustered=clustered)
    tree = build_tree(pos, mass, nleaf=nleaf, with_ghosts=background)
    moms = compute_moments(
        tree,
        p=2,
        tol=tol,
        background=background,
        mean_density=mass.sum() if background else None,
    )
    return tree, moms


def coverage_counts(tree, inter):
    """Per (sink particle, image offset): how many times each source
    particle is covered by the union of cell + leaf lists.

    Returns an array of shape (n_selected_leaves, n_offsets, N); the
    completeness invariant is that every entry equals 1.
    """
    n = tree.n_particles
    sinks = inter.sink_leaves
    n_off = len(inter.offsets)
    leaf_pos = np.full(tree.n_cells, -1)
    leaf_pos[sinks] = np.arange(len(sinks))
    # +1 at each source range's first particle, -1 past its last: the
    # running sum along the particles counts the ranges covering each
    steps = np.zeros((len(sinks), n_off, n + 1), dtype=np.int64)
    cell_src, cell_off, cell_indptr = cell_leaf_csr(tree, inter)
    for fam_sink, fam_src, fam_off in (
        (np.repeat(sinks, np.diff(cell_indptr)), cell_src, cell_off),
        (inter.leaf_sink, inter.leaf_src, inter.leaf_off),
    ):
        rows, a = leaf_pos[fam_sink], tree.cell_start[fam_src]
        np.add.at(steps, (rows, fam_off, a), 1)
        np.add.at(steps, (rows, fam_off, a + tree.cell_count[fam_src]), -1)
    return np.cumsum(steps, axis=2)[:, :, :n]


class TestCompleteness:
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("background", [False, True])
    def test_every_source_exactly_once(self, periodic, background):
        """Each sink leaf's cell+leaf lists tile the particle set
        exactly once per periodic image — no source double-counted,
        none missed, in every mode combination."""
        tree, moms = setup(n=600, background=background)
        inter = traverse_hierarchical(tree, moms, periodic=periodic, ws=1)
        cov = coverage_counts(tree, inter)
        assert np.all(cov == 1)

    @pytest.mark.parametrize("kind", ["hierarchical", "fmm-hybrid"])
    def test_background_volume_tiling(self, kind):
        """Background mode: per (sink leaf, image) the volumes of
        accepted cells (cube subtraction inside their moments), direct
        leaf sources and ghost entries (explicit prism terms) tile the
        unit box exactly once — the invariant that makes background
        subtraction exact.  The two modes partition the coverage
        differently (one-sided accepts at the leaf's row against mutual
        accepts at any of its ancestors) but both must tile."""
        tree, moms = setup(n=600, background=True)
        inter = traverse_lists(tree, moms, traversal=kind, periodic=True, ws=1)
        sinks = inter.sink_leaves
        vol = np.zeros((len(sinks), len(inter.offsets)))
        cell_vol = (0.5 ** tree.cell_level) ** 3
        for fam_src, fam_off, indptr in (
            cell_leaf_csr(tree, inter),
            (inter.leaf_src, inter.leaf_off, inter.leaf_indptr),
            (inter.ghost_src, inter.ghost_off, inter.ghost_indptr),
        ):
            row = np.repeat(np.arange(len(sinks)), np.diff(indptr))
            np.add.at(vol, (row, fam_off), cell_vol[fam_src])
        if kind == "fmm-hybrid":
            assert len(inter.cell_src) == 0 and len(inter.m2l_src) > 0
            # a mutual accept at a sink cell covers every leaf under it:
            # the rows whose first particle lies in the cell's range
            start = tree.cell_start[sinks]
            assert np.all(np.diff(start) > 0)
            cell = np.repeat(inter.m2l_cells, np.diff(inter.m2l_indptr))
            lo = np.searchsorted(start, tree.cell_start[cell])
            hi = np.searchsorted(start, tree.cell_start[cell] + tree.cell_count[cell])
            np.add.at(
                vol,
                (expand_ranges(lo, hi - lo), np.repeat(inter.m2l_off, hi - lo)),
                np.repeat(cell_vol[inter.m2l_src], hi - lo),
            )
        assert np.allclose(vol, 1.0)


class TestForceAgreement:
    @pytest.mark.parametrize("periodic", [False, True])
    def test_matches_leaf_walk_within_budget(self, periodic):
        """The walk honors the per-particle error budget against the
        exact answer — the direct sum (open) or the Ewald sum
        (periodic) — to within a few times errtol."""
        from repro.diagnose.probe import reference_accelerations

        tol = 1e-4
        pos, mass = cloud(1200, clustered=True)
        cfg = TreecodeConfig(
            p=2, errtol=tol, nleaf=8, periodic=periodic, background=periodic,
            softening="none",
        )
        acc = TreecodeGravity(cfg).compute(pos, mass).acc
        probes = np.arange(0, len(pos), 50)
        if periodic:
            ref = reference_accelerations(pos, mass, probes, periodic=True)
        else:
            ref = direct_accelerations(pos, mass)[probes]
        scale = np.abs(ref).max()
        diff = np.abs(acc[probes] - ref).max()
        assert diff < 10 * tol * max(scale, 1.0)

    def test_solver_against_direct(self):
        """End-to-end solver accuracy with the hierarchical default."""
        pos, mass = cloud(1024, seed=3, clustered=True)
        cfg = TreecodeConfig(
            p=4, errtol=1e-6, background=False, periodic=False, eps=0.02
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        from repro.gravity import make_softening

        ref = direct_accelerations(
            pos, mass, softening=make_softening("dehnen_k1", 0.02)
        )
        err = np.linalg.norm(res.acc - ref, axis=1)
        assert np.median(err) < 1e-4 * np.abs(ref).max()


class TestCSRStructure:
    def test_indptr_consistent(self):
        tree, moms = setup(n=800, background=True)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        sinks = inter.sink_leaves
        for name, arr, indptr in (
            ("leaf", inter.leaf_sink, inter.leaf_indptr),
            ("ghost", inter.ghost_sink, inter.ghost_indptr),
        ):
            assert indptr is not None
            assert len(indptr) == len(sinks) + 1
            assert indptr[0] == 0 and indptr[-1] == len(arr)
            assert np.all(np.diff(indptr) >= 0)
            # rows grouped: entries in segment i all have sink sinks[i]
            seg = np.repeat(np.arange(len(sinks)), np.diff(indptr))
            assert np.array_equal(arr, sinks[seg]), name

    def test_cell_family_keyed_by_recording_cell(self):
        """Rows are the sink cells with accepts — interior and leaf —
        in ascending cell index, i.e. level by level and in particle
        order within a level; no row is empty."""
        tree, moms = setup(n=800, background=True)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        cells, indptr = inter.cell_cells, inter.cell_indptr
        assert len(indptr) == len(cells) + 1
        assert indptr[0] == 0 and indptr[-1] == len(inter.cell_src)
        assert len(inter.cell_off) == len(inter.cell_src)
        assert np.all(np.diff(indptr) > 0) and np.all(np.diff(cells) > 0)
        assert np.all(np.diff(tree.cell_level[cells]) >= 0)
        same = np.diff(tree.cell_level[cells]) == 0
        assert np.all(np.diff(tree.cell_start[cells])[same] > 0)
        assert not np.any(tree.cell_is_ghost[cells])
        interior = ~tree.is_leaf[cells]
        assert interior.any() and (~interior).any()
        nent = np.diff(indptr)
        assert nent[interior].sum() == inter.inherited_accepts
        assert nent[~interior].sum() == inter.leaf_accepts
        assert inter.n_cell_interactions(tree) == (tree.cell_count[cells] * nent).sum()

    def test_leaf_view_is_the_inherited_fan_out(self):
        """``cell_leaf_csr``: every sink leaf lists the segments of its
        ancestors by ascending cell index, then its own, each in list
        order; the content of every row is that of the per-leaf lists
        the traversal emitted before the cell family was keyed by sink
        cell (sha256 of that commit's rows, each sorted, on these
        seeded inputs, full walk and middle shard)."""
        pinned = {
            (False, "full"): "e30209aeee2b66e8",
            (False, "shard"): "855fd21449c26bdb",
            (True, "full"): "c6b089d3b693c46b",
            (True, "shard"): "a59c05a62d194a21",
        }
        for clustered in (False, True):
            tree, moms = setup(n=1500, clustered=clustered, background=True)
            leaves = tree.leaf_indices[np.argsort(tree.cell_start[tree.leaf_indices])]
            for tag, sinks in (("full", None), ("shard", np.array_split(leaves, 3)[1])):
                inter = traverse_hierarchical(
                    tree, moms, periodic=True, ws=1, sink_leaves=sinks
                )
                src, off, indptr = cell_leaf_csr(tree, inter)
                # each row's (src, off) pairs in sorted order, as int64 pairs
                rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
                pairs = np.stack([src, off], axis=1).astype(np.int64)[np.lexsort((off, src, rows))]
                h = hashlib.sha256()
                for a, b in zip(indptr[:-1], indptr[1:]):
                    h.update(pairs[a:b].tobytes() + b"|")
                assert h.hexdigest()[:16] == pinned[(clustered, tag)], (clustered, tag)
                # by hand: the segments recorded along the leaf's chain
                # of ancestors, root first, then the leaf's own
                row_of = {int(c): i for i, c in enumerate(inter.cell_cells)}
                for i in (0, len(inter.sink_leaves) // 2, len(inter.sink_leaves) - 1):
                    node = int(inter.sink_leaves[i])
                    chain = []
                    while node >= 0:
                        if node in row_of:
                            e = slice(*inter.cell_indptr[row_of[node] : row_of[node] + 2])
                            chain.append((node, list(zip(inter.cell_src[e], inter.cell_off[e]))))
                        node = int(tree.cell_parent[node])
                    assert len(chain) >= 2 and chain[0][0] == inter.sink_leaves[i]
                    row = slice(indptr[i], indptr[i + 1])
                    assert list(zip(src[row], off[row])) == [
                        pair for _, segment in sorted(chain) for pair in segment
                    ]

    def test_filter_csr_indptr(self):
        indptr = np.array([0, 3, 3, 7, 8], dtype=np.int64)
        keep = np.array([True, False, True, True, True, False, True, True])
        out = filter_csr_indptr(indptr, keep)
        assert np.array_equal(out, [0, 2, 2, 5, 6])
        # filtering with all-True is the identity
        assert np.array_equal(
            filter_csr_indptr(indptr, np.ones(8, dtype=bool)), indptr
        )

    def test_sink_leaves_sfc_sorted(self):
        tree, moms = setup(n=800)
        inter = traverse_hierarchical(tree, moms)
        starts = tree.cell_start[inter.sink_leaves]
        assert np.all(np.diff(starts) > 0)
        assert set(inter.sink_leaves.tolist()) == set(tree.leaf_indices.tolist())


class TestRestrictedWalkIdentity:
    def test_shard_segments_identical(self):
        """Restricted walks replay the unrestricted walk's decisions:
        CSR segments are identical in content AND order for any
        SFC-contiguous sharding — per sink leaf for the leaf and ghost
        families, per recording sink cell for the cell family (a cell
        that straddles a shard boundary appears, whole, in both shards)
        — the property that makes the multiprocessing executor
        bit-identical to serial."""
        tree, moms = setup(n=1500, clustered=True, background=True)
        full = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        sinks = full.sink_leaves

        def segments(inter):
            out = {}
            for fam, (rows, src, off, indptr) in {
                "cell": (inter.cell_cells, inter.cell_src, inter.cell_off, inter.cell_indptr),
                "leaf": (inter.sink_leaves, inter.leaf_src, inter.leaf_off, inter.leaf_indptr),
                "ghost": (inter.sink_leaves, inter.ghost_src, inter.ghost_off, inter.ghost_indptr),
            }.items():
                for i, s in enumerate(rows):
                    a, b = indptr[i], indptr[i + 1]
                    out[(fam, int(s))] = (src[a:b].tolist(), off[a:b].tolist())
            return out

        ref = segments(full)
        merged, seen = {}, []
        for part in np.array_split(sinks, 3):
            shard = traverse_hierarchical(
                tree, moms, periodic=True, ws=1, sink_leaves=part
            )
            mine = segments(shard)
            # what two shards both hold, they hold identically
            assert all(merged[k] == v for k, v in mine.items() if k in merged)
            merged.update(mine)
            seen.append(set(shard.cell_cells.tolist()))
            # counted over the shard's own particles only
            view = cell_leaf_csr(tree, shard)[2]
            assert shard.n_cell_interactions(tree) == (
                tree.cell_count[shard.sink_leaves] * np.diff(view)
            ).sum()
        assert merged == ref
        # the root and at least one more interior cell straddle a boundary
        shared = (seen[0] & seen[1]) | (seen[1] & seen[2])
        assert len(shared) >= 2 and not np.any(tree.is_leaf[sorted(shared)])

    def test_workers_bit_identical(self):
        pos, mass = cloud(2000, seed=5)
        ref = None
        for workers in (0, 2):
            cfg = TreecodeConfig(
                periodic=True, errtol=1e-4, workers=workers
            )
            with TreecodeGravity(cfg) as solver:
                res = solver.compute(pos, mass)
            if ref is None:
                ref = res
            else:
                assert np.array_equal(ref.acc, res.acc)
                assert np.array_equal(ref.pot, res.pot)


#: every array field of InteractionLists, and its counters
LIST_FIELDS = (
    "sink_leaves", "offsets",
    "cell_cells", "cell_src", "cell_off", "cell_indptr",
    "leaf_sink", "leaf_src", "leaf_off", "leaf_indptr",
    "ghost_sink", "ghost_src", "ghost_off", "ghost_indptr",
    "m2l_cells", "m2l_src", "m2l_off", "m2l_indptr",
)
COUNTERS = (
    "rounds", "mac_tests", "frontier_peak",
    "inherited_accepts", "leaf_accepts", "m2l_accepts",
)


def assert_same_lists(got, want):
    """Every array field equal in dtype and values, and every counter."""
    for name in LIST_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in COUNTERS:
        assert getattr(got, name) == getattr(want, name), name


def sfc_shards(tree, n):
    """The sink leaves of each piece of an ``n``-way SFC cut, as the pool cuts them."""
    leaves = tree.leaf_indices
    lsfc = leaves[np.argsort(tree.cell_start[leaves], kind="stable")]
    bounds = sfc_cut(tree.cell_count[lsfc], n)
    return [lsfc[b0:b1] for b0, b1 in zip(bounds[:-1], bounds[1:])]


def walk_keys(tree, moms, sink_leaves=None, periodic=False, ws=1, m2l=False):
    """The compiled walk's (accept, direct, ghost) keys, as traverse_hierarchical takes them."""
    frame = traversal._walk_frame(tree, periodic, ws, sink_leaves)
    relevant = traversal._sink_relevance(tree, None if sink_leaves is None else frame[0])
    packer = traversal._KeyPacker(tree.n_cells, tree.n_cells, len(frame[1]))
    keys, _ = traversal._walk_keys(tree, moms, frame, relevant, 0.6, m2l, 0.5, packer)
    return [k.copy() for k in keys]


class TestCompiledWalk:
    """The compiled walk (``dual_walk`` of the upward unit) against the
    numpy walk it replaced (``tests/oracle.py``'s ``oracle_walk``): every
    list array, dtype and values, and every counter, on each kind of
    tree the walk tells apart; its packed entry keys are unique, so the
    sorted keys, and the lists, do not depend on the order they were
    emitted in."""

    @staticmethod
    def check(tree, moms, **kw):
        got = traverse_hierarchical(tree, moms, **kw)
        assert_same_lists(got, oracle_walk(tree, moms, **kw))
        keys = walk_keys(tree, moms, **kw)
        assert all(len(np.unique(k)) == len(k) for k in keys), kw
        assert [len(k) for k in keys] == [
            len(got.m2l_src if kw.get("m2l") else got.cell_src),
            len(got.leaf_src), len(got.ghost_src),
        ]
        return got

    @pytest.mark.parametrize("periodic,ws", [(False, 1), (True, 1), (True, 2)])
    def test_open_and_periodic_boxes(self, periodic, ws):
        tree, moms = setup(n=900, clustered=True, tol=1e-3)
        got = self.check(tree, moms, periodic=periodic, ws=ws)
        assert len(got.offsets) == (2 * ws + 1) ** 3 if periodic else 1
        assert got.inherited_accepts and got.leaf_accepts

    def test_background_ghosts(self):
        tree, moms = setup(n=900, clustered=True, background=True, tol=1e-3)
        got = self.check(tree, moms, periodic=True, ws=1)
        assert len(got.ghost_src) and tree.cell_is_ghost[got.ghost_src].all()

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_every_shard_of_an_sfc_cut(self, n_shards):
        tree, moms = setup(n=900, clustered=True, background=True, tol=1e-3)
        for sinks in sfc_shards(tree, n_shards):
            self.check(tree, moms, periodic=True, ws=1, sink_leaves=sinks)

    def test_mutual_accepts(self):
        tree, moms = setup(n=900, clustered=True, background=True, tol=1e-3)
        got = self.check(tree, moms, periodic=True, ws=1, m2l=True)
        assert got.m2l_accepts and not len(got.cell_src)
        for sinks in sfc_shards(tree, 2):
            self.check(tree, moms, periodic=True, ws=1, m2l=True, sink_leaves=sinks)

    def test_lone_root_leaf(self):
        tree, moms = setup(n=6, nleaf=8, tol=1e-3)
        assert tree.n_cells == 1
        got = self.check(tree, moms)
        assert got.mac_tests == got.rounds == 1 and got.leaf_src.tolist() == [0]
        self.check(tree, moms, periodic=True, ws=1)

    def test_particles_on_box_faces(self):
        n = 96
        rng = np.random.default_rng(7)
        pos = rng.random((n, 3))
        pos[np.arange(n), rng.integers(0, 3, n)] = 0.0
        tree = build_tree(pos, np.full(n, 1.0 / n), nleaf=4, with_ghosts=True)
        moms = compute_moments(tree, p=2, tol=1e-3, background=True, mean_density=1.0)
        self.check(tree, moms, periodic=True, ws=1)
        self.check(tree, moms, periodic=True, ws=2)

    def test_float32_inputs(self):
        pos, mass = cloud(700, seed=3, clustered=True)
        tree = build_tree(pos.astype(np.float32), mass.astype(np.float32), nleaf=8,
                          with_ghosts=True)
        moms = compute_moments(tree, p=2, tol=1e-3, background=True, mean_density=1.0)
        self.check(tree, moms, periodic=True, ws=1)

    def test_a_tie_at_r_crit_is_not_an_accept(self):
        """Two clumps in opposite octants: A, one leaf, and B, an interior
        cell.  With B's r_crit set to exactly A's effective distance to B,
        A does not take B as a multipole (the MAC is strict); one ulp less
        and it does."""
        rng = np.random.default_rng(0)
        pos = np.concatenate([0.25 + 0.05 * (rng.random((8, 3)) - 0.5),
                              0.75 + 0.05 * (rng.random((16, 3)) - 0.5)])
        tree = build_tree(pos, rng.random(24) + 0.5, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-2)
        A, B = 1, 2
        assert tree.is_leaf[A] and not tree.is_leaf[B]
        half = tree.box / np.exp2(tree.cell_level + 1)
        dist, gap_a, _ = oracle_pair_geometry(
            np.array([A]), np.array([B]), np.array([0]), tree.cell_center.T, np.zeros((3, 1)),
            half,
        )
        eff = np.maximum(dist - moms.bmax[A], gap_a)[0]
        for r_crit, accepted in ((eff, False), (np.nextafter(eff, 0.0), True)):
            tied = moms.r_crit.copy()
            tied[B] = r_crit
            got = self.check(tree, dataclasses.replace(moms, r_crit=tied))
            row = np.flatnonzero(got.cell_cells == A)
            srcs = got.cell_src[got.cell_indptr[row[0]]:got.cell_indptr[row[0] + 1]] if len(row) else []
            assert (B in srcs) == accepted

    def test_short_key_buffers_walk_again(self, monkeypatch):
        """A family whose buffer is too short makes the walk run again
        with the lengths it reported; the lists are the same."""
        tree, moms = setup(n=900, clustered=True, background=True, tol=1e-3)
        want = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        monkeypatch.setattr(traversal, "_KEY_BUFFERS", threading.local())
        monkeypatch.setattr(traversal, "_FIRST_ROOM", 0)
        unit = native.upward()
        real, caps = unit.dual_walk, []

        def counted(**kw):
            caps.append((kw["cap_accept"], kw["cap_direct"], kw["cap_ghost"]))
            real(**kw)

        monkeypatch.setattr(unit, "dual_walk", counted)
        assert_same_lists(traverse_hierarchical(tree, moms, periodic=True, ws=1), want)
        assert len(caps) == 2 and caps[0] == (0, 0, 0) and min(caps[1]) > 0

    def test_sink_relevance_in_one_pass(self):
        """The searchsorted mask equals the per-level OR of the children's
        flags on every shard of a cut, ghosts included."""
        tree, moms = setup(n=900, clustered=True, background=True)
        assert tree.cell_is_ghost.any()
        for n_shards in (1, 2, 3, 7):
            for sinks in sfc_shards(tree, n_shards):
                assert np.array_equal(traversal._sink_relevance(tree, sinks),
                                      oracle_sink_relevance(tree, sinks))
        assert np.array_equal(traversal._sink_relevance(tree, None),
                              oracle_sink_relevance(tree, None))


def same_bits(a, b):
    return np.array_equal(a.acc, b.acc) and np.array_equal(a.pot, b.pot)


def drop_cell_rows(inter, drop):
    """``inter`` without the entries of the sink cells (rows of
    ``cell_cells``) flagged in ``drop``; the rows stay, empty."""
    keep = ~np.repeat(drop, np.diff(inter.cell_indptr))
    return dataclasses.replace(
        inter,
        cell_src=inter.cell_src[keep],
        cell_off=inter.cell_off[keep],
        cell_indptr=filter_csr_indptr(inter.cell_indptr, keep),
    )


class TestChunkInvariance:
    def test_csr_evaluator_chunk_sizes(self):
        """Every particle's rows are added into float64 in entry order,
        whichever block holds them, so results are bit-identical at any
        block size: one entry (one source particle, one box) a block,
        blocks that leave padded prism lanes, an odd size, and every row
        in a single block."""
        tree, moms = setup(n=900, background=True)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        nent = np.diff(inter.cell_indptr)
        assert 7 < nent.max() < 5000  # the odd size splits the longest row
        # the one prism pass merges ghost and direct-pair cubes of a row
        both = (np.diff(inter.ghost_indptr) > 0) & (np.diff(inter.leaf_indptr) > 0)
        assert both.any()
        for dtype in (np.float64, np.float32):
            ref = evaluate_forces(tree, moms, inter, dtype=dtype)
            for blk in (1, 2, 7, 300, 5000):
                odd = evaluate_with_blocks(tree, moms, inter, dtype=dtype, blk=blk)
                assert same_bits(ref, odd), (dtype, blk)
            no_pot = evaluate_forces(
                tree, moms, inter, dtype=dtype, want_potential=False
            )
            assert no_pot.pot is None and np.array_equal(no_pot.acc, ref.acc)

    @given(
        n=st.integers(min_value=9, max_value=160),
        nleaf=st.sampled_from([1, 2, 8, 200]),
        clustered=st.booleans(),
        periodic=st.booleans(),
        blk=st.sampled_from([1, 2, 7, 300]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_budget_any_tree(self, n, nleaf, clustered, periodic, blk, seed):
        """Property: no block size of the compiled cell, pp and prism
        loops ever changes a bit: one-particle leaves (nleaf=1), every
        particle in one leaf (nleaf=200), rows without cell entries,
        ghost cubes and rows longer than a block included."""
        tree, moms = setup(
            n=n, seed=seed, background=periodic, clustered=clustered,
            nleaf=nleaf, tol=1e-3,
        )
        inter = traverse_hierarchical(tree, moms, periodic=periodic, ws=1)
        ref = evaluate_forces(tree, moms, inter, dtype=np.float32)
        got = evaluate_with_blocks(tree, moms, inter, dtype=np.float32, blk=blk)
        assert same_bits(ref, got)
        assert np.all(np.isfinite(ref.acc))
        # background mode: every direct leaf pair has its cube removed
        assert (ref.stats["prism_interactions"] > 0) == periodic

    def test_counters_in_stats(self):
        pos, mass = cloud(800)
        cfg = TreecodeConfig(errtol=1e-4, background=False)
        res = TreecodeGravity(cfg).compute(pos, mass)
        assert res.stats["traversal"] == "hierarchical"
        assert res.stats["mac_tests"] > 0
        assert res.stats["frontier_peak"] > 0


class TestBlockedCellEvaluator:
    """The compiled cell loop: per sink-cell row, blocks of its entries
    gathered once and met by every owned particle under the cell."""

    def lists(self, n=700, **kw):
        tree, moms = setup(n=n, background=True, **kw)
        return tree, moms, traverse_hierarchical(tree, moms, periodic=True, ws=1)

    def test_lone_interaction_is_blocking_independent(self):
        """A (1 particle x 1 cell) row alone in its block sums exactly
        as it does when it shares a block with other entries."""
        tree, moms = setup(n=9, seed=12, nleaf=1, tol=1e-3)
        inter = traverse_hierarchical(tree, moms)
        rows = tree.cell_count[inter.cell_cells] * np.diff(inter.cell_indptr)
        assert np.any(rows == 1) and rows.sum() > 1
        ref = evaluate_forces(tree, moms, inter, dtype=np.float32)
        alone = evaluate_with_blocks(tree, moms, inter, dtype=np.float32, blk=1)
        assert same_bits(ref, alone)

    def test_shard_equals_serial_slice(self):
        """A ``particle_range`` shard (restricted walk + evaluation)
        reproduces the serial result's slice bit for bit."""
        tree, moms, full = self.lists(clustered=True)
        n = tree.n_particles
        for dtype in (np.float64, np.float32):
            serial = evaluate_forces(
                tree, moms, full, dtype=dtype, particle_range=(0, n)
            )
            for part in np.array_split(full.sink_leaves, 3):
                shard = traverse_hierarchical(
                    tree, moms, periodic=True, ws=1, sink_leaves=part
                )
                s0 = int(tree.cell_start[part[0]])
                s1 = int(tree.cell_start[part[-1]] + tree.cell_count[part[-1]])
                res = evaluate_forces(
                    tree, moms, shard, dtype=dtype, particle_range=(s0, s1)
                )
                assert np.array_equal(res.acc, serial.acc[s0:s1])
                assert np.array_equal(res.pot, serial.pot[s0:s1])

    def test_particle_depends_on_its_own_row_only(self):
        """Removing the entries of every sink cell that is *not* on a
        leaf's chain of ancestors (which also moves the block
        boundaries) leaves that leaf's particles bit-identical: a
        particle's sums read the segments of the cells it sits in and
        nothing else in a block."""
        tree, moms, inter = self.lists()
        n = tree.n_particles
        full = evaluate_forces(tree, moms, inter, particle_range=(0, n))
        for k in (0, len(inter.sink_leaves) // 2, len(inter.sink_leaves) - 1):
            leaf = inter.sink_leaves[k]
            own = slice(
                tree.cell_start[leaf], tree.cell_start[leaf] + tree.cell_count[leaf]
            )
            start, count = tree.cell_start[inter.cell_cells], tree.cell_count[inter.cell_cells]
            on_chain = (start <= own.start) & (own.stop <= start + count)
            assert on_chain.sum() >= 2 and tree.is_leaf[inter.cell_cells[on_chain]].any()
            only_k = evaluate_forces(
                tree, moms, drop_cell_rows(inter, ~on_chain), particle_range=(0, n)
            )
            assert np.array_equal(only_k.acc[own], full.acc[own])
            assert np.array_equal(only_k.pot[own], full.pot[own])
            others = np.ones(n, dtype=bool)
            others[own] = False
            assert np.any(only_k.acc[others] != full.acc[others])

    def test_rows_without_cell_entries(self):
        """Sink cells whose entry list is empty (a pruned TreePM list has
        them) contribute nothing and do not disturb their neighbours
        in a block."""
        tree, moms, inter = self.lists()
        n = tree.n_particles
        drop = np.arange(len(inter.cell_cells)) % 3 != 1
        sparse = drop_cell_rows(inter, drop)
        assert np.any(np.diff(sparse.cell_indptr) == 0)
        ref = evaluate_forces(tree, moms, sparse, particle_range=(0, n))
        for blk in (1, 7, 1024):
            got = evaluate_with_blocks(tree, moms, sparse, particle_range=(0, n), blk=blk)
            assert same_bits(ref, got)
        # the oracle on three leaves: one whose own row was emptied
        # between neighbours whose rows were not
        own = dict(zip(sparse.cell_cells.tolist(), np.diff(sparse.cell_indptr).tolist()))
        entries = np.array([own.get(int(leaf), -1) for leaf in sparse.sink_leaves])
        i = int(np.flatnonzero((entries[1:-1] == 0) & (entries[:-2] > 0) & (entries[2:] > 0))[0])
        self.assert_matches_flat(tree, moms, sparse, rows=(i, i + 3))

    @pytest.mark.parametrize("nleaf", [1, 8])
    def test_matches_flat_list_evaluator(self, nleaf):
        """float64: the blocked evaluator agrees with a term-by-term
        loop over the *same* lists to 1e-12 (they differ only in
        summation order) — one-particle leaves included."""
        tree, moms = setup(n=150, background=True, nleaf=nleaf)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        if nleaf == 1:
            assert tree.cell_count[inter.sink_leaves].max() == 1
        self.assert_matches_flat(tree, moms, inter, rows=(0, 4))

    @staticmethod
    def leaf_rows(tree, inter, lo, hi):
        """``inter`` cut down to its sink-leaf rows ``[lo, hi)``, and the
        particle range they own: the lists of a shard over those
        leaves (their ancestors' cell segments stay; the evaluator
        and the oracle read only the ones above the range)."""
        cut = {"sink_leaves": inter.sink_leaves[lo:hi]}
        for fam in ("leaf", "ghost"):
            indptr = getattr(inter, f"{fam}_indptr")
            entries = slice(indptr[lo], indptr[hi])
            for part in ("sink", "src", "off"):
                cut[f"{fam}_{part}"] = getattr(inter, f"{fam}_{part}")[entries]
            cut[f"{fam}_indptr"] = indptr[lo : hi + 1] - indptr[lo]
        first, last = cut["sink_leaves"][0], cut["sink_leaves"][-1]
        s1 = tree.cell_start[last] + tree.cell_count[last]
        return dataclasses.replace(inter, **cut), (int(tree.cell_start[first]), int(s1))

    def assert_matches_flat(self, tree, moms, inter, rows=None, **kw):
        """The blocked result against the kernel of ``tests/oracle.py``:
        an independent implementation that computes the lists one
        (sink, source) term at a time — on the sink-leaf ``rows``
        (lo, hi) only, if given, as a shard evaluates them."""
        if rows is not None:
            inter, kw["particle_range"] = self.leaf_rows(tree, inter, *rows)
        csr = evaluate_forces(tree, moms, inter, **kw)
        flat = oracle_forces(tree, moms, inter, **kw)
        assert csr.stats["cell_interactions"] == flat.stats["cell_interactions"] > 0
        scale = np.abs(flat.acc).max()
        assert np.abs(csr.acc - flat.acc).max() < 1e-12 * scale
        assert np.abs(csr.pot - flat.pot).max() < 1e-12 * np.abs(flat.pot).max()
        return csr

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_every_order_with_and_without_potential(self, p):
        """p = 0 has no monomial at all (P_0 is the monopole), p = 1 the
        linear ones only; leaving the potential out drops its sum and
        nothing else, so the acceleration keeps its bits."""
        pos, mass = cloud(300, seed=p)
        tree = build_tree(pos, mass, nleaf=8, with_ghosts=True)
        moms = compute_moments(tree, p=p, tol=1e-3, background=True, mean_density=1.0)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        self.assert_matches_flat(tree, moms, inter, rows=(0, 3))
        for dtype in (np.float64, np.float32):
            ref = evaluate_forces(tree, moms, inter, dtype=dtype)
            no_pot = evaluate_forces(
                tree, moms, inter, dtype=dtype, want_potential=False
            )
            assert no_pot.pot is None and np.array_equal(no_pot.acc, ref.acc)
            assert same_bits(
                ref,
                evaluate_with_blocks(tree, moms, inter, dtype=dtype, blk=1),
            )

    def test_every_particle_in_one_leaf(self):
        """One sink leaf holding all 60 particles, far images taken as
        cell interactions: each particle against every entry, whatever
        the block size."""
        tree, moms = setup(n=60, background=True, nleaf=10**4)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=2)
        assert len(inter.sink_leaves) == 1 and len(inter.cell_src) == 0
        # the walk keeps every image of a lone root leaf direct; hand
        # the outer shell of images to the multipole family instead
        far = np.abs(inter.offsets[inter.leaf_off]).max(axis=1) >= 2.0
        assert 0 < far.sum() < len(far)
        inter = dataclasses.replace(
            inter,
            cell_cells=inter.sink_leaves,
            cell_src=inter.leaf_src[far],
            cell_off=inter.leaf_off[far],
            cell_indptr=np.array([0, far.sum()]),
            leaf_sink=inter.leaf_sink[~far],
            leaf_src=inter.leaf_src[~far],
            leaf_off=inter.leaf_off[~far],
            leaf_indptr=np.array([0, (~far).sum()]),
        )
        ref = self.assert_matches_flat(tree, moms, inter)
        assert ref.stats["cell_interactions"] == 60 * far.sum()
        assert ref.stats["cell_entries"] == far.sum()
        for blk in (1, 7, 1024):
            assert same_bits(ref, evaluate_with_blocks(tree, moms, inter, blk=blk))


def close(a, b, tol=1e-12):
    return (
        np.abs(a.acc - b.acc).max() <= tol * np.abs(b.acc).max()
        and np.abs(a.pot - b.pot).max() <= tol * np.abs(b.pot).max()
    )


class TestCellFamilyByHand:
    """Inputs small enough to count: two clumps in opposite octants of
    an open box, each a leaf that accepts the other as one multipole."""

    @staticmethod
    def two_clumps(n_a, n_b, nleaf, p=2, at_centre=False, seed=0, width_b=0.05):
        rng = np.random.default_rng(seed)
        a = 0.25 + 0.05 * (rng.random((n_a, 3)) - 0.5)
        b = 0.75 + width_b * (rng.random((n_b, 3)) - 0.5)
        if at_centre:
            b[:] = 0.75
        pos = np.concatenate([a, b])
        mass = rng.random(n_a + n_b) + 0.5
        tree = build_tree(pos, mass, nleaf=nleaf)
        moms = compute_moments(tree, p=p, tol=1e-2)
        inter = traverse_hierarchical(tree, moms)
        # root split once; each leaf took the other as a cell, itself direct
        assert tree.cell_count[inter.sink_leaves].tolist() == [n_a, n_b]
        assert inter.cell_cells.tolist() == inter.sink_leaves.tolist()
        assert inter.cell_src.tolist() == inter.sink_leaves[::-1].tolist()
        assert inter.leaf_src.tolist() == inter.leaf_sink.tolist()
        return tree, moms, inter

    def test_eight_and_eight(self):
        """8 + 8 particles: two accept-level entries, 8 x 1 + 8 x 1
        rows; the far clump's order-2 expansion is its direct sum to
        (clump size / distance)^3."""
        tree, moms, inter = self.two_clumps(8, 8, nleaf=8)
        res = evaluate_forces(tree, moms, inter)
        assert res.stats["cell_entries"] == 2
        assert res.stats["cell_interactions"] == 16 == inter.n_cell_interactions(tree)
        assert res.stats["pp_interactions"] == 2 * 64
        assert res.stats["family_seconds"]["cell"] > 0.0
        assert close(res, oracle_forces(tree, moms, inter))
        pos, mass = tree.pos[tree.order.argsort()], tree.mass[tree.order.argsort()]
        direct = direct_accelerations(pos, mass)
        assert np.abs(res.acc - direct).max() < 2e-3 * np.abs(direct).max()
        for blk in (1, 7):
            assert same_bits(res, evaluate_with_blocks(tree, moms, inter, blk=blk))

    def test_oracle_eight_and_eight(self):
        """The reference kernel itself on the same countable input
        (nothing else checks it): per row one inherited-or-own cell
        entry and one leaf entry, 8 x 1 + 8 x 1 cell terms, 8 x 8 + 8 x 8
        pair terms; the direct sum to (clump size / distance)^3, and
        with the cell family emptied each clump's own direct sum
        exactly."""
        tree, moms, inter = self.two_clumps(8, 8, nleaf=8)
        src, off, indptr = cell_leaf_csr(tree, inter)
        assert indptr.tolist() == [0, 1, 2] and off.tolist() == [0, 0]
        assert src.tolist() == inter.sink_leaves[::-1].tolist()
        ora = oracle_forces(tree, moms, inter)
        assert ora.stats == {"cell_interactions": 16, "pp_interactions": 2 * 64}
        unsort = tree.order.argsort()
        pos, mass = tree.pos[unsort], tree.mass[unsort]
        direct = direct_accelerations(pos, mass)
        assert np.abs(ora.acc - direct).max() < 2e-3 * np.abs(direct).max()
        pairs = oracle_forces(tree, moms, drop_cell_rows(inter, np.ones(2, dtype=bool)))
        assert pairs.stats == {"cell_interactions": 0, "pp_interactions": 2 * 64}
        for clump in (slice(0, 8), slice(8, 16)):
            own = direct_accelerations(pos[clump], mass[clump])
            assert np.abs(pairs.acc[clump] - own).max() < 1e-13 * np.abs(own).max()

    @pytest.mark.parametrize("kind", ["none", "plummer", "spline", "dehnen_k1"])
    def test_oracle_eight_and_eight_softened(self, kind):
        """The reference kernel itself on the same countable input
        (nothing else checks it): per row one inherited-or-own cell
        entry and one leaf entry, 8 x 1 + 8 x 1 cell terms, 8 x 8 + 8 x 8
        pair terms; the direct sum to (clump size / distance)^3, and
        with the cell family emptied each clump's own direct sum
        exactly, under each softening.  With eps = 0.03 the second
        clump (0.015 wide) lies inside every kernel's softening length,
        and the first (0.05 wide) straddles it."""
        kern = make_softening(kind, 0.03)
        tree, moms, inter = self.two_clumps(8, 8, nleaf=8, width_b=0.015)
        src, off, indptr = cell_leaf_csr(tree, inter)
        assert indptr.tolist() == [0, 1, 2] and off.tolist() == [0, 0]
        assert src.tolist() == inter.sink_leaves[::-1].tolist()
        ora = oracle_forces(tree, moms, inter, softening=kern)
        assert ora.stats == {"cell_interactions": 16, "pp_interactions": 2 * 64}
        unsort = tree.order.argsort()
        pos, mass = tree.pos[unsort], tree.mass[unsort]
        direct = direct_accelerations(pos, mass, softening=kern)
        assert np.abs(ora.acc - direct).max() < 2e-3 * np.abs(direct).max()
        pairs = oracle_forces(
            tree, moms, drop_cell_rows(inter, np.ones(2, dtype=bool)), softening=kern
        )
        assert pairs.stats == {"cell_interactions": 0, "pp_interactions": 2 * 64}
        for clump in (slice(0, 8), slice(8, 16)):
            own, own_pot = direct_accelerations(
                pos[clump], mass[clump], softening=kern, want_potential=True
            )
            assert np.abs(pairs.acc[clump] - own).max() < 1e-13 * np.abs(own).max()
            assert np.abs(pairs.pot[clump] - own_pot).max() < 1e-13 * np.abs(own_pot).max()
        # every pair of the second clump is closer than eps <= h
        assert np.linalg.norm(pos[8:, None] - pos[None, 8:], axis=-1).max() < 0.03

    def test_one_leaf_holds_everything(self, monkeypatch):
        """No accept anywhere: the cell family is never entered (no
        coefficient table, no compiled cell loop)."""
        pos, mass = cloud(12)
        tree = build_tree(pos, mass, nleaf=16)
        moms = compute_moments(tree, p=4, tol=1e-3)
        inter = traverse_hierarchical(tree, moms)
        assert len(inter.cell_cells) == len(inter.cell_src) == 0
        assert inter.cell_indptr.tolist() == [0]

        def boom(*args, **kw):
            raise AssertionError("the cell family must not run")

        monkeypatch.setattr(treeforce, "_cells_in_c", boom)
        res = evaluate_forces(tree, moms, inter)
        assert res.stats["cell_entries"] == res.stats["cell_interactions"] == 0
        assert res.stats["family_seconds"]["cell"] == 0.0
        assert res.stats["pp_interactions"] == 144

    def test_coincident_particles_at_the_cell_centre(self):
        """Nine particles on top of each other at the sink cell's
        centre: all nine meet the same rows and read the same force,
        the interpreted kernel's to rounding."""
        tree, moms, inter = self.two_clumps(9, 9, nleaf=16, p=4, at_centre=True)
        twins = slice(9, 18)
        leaf = inter.sink_leaves[1]
        assert np.all(tree.pos[twins] == tree.cell_center[leaf])
        # (unsoftened twins have no finite pp force: cell family alone)
        cell_only = dataclasses.replace(
            inter,
            leaf_sink=inter.leaf_sink[:0], leaf_src=inter.leaf_src[:0],
            leaf_off=inter.leaf_off[:0], leaf_indptr=np.zeros(3, dtype=np.int64),
        )
        ref = oracle_forces(tree, moms, cell_only, particle_range=(0, 18))
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
            far = evaluate_forces(
                tree, moms, cell_only, dtype=dtype, particle_range=(0, 18)
            )
            assert np.all(far.acc[twins] == far.acc[9]) and np.all(far.pot[twins] == far.pot[9])
            assert close(far, ref, tol=tol)

    @pytest.mark.parametrize("n_a, n_b", [(7, 33), (33, 7), (31, 32), (1, 65)])
    def test_cells_of_any_size(self, n_a, n_b):
        """Sink cells of 1 to 65 particles against one entry each: the
        oracle's forces, the same bits at any block size, and each leaf
        as its own shard reproduces the serial slice."""
        tree, moms, inter = self.two_clumps(n_a, n_b, nleaf=max(n_a, n_b), p=4)
        ref = oracle_forces(tree, moms, inter)
        res = evaluate_forces(tree, moms, inter)
        assert res.stats["cell_interactions"] == n_a + n_b
        assert close(res, ref)
        for dtype in (np.float64, np.float32):
            res = evaluate_forces(tree, moms, inter, dtype=dtype)
            for blk in (1, 7):
                assert same_bits(res, evaluate_with_blocks(tree, moms, inter, dtype=dtype, blk=blk))
            # each leaf as its own shard: same bits as the serial slice
            order = tree.order.argsort()
            for k, leaf in enumerate(inter.sink_leaves):
                shard = traverse_hierarchical(tree, moms, sink_leaves=np.array([leaf]))
                s0 = int(tree.cell_start[leaf])
                s1 = s0 + int(tree.cell_count[leaf])
                part = evaluate_forces(
                    tree, moms, shard, dtype=dtype, particle_range=(s0, s1)
                )
                assert part.stats["cell_interactions"] == s1 - s0
                serial = evaluate_forces(
                    tree, moms, inter, dtype=dtype,
                    particle_range=(0, tree.n_particles),
                )
                assert np.array_equal(part.acc, serial.acc[s0:s1])
                assert np.array_equal(part.pot, serial.pot[s0:s1])

    def test_particles_on_box_faces(self):
        """Periodic box, every particle on a face (one coordinate
        exactly 0): image cells at exactly one box length, sink cells
        whose particles all lie on their own boundary."""
        n = 96
        rng = np.random.default_rng(7)
        pos = rng.random((n, 3))
        pos[np.arange(n), rng.integers(0, 3, n)] = 0.0
        mass = np.full(n, 1.0 / n)
        tree = build_tree(pos, mass, nleaf=4, with_ghosts=True)
        moms = compute_moments(tree, p=2, tol=1e-3, background=True, mean_density=1.0)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        assert len(inter.cell_src) and not np.all(tree.is_leaf[inter.cell_cells])
        res = evaluate_forces(tree, moms, inter)
        assert close(res, oracle_forces(tree, moms, inter))
        f32 = evaluate_forces(tree, moms, inter, dtype=np.float32)
        assert np.abs(f32.acc - res.acc).max() < 1e-5 * np.abs(res.acc).max()
        for blk in (1, 1024):
            assert same_bits(
                f32, evaluate_with_blocks(tree, moms, inter, dtype=np.float32, blk=blk)
            )


class TestCellWorkerIdentity:
    """Accepts recorded at interior sink cells under the shard executor:
    a cell that straddles a shard boundary is gathered by every shard
    that owns one of its particles, and each evaluates its own."""

    def test_workers_0_1_2_3_same_bits(self):
        pos, mass = cloud(1200, seed=6, clustered=True)
        # (at this tolerance the root itself records an accept)
        cfg = dict(periodic=True, errtol=1e-2, p=2, dtype=np.float32)
        with TreecodeGravity(TreecodeConfig(**cfg)) as solver:
            serial = solver.compute(pos, mass)
            tree, inter = solver.last_tree, last_lists(solver)
        start, count = tree.cell_start[inter.cell_cells], tree.cell_count[inter.cell_cells]
        assert serial.stats["cell_entries"] == len(inter.cell_src)
        for workers in (1, 2, 3):
            with TreecodeGravity(TreecodeConfig(**cfg, workers=workers)) as solver:
                res = solver.compute(pos, mass)
                shards = solver._executor._make_shards(tree)
            assert np.array_equal(res.acc, serial.acc), workers
            assert np.array_equal(res.pot, serial.pot), workers
            # owned rows only: the counts are the serial ones exactly
            for key in ("cell_interactions", "interactions_by_family", "traversal_interactions"):
                assert res.stats[key] == serial.stats[key], (workers, key)
            assert (res.stats["cell_entries"] > serial.stats["cell_entries"]) == (workers > 1)
            # the root and at least one more interior sink cell straddle
            # every shard boundary
            for _, _, s0, _ in shards[1:]:
                across = inter.cell_cells[(start < s0) & (s0 < start + count)]
                assert len(across) >= 2 and across[0] == 0, (workers, s0)
                assert not np.any(tree.is_leaf[across])
            assert len(shards) == workers


class TestBlockedPairEvaluator:
    """The pp family's compiled loop."""

    def two_leaves(self):
        """Leaves of 2 and 3 particles (two of the three coincide);
        each row lists itself at home and through the +x image."""
        pos = np.array([
            [0.1, 0.1, 0.1], [0.2, 0.3, 0.2],
            [0.7, 0.7, 0.7], [0.7, 0.7, 0.7], [0.8, 0.6, 0.9],
        ])
        mass = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        tree = build_tree(pos, mass, nleaf=3)
        moms = compute_moments(tree, p=2, tol=1e-3)
        walk = traverse_hierarchical(tree, moms)
        sinks = walk.sink_leaves
        assert tree.cell_count[sinks].tolist() == [2, 3]
        none = np.zeros(0, dtype=np.int64)
        inter = dataclasses.replace(
            walk,
            offsets=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            cell_cells=none, cell_src=none, cell_off=none,
            cell_indptr=np.zeros(1, dtype=np.int64),
            leaf_sink=np.repeat(sinks, 2),
            leaf_src=np.repeat(sinks, 2),
            leaf_off=np.array([0, 1, 0, 1]),
            leaf_indptr=np.array([0, 2, 4]),
            ghost_sink=none, ghost_src=none, ghost_off=none,
            ghost_indptr=np.zeros(3, dtype=np.int64),
        )
        return tree, moms, inter, pos, mass

    def test_self_pairs_masked_on_the_home_diagonal_only(self):
        """A particle skips itself at home, meets its own image, and
        meets the distinct particle sitting on top of it."""
        from repro.gravity.smoothing import PlummerSoftening

        tree, moms, inter, pos, mass = self.two_leaves()
        eps = 0.05
        res = evaluate_forces(tree, moms, inter, softening=PlummerSoftening(eps))
        assert res.stats["pp_interactions"] == 2 * 4 + 3 * 6
        acc, pot = np.zeros((5, 3)), np.zeros(5)
        for leaf in ([0, 1], [2, 3, 4]):
            for i in leaf:
                for j in leaf:
                    for shift in (0.0, 1.0):
                        if i == j and shift == 0.0:
                            continue
                        dx = pos[i] - (pos[j] + [shift, 0.0, 0.0])
                        s2 = dx @ dx + eps * eps
                        acc[i] -= mass[j] * dx * s2**-1.5
                        pot[i] += mass[j] * s2**-0.5
        np.testing.assert_allclose(res.acc, acc, rtol=1e-14)
        np.testing.assert_allclose(res.pot, pot, rtol=1e-14)
        # the coincident pair: no force on each other, m / eps of potential
        twin = pot[2] - (pot[3] - mass[2] / eps) - mass[3] / eps
        assert abs(twin) < 1e-12 * pot[2]
        for blk in (1, 2, 7):
            assert same_bits(
                res,
                evaluate_with_blocks(
                    tree, moms, inter, softening=PlummerSoftening(eps), blk=blk
                ),
            )

    def test_gathered_run_spans_blocks(self):
        """Leaves of 3, 4 and 3 particles; each row lists the other two
        leaves at home, then its own leaf through the +x image, then at
        home — a run of 10 + m source particles for a leaf of m, whose
        home self-pairs are its last m, after the first block at ``BLK``
        = 1, 2 and 7.  Pairs inside
        one leaf fall inside the K1 support, pairs across leaves outside
        it."""
        from repro.gravity.smoothing import DehnenK1Softening

        rng = np.random.default_rng(5)
        pos = np.concatenate([
            c + 0.02 * rng.random((k, 3))
            for c, k in (([0.1, 0.1, 0.1], 3), ([0.7, 0.6, 0.7], 4), ([0.4, 0.9, 0.3], 3))
        ])
        mass = rng.random(10) + 0.5
        tree = build_tree(pos, mass, nleaf=4)
        moms = compute_moments(tree, p=2, tol=1e-3)
        walk = traverse_hierarchical(tree, moms)
        sinks = walk.sink_leaves
        assert sorted(tree.cell_count[sinks].tolist()) == [3, 3, 4]
        src = np.concatenate(
            [np.r_[np.delete(sinks, k), leaf, leaf] for k, leaf in enumerate(sinks)]
        )
        none = np.zeros(0, dtype=np.int64)
        inter = dataclasses.replace(
            walk,
            offsets=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            cell_cells=none, cell_src=none, cell_off=none,
            cell_indptr=np.zeros(1, dtype=np.int64),
            leaf_sink=np.repeat(sinks, 4), leaf_src=src,
            leaf_off=np.tile([0, 0, 1, 0], 3), leaf_indptr=np.arange(0, 13, 4),
            ghost_sink=none, ghost_src=none, ghost_off=none,
            ghost_indptr=np.zeros(4, dtype=np.int64),
        )
        soft = DehnenK1Softening(0.05)
        sep = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
        same = np.repeat(np.arange(3), [3, 4, 3])
        inside = same[:, None] == same[None]
        assert sep[inside].max() < soft.h < sep[~inside].min()
        res = evaluate_forces(tree, moms, inter, softening=soft)
        assert res.stats["pp_interactions"] == 3 * 13 + 4 * 14 + 3 * 13
        ref = oracle_forces(tree, moms, inter, softening=soft)
        assert np.abs(res.acc - ref.acc).max() <= 1e-14 * np.abs(ref.acc).max()
        assert np.abs(res.pot - ref.pot).max() <= 1e-14 * np.abs(ref.pot).max()
        for blk in (1, 2, 7):
            assert same_bits(res, evaluate_with_blocks(tree, moms, inter, softening=soft, blk=blk))

    @pytest.mark.parametrize("case", ["one_leaf", "box_faces"])
    def test_float32_pp_matches_interpreted_kernel(self, case):
        """float32 pairwise arithmetic against the term-by-term
        interpreted kernel (float64) on the adversarial inputs: every
        particle in one leaf (all 27 images direct), and every particle
        on a face of the box (image pairs at exactly one box length)."""
        n = 48
        rng = np.random.default_rng(7)
        pos = rng.random((n, 3))
        if case == "box_faces":
            pos[np.arange(n), rng.integers(0, 3, n)] = 0.0
        mass = np.full(n, 1.0 / n)
        tree = build_tree(pos, mass, nleaf=10**4 if case == "one_leaf" else 4)
        moms = compute_moments(tree, p=2, tol=1e-4)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        if case == "one_leaf":
            assert len(inter.sink_leaves) == 1 and len(inter.leaf_src) == 27
        assert len(inter.leaf_src)
        got = evaluate_forces(tree, moms, inter, dtype=np.float32)
        ref = oracle_forces(tree, moms, inter)
        assert got.stats["pp_interactions"] == ref.stats["pp_interactions"] > 0
        assert np.abs(got.acc - ref.acc).max() < 1e-5 * np.abs(ref.acc).max()
        assert np.abs(got.pot - ref.pot).max() < 1e-5 * np.abs(ref.pot).max()
        for blk in (1, 7):
            assert same_bits(
                got, evaluate_with_blocks(tree, moms, inter, dtype=np.float32, blk=blk)
            )

    def test_workers_same_bits_clustered_periodic(self):
        pos, mass = cloud(1200, seed=9, clustered=True)
        results = []
        for workers in (0, 2):
            cfg = TreecodeConfig(periodic=True, errtol=1e-3, p=2, workers=workers)
            with TreecodeGravity(cfg) as solver:
                results.append(solver.compute(pos, mass))
        assert results[0].stats["prism_interactions"] > 0
        assert same_bits(*results)


#: float32 runs against float64 ones on a clustered periodic box, in
#: units of the largest acceleration: positions are differenced in
#: float64, every row after that runs in float32 and each particle's
#: rows are summed in float64 (measured: 1.7e-7 and 1.5e-7)
FLOAT32_TRACKS_FLOAT64 = 1e-6


class TestFloat32PositionDifferences:
    """float32 runs difference float64 positions (ROADMAP item 1(a)): a
    float32 coordinate is 6e-8 absolute in a unit box, 1e-3 of the
    separations inside a clump core."""

    @staticmethod
    def clumps(n=729, seed=1, overdensity=200.0):
        """Three Plummer clumps holding 70 % of the mass over a uniform floor."""
        rng = np.random.default_rng(seed)
        m = int(0.7 * n) // 3
        scale = (3.0 * (m / n) / (4.0 * np.pi * overdensity)) ** (1.0 / 3.0)
        parts = [rng.uniform(0.0, 1.0, (n - 3 * m, 3))]
        for centre in rng.uniform(0.2, 0.8, (3, 3)):
            r = scale / np.sqrt(rng.uniform(0.0, 0.99, m) ** (-2.0 / 3.0) - 1.0)
            v = rng.standard_normal((m, 3))
            parts.append(centre + r[:, None] * v / np.linalg.norm(v, axis=1)[:, None])
        return np.mod(np.concatenate(parts), 1.0), np.full(n, 1.0 / n)

    @pytest.mark.parametrize(
        "traversal, nleaf", [("hierarchical", 16), ("fmm-hybrid", 8)]
    )
    def test_clustered_float32_tracks_float64(self, traversal, nleaf):
        """The default production settings on a clustered periodic box:
        rounding positions before subtracting them read 0.8-3.6e-5 here."""
        pos, mass = self.clumps()
        acc = {}
        for dtype in (np.float32, np.float64):
            cfg = TreecodeConfig(
                periodic=True, errtol=1e-5, traversal=traversal, nleaf=nleaf,
                eps=0.05 / 9, dtype=dtype,
            )
            with TreecodeGravity(cfg) as solver:
                res = solver.compute(pos, mass)
            assert res.stats["pp_interactions"] > 10**6
            acc[dtype] = res.acc.astype(np.float64)
        diff = np.abs(acc[np.float32] - acc[np.float64]).max()
        assert diff <= FLOAT32_TRACKS_FLOAT64 * np.abs(acc[np.float64]).max()

    def test_two_particles_1e5_apart(self):
        """Separation 1e-5 at coordinates ~ 0.7: the float32 pp force
        matches the float64 one to 1e-6 (float32 positions alone put
        the difference off by 3.8e-3)."""
        pos = np.array([[0.7, 0.7, 0.7], [0.7 + 6e-6, 0.7 - 7e-6, 0.7 + 3.7e-6]])
        assert abs(np.linalg.norm(pos[1] - pos[0]) - 1e-5) < 1e-7
        rounded = pos.astype(np.float32).astype(np.float64)
        assert np.abs((rounded[1] - rounded[0]) / (pos[1] - pos[0]) - 1).max() > 3e-3
        tree = build_tree(pos, np.array([1.0, 2.0]), nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-3)
        inter = traverse_hierarchical(tree, moms)
        res = {
            dtype: evaluate_forces(tree, moms, inter, dtype=dtype)
            for dtype in (np.float32, np.float64)
        }
        assert res[np.float64].stats["pp_interactions"] == 4
        assert res[np.float64].stats["cell_interactions"] == 0
        for field in ("acc", "pot"):
            a32 = getattr(res[np.float32], field).astype(np.float64)
            a64 = getattr(res[np.float64], field)
            assert np.abs(a32 - a64).max() <= 1e-6 * np.abs(a64).max()


class TestWorkingPrecision:
    """After the float64 difference every cell and pp row runs in
    ``dtype``; the cell family measures lengths in a power-of-two unit
    per tree level, which keeps the radial chain inside float32's range
    and changes no bit."""

    @staticmethod
    def deep_clump(sigma=1e-4, n=3000, seed=5):
        """Half the particles in a Gaussian clump of width ``sigma``."""
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, 1.0, (n, 3))
        pos[: n // 2] = np.mod(0.5 + sigma * rng.standard_normal((n // 2, 3)), 1.0)
        return pos, np.full(n, 1.0 / n)

    @pytest.mark.parametrize("traversal", ["hierarchical", "fmm-hybrid"])
    def test_deep_clump_float32_is_finite(self, traversal):
        """A cell accept 1e-4 box lengths away: g_5 = 945 r^-11 is 1e47
        in box units, past float32's 3.4e38 (non-finite forces before
        the per-level unit); the hybrid walk's float64 M2L never was."""
        pos, mass = self.deep_clump()
        acc = {}
        for dtype in (np.float64, np.float32):
            cfg = TreecodeConfig(
                periodic=True, dtype=dtype, eps=2e-6, traversal=traversal
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with TreecodeGravity(cfg) as solver:
                    res = solver.compute(pos, mass)
                    assert solver.last_tree.max_level >= 15
            assert np.isfinite(res.acc).all() and np.isfinite(res.pot).all()
            acc[dtype] = res.acc.astype(np.float64)
        err = np.linalg.norm(acc[np.float32] - acc[np.float64], axis=1)
        assert np.all(err <= 1e-5 * np.linalg.norm(acc[np.float64], axis=1))

    def test_deep_clump_workers_same_bits(self):
        """The unit is a function of the sink cell's level alone: shards
        agree on it 15 levels down as they do at the root."""
        pos, mass = self.deep_clump()
        cfg = dict(periodic=True, dtype=np.float32, eps=2e-6)
        with TreecodeGravity(TreecodeConfig(**cfg)) as solver:
            serial = solver.compute(pos, mass)
        with TreecodeGravity(TreecodeConfig(**cfg, workers=2)) as solver:
            sharded = solver.compute(pos, mass)
        assert same_bits(serial, sharded)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("clustered", [False, True])
    def test_length_unit_changes_no_bit(self, dtype, clustered):
        """The unit is read off ``tree.box`` and the sink level; without
        a background nothing else in the evaluator reads the box.  Eight
        times larger or smaller, every intermediate moves by a power of
        two and the outputs not at all."""
        tree, moms = setup(n=1200, clustered=clustered, tol=1e-5)
        inter = traverse_hierarchical(tree, moms)
        ref = evaluate_forces(tree, moms, inter, dtype=dtype)
        assert ref.stats["cell_interactions"] > 10**5
        for factor in (0.125, 8.0):
            other = dataclasses.replace(tree, box=tree.box * factor)
            got = evaluate_forces(other, moms, inter, dtype=dtype)
            assert same_bits(ref, got), factor

    def test_segment_sum_is_float64_over_contiguous_rows(self):
        """(outputs, rows) in the working precision in, (outputs,
        segments) float64 out; a segment's sum depends on its own rows
        only, not on where the block boundaries put it."""
        rng = np.random.default_rng(3)
        contrib = (rng.standard_normal((4, 5000)) * 10.0 ** rng.uniform(-6, 6, 5000)).astype(
            np.float32
        )
        starts = np.unique(np.concatenate(([0], rng.integers(1, 5000, 300))))
        got = treeforce.segment_sum(contrib, starts)
        assert got.dtype == np.float64 and got.shape == (4, len(starts))
        ends = np.append(starts[1:], 5000)
        for j in (0, 17, len(starts) - 1):
            a, b = starts[j], ends[j]
            alone = treeforce.segment_sum(np.ascontiguousarray(contrib[:, a:b]), np.array([0]))
            assert np.array_equal(got[:, j], alone[:, 0])
            exact = np.array([math.fsum(row) for row in contrib[:, a:b].astype(np.float64)])
            assert np.abs(got[:, j] - exact).max() <= 1e-13 * np.abs(contrib[:, a:b]).sum()


# ----- the analytic background: cubes merged into boxes -----------------------


def boxes(*corners):
    """``(lo, hi)`` as (3, n) int64 arrays from ``((x0, y0, z0), (x1, y1, z1))`` pairs."""
    arr = np.array(corners, dtype=np.int64).reshape(-1, 2, 3)
    return arr[:, 0].T.copy(), arr[:, 1].T.copy()


def cubes(side, *origins):
    return boxes(*[(o, tuple(c + side for c in o)) for o in origins])


def compiled_coalesce(row, lo, hi, n_rows, image=(0, 0, 0)):
    """The compiled ``merge_boxes`` on integer boxes: box i is cell i,
    placed at ``[lo[:, i], hi[:, i])`` through the one periodic image
    ``image`` (the cell's own corners are the box's less the image), in
    row ``row[i]``; a row's first, third, ... box is a ghost entry, the
    others direct-pair entries.  Returns the integer ``(box_lo, box_hi,
    box_indptr)`` of the merged boxes, as :func:`oracle_coalesce_boxes`."""
    row = np.asarray(row, dtype=np.int64)
    order = np.argsort(row, kind="stable")
    rank = np.arange(len(row)) - np.searchsorted(row[order], row[order])
    ghost = rank % 2 == 0
    families = {}
    for name, pick in (("ghost", order[ghost]), ("leaf", order[~ghost])):
        ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(row[pick], minlength=n_rows), out=ptr[1:])
        families.update({f"{name}_indptr": ptr, f"{name}_src": pick,
                         f"{name}_off": np.zeros(len(pick), dtype=np.int64)})
    image = np.array([image], dtype=np.int64)
    n = len(row)
    box_lo, box_hi = np.empty((3, n)), np.empty((3, n))
    box_indptr = np.empty(n_rows + 1, dtype=np.int64)
    native.upward().merge_boxes(
        n_rows=n_rows, **families, cell_lo=lo.T - image, cell_hi=hi.T - image, image=image,
        h=1.0, stride=n, box_lo=box_lo, box_hi=box_hi, indptr=box_indptr,
    )
    m = box_indptr[-1]
    return box_lo[:, :m].astype(np.int64), box_hi[:, :m].astype(np.int64), box_indptr


def both_merges(row, lo, hi, n_rows):
    """The oracle's merge, after checking that the compiled one, seen
    through two images, returns the same boxes in the same order."""
    want = oracle_coalesce_boxes(row, lo, hi, n_rows)
    for image in ((0, 0, 0), (-8, 16, 3)):
        got = compiled_coalesce(row, lo, hi, n_rows, image)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), image
    return want


def merged(row, lo, hi, n_rows=None):
    """Run the merge; returns a sorted list of (row, lo, hi) tuples and the indptr."""
    row = np.asarray(row, dtype=np.int64)
    n_rows = n_rows if n_rows is not None else int(row.max()) + 1
    blo, bhi, indptr = both_merges(row, lo, hi, n_rows)
    assert blo.shape == bhi.shape and blo.shape[0] == 3
    assert len(indptr) == n_rows + 1 and indptr[0] == 0 and indptr[-1] == blo.shape[1]
    out = []
    for r in range(n_rows):
        for e in range(indptr[r], indptr[r + 1]):
            out.append((r, tuple(blo[:, e].tolist()), tuple(bhi[:, e].tolist())))
    return sorted(out), indptr


class TestCoalesceByHand:
    """The merge on its own, integer boxes small enough to count; every
    case runs through the oracle's merge and the compiled one."""

    def test_block_of_27_is_one_box(self):
        lo, hi = cubes(1, *[(x, y, z) for x in range(3) for y in range(3) for z in range(3)])
        got, _ = merged(np.zeros(27), lo, hi)
        assert got == [(0, (0, 0, 0), (3, 3, 3))]

    def test_l_shape_is_two(self):
        lo, hi = cubes(1, (0, 0, 0), (1, 0, 0), (0, 1, 0))
        got, _ = merged(np.zeros(3), lo, hi)
        assert got == [(0, (0, 0, 0), (2, 1, 1)), (0, (0, 1, 0), (1, 2, 1))]

    def test_sibling_octet_and_the_parents_neighbour(self):
        """Eight siblings (side 1) and the same-size neighbour of their
        parent (side 2): 2 x 1 x 1 parents.  One x-y-z sweep fuses the
        octet bar by bar, slab by slab, and meets the neighbour in the
        last (z) sweep; a neighbour along x was passed before the octet
        had become a cube, and stays a second box."""
        octet = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        lo, hi = (np.concatenate(part, axis=1) for part in zip(cubes(1, *octet), cubes(2, (0, 0, 2))))
        got, _ = merged(np.zeros(9), lo, hi)
        assert got == [(0, (0, 0, 0), (2, 2, 4))]
        lo, hi = (np.concatenate(part, axis=1) for part in zip(cubes(1, *octet), cubes(2, (2, 0, 0))))
        got, _ = merged(np.zeros(9), lo, hi)
        assert got == [(0, (0, 0, 0), (2, 2, 2)), (0, (2, 0, 0), (4, 2, 2))]

    def test_adjacent_through_the_periodic_image(self):
        """x in [7/8, 1) at home and [0, 1/8) of the +x image, in eighths."""
        lo, hi = cubes(1, (7, 3, 3), (0 + 8, 3, 3))
        got, _ = merged(np.zeros(2), lo, hi)
        assert got == [(0, (7, 3, 3), (9, 4, 4))]
        # ... and through the -x image, where coordinates are negative
        lo, hi = cubes(1, (0, 3, 3), (7 - 8, 3, 3))
        got, _ = merged(np.zeros(2), lo, hi)
        assert got == [(0, (-1, 3, 3), (1, 4, 4))]

    def test_rows_never_merge_with_each_other(self):
        lo, hi = cubes(1, (0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0))
        got, indptr = merged([0, 0, 1, 1, 2], lo, hi)
        assert got == [
            (0, (0, 0, 0), (2, 1, 1)),
            (1, (0, 0, 0), (2, 1, 1)),
            (2, (2, 0, 0), (3, 1, 1)),
        ]
        assert indptr.tolist() == [0, 1, 2, 3]
        # the order the boxes came in does not matter
        shuffled = np.array([4, 2, 0, 3, 1])
        again, _ = merged(np.array([0, 0, 1, 1, 2])[shuffled], lo[:, shuffled], hi[:, shuffled])
        assert again == got

    def test_edges_and_corners_do_not_merge(self):
        lo, hi = cubes(1, (0, 0, 0), (1, 1, 0), (2, 2, 1))
        got, _ = merged(np.zeros(3), lo, hi)
        assert len(got) == 3
        # equal lo along the axis, cross-sections that only overlap: no merge
        lo, hi = boxes(((0, 0, 0), (1, 2, 1)), ((1, 0, 0), (2, 1, 1)))
        got, _ = merged(np.zeros(2), lo, hi)
        assert len(got) == 2

    def test_empty_rows(self):
        lo, hi = cubes(1, (0, 0, 0), (1, 0, 0))
        got, indptr = merged([1, 1], lo, hi, n_rows=4)
        assert got == [(1, (0, 0, 0), (2, 1, 1))]
        assert indptr.tolist() == [0, 0, 1, 1, 1]
        none = np.zeros((3, 0), dtype=np.int64)
        blo, bhi, indptr = both_merges(np.zeros(0, dtype=np.int64), none, none, 3)
        assert blo.shape == bhi.shape == (3, 0) and indptr.tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("scale_bits, n_rows", [(0, 2), (12, 1024), (22, 1024)])
    def test_key_of_one_two_and_three_words(self, scale_bits, n_rows):
        """The same boxes on a grid 2^12 and 2^22 times finer, among
        1024 rows: five fields of 3, 15 and 25 bits plus the row make a
        sort key of one, two and three int64 words; the merge does not
        change."""
        rng = np.random.default_rng(3)
        origins = [tuple(o) for o in np.argwhere(rng.random((5, 5, 5)) < 0.6) - 2]
        lo, hi = cubes(1, *origins)
        row = rng.integers(0, 2, len(origins))
        want, _ = merged(row, lo, hi, n_rows=2)
        assert len(want) < len(origins)
        top = n_rows - 2
        blo, bhi, indptr = both_merges(row + top, lo << scale_bits, hi << scale_bits, n_rows)
        assert indptr[top] == 0 and indptr[-1] == len(want)
        got = sorted(
            (int(e >= indptr[top + 1]), tuple((blo[:, e] >> scale_bits).tolist()),
             tuple((bhi[:, e] >> scale_bits).tolist()))
            for e in range(blo.shape[1])
        )
        assert got == want
        assert np.all(blo % (1 << scale_bits) == 0)


def evaluator_boxes(tree, inter):
    """The evaluator's merged boxes (:func:`_merged_boxes`), cut to the
    columns the compiled merge wrote."""
    lo, hi, indptr = _merged_boxes(tree, inter)
    assert lo.shape == hi.shape == (3, len(inter.ghost_src) + len(inter.leaf_src))
    return lo[:, : indptr[-1]], hi[:, : indptr[-1]], indptr


def integer_cubes(tree, inter):
    """(row, lo, hi, unit level) of every ghost and direct-pair cube,
    from the float geometry (box = 1: every quotient is exact)."""
    n_rows = len(inter.sink_leaves)
    row = np.concatenate([
        np.repeat(np.arange(n_rows), np.diff(ip))
        for ip in (inter.ghost_indptr, inter.leaf_indptr)
    ])
    src = np.concatenate((inter.ghost_src, inter.leaf_src))
    off = np.concatenate((inter.ghost_off, inter.leaf_off))
    unit = int(tree.cell_level[src].max())
    ctr = tree.cell_center[src] + inter.offsets[off]
    half = 0.5 * tree.cell_side[src][:, None]
    lo, hi = (ctr - half) * 2.0**unit, (ctr + half) * 2.0**unit
    assert np.array_equal(lo, np.rint(lo)) and np.array_equal(hi, np.rint(hi))
    return row, lo.T.astype(np.int64), hi.T.astype(np.int64), unit


def assert_merged_matches_per_cube(tree, moms, inter, tol=1e-12, **kw):
    """float64: evaluator (merged boxes) == evaluator without the
    background pass + the per-cube reference, to ``tol`` of the field."""
    full = evaluate_forces(tree, moms, inter, **kw)
    bare = evaluate_forces(
        tree, dataclasses.replace(moms, background=False), inter, **kw
    )
    assert bare.stats["prism_interactions"] == bare.stats["prism_cubes"] == 0
    acc, pot, pairs = per_cube_background(tree, moms, inter)
    assert full.stats["prism_cubes"] == pairs
    assert full.stats["prism_interactions"] <= pairs
    assert set(full.stats["prism_seconds"]) == {"coalesce", "rows"}
    for got, base, ref in (
        (full.acc[tree.order], bare.acc[tree.order], acc),
        (full.pot[tree.order], bare.pot[tree.order], pot),
    ):
        assert np.abs(got - (base + ref)).max() <= tol * np.abs(got).max()
        # and against the background term alone
        assert np.abs((got - base) - ref).max() <= 1e3 * tol * np.abs(ref).max()
    return full


class TestCoalesceInvariants:
    """Merged boxes against the cubes they stand for, on real lists."""

    @staticmethod
    def assert_same_region(row, lo, hi, n_rows, blo, bhi, indptr):
        """Per row: equal integer volume, boxes pairwise disjoint and
        inside the cubes' union (so the two regions are the same)."""
        brow = np.repeat(np.arange(n_rows), np.diff(indptr))
        vol = np.zeros(n_rows, dtype=np.int64)
        np.add.at(vol, row, np.prod(hi - lo, axis=0))
        bvol = np.zeros(n_rows, dtype=np.int64)
        np.add.at(bvol, brow, np.prod(bhi - blo, axis=0))
        assert np.array_equal(vol, bvol)
        # the cubes grouped by row, in their order within a row
        order = np.argsort(row, kind="stable")
        cube_ptr = np.searchsorted(row[order], np.arange(n_rows + 1))
        for r in range(n_rows):
            a, b = blo[:, indptr[r] : indptr[r + 1]], bhi[:, indptr[r] : indptr[r + 1]]
            overlap = np.all(
                (a[:, :, None] < b[:, None, :]) & (a[:, None, :] < b[:, :, None]), axis=0
            )
            assert np.array_equal(overlap, np.eye(a.shape[1], dtype=bool))
            # every cube lies in exactly one box of its row
            mine = order[cube_ptr[r] : cube_ptr[r + 1]]
            c, d = lo[:, mine], hi[:, mine]
            inside = np.all(
                (a[:, :, None] <= c[:, None, :]) & (d[:, None, :] <= b[:, :, None]), axis=0
            )
            assert np.all(inside.sum(axis=0) == 1)

    @given(
        n=st.integers(min_value=9, max_value=120),
        nleaf=st.sampled_from([1, 2, 8, 200]),
        clustered=st.booleans(),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_same_region_same_field(self, n, nleaf, clustered, seed):
        tree, moms = setup(
            n=n, seed=seed, background=True, clustered=clustered, nleaf=nleaf, tol=1e-3
        )
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        row, lo, hi, unit = integer_cubes(tree, inter)
        n_rows = len(inter.sink_leaves)
        blo, bhi, indptr = oracle_coalesce_boxes(row, lo, hi, n_rows)
        self.assert_same_region(row, lo, hi, n_rows, blo, bhi, indptr)
        # the evaluator's boxes are these, in box units
        flo, fhi, findptr = evaluator_boxes(tree, inter)
        assert np.array_equal(findptr, indptr)
        assert np.array_equal(flo, blo * 0.5**unit) and np.array_equal(fhi, bhi * 0.5**unit)
        full = assert_merged_matches_per_cube(tree, moms, inter)
        leaf_np = tree.cell_count[inter.sink_leaves]
        assert full.stats["prism_interactions"] == int((leaf_np * np.diff(indptr)).sum())
        no_pot = evaluate_forces(tree, moms, inter, want_potential=False)
        assert no_pot.pot is None and np.array_equal(no_pot.acc, full.acc)

    def test_periodic_clustered_input(self):
        """Ghosts, mixed levels and every image: fewer rows, same field;
        some box reaches across a face of the periodic box."""
        tree, moms = setup(n=700, seed=4, background=True, clustered=True)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        assert len(inter.ghost_src) and np.ptp(tree.cell_level[inter.leaf_src]) >= 2
        full = assert_merged_matches_per_cube(tree, moms, inter)
        assert 2 * full.stats["prism_interactions"] < full.stats["prism_cubes"]
        flo, fhi, _ = evaluator_boxes(tree, inter)
        assert np.any((flo < 0.0) & (fhi > 0.0)) and np.any((flo < 1.0) & (fhi > 1.0))

    def test_open_box_has_no_background(self):
        tree, moms = setup(n=300)
        inter = traverse_hierarchical(tree, moms)
        res = evaluate_forces(tree, moms, inter)
        assert res.stats["prism_interactions"] == res.stats["prism_cubes"] == 0
        assert res.stats["prism_seconds"] == {"coalesce": 0.0, "rows": 0.0}

    @pytest.mark.parametrize("n, seed, nleaf", [(700, 4, 2), (400, 2, 1)])
    def test_same_boxes_whatever_the_key_words(self, n, seed, nleaf):
        """The oracle's merge packs its key into one int64 word
        (``argsort``) or two (``lexsort``): a larger ``n_rows`` widens the
        row field past 63 bits on the same boxes, and the merged boxes and
        their order do not change."""
        tree, moms = setup(n=n, seed=seed, background=True, clustered=True, nleaf=nleaf)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        row, lo, hi, _ = integer_cubes(tree, inter)
        n_rows = len(inter.sink_leaves)
        width = int((hi - lo.min()).max()).bit_length()
        # the row field, then five corner fields of ``width`` bits
        assert n_rows.bit_length() + 5 * width <= 63
        wide = 1 << (63 - 5 * width)
        assert n_rows < wide <= 1 << 20
        runs = []
        for rows in (n_rows, wide):
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort, \
                    mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
                runs.append(oracle_coalesce_boxes(row, lo, hi, rows))
            calls = (argsort.call_count, lexsort.call_count)
            assert calls == ((3, 0) if rows == n_rows else (0, 3))
        (blo, bhi, indptr), (wlo, whi, windptr) = runs
        self.assert_same_region(row, lo, hi, n_rows, blo, bhi, indptr)
        assert np.array_equal(blo, wlo) and np.array_equal(bhi, whi)
        assert np.array_equal(windptr[: n_rows + 1], indptr)
        assert np.all(windptr[n_rows:] == indptr[-1])

    def test_depth_21_tree(self):
        """Two particles 1e-6 apart split down to the key depth: cubes
        from level 1 to level 20 in one row, corners up to 3 x 2^20 on
        the finest grid, a three-word sort key — nothing overflows."""
        pos = np.array([[0.3, 0.3, 0.3], [0.3 + 1e-6, 0.3, 0.3], [0.8, 0.1, 0.6]])
        mass = np.full(3, 1.0 / 3)
        tree = build_tree(pos, mass, nleaf=1, with_ghosts=True)
        assert tree.max_level >= 20
        moms = compute_moments(tree, p=2, tol=1e-3, background=True, mean_density=1.0)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        row, lo, hi, unit = integer_cubes(tree, inter)
        assert unit == tree.max_level and hi.max() - lo.min() > 2**21
        n_rows = len(inter.sink_leaves)
        blo, bhi, indptr = oracle_coalesce_boxes(row, lo, hi, n_rows)
        self.assert_same_region(row, lo, hi, n_rows, blo, bhi, indptr)
        assert blo.shape[1] < len(row)
        flo, fhi, _ = evaluator_boxes(tree, inter)
        assert np.array_equal(flo, blo * 0.5**unit) and np.array_equal(fhi, bhi * 0.5**unit)
        # (softened: the bare pair force at 1e-6 is 3e11 and would hide
        # the background term)
        from repro.gravity.smoothing import PlummerSoftening

        assert_merged_matches_per_cube(tree, moms, inter, softening=PlummerSoftening(0.05))


class TestPrismWorkerIdentity:
    """Merging is a pure function of the sink leaf's own list: shards
    build the same boxes in the same order."""

    def test_workers_0_1_2_3_same_bits_and_counts(self):
        pos, mass = cloud(1200, seed=9, clustered=True)
        cfg = dict(periodic=True, errtol=1e-3, p=2)
        with TreecodeGravity(TreecodeConfig(**cfg)) as solver:
            serial = solver.compute(pos, mass)
            inter = last_lists(solver)
        assert len(inter.ghost_src) and len(inter.leaf_src)
        assert 0 < serial.stats["prism_interactions"] < serial.stats["prism_cubes"]
        for workers in (1, 2, 3):
            with TreecodeGravity(TreecodeConfig(**cfg, workers=workers)) as solver:
                res = solver.compute(pos, mass)
            assert same_bits(res, serial), workers
            for key in ("prism_interactions", "prism_cubes"):
                assert res.stats[key] == serial.stats[key], (workers, key)
                assert res.stats["kernel"][key] == serial.stats[key], (workers, key)
            assert set(res.stats["prism_seconds"]) == {"coalesce", "rows"}
            # the kernel record is derived from the merged counts: its tile
            # shape does not depend on the worker count.  Times differ, and
            # the translations of a straddling sink cell count per shard
            kern, ref = res.stats["kernel"], serial.stats["kernel"]
            assert set(kern) == set(ref)
            for key in set(ref) - {"seconds", "interactions_per_s", "gflops",
                                   "model_fraction", "cell_entries", "flops"}:
                assert kern[key] == ref[key], (workers, key)

    def test_shard_boxes_are_the_serial_rows(self):
        """A restricted walk's rows carry the boxes of the same rows of
        the full walk: corners, order and count."""
        tree, moms = setup(n=900, seed=2, background=True, clustered=True)
        full = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        flo, fhi, findptr = evaluator_boxes(tree, full)
        rows = np.arange(len(full.sink_leaves))[5::3]
        part = traverse_hierarchical(
            tree, moms, periodic=True, ws=1, sink_leaves=full.sink_leaves[rows]
        )
        plo, phi, pindptr = evaluator_boxes(tree, part)
        assert np.array_equal(np.diff(pindptr), np.diff(findptr)[rows])
        pick = expand_ranges(findptr[rows], np.diff(findptr)[rows])
        assert np.array_equal(plo, flo[:, pick]) and np.array_equal(phi, fhi[:, pick])


class TestCompiledMerge:
    """The compiled ``merge_boxes`` (:func:`_merged_boxes`) against the
    numpy merge of ``tests/oracle.py``: on every tree
    ``TestCoalesceInvariants`` and ``TestPrismWorkerIdentity`` build, the
    evaluator's boxes, their order and ``box_indptr`` are the oracle's,
    bit for bit (``TestCoalesceByHand`` runs its cases through both)."""

    @staticmethod
    def check(tree, inter):
        got = evaluator_boxes(tree, inter)
        want = oracle_background_boxes(tree, inter)
        for g, w, name in zip(got, want, ("box_lo", "box_hi", "box_indptr")):
            assert g.dtype == w.dtype and np.array_equal(g, w), name
        return got

    @given(
        n=st.integers(min_value=9, max_value=120),
        nleaf=st.sampled_from([1, 2, 8, 200]),
        clustered=st.booleans(),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_trees(self, n, nleaf, clustered, seed):
        tree, moms = setup(
            n=n, seed=seed, background=True, clustered=clustered, nleaf=nleaf, tol=1e-3
        )
        self.check(tree, traverse_hierarchical(tree, moms, periodic=True, ws=1))

    @pytest.mark.parametrize("n, seed, nleaf", [(700, 4, 8), (700, 4, 2), (400, 2, 1)])
    def test_periodic_clustered_inputs(self, n, seed, nleaf):
        tree, moms = setup(n=n, seed=seed, background=True, clustered=True, nleaf=nleaf)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        assert len(inter.ghost_src)
        _, _, indptr = self.check(tree, inter)
        assert indptr[-1] < len(inter.ghost_src) + len(inter.leaf_src)

    def test_shard_restricted_lists(self):
        """The rows of a restricted walk, every third row and each piece
        of a 3-way SFC cut."""
        tree, moms = setup(n=900, seed=2, background=True, clustered=True)
        full = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        self.check(tree, full)
        pieces = [full.sink_leaves[5::3], *sfc_shards(tree, 3)]
        for sinks in pieces:
            self.check(tree, traverse_hierarchical(tree, moms, periodic=True, ws=1,
                                                   sink_leaves=sinks))

    def test_solver_lists(self):
        pos, mass = cloud(1200, seed=9, clustered=True)
        with TreecodeGravity(TreecodeConfig(periodic=True, errtol=1e-3, p=2)) as solver:
            solver.compute(pos, mass)
            tree, inter = solver.last_tree, last_lists(solver)
        assert len(inter.ghost_src) and len(inter.leaf_src)
        self.check(tree, inter)

    def test_depth_21_tree_needs_the_wide_key(self):
        """Cubes from level 1 to level 20 in one row: five corners of 22
        bits do not pack into a 64-bit key, and the general sort gives
        the same boxes in the same order."""
        pos = np.array([[0.3, 0.3, 0.3], [0.3 + 1e-6, 0.3, 0.3], [0.8, 0.1, 0.6]])
        tree = build_tree(pos, np.full(3, 1.0 / 3), nleaf=1, with_ghosts=True)
        moms = compute_moments(tree, p=2, tol=1e-3, background=True, mean_density=1.0)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        row, lo, hi, _ = integer_cubes(tree, inter)
        widest = max(
            5 * int((hi[:, row == r].max(axis=1) - lo[:, row == r].min(axis=1)).max()).bit_length()
            + int((row == r).sum() - 1).bit_length()
            for r in np.unique(row)
        )
        assert widest > 64
        self.check(tree, inter)

    def test_scratch_kept_across_calls_and_threads(self):
        """The per-thread scratch grows to a large row, serves a small one
        after it, and three threads merging at once do not share it."""
        small = setup(n=120, seed=1, background=True, clustered=True, nleaf=2)
        large = setup(n=900, seed=2, background=True, clustered=True)
        lists = [(tree, traverse_hierarchical(tree, moms, periodic=True, ws=1))
                 for tree, moms in (large, small, large)]
        for tree, inter in lists:
            self.check(tree, inter)
        errors = []

        def merge_all():
            try:
                for tree, inter in lists * 3:
                    self.check(tree, inter)
            except AssertionError as exc:  # (re-raised below)
                errors.append(exc)

        threads = [threading.Thread(target=merge_all) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and not errors


def compiled_prism(points, lo, hi, rho, blk=None, want_potential=True):
    """The compiled ``prism_field`` on one row: every point of ``points``
    against the boxes ``[lo[i], hi[i]]`` (shape (n_boxes, 3)), summed in
    box order.  Returns (acc, pot); pot is None without the potential."""
    lib = native.evaluator(2, np.float64) if blk is None else unit_with_block(2, "float64", blk)
    n, n_boxes = len(points), len(lo)
    acc = np.zeros((n, 3))
    pot = np.zeros(n) if want_potential else None
    lib.prism_field(
        pos=points, cell_start=[0], cell_count=[n], n_rows=1, sink_leaves=[0],
        box_lo=np.transpose(lo), box_hi=np.transpose(hi), n_boxes=n_boxes, indptr=[0, n_boxes],
        rho=rho, want_pot=want_potential, s0=0, acc=acc, pot=pot,
    )
    return acc, pot


class TestCompiledPrism:
    """The generated ``prism_field``: the arithmetic of
    :func:`prism_acceleration` in float64, every box through the same
    vector ``log`` and ``atan`` whichever block and lane it lands in."""

    LO, HI = np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.45, 0.9])

    def points_on_the_box(self):
        """Inside, outside, and exactly on faces, edges and corners,
        where a corner's r, a log's argument or an atan's denominator is
        0 and the guards decide."""
        rng = np.random.default_rng(4)
        lo, hi = self.LO, self.HI
        inside = lo + (hi - lo) * rng.random((20, 3))
        outside = lo + (hi - lo) * (3.0 * rng.random((20, 3)) - 1.0)
        on = []
        for n_fixed in (1, 2, 3):  # faces, edges, corners
            for _ in range(12):
                q = lo + (hi - lo) * rng.random(3)
                axes = rng.choice(3, n_fixed, replace=False)
                q[axes] = np.where(rng.random(n_fixed) < 0.5, lo[axes], hi[axes])
                on.append(q)
        return np.vstack([inside, outside, np.array(on)])

    def test_one_box_matches_the_numpy_reference(self):
        pts = self.points_on_the_box()
        acc, pot = compiled_prism(pts, self.LO[None], self.HI[None], 1.7)
        ref_acc, ref_pot = prism_acceleration(pts, self.LO, self.HI, 1.7, want_potential=True)
        assert np.all(np.isfinite(acc)) and np.all(np.isfinite(pot))
        assert np.abs(acc - ref_acc).max() <= 1e-12 * np.abs(ref_acc).max()
        assert np.abs(pot - ref_pot).max() <= 1e-12 * np.abs(ref_pot).max()
        bare, none = compiled_prism(pts, self.LO[None], self.HI[None], 1.7, want_potential=False)
        assert none is None and np.array_equal(bare, acc)

    def test_any_block_size_same_bits(self):
        """Eleven boxes: blocks of 1, 2, 7 and 300 leave 3, 2, 1 and 1
        padded lanes; a box's terms and the order of the sum never
        change."""
        rng = np.random.default_rng(5)
        lo = rng.random((11, 3))
        hi = lo + 0.05 + 0.3 * rng.random((11, 3))
        pts = np.vstack([self.points_on_the_box(), lo[:4], hi[4:8]])
        acc, pot = compiled_prism(pts, lo, hi, -0.9)
        ref_acc, ref_pot = np.zeros_like(acc), np.zeros_like(pot)
        for b in range(len(lo)):
            a, u = prism_acceleration(pts, lo[b], hi[b], -0.9, want_potential=True)
            ref_acc += a
            ref_pot += u
        assert np.abs(acc - ref_acc).max() <= 1e-12 * np.abs(ref_acc).max()
        assert np.abs(pot - ref_pot).max() <= 1e-12 * np.abs(ref_pot).max()
        for blk in (1, 2, 7, 300):
            got_acc, got_pot = compiled_prism(pts, lo, hi, -0.9, blk=blk)
            assert np.array_equal(got_acc, acc) and np.array_equal(got_pot, pot), blk

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_evaluator_matches_the_per_cube_oracle(self, dtype):
        """The background term of a solve in either working precision is
        the float64 per-cube reference: the prism runs in float64 in
        every unit (compared on the key-sorted float64 sums, before the
        rounding on store; measured 1.2e-14 of the field, the merged
        boxes against the cubes they stand for)."""
        tree, moms = setup(n=700, seed=3, background=True, clustered=True)
        inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        kw = dict(dtype=dtype, particle_range=(0, tree.n_particles))
        full = evaluate_forces(tree, moms, inter, **kw)
        bare = evaluate_forces(tree, dataclasses.replace(moms, background=False), inter, **kw)
        acc, pot, pairs = per_cube_background(tree, moms, inter)
        assert full.stats["prism_cubes"] == pairs > full.stats["prism_interactions"] > 0
        for got, base, ref in ((full.acc, bare.acc, acc), (full.pot, bare.pot, pot)):
            assert np.abs((got - base) - ref).max() <= 1e-12 * np.abs(ref).max()
        no_pot = evaluate_forces(tree, moms, inter, want_potential=False, **kw)
        assert no_pot.pot is None and np.array_equal(no_pot.acc, full.acc)
