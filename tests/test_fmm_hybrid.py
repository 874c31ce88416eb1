"""Tests for the production fmm-hybrid traversal (mutual cell-cell
accepts + sink-side local expansions).

Covers the promotion contract: four-family completeness (every (sink
particle, source mass, image) counted exactly once), exact L2L
recentering, shard-restricted walk identity, serial-vs-workers bitwise
reproducibility, numpy-vs-kernel agreement, and end-to-end accuracy
against direct summation.
"""

import os

import numpy as np
import pytest

from repro.gravity.direct import direct_accelerations
from repro.gravity.smoothing import make_softening
from repro.gravity.solver import TreecodeConfig, TreecodeGravity
from repro.tree import build_tree, compute_moments, traverse_lists
from repro.tree.traversal import traverse_hierarchical


def cloud(n, seed=3):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), np.full(n, 1.0 / n)


def family_mass_per_offset(tree, inter, sink_leaf):
    """Total source particle mass reaching ``sink_leaf``, keyed by
    image offset, summed over all four families along the sink's
    ancestor chain (cell/m2l accepts bind whole subtrees)."""

    def cell_mass(c):
        s, n = tree.cell_start[c], tree.cell_count[c]
        return float(tree.mass[s: s + n].sum())

    out: dict = {}

    def add(src, off):
        out[int(off)] = out.get(int(off), 0.0) + cell_mass(int(src))

    chain = []
    node = sink_leaf
    while node >= 0:
        chain.append(int(node))
        node = int(tree.cell_parent[node])

    # hybrid keeps the one-sided cell family empty — every cell-level
    # acceptance must arrive through the mutual m2l family
    assert len(inter.cell_src) == 0

    row_of = {int(c): i for i, c in enumerate(inter.sink_leaves)}
    i = row_of[int(sink_leaf)]
    for e in range(inter.leaf_indptr[i], inter.leaf_indptr[i + 1]):
        add(inter.leaf_src[e], inter.leaf_off[e])

    m2l_rows = (
        {int(c): i for i, c in enumerate(inter.m2l_cells)}
        if inter.m2l_cells is not None
        else {}
    )
    for node in chain:
        j = m2l_rows.get(node)
        if j is not None:
            for e in range(inter.m2l_indptr[j], inter.m2l_indptr[j + 1]):
                add(inter.m2l_src[e], inter.m2l_off[e])
    return out


class TestFourFamilyCompleteness:
    """Every (sink particle, source mass, image) pair is counted exactly
    once across leaf + cell + m2l families — equality of per-offset mass
    catches both gaps and double counting."""

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("background", [False, True])
    def test_mass_coverage(self, periodic, background):
        pos, mass = cloud(700, seed=11)
        tree = build_tree(pos, mass, nleaf=8, with_ghosts=background)
        moms = compute_moments(
            tree, p=3, tol=1e-4, background=background,
            mean_density=1.0 if background else None,
        )
        inter = traverse_lists(
            tree, moms, traversal="fmm-hybrid", periodic=periodic, ws=1
        )
        assert inter.n_m2l_interactions(tree) > 0
        total = float(mass.sum())
        n_off = len(inter.offsets)
        rng = np.random.default_rng(0)
        sample = rng.choice(
            len(inter.sink_leaves), size=min(12, len(inter.sink_leaves)),
            replace=False,
        )
        for i in sample:
            leaf = int(inter.sink_leaves[i])
            cover = family_mass_per_offset(tree, inter, leaf)
            if periodic:
                assert len(cover) == n_off
                for off, m in cover.items():
                    assert m == pytest.approx(total, rel=1e-9), (leaf, off)
            else:
                assert set(cover) == {0}
                assert cover[0] == pytest.approx(total, rel=1e-9)

    def test_no_one_sided_cell_accepts(self):
        """The hybrid walk keeps the cell family empty — every cell-level
        acceptance is mutual, which is what makes momentum exact."""
        pos, mass = cloud(900, seed=2)
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=3, tol=1e-4)
        inter = traverse_lists(tree, moms, traversal="fmm-hybrid")
        assert inter.n_cell_interactions(tree) == 0
        assert inter.n_m2l_interactions(tree) > 0


class TestL2LIdentity:
    def test_translation_is_exact_recentering(self):
        """Seeding a local polynomial at the root and sweeping it down
        leaves the evaluated polynomial unchanged at any point."""
        from repro.gravity import localexp
        from repro.multipoles import multi_index_set

        pos, mass = cloud(500, seed=9)
        tree = build_tree(pos, mass, nleaf=8)
        p = 4
        t = localexp.m2l_tables(p)
        mis = multi_index_set(t.P)
        rng = np.random.default_rng(5)
        root = int(np.flatnonzero(tree.cell_level == 0)[0])
        locs = rng.standard_normal((1, t.nloc))
        loc_all = localexp.sweep_l2l(
            tree, np.array([root], dtype=np.int64), locs
        )
        wf = 1.0 / mis.factorial

        def poly(coef, center, x):
            s = (x - center).reshape(1, 3)
            return float((mis.powers(s)[0] * wf * coef).sum())

        x = rng.random((6, 3))
        leaves = tree.leaf_indices[:8]
        for leaf in leaves:
            for xi in x:
                want = poly(locs[0], tree.cell_center[root], xi)
                got = poly(loc_all[leaf], tree.cell_center[leaf], xi)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestM2LGeneratedTensors:
    @pytest.mark.parametrize("periodic", [False, True])
    def test_locals_bit_identical_to_interpreted_tensors(self, periodic, monkeypatch):
        """The M2L locals built from the generated SoA routine equal,
        bit for bit, those built from the interpreted
        ``derivative_tensors`` recurrence."""
        from repro.gravity import localexp
        from repro.multipoles import NewtonianKernel, derivative_tensors

        pos, mass = cloud(600, seed=4)
        tree = build_tree(pos, mass, nleaf=8, with_ghosts=periodic)
        moms = compute_moments(
            tree, p=2, tol=1e-4, background=periodic,
            mean_density=mass.sum() if periodic else None,
        )
        inter = traverse_lists(
            tree, moms, traversal="fmm-hybrid", periodic=periodic, ws=1
        )
        assert len(inter.m2l_src)
        kernel = NewtonianKernel()
        generated = localexp.accumulate_m2l(tree, moms, inter, kernel)

        def interpreted(x, y, z, g, p):
            return derivative_tensors(np.stack([x, y, z], axis=1), kernel, p).T

        monkeypatch.setattr(localexp, "dtensors_soa", interpreted)
        reference = localexp.accumulate_m2l(tree, moms, inter, kernel)
        assert np.any(reference != 0.0)
        assert np.array_equal(generated, reference)


class TestShardIdentity:
    def test_shard_segments_match_full_walk(self):
        """A sink-restricted walk reproduces the full walk's m2l
        segments for its sinks — the accept is a pure pair property."""
        pos, mass = cloud(1500, seed=4)
        tree = build_tree(pos, mass, nleaf=8, with_ghosts=True)
        moms = compute_moments(
            tree, p=4, tol=1e-4, background=True, mean_density=1.0
        )
        full = traverse_hierarchical(
            tree, moms, periodic=True, ws=1, m2l=True
        )
        half = full.sink_leaves[: len(full.sink_leaves) // 2]
        shard = traverse_hierarchical(
            tree, moms, periodic=True, ws=1, m2l=True, sink_leaves=half
        )
        row_of = {int(c): i for i, c in enumerate(full.m2l_cells)}
        checked = 0
        for i, c in enumerate(shard.m2l_cells):
            j = row_of.get(int(c))
            if j is None:
                continue
            sf = slice(full.m2l_indptr[j], full.m2l_indptr[j + 1])
            ss = slice(shard.m2l_indptr[i], shard.m2l_indptr[i + 1])
            np.testing.assert_array_equal(full.m2l_src[sf], shard.m2l_src[ss])
            np.testing.assert_array_equal(full.m2l_off[sf], shard.m2l_off[ss])
            checked += 1
        assert checked > 0

    def test_workers_bit_identical(self):
        """Serial and sharded hybrid solves agree to the last bit."""
        pos, mass = cloud(2048, seed=7)

        def run(workers):
            cfg = TreecodeConfig(
                errtol=1e-4, periodic=True, background=True,
                traversal="fmm-hybrid", nleaf=8,
                workers=workers,
            )
            with TreecodeGravity(cfg) as s:
                return s.compute(pos, mass)

        r0 = run(0)
        r2 = run(2)
        np.testing.assert_array_equal(r0.acc, r2.acc)
        np.testing.assert_array_equal(r0.pot, r2.pot)


class TestAccuracy:
    def test_matches_direct_within_budget(self):
        pos, mass = cloud(1500, seed=6)
        errtol = 1e-4
        cfg = TreecodeConfig(
            errtol=errtol, periodic=False, background=False,
            traversal="fmm-hybrid", nleaf=8,
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        ref = direct_accelerations(
            pos, mass, softening=make_softening(cfg.softening, cfg.eps)
        )
        err = np.linalg.norm(res.acc - ref, axis=1)
        assert err.max() < errtol

    def test_family_breakdown_in_stats(self):
        pos, mass = cloud(800, seed=8)
        cfg = TreecodeConfig(
            errtol=1e-4, traversal="fmm-hybrid", nleaf=8,
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        fam = res.stats["interactions_by_family"]
        assert set(fam) == {"cell", "pp", "ghost", "m2l"}
        assert fam["cell"] == 0
        assert fam["m2l"] > 0
        assert res.stats["interactions_per_particle"] > 0


def m2l_family_acc(tree, moms, inter, kernel):
    """Accelerations of the m2l family alone (M2L, L2L, L2P), in the
    tree's key-sorted particle order."""
    from repro.gravity import localexp
    from repro.util import expand_ranges

    locs = localexp.accumulate_m2l(tree, moms, inter, kernel)
    loc_all = localexp.sweep_l2l(tree, inter.m2l_cells, locs)
    sinks = inter.sink_leaves
    counts = tree.cell_count[sinks]
    acc = np.zeros((tree.n_particles, 3))
    localexp.l2p_accumulate(
        tree, inter, loc_all, moms.p, want_potential=False,
        pid=expand_ranges(tree.cell_start[sinks], counts),
        row_of_p=np.repeat(np.arange(len(sinks)), counts), s0=0,
        acc=acc, pot=None,
    )
    return acc


class TestReflectionClasses:
    """The M2L evaluates one derivative tensor per |displacement| and
    moves the eight sign patterns onto the moments and the locals."""

    @pytest.mark.parametrize("P", [2, 4, 6, 8])
    def test_dtensors_reflection_identity(self, P):
        """D_gamma(s * d) == s^gamma D_gamma(d), bit for bit, for all
        eight reflections s: every class tensor is the one each signed
        displacement of the class would have had."""
        from repro.multipoles import (
            ErfcKernel, NewtonianKernel, PlummerKernel, multi_index_set,
        )
        from repro.multipoles.codegen import dtensors_soa

        alphas = multi_index_set(P).alphas
        rng = np.random.default_rng(P)
        d = rng.uniform(0.05, 2.0, (3, 1000))
        r = np.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])
        for kernel in (NewtonianKernel(), PlummerKernel(0.3), ErfcKernel(1.7)):
            g = kernel.radial_derivs(r, P)
            base = dtensors_soa(*d, g, P)
            for refl in range(8):
                s = np.array([-1.0 if refl >> (2 - a) & 1 else 1.0 for a in range(3)])
                flipped = dtensors_soa(*(s[:, None] * d), g, P)
                sign = np.prod(s ** alphas, axis=1)
                assert np.array_equal(flipped, sign[:, None] * base), (kernel, refl)

    def test_two_clumps_by_hand(self, monkeypatch):
        """Two clumps in opposite octants of an open box accept each
        other once: 2 signed displacements, +-(1/2, 1/2, 1/2), make one
        reflection class — one tensor, one 256-row tile — and each local
        is the term-by-term sum over the 924-entry table."""
        from repro.gravity import localexp
        from repro.multipoles import NewtonianKernel, derivative_tensors

        rng = np.random.default_rng(0)
        a = 0.25 + 0.05 * (rng.random((8, 3)) - 0.5)
        b = 0.75 + 0.05 * (rng.random((8, 3)) - 0.5)
        tree = build_tree(np.concatenate([a, b]), rng.random(16) + 0.5, nleaf=8)
        moms = compute_moments(tree, p=4, tol=1e-2)
        inter = traverse_lists(tree, moms, traversal="fmm-hybrid")
        leaves = inter.sink_leaves.tolist()
        assert tree.cell_count[leaves].tolist() == [8, 8]
        assert inter.m2l_cells.tolist() == leaves
        assert inter.m2l_src.tolist() == leaves[::-1]
        assert inter.m2l_indptr.tolist() == [0, 1, 2]

        evaluated = []
        generated = localexp.dtensors_soa

        def counting(x, y, z, g, p):
            evaluated.append(len(x))
            return generated(x, y, z, g, p)

        monkeypatch.setattr(localexp, "dtensors_soa", counting)
        kernel = NewtonianKernel()
        stats = {}
        locs = localexp.accumulate_m2l(tree, moms, inter, kernel, stats=stats)
        assert evaluated == [1]
        assert stats == {"m2l_classes": 1, "m2l_tile_rows": 256}

        t = localexp.m2l_tables(4)
        assert len(t.acol) == 924
        for row, (sink, src) in enumerate(zip(inter.m2l_cells, inter.m2l_src)):
            d = tree.cell_center[sink] - tree.cell_center[src]
            D = derivative_tensors(d[None], kernel, t.P)[0]
            wm = moms.moments[src, : t.nloc] * t.wsrc
            want = np.zeros(t.nloc)
            for bi in range(t.nloc):
                for e in range(t.biptr[bi], t.biptr[bi + 1]):
                    want[bi] += wm[t.acol[e]] * D[t.ccol[e]]
            assert np.abs(locs[row] - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("ws", [1, 2, 3, 4, 5, 6])
    def test_class_count_is_distinct_abs_q(self, ws):
        """One class per distinct |q|, q the displacement in units of
        the finest half-cell; the tiles hold every pair."""
        from repro.gravity import localexp
        from repro.multipoles import NewtonianKernel

        pos, mass = cloud(200, seed=ws)
        tree = build_tree(pos, mass, nleaf=8, with_ghosts=True)
        moms = compute_moments(
            tree, p=2, tol=1e-4, background=True, mean_density=mass.sum()
        )
        inter = traverse_lists(
            tree, moms, traversal="fmm-hybrid", periodic=True, ws=ws
        )
        stats = {}
        localexp.accumulate_m2l(tree, moms, inter, NewtonianKernel(), stats=stats)
        rows = np.repeat(np.arange(len(inter.m2l_cells)), np.diff(inter.m2l_indptr))
        dx = (
            tree.cell_center[inter.m2l_cells][rows]
            - tree.cell_center[inter.m2l_src]
            - inter.offsets[inter.m2l_off]
        )
        q = np.rint(np.abs(dx) / (tree.box / 2 ** (tree.max_level + 1)))
        assert stats["m2l_classes"] == len(np.unique(q, axis=0))
        assert stats["m2l_tile_rows"] % 256 == 0
        assert stats["m2l_tile_rows"] >= len(inter.m2l_src)

    def test_net_force_at_the_rounding_floor(self):
        """Mutual accepts and exactly mirrored tensors leave the m2l
        family's net force |sum m a| at rounding.  On this input (the
        accuracy test's cloud, p = 4) it reads 6.26e-16 of sum |m a|;
        the per-signed-class M2L it replaced read 5.99e-16.  Both are
        rounding noise that moves either way from input to input (ten
        clouds: 0.4 ... 6.0e-16 before, 0.7 ... 6.3e-16 after)."""
        from repro.multipoles import NewtonianKernel

        pos, mass = cloud(1500, seed=6)
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=4, tol=1e-4)
        inter = traverse_lists(tree, moms, traversal="fmm-hybrid")
        f = tree.mass[:, None] * m2l_family_acc(tree, moms, inter, NewtonianKernel())
        net = np.linalg.norm(f.sum(axis=0)) / np.linalg.norm(f, axis=1).sum()
        assert net < 4 * np.finfo(float).eps


class TestReflectionShardIdentity:
    def test_restricted_sinks_rows_bit_identical(self):
        """A restricted walk's M2L rows equal the full walk's rows bit
        for bit, although every class holds other entries (and so other
        tiles) in each."""
        from repro.gravity import localexp
        from repro.multipoles import NewtonianKernel

        pos, mass = cloud(1500, seed=4)
        tree = build_tree(pos, mass, nleaf=8, with_ghosts=True)
        moms = compute_moments(
            tree, p=4, tol=1e-4, background=True, mean_density=1.0
        )
        kernel = NewtonianKernel()
        full = traverse_hierarchical(tree, moms, periodic=True, ws=1, m2l=True)
        ref = localexp.accumulate_m2l(tree, moms, full, kernel)
        row_of = {int(c): i for i, c in enumerate(full.m2l_cells)}
        leaves = full.sink_leaves
        half = len(leaves) // 2
        for part in (leaves[:half], leaves[half:], leaves[::3]):
            shard = traverse_hierarchical(
                tree, moms, periodic=True, ws=1, m2l=True, sink_leaves=part
            )
            got = localexp.accumulate_m2l(tree, moms, shard, kernel)
            rows = [row_of[int(c)] for c in shard.m2l_cells]
            assert 0 < len(rows) < len(full.m2l_cells)
            np.testing.assert_array_equal(got, ref[rows])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_bit_identical(self, workers):
        """Serial and pooled hybrid solves agree to the last bit, and
        the shards' M2L counts add up to at least the serial ones."""
        pos, mass = cloud(2048, seed=7)

        def run(workers):
            cfg = TreecodeConfig(
                errtol=1e-4, periodic=True, background=True,
                traversal="fmm-hybrid", nleaf=8, workers=workers,
            )
            with TreecodeGravity(cfg) as s:
                return s.compute(pos, mass)

        serial, pooled = run(0), run(workers)
        np.testing.assert_array_equal(serial.acc, pooled.acc)
        np.testing.assert_array_equal(serial.pot, pooled.pot)
        for key in ("m2l_pairs", "m2l_classes", "m2l_tile_rows"):
            assert pooled.stats[key] >= serial.stats[key] > 0, key
