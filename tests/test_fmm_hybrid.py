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
