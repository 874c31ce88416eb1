"""Integration tests: traversal + force evaluation vs direct summation."""

import dataclasses

import numpy as np
import pytest

from repro.gravity import (
    TreecodeConfig,
    TreecodeGravity,
    direct_accelerations,
    make_softening,
)
from repro.tree import build_tree, compute_moments, traverse_hierarchical

from .oracle import cell_leaf_csr


def cloud(n=2048, seed=0, clustered=False):
    rng = np.random.default_rng(seed)
    if clustered:
        c = rng.random((6, 3))
        pos = (c[rng.integers(0, 6, n)] + 0.03 * rng.standard_normal((n, 3))) % 1.0
    else:
        pos = rng.random((n, 3))
    return pos, np.full(n, 1.0 / n)


class TestTraversalInvariants:
    def test_partition_of_unity(self):
        """Every (sink leaf, image) pair's interactions partition the
        mass of the box exactly: cell + leaf source masses sum to the
        total mass for each sink leaf and image."""
        pos, mass = cloud(1500, clustered=True)
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-5)
        inter = traverse_hierarchical(tree, moms)
        per_sink = {}
        # the cell family as each sink leaf sees it (accepts recorded at
        # its ancestors included)
        cell_src, _, cell_indptr = cell_leaf_csr(tree, inter)
        for s, c in zip(np.repeat(inter.sink_leaves, np.diff(cell_indptr)), cell_src):
            per_sink[s] = per_sink.get(s, 0.0) + tree.mass[
                tree.cell_start[c] : tree.cell_start[c] + tree.cell_count[c]
            ].sum()
        for s, c in zip(inter.leaf_sink, inter.leaf_src):
            per_sink[s] = per_sink.get(s, 0.0) + tree.mass[
                tree.cell_start[c] : tree.cell_start[c] + tree.cell_count[c]
            ].sum()
        for s, m in per_sink.items():
            assert m == pytest.approx(mass.sum(), rel=1e-10)

    def test_self_leaf_in_direct_list(self):
        pos, mass = cloud(500)
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-5)
        inter = traverse_hierarchical(tree, moms)
        self_pairs = set(zip(inter.leaf_sink, inter.leaf_src))
        for leaf in tree.leaf_indices:
            assert (leaf, leaf) in self_pairs

    def test_periodic_offsets_count(self):
        pos, mass = cloud(300)
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-5)
        inter1 = traverse_hierarchical(tree, moms, periodic=True, ws=1)
        assert len(inter1.offsets) == 27
        inter2 = traverse_hierarchical(tree, moms, periodic=True, ws=2)
        assert len(inter2.offsets) == 125

    def test_restricted_sinks(self):
        pos, mass = cloud(1000)
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-5)
        some = tree.leaf_indices[:3]
        inter = traverse_hierarchical(tree, moms, sink_leaves=some)
        assert set(inter.leaf_sink) <= set(some)
        # cell accepts are recorded at the selected leaves or above them
        assert np.all(inter.sink_particles_under(tree, inter.cell_cells) > 0)
        assert inter.n_cell_interactions(tree) == (
            tree.cell_count[inter.sink_leaves] * np.diff(cell_leaf_csr(tree, inter)[2])
        ).sum()


class TestForceAccuracy:
    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("p", [2, 4])
    def test_against_direct(self, clustered, p):
        pos, mass = cloud(2048, seed=1, clustered=clustered)
        eps = 1e-3
        cfg = TreecodeConfig(
            p=p, errtol=1e-6, background=False, softening="plummer", eps=eps
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        ref = direct_accelerations(pos, mass, softening=make_softening("plummer", eps))
        err = np.linalg.norm(res.acc - ref, axis=1)
        # errors from ~100 accepted cells accumulate incoherently and the
        # moment MAC is an estimate, not a bound: allow ~100x the
        # per-interaction tolerance at the tail, ~10x at the median
        assert err.max() < 100 * 1e-6
        assert np.median(err) < 10 * 1e-6

    def test_errtol_controls_error(self):
        pos, mass = cloud(2048, seed=2)
        errs = []
        ref = direct_accelerations(pos, mass, softening=make_softening("plummer", 1e-3))
        for tol in (1e-4, 1e-6):
            cfg = TreecodeConfig(
                p=4, errtol=tol, background=False, softening="plummer", eps=1e-3
            )
            res = TreecodeGravity(cfg).compute(pos, mass)
            errs.append(np.linalg.norm(res.acc - ref, axis=1).max())
        assert errs[1] < errs[0]

    def test_potential_against_direct(self):
        pos, mass = cloud(1024, seed=3)
        cfg = TreecodeConfig(
            p=4, errtol=1e-7, background=False, softening="plummer", eps=1e-3
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        _, pot = direct_accelerations(
            pos, mass, softening=make_softening("plummer", 1e-3), want_potential=True
        )
        assert np.abs(res.pot - pot).max() < 1e-4 * np.abs(pot).mean()

    def test_interaction_count_decreases_with_tolerance(self):
        pos, mass = cloud(2048)
        counts = []
        for tol in (1e-7, 1e-5):
            cfg = TreecodeConfig(p=4, errtol=tol, background=False)
            r = TreecodeGravity(cfg).compute(pos, mass)
            counts.append(r.stats["interactions_per_particle"])
        assert counts[1] < counts[0]

    def test_float32_mode(self):
        pos, mass = cloud(512)
        cfg = TreecodeConfig(
            p=2, errtol=1e-4, background=False, dtype=np.float32
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        assert res.acc.dtype == np.float32

    def test_momentum_conservation_approximate(self):
        """Total momentum change (sum of m*acc) vanishes to the force
        accuracy — Newton's third law holds pairwise in the direct part
        and statistically in the multipole part."""
        pos, mass = cloud(2048, seed=4, clustered=True)
        cfg = TreecodeConfig(p=4, errtol=1e-6, background=False, softening="spline", eps=0.005)
        res = TreecodeGravity(cfg).compute(pos, mass)
        net = (mass[:, None] * res.acc).sum(axis=0)
        typical = np.abs(mass[:, None] * res.acc).sum(axis=0)
        assert np.all(np.abs(net) < 1e-3 * typical)


class TestBackgroundSubtraction:
    def test_uniform_grid_zero_force_compact_kernel(self):
        """§2.2.1 + §2.5: uniform grid with background subtraction and a
        compact (spline) kernel has machine-level peculiar forces."""
        n = 8
        g = (np.arange(n) + 0.5) / n
        gx, gy, gz = np.meshgrid(g, g, g, indexing="ij")
        pos = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        mass = np.full(len(pos), 1.0 / len(pos))
        cfg = TreecodeConfig(
            p=4, errtol=1e-5, background=True, periodic=True, ws=1,
            softening="spline", eps=0.02,
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        assert np.abs(res.acc).max() < 1e-6

    def test_plummer_bias_visible(self):
        """Plummer's long ~eps^2/r^5 force deficit does not cancel against
        the Newtonian background — the bias Dehnen's kernels remove."""
        n = 8
        g = (np.arange(n) + 0.5) / n
        gx, gy, gz = np.meshgrid(g, g, g, indexing="ij")
        pos = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        mass = np.full(len(pos), 1.0 / len(pos))
        base = dict(p=4, errtol=1e-5, background=True, periodic=True, ws=1, eps=0.03)
        plum = TreecodeGravity(TreecodeConfig(softening="plummer", **base)).compute(pos, mass)
        k1 = TreecodeGravity(TreecodeConfig(softening="dehnen_k1", **base)).compute(pos, mass)
        assert np.abs(plum.acc).max() > 20 * np.abs(k1.acc).max()

    def test_overdensity_attracts(self):
        """A single point overdensity in an otherwise uniform background
        pulls neighbours toward it (sign sanity of delta-rho forces)."""
        n = 8
        g = (np.arange(n) + 0.5) / n
        gx, gy, gz = np.meshgrid(g, g, g, indexing="ij")
        pos = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        mass = np.full(len(pos), 1.0 / len(pos))
        # double the mass of the particle nearest the center
        i0 = np.argmin(np.linalg.norm(pos - 0.5, axis=1))
        mass[i0] *= 2.0
        cfg = TreecodeConfig(
            p=4, errtol=1e-6, background=True, periodic=True, ws=1,
            softening="spline", eps=0.01,
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        # a particle displaced along +x from the overdensity feels -x force
        j = np.argmin(np.linalg.norm(pos - (pos[i0] + [0.125, 0, 0]), axis=1))
        assert res.acc[j, 0] < 0


class TestProductionOrderP8:
    def test_p8_end_to_end_respects_summed_bound(self):
        """The paper's production expansion order (p=8) works through the
        whole solver stack with the rigorous MAC: the total force error
        stays below the per-interaction tolerance times the number of
        accepted multipole interactions (worst-case coherent sum)."""
        rng = np.random.default_rng(21)
        pos = rng.random((512, 3))
        mass = np.full(512, 1.0 / 512)
        ref = direct_accelerations(pos, mass, softening=make_softening("plummer", 1e-3))
        tol = 1e-7
        cfg = TreecodeConfig(
            p=8, errtol=tol, background=False, softening="plummer",
            eps=1e-3, nleaf=8, mac="absolute",
        )
        solver = TreecodeGravity(cfg)
        res = solver.compute(pos, mass)
        err = np.linalg.norm(res.acc - ref, axis=1).max()
        n_cell = res.stats["cell_interactions"] / len(pos)
        assert n_cell > 10  # multipoles actually used (not all-direct)
        # the busiest particle has a few times the average cell count
        assert err < 5 * max(n_cell, 1.0) * tol
        # and typical errors sit far below the worst case
        med = np.median(np.linalg.norm(res.acc - ref, axis=1))
        assert med < 0.3 * max(n_cell, 1.0) * tol

    def test_higher_order_fewer_interactions(self):
        rng = np.random.default_rng(22)
        pos = rng.random((2048, 3))
        mass = np.full(2048, 1.0 / 2048)
        counts = {}
        for p in (2, 6):
            cfg = TreecodeConfig(
                p=p, errtol=1e-7, background=False, softening="plummer",
                eps=1e-3,
            )
            r = TreecodeGravity(cfg).compute(pos, mass)
            counts[p] = r.stats["interactions_per_particle"]
        assert counts[6] < counts[2]
