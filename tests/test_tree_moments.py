"""Tests for the tree upward pass (moments, bounds, MAC radii)."""

import numpy as np
import pytest

from repro.multipoles import m2p, p2m
from repro.tree import build_tree, compute_moments, unit_cube_abs_moment

from .oracle import oracle_moments


def cloud(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), rng.random(n) + 0.5


class TestUnitCubeMoment:
    def test_volume(self):
        assert unit_cube_abs_moment(0) == pytest.approx(1.0)

    def test_second_moment(self):
        # integral of r^2 over unit cube = 3 * (1/12) = 1/4
        assert unit_cube_abs_moment(2) == pytest.approx(0.25, rel=1e-8)

    def test_monotone_decreasing(self):
        vals = [unit_cube_abs_moment(k) for k in range(6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_product_rule_matches_adaptive_quadrature(self):
        """The six constants a p = 4 run uses (B_0..B_5), against the
        nested adaptive quadrature they used to come from."""
        from scipy import integrate

        for n in range(6):
            ref, _ = integrate.tplquad(
                lambda z, y, x: (x * x + y * y + z * z) ** (n / 2.0),
                -0.5, 0.5, -0.5, 0.5, -0.5, 0.5,
                epsabs=1e-12, epsrel=1e-10,
            )
            assert unit_cube_abs_moment(n) == pytest.approx(ref, rel=2e-12)


class TestMomentsPass:
    def test_root_moments_match_direct_p2m(self):
        pos, mass = cloud()
        tree = build_tree(pos, mass, nleaf=16)
        moms = compute_moments(tree, p=3, tol=1e-6)
        direct = p2m(pos, mass, tree.cell_center[0], 5)  # stored to p+2
        np.testing.assert_allclose(moms.moments[0], direct, rtol=1e-10, atol=1e-12)

    def test_every_cell_moments_match_its_particles(self):
        pos, mass = cloud(800, seed=3)
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-6)
        rng = np.random.default_rng(0)
        for ci in rng.choice(tree.n_cells, 25):
            s, c = tree.cell_start[ci], tree.cell_count[ci]
            direct = p2m(tree.pos[s : s + c], tree.mass[s : s + c], tree.cell_center[ci], 4)
            np.testing.assert_allclose(
                moms.moments[ci], direct, rtol=1e-9, atol=1e-11
            )

    def test_bmax_bounds_particles(self):
        pos, mass = cloud(1500, seed=2)
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-6)
        for ci in range(0, tree.n_cells, 7):
            s, c = tree.cell_start[ci], tree.cell_count[ci]
            if c == 0:
                continue
            r = np.linalg.norm(tree.pos[s : s + c] - tree.cell_center[ci], axis=1)
            assert r.max() <= moms.bmax[ci] + 1e-12

    def test_babs_upper_bounds_true_absolute_moments(self):
        pos, mass = cloud(1200, seed=4)
        tree = build_tree(pos, mass, nleaf=8)
        p = 3
        moms = compute_moments(tree, p=p, tol=1e-6)
        for ci in range(0, tree.n_cells, 5):
            s, c = tree.cell_start[ci], tree.cell_count[ci]
            if c == 0:
                continue
            r = np.linalg.norm(tree.pos[s : s + c] - tree.cell_center[ci], axis=1)
            for n in range(p + 2):
                true = (tree.mass[s : s + c] * r**n).sum()
                assert moms.babs[ci, n] >= true * (1 - 1e-12)

    def test_rcrit_positive_and_finite(self):
        pos, mass = cloud()
        tree = build_tree(pos, mass, nleaf=16)
        moms = compute_moments(tree, p=2, tol=1e-5)
        assert np.all(moms.r_crit >= moms.bmax * (1 - 1e-9))
        assert np.all(np.isfinite(moms.r_crit))

    def test_tighter_tolerance_grows_radii(self):
        pos, mass = cloud()
        tree = build_tree(pos, mass, nleaf=16)
        loose = compute_moments(tree, p=2, tol=1e-4)
        tight = compute_moments(tree, p=2, tol=1e-7)
        # internal, non-trivial cells only
        sel = tree.cell_count > 32
        assert np.all(tight.r_crit[sel] >= loose.r_crit[sel])

    def test_absolute_mac_radii_not_smaller(self):
        """The rigorous bound can never be tighter than the estimate for
        the same cells (it bounds the same error from above)."""
        pos, mass = cloud()
        tree = build_tree(pos, mass, nleaf=16)
        est = compute_moments(tree, p=2, tol=1e-6, mac="moment")
        rig = compute_moments(tree, p=2, tol=1e-6, mac="absolute")
        sel = tree.cell_count > 32
        assert np.mean(rig.r_crit[sel] >= est.r_crit[sel]) > 0.95

    def test_unknown_mac_rejected(self):
        pos, mass = cloud(100)
        tree = build_tree(pos, mass)
        with pytest.raises(ValueError):
            compute_moments(tree, p=2, tol=1e-6, mac="bh")


class TestBackgroundMoments:
    def test_requires_ghosts(self):
        pos, mass = cloud()
        tree = build_tree(pos, mass, nleaf=16, with_ghosts=False)
        with pytest.raises(ValueError):
            compute_moments(tree, p=2, tol=1e-6, background=True, mean_density=1.0)

    def test_requires_density(self):
        pos, mass = cloud()
        tree = build_tree(pos, mass, nleaf=16, with_ghosts=True)
        with pytest.raises(ValueError):
            compute_moments(tree, p=2, tol=1e-6, background=True)

    def test_root_monopole_is_mass_contrast(self):
        pos, mass = cloud()
        tree = build_tree(pos, mass, nleaf=16, with_ghosts=True)
        rho = mass.sum()  # box volume 1 -> exact mean density
        moms = compute_moments(tree, p=2, tol=1e-6, background=True, mean_density=rho)
        assert moms.moments[0, 0] == pytest.approx(0.0, abs=1e-10 * mass.sum())

    def test_background_reduces_even_moment_norm(self):
        """For cells with many particles the order-(p+2) moment norm
        drops by ~sqrt(K) — the §2.2.1 efficiency mechanism."""
        rng = np.random.default_rng(11)
        pos = rng.random((20000, 3))
        mass = np.full(20000, 1.0 / 20000)
        tree = build_tree(pos, mass, nleaf=16, with_ghosts=True)
        m_bg = compute_moments(tree, p=4, tol=1e-5, background=True, mean_density=1.0)
        m_raw = compute_moments(tree, p=4, tol=1e-5, background=False)
        big = tree.cell_count > 2000
        ratio = m_bg.mnorm2[big] / m_raw.mnorm2[big]
        assert np.median(ratio) < 0.25

    def test_ghost_moments_are_negative_background(self):
        pos, mass = cloud(3000, seed=9)
        # clustered so ghosts exist
        pos = (pos * 0.3) % 1.0
        tree = build_tree(pos, mass, nleaf=8, with_ghosts=True)
        moms = compute_moments(tree, p=2, tol=1e-6, background=True, mean_density=2.0)
        g = np.flatnonzero(tree.cell_is_ghost)
        assert len(g) > 0
        side = tree.cell_side[g]
        np.testing.assert_allclose(moms.moments[g, 0], -2.0 * side**3, rtol=1e-12)


class TestCompiledUpwardPass:
    """The compiled P2M / M2M against the numpy upward pass it replaced
    (``tests/oracle.py``), bit for bit: moments, bmax, the norms and
    r_crit.  The absolute moments take numpy's ``power``, whose vector
    form need not round as the unit's repeated products do: 1e-14
    relative (only ``mac="absolute"`` reads them).

    Leaves of 1, 8, 9 and 200 particles (coincident up to a 1e-9
    jitter, so only the deepest level separates them) sum 0, 7, 8 and
    199 rows after the first: numpy's plain loop, its eight
    accumulators at the edge, and its recursive halving."""

    @staticmethod
    def clumpy(seed=5):
        rng = np.random.default_rng(seed)
        pos = [rng.random((600, 3))]
        for n, at in ((8, 0.1), (9, 0.55), (200, 0.3)):
            pos.append(at + 1e-9 * rng.random((n, 3)))
        pos = np.concatenate(pos)
        return pos, rng.random(len(pos)) + 0.5

    @pytest.mark.parametrize("p", [0, 2, 4, 8])
    @pytest.mark.parametrize("background", [True, False], ids=["ghosts", "treepm"])
    def test_matches_numpy_bit_for_bit(self, p, background):
        pos, mass = self.clumpy()
        tree = build_tree(pos, mass, nleaf=8, with_ghosts=background)
        counts = set(tree.cell_count[tree.leaf_indices].tolist())
        assert {1, 8, 9, 200} <= counts
        kw = dict(tol=1e-5, background=background,
                  mean_density=mass.sum() if background else None)
        got = compute_moments(tree, p, **kw)
        ref = oracle_moments(tree, p, **kw)
        for name in ("moments", "bmax", "mnorm", "mnorm2", "r_crit"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)
        np.testing.assert_allclose(got.babs, ref.babs, rtol=1e-14, atol=0)

    def test_absolute_mac_radii_follow_numpy(self):
        pos, mass = self.clumpy(6)
        tree = build_tree(pos, mass, nleaf=8)
        got = compute_moments(tree, 4, 1e-5, mac="absolute")
        ref = oracle_moments(tree, 4, 1e-5, mac="absolute")
        np.testing.assert_allclose(got.r_crit, ref.r_crit, rtol=1e-13, atol=0)
