"""Tests for P2M / M2M / M2P / M2L / L2P translations (the production L2L
sweep is ``tests/test_fmm_hybrid.py::TestL2LIdentity``).  M2M and L2P are
the numpy references of ``tests/oracle.py``, which the compiled upward
pass and lattice L2P reproduce bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multipoles import m2l, m2p, multi_index_set, p2m

from .oracle import l2p, m2m


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(42)
    pos = rng.random((256, 3)) - 0.5
    mass = rng.random(256) + 0.1
    return pos, mass


def direct_field(pos, mass, targets):
    d = targets[:, None, :] - pos[None, :, :]
    r = np.linalg.norm(d, axis=2)
    pot = (mass / r).sum(axis=1)
    acc = -(mass[None, :, None] * d / r[:, :, None] ** 3).sum(axis=1)
    return pot, acc


class TestP2M:
    def test_monopole_is_total_mass(self, cloud):
        pos, mass = cloud
        m = p2m(pos, mass, np.zeros(3), 4)
        assert m[0] == pytest.approx(mass.sum())

    def test_dipole_about_com_vanishes(self, cloud):
        pos, mass = cloud
        com = (mass[:, None] * pos).sum(0) / mass.sum()
        m = p2m(pos, mass, com, 2)
        mis = multi_index_set(2)
        for key in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert m[mis.index[key]] == pytest.approx(0.0, abs=1e-12 * mass.sum())

    def test_dipole_nonzero_about_geometric_center(self, cloud):
        """2HOT expands about geometric centers, so dipoles survive —
        the prerequisite of cheap background subtraction."""
        pos, mass = cloud
        m = p2m(pos, mass, np.array([0.25, 0.0, 0.0]), 1)
        assert abs(m[1]) > 1e-3


class TestM2P:
    @pytest.mark.parametrize("p", [0, 2, 4, 6, 8])
    def test_convergence_with_order(self, cloud, p):
        pos, mass = cloud
        m = p2m(pos, mass, np.zeros(3), p)
        t = np.array([[3.0, 1.0, -2.0]])
        pot, acc = m2p(m, np.zeros(3), t, p)
        dp, da = direct_field(pos, mass, t)
        # b/d ~ 0.23: expect error ~ (b/d)^{p+1}
        scale = (0.87 / 3.74) ** (p + 1) * 10
        assert abs(pot[0] / dp[0] - 1) < scale
        assert np.abs(acc - da).max() / np.abs(da).max() < 3 * scale

    def test_order_zero_is_monopole(self, cloud):
        pos, mass = cloud
        m = p2m(pos, mass, np.zeros(3), 0)
        t = np.array([[5.0, 0.0, 0.0]])
        pot, acc = m2p(m, np.zeros(3), t, 0)
        assert pot[0] == pytest.approx(mass.sum() / 5.0, rel=1e-12)
        assert acc[0, 0] == pytest.approx(-mass.sum() / 25.0, rel=1e-12)

    def test_float32_output(self, cloud):
        pos, mass = cloud
        m = p2m(pos, mass, np.zeros(3), 2)
        pot, acc = m2p(m, np.zeros(3), np.array([[4.0, 0, 0]]), 2, dtype=np.float32)
        assert pot.dtype == np.float32
        assert acc.dtype == np.float32

    def test_no_potential_flag(self, cloud):
        pos, mass = cloud
        m = p2m(pos, mass, np.zeros(3), 2)
        pot, acc = m2p(
            m, np.zeros(3), np.array([[4.0, 0, 0]]), 2, want_potential=False
        )
        assert pot is None
        assert acc.shape == (1, 3)


class TestM2M:
    def test_exactness(self, cloud):
        """Moment translation is exact: translating moments must equal
        recomputing them about the new center."""
        pos, mass = cloud
        old = np.zeros(3)
        new = np.array([0.2, -0.1, 0.3])
        m_old = p2m(pos, mass, old, 6)
        m_tr = m2m(m_old, old - new, 6)
        m_new = p2m(pos, mass, new, 6)
        np.testing.assert_allclose(m_tr, m_new, rtol=1e-12, atol=1e-12)

    def test_identity_translation(self, cloud):
        pos, mass = cloud
        m = p2m(pos, mass, np.zeros(3), 4)
        np.testing.assert_array_equal(m2m(m, np.zeros(3), 4), m)

    def test_batched(self, cloud):
        pos, mass = cloud
        m = p2m(pos, mass, np.zeros(3), 3)
        ms = np.stack([m, 2 * m])
        ds = np.array([[0.1, 0, 0], [0.0, 0.2, 0]])
        out = m2m(ms, ds, 3)
        np.testing.assert_allclose(out[0], m2m(m, ds[0], 3))
        np.testing.assert_allclose(out[1], m2m(2 * m, ds[1], 3))

    @given(
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=-0.5, max_value=0.5),
    )
    @settings(max_examples=20, deadline=None)
    def test_composition(self, d1, d2):
        """Translating by d1 then d2 equals translating by d1 + d2."""
        rng = np.random.default_rng(7)
        pos = rng.random((32, 3))
        mass = rng.random(32)
        m = p2m(pos, mass, np.zeros(3), 4)
        via = m2m(m2m(m, np.array([d1, 0, 0]), 4), np.array([d2, 0, 0]), 4)
        direct = m2m(m, np.array([d1 + d2, 0, 0]), 4)
        np.testing.assert_allclose(via, direct, rtol=1e-10, atol=1e-10)

    def test_monopole_invariant(self, cloud):
        pos, mass = cloud
        m = p2m(pos, mass, np.zeros(3), 5)
        moved = m2m(m, np.array([1.0, 2.0, 3.0]), 5)
        assert moved[0] == pytest.approx(m[0])


class TestLocalExpansions:
    def test_m2l_l2p_field(self, cloud):
        pos, mass = cloud
        m = p2m(pos, mass, np.zeros(3), 8)
        c = np.array([4.0, 1.0, 0.0])
        loc = m2l(m, c, 8, 5)
        pts = c + (np.random.default_rng(0).random((10, 3)) - 0.5) * 0.3
        pot, acc = l2p(loc, c, pts, 5)
        dp, da = direct_field(pos, mass, pts)
        assert np.abs(pot / dp - 1).max() < 1e-5
        assert np.abs(acc - da).max() / np.abs(da).max() < 1e-4

    def test_l2p_gradient_consistency(self, cloud):
        """Acceleration from L2P equals the numerical gradient of the
        L2P potential."""
        pos, mass = cloud
        m = p2m(pos, mass, np.zeros(3), 6)
        c = np.array([3.0, 2.0, 1.0])
        loc = m2l(m, c, 6, 5)
        x0 = c + np.array([0.1, 0.05, -0.08])
        _, acc = l2p(loc, c, x0[None, :], 5)
        h = 1e-6
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            pp, _ = l2p(loc, c, (x0 + e)[None, :], 5)
            pm, _ = l2p(loc, c, (x0 - e)[None, :], 5)
            fd = (pp[0] - pm[0]) / (2 * h)
            assert acc[0, ax] == pytest.approx(fd, rel=1e-4, abs=1e-8)
