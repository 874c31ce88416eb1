"""Tests for FOF/SO halo finding and the mass-function fits."""

import numpy as np
import pytest

from repro.analysis import (
    TinkerMassFunction,
    WarrenMassFunction,
    binned_mass_function,
    fof_halos,
    so_masses,
)
from repro.cosmology import PLANCK2013, WMAP1, LinearPower


def make_halo_field(seed=0, n_halos=6, n_field=1000, members=120, rh=0.01):
    """Synthetic field: a few dense Plummer-ish blobs plus uniform noise."""
    rng = np.random.default_rng(seed)
    centers = rng.random((n_halos, 3)) * 0.8 + 0.1
    parts = [rng.random((n_field, 3))]
    for c in centers:
        parts.append(c + rh * rng.standard_normal((members, 3)) / 3)
    pos = np.concatenate(parts) % 1.0
    mass = np.full(len(pos), 1.0 / len(pos))
    return pos, mass, centers


class TestFOF:
    def test_finds_planted_halos(self):
        pos, mass, centers = make_halo_field()
        res = fof_halos(pos, mass, linking_length=0.2, min_members=50)
        assert res.n_groups == len(centers)
        # recovered centers close to planted ones
        for c in centers:
            d = np.linalg.norm((res.centers - c + 0.5) % 1.0 - 0.5, axis=1)
            assert d.min() < 0.02

    def test_sizes_sorted_descending(self):
        pos, mass, _ = make_halo_field(n_halos=4, members=100)
        res = fof_halos(pos, mass, min_members=20)
        assert np.all(np.diff(res.sizes) <= 0)

    def test_periodic_halo_across_boundary(self):
        rng = np.random.default_rng(3)
        blob = 0.003 * rng.standard_normal((200, 3))
        pos = (blob + np.array([0.999, 0.5, 0.5])) % 1.0
        # without enough field particles the linking length is huge; add them
        pos = np.concatenate([pos, rng.random((5000, 3))]) % 1.0
        mass = np.full(len(pos), 1.0)
        res = fof_halos(pos, mass, linking_length=0.2, min_members=50)
        assert res.n_groups >= 1
        # its center must sit at the boundary, not at 0.5
        c = res.centers[0]
        assert min(c[0], 1 - c[0]) < 0.05

    def test_label_invariance_under_permutation(self):
        pos, mass, _ = make_halo_field(n_halos=3)
        res1 = fof_halos(pos, mass, min_members=50)
        perm = np.random.default_rng(1).permutation(len(pos))
        res2 = fof_halos(pos[perm], mass[perm], min_members=50)
        assert res1.n_groups == res2.n_groups
        np.testing.assert_allclose(np.sort(res1.masses), np.sort(res2.masses))

    def test_min_members_filters(self):
        pos, mass, _ = make_halo_field(n_halos=2, members=60)
        strict = fof_halos(pos, mass, min_members=100)
        loose = fof_halos(pos, mass, min_members=30)
        assert strict.n_groups <= loose.n_groups

    def test_mass_conservation(self):
        pos, mass, _ = make_halo_field()
        res = fof_halos(pos, mass, min_members=20)
        grouped = res.labels >= 0
        assert res.masses.sum() == pytest.approx(mass[grouped].sum())


class TestSO:
    def test_so_mass_of_uniform_sphere(self):
        """A top-hat sphere of known mass in a thin background: M200
        should recover roughly the sphere where density crosses 200x."""
        rng = np.random.default_rng(5)
        n_blob = 4000
        u = rng.standard_normal((n_blob, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        r = 0.02 * rng.random(n_blob) ** (1 / 3)
        pos = 0.5 + u * r[:, None]
        pos = np.concatenate([pos, rng.random((4000, 3))])
        mass = np.full(len(pos), 1.0 / len(pos))
        cat = so_masses(pos, mass, np.array([[0.5, 0.5, 0.5]]), delta=200.0)
        assert len(cat.m_delta) == 1
        # blob density = (nblob/total)/(4/3 pi 0.02^3) / 1.0 ~ 1.5e4 x mean
        # -> R200 somewhat outside the blob edge
        assert 0.015 < cat.r_delta[0] < 0.1
        assert cat.m_delta[0] >= 0.49  # contains (almost) the whole blob

    def test_underdense_seed_dropped(self):
        rng = np.random.default_rng(6)
        pos = rng.random((3000, 3))
        mass = np.full(len(pos), 1.0)
        cat = so_masses(pos, mass, np.array([[0.5, 0.5, 0.5]]), delta=200.0)
        assert len(cat.m_delta) == 0

    def test_catalog_shapes(self):
        pos, mass, centers = make_halo_field(members=300, rh=0.004)
        cat = so_masses(pos, mass, centers, delta=200.0)
        assert cat.centers.shape == (len(cat.m_delta), 3)
        assert len(cat.r_delta) == len(cat.m_delta)
        assert np.all(cat.m_delta > 0)


class TestMassFunctionFits:
    def test_tinker_delta_interpolation(self):
        t200 = TinkerMassFunction(200.0)
        assert t200.a0 == pytest.approx(0.186)
        t300 = TinkerMassFunction(300.0)
        assert 0.186 < t300.a0 <= 0.200

    def test_tinker_redshift_suppression(self):
        t = TinkerMassFunction(200.0)
        s = np.array([1.0])
        assert t.f(s, z=1.0)[0] < t.f(s, z=0.0)[0]

    def test_tinker_dn_dlnm_magnitude(self):
        """dn/dlnM at 1e14 Msun/h, z=0 is ~1e-5..1e-4 h^3/Mpc^3 for
        Planck-like cosmologies (an order-of-magnitude sanity pin)."""
        t = TinkerMassFunction(200.0)
        v = t.dn_dlnm(PLANCK2013, 1e14)
        assert 1e-6 < v[0] < 1e-3

    def test_massive_halos_rarer(self):
        t = TinkerMassFunction(200.0)
        v = t.dn_dlnm(PLANCK2013, np.array([1e13, 1e14, 1e15]))
        assert np.all(np.diff(v) < 0)

    def test_wmap1_more_clusters_than_planck(self):
        """sigma8 = 0.9 vs 0.8344: WMAP1 predicts more 1e15 clusters —
        the cosmology dependence Fig. 8 exercises."""
        t = TinkerMassFunction(200.0)
        assert t.dn_dlnm(WMAP1, 1e15)[0] > t.dn_dlnm(PLANCK2013, 1e15)[0]

    def test_warren_close_to_tinker_at_intermediate_mass(self):
        """FOF(0.2) and SO(200m) fits agree within tens of percent at
        group scales."""
        w = WarrenMassFunction()
        t = TinkerMassFunction(200.0)
        lp = LinearPower(PLANCK2013)
        m = 1e13
        r = w.dn_dlnm(PLANCK2013, m, power=lp)[0] / t.dn_dlnm(PLANCK2013, m, power=lp)[0]
        assert 0.5 < r < 2.0

    def test_binned_mass_function(self):
        rng = np.random.default_rng(0)
        masses = 10 ** rng.uniform(13, 15, 500)
        res = binned_mass_function(masses, volume_mpc_h=1000.0, n_bins=8)
        assert res.counts.sum() == 500
        assert np.all(res.dn_dlnm >= 0)

    def test_binned_mass_function_recovers_density(self):
        # all halos in one decade, uniform in ln M
        rng = np.random.default_rng(1)
        n = 4000
        masses = 10 ** rng.uniform(14, 15, n)
        v = 500.0
        res = binned_mass_function(masses, v, n_bins=5, m_range=(1e14, 1e15))
        total = (res.dn_dlnm * np.diff(np.log(np.geomspace(1e14, 1e15, 6)))).sum()
        assert total == pytest.approx(n / v**3, rel=1e-6)


