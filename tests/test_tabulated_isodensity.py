"""Tests for the tabulated background (CLASS-table mode) and isodensity finder."""

import numpy as np
import pytest
from scipy import integrate

from repro.cosmology import (
    EDS,
    PLANCK2013,
    Background,
    DriftKickIntegrals,
    TabulatedBackground,
    read_background_table,
    write_background_table,
)
from repro.analysis import isodensity_halos, knn_density


class TestTabulatedBackground:
    def test_matches_analytic(self):
        tab = TabulatedBackground.from_params(PLANCK2013, n=256)
        bg = Background(PLANCK2013)
        a = np.geomspace(2e-4, 0.99, 40)
        np.testing.assert_allclose(tab.efunc(a), bg.efunc(a), rtol=1e-6)

    def test_drift_kick_match_analytic(self):
        """§2.1/§2.3: the tabulated path must reproduce the analytic
        drift/kick integrals (the paper's cross-check of its CLASS
        coupling against the analytic scale factor)."""
        tab = TabulatedBackground.from_params(PLANCK2013, a_min=0.005, n=512)
        dk = DriftKickIntegrals(PLANCK2013)
        for a0, a1 in ((0.02, 0.05), (0.1, 0.5), (0.5, 1.0)):
            assert tab.drift_factor(a0, a1) == pytest.approx(
                dk.drift_factor(a0, a1), rel=1e-6
            )
            assert tab.kick_factor(a0, a1) == pytest.approx(
                dk.kick_factor(a0, a1), rel=1e-6
            )

    def test_drift_kick_use_the_analytic_rule_and_tolerance(self):
        """Both factors integrate the table's own E(a) at the drift/kick
        tolerance of DriftKickIntegrals, not quad's looser default."""
        tab = TabulatedBackground.from_params(PLANCK2013, a_min=0.005, n=512)
        for a0, a1 in ((0.02, 0.05), (0.1, 0.5), (0.5, 1.0)):
            for power, got in ((3, tab.drift_factor(a0, a1)), (2, tab.kick_factor(a0, a1))):
                ref, _ = integrate.quad(
                    lambda a: 1.0 / (a**power * float(tab.efunc(a))), a0, a1,
                    limit=200, epsabs=1e-14, epsrel=1e-12,
                )
                assert got == pytest.approx(ref, rel=1e-13, abs=0)

    def test_out_of_range_rejected(self):
        tab = TabulatedBackground.from_params(EDS, a_min=0.01)
        with pytest.raises(ValueError):
            tab.efunc(0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedBackground(np.array([0.1, 0.2]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            TabulatedBackground(
                np.array([0.1, 0.3, 0.2, 0.4]), np.ones(4)
            )
        with pytest.raises(ValueError):
            TabulatedBackground(
                np.array([0.1, 0.2, 0.3, 0.4]), np.array([1.0, 1.0, -1.0, 1.0])
            )

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "bg.txt"
        write_background_table(path, PLANCK2013, a_min=0.01)
        tab = read_background_table(path)
        bg = Background(PLANCK2013)
        assert float(tab.efunc(0.5)) == pytest.approx(float(bg.efunc(0.5)), rel=1e-8)

    def test_bad_file(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\n2.0\n3.0\n4.0\n")
        with pytest.raises(ValueError):
            read_background_table(p)


class TestKnnDensity:
    def test_uniform_field_near_mean(self):
        rng = np.random.default_rng(0)
        pos = rng.random((5000, 3))
        rho = knn_density(pos, k=16)
        assert np.median(rho) == pytest.approx(5000.0, rel=0.25)

    def test_blob_is_denser(self):
        rng = np.random.default_rng(1)
        blob = 0.5 + 0.005 * rng.standard_normal((300, 3))
        pos = np.concatenate([rng.random((3000, 3)), blob]) % 1.0
        rho = knn_density(pos, k=12)
        assert np.median(rho[3000:]) > 30 * np.median(rho[:3000])


class TestIsodensity:
    def make_field(self, seed=2):
        rng = np.random.default_rng(seed)
        halos = rng.random((4, 3))
        parts = [rng.random((4000, 3))]
        for c in halos:
            parts.append((c + 0.004 * rng.standard_normal((250, 3))) % 1.0)
        pos = np.concatenate(parts) % 1.0
        return pos, np.full(len(pos), 1.0 / len(pos)), halos

    def test_finds_planted_halos(self):
        pos, mass, halos = self.make_field()
        res = isodensity_halos(pos, mass, threshold=60.0, min_members=50)
        assert res.n_groups == len(halos)
        for c in halos:
            d = np.linalg.norm((res.centers - c + 0.5) % 1.0 - 0.5, axis=1)
            assert d.min() < 0.02

    def test_threshold_cuts_bridges(self):
        """Two halos connected by a low-density bridge: FOF merges them,
        isodensity separates them — the reason vfind has both modes."""
        rng = np.random.default_rng(5)
        c1 = np.array([0.4, 0.5, 0.5])
        c2 = np.array([0.6, 0.5, 0.5])
        h1 = c1 + 0.004 * rng.standard_normal((300, 3))
        h2 = c2 + 0.004 * rng.standard_normal((300, 3))
        # evenly spaced bridge: guaranteed to percolate under FOF while
        # staying well below the isodensity threshold
        t = np.linspace(0.0, 1.0, 80)[:, None]
        bridge = c1 + (c2 - c1) * t + 0.003 * rng.standard_normal((80, 3))
        field = rng.random((3000, 3))
        pos = np.concatenate([h1, h2, bridge, field]) % 1.0
        mass = np.full(len(pos), 1.0 / len(pos))

        from repro.analysis import fof_halos

        fof = fof_halos(pos, mass, linking_length=0.25, min_members=100)
        iso = isodensity_halos(
            pos, mass, threshold=1000.0, linking_length=0.25, min_members=100
        )
        # FOF's biggest group swallows both halos (plus bridge)
        assert fof.sizes[0] > 500
        # isodensity separates them
        assert iso.n_groups >= 2
        assert iso.sizes[0] < 500

    def test_no_dense_regions(self):
        rng = np.random.default_rng(7)
        pos = rng.random((2000, 3))
        res = isodensity_halos(pos, np.ones(2000), threshold=500.0)
        assert res.n_groups == 0
        assert np.all(res.labels == -1)

    def test_dense_fraction_reported(self):
        pos, mass, _ = self.make_field()
        res = isodensity_halos(pos, mass, threshold=60.0, min_members=50)
        assert 0.0 < res.dense_fraction < 0.5

    def test_mass_accounting(self):
        pos, mass, _ = self.make_field()
        res = isodensity_halos(pos, mass, threshold=60.0, min_members=50)
        grouped = res.labels >= 0
        assert res.masses.sum() == pytest.approx(mass[grouped].sum())
