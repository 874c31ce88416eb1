"""Tests for repro.cosmology.background and params."""

import math

import numpy as np
import pytest

from repro.cosmology import (
    EDS,
    PLANCK2013,
    WMAP1,
    Background,
    CosmologyParams,
)
from repro.cosmology.timeintegrals import scale_factor_integral


def radiation_fraction(bg, a):
    """Radiation density parameter at ``a``, from the Friedmann E(a)^2."""
    return bg.params.omega_r / np.asarray(a, dtype=float) ** 4 / bg.e2(a)


def age_in_gyr(params, a=1.0):
    """t(a) = (1/H0) int_0^a da' / (a' E(a')) in Gyr, by the drift/kick
    quadrature; 1/H0 is 977.79222 / (100 h) Gyr."""
    t = scale_factor_integral(Background(params).efunc, 1, 0.0, a)
    return t * 977.79222168 / (100.0 * params.h)


class TestParams:
    def test_planck_is_flat(self):
        assert abs(PLANCK2013.omega_k) < 1e-8

    def test_flat_closure_includes_radiation(self):
        p = PLANCK2013
        total = p.omega_m + p.omega_de + p.omega_r + p.omega_k
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_radiation_density_magnitude(self):
        # Omega_r ~ 9e-5 for standard parameters (photons + 3.046 nu)
        assert 5e-5 < PLANCK2013.omega_r < 2e-4

    def test_neutrino_photon_ratio(self):
        p = PLANCK2013
        ratio = p.omega_nu / p.omega_gamma
        expected = 3.046 * 7.0 / 8.0 * (4.0 / 11.0) ** (4.0 / 3.0)
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_radiation_switch(self):
        p = PLANCK2013.with_(include_radiation=False)
        assert p.omega_r == 0.0
        assert p.omega_gamma == 0.0

    def test_particle_mass_scales(self):
        # doubling the box side increases particle mass 8x at fixed N
        m1 = PLANCK2013.particle_mass(1000.0, 1024**3)
        m2 = PLANCK2013.particle_mass(2000.0, 1024**3)
        assert m2 / m1 == pytest.approx(8.0)

    def test_particle_mass_40963_1gpc(self):
        # 4096^3 particles in 1 Gpc/h: ~1.28e9 Msun/h (paper's flagship runs)
        m = PLANCK2013.particle_mass(1000.0, 4096**3)
        assert 1e9 < m < 2e9

    def test_de_density_ratio_lcdm_is_unity(self):
        assert float(Background(PLANCK2013)._de_ratio(0.5)) == 1.0

    def test_de_density_ratio_cpl(self):
        p = PLANCK2013.with_(w0=-0.9, wa=0.1)
        # w > -1 means DE density was higher in the past
        assert float(Background(p)._de_ratio(0.5)) > 1.0


class TestBackground:
    def test_e2_today_is_one(self):
        for p in (PLANCK2013, WMAP1, EDS):
            bg = Background(p)
            assert float(bg.e2(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_eds_hubble_scaling(self):
        bg = Background(EDS)
        # EdS: E(a) = a^{-3/2}
        assert float(bg.efunc(0.25)) == pytest.approx(8.0, rel=1e-12)

    def test_matter_domination_at_high_z(self):
        bg = Background(PLANCK2013)
        # at z=99 radiation is ~3% of the budget, matter ~97%
        assert float(bg.omega_m_a(0.01)) > 0.95
        assert 0.01 < float(radiation_fraction(bg, 0.01)) < 0.05

    def test_radiation_domination_at_very_high_z(self):
        bg = Background(PLANCK2013)
        assert float(radiation_fraction(bg, 1e-6)) > 0.99

    def test_density_parameters_sum_to_one(self):
        bg = Background(PLANCK2013)
        for a in (1e-4, 0.01, 0.5, 1.0):
            de_fraction = bg.params.omega_de * bg._de_ratio(a) / bg.e2(a)
            tot = (
                float(bg.omega_m_a(a))
                + float(radiation_fraction(bg, a))
                + float(de_fraction)
            )
            assert tot == pytest.approx(1.0, abs=1e-10)

    def test_age_of_universe_planck(self):
        age = age_in_gyr(PLANCK2013)
        # Planck 2013: 13.813 +/- 0.058 Gyr
        assert age == pytest.approx(13.81, abs=0.1)

    def test_radiation_shifts_age(self):
        """Paper §2.1: dropping radiation makes the Universe ~3.7 Myr older."""
        with_r = age_in_gyr(PLANCK2013)
        without = age_in_gyr(PLANCK2013.with_(include_radiation=False))
        diff_myr = (without - with_r) * 1e3
        assert 2.0 < diff_myr < 6.0

    def test_age_monotonic(self):
        ages = [age_in_gyr(PLANCK2013, a) for a in (0.1, 0.5, 1.0)]
        assert ages == sorted(ages)

    def test_comoving_distance_today_zero(self):
        bg = Background(PLANCK2013)
        assert bg.comoving_distance(1.0) == pytest.approx(0.0, abs=1e-10)

    def test_comoving_distance_z1(self):
        bg = Background(PLANCK2013)
        # chi(z=1) ~ 2300 Mpc/h for Planck-ish parameters
        chi = bg.comoving_distance(0.5)
        assert 2200 < chi < 2500

    def test_array_broadcasting(self):
        bg = Background(PLANCK2013)
        a = np.array([0.1, 0.5, 1.0])
        assert bg.efunc(a).shape == (3,)
        assert np.all(np.diff(bg.efunc(a)) < 0)
