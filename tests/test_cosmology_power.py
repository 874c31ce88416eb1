"""Tests for the linear power spectrum (repro.cosmology.power)."""

import numpy as np
import pytest

from repro.cosmology import PLANCK2013, WMAP1, LinearPower, tophat_window


class TestWindow:
    def test_limit_at_zero(self):
        assert tophat_window(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_series_matches_exact_form(self):
        """The small-x Taylor branch agrees with the exact expression
        evaluated in extended effective precision just above the switch."""
        x = 1.5e-3
        exact = 3.0 * (np.sin(x) - x * np.cos(x)) / x**3
        series = 1.0 - x**2 / 10.0 + x**4 / 280.0
        # the exact form loses ~9 digits to cancellation at this x, which
        # is exactly why the series branch exists; agreement to 1e-8 shows
        # the branches join smoothly
        assert series == pytest.approx(exact, abs=1e-8)

    def test_decay(self):
        assert abs(tophat_window(np.array([50.0]))[0]) < 0.01


class TestLinearPower:
    def test_sigma8_normalization(self):
        lp = LinearPower(PLANCK2013)
        assert lp.sigma_r(8.0) == pytest.approx(PLANCK2013.sigma8, rel=1e-4)

    def test_sigma_100mpc_paper_value(self):
        """§2.2.1: variance in 100 Mpc/h spheres ~0.068 of mean for the
        standard model."""
        lp = LinearPower(PLANCK2013)
        assert lp.sigma_r(100.0) == pytest.approx(0.068, abs=0.012)

    def test_power_positive(self):
        lp = LinearPower(PLANCK2013)
        k = np.logspace(-4, 2, 50)
        assert np.all(lp.power(k) > 0)

    def test_power_peak_location(self):
        """P(k) peaks near k_eq ~ 0.01-0.02 h/Mpc."""
        lp = LinearPower(PLANCK2013)
        k = np.logspace(-3, 0, 400)
        kpeak = k[np.argmax(lp.power(k))]
        assert 0.005 < kpeak < 0.03

    def test_large_scale_slope_is_ns(self):
        lp = LinearPower(PLANCK2013)
        k = np.array([1e-4, 2e-4])
        slope = np.log(lp.power(k)[1] / lp.power(k)[0]) / np.log(2.0)
        assert slope == pytest.approx(PLANCK2013.n_s, abs=0.01)

    def test_growth_scaling(self):
        lp = LinearPower(PLANCK2013)
        d = lp.growth.growth_ode(0.5)
        assert lp.power(0.1, a=0.5) == pytest.approx(
            lp.power(0.1) * d * d, rel=1e-8
        )

    def test_wiggles_vs_nowiggle(self):
        """The BAO form oscillates around the smooth form by a few percent
        near k ~ 0.1 h/Mpc, and the two agree closely at low k."""
        lp = LinearPower(PLANCK2013, kind="eh")
        lpnw = LinearPower(PLANCK2013, kind="eh_nowiggle")
        k = np.logspace(-1.3, -0.5, 200)
        ratio = lp.power(k) / lpnw.power(k)
        assert ratio.max() > 1.005
        assert ratio.min() < 0.995
        assert np.all(np.abs(ratio - 1.0) < 0.2)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            LinearPower(PLANCK2013, kind="bbks")

    def test_sigma_m_monotone_decreasing(self):
        lp = LinearPower(PLANCK2013)
        m = np.logspace(12, 16, 5)
        s = lp.sigma_m(m)
        assert np.all(np.diff(s) < 0)

    def test_dlnsigma_dlnm_negative(self):
        lp = LinearPower(PLANCK2013)
        assert lp.dlnsigma_dlnm(1e14) < 0

    def test_wmap1_has_more_power(self):
        """WMAP1 (sigma8=0.9) has more small-scale power than Planck —
        the driver of the Fig. 8 mass-function differences."""
        s_w = LinearPower(WMAP1).sigma_m(1e15)
        s_p = LinearPower(PLANCK2013).sigma_m(1e15)
        assert s_w > s_p
