"""Tests for the linear growth factor (repro.cosmology.growth)."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from repro.cosmology import EDS, PLANCK2013, GrowthCalculator, LinearPower
from repro.cosmology import growth as growth_module
from repro.cosmology.background import Background

solve_ivp = integrate.solve_ivp  # the reference below keeps scipy's own when a test counts calls


class TestGrowthODE:
    def test_eds_growth_proportional_to_a(self):
        g = GrowthCalculator(EDS)
        a = np.array([0.05, 0.1, 0.2, 0.5, 1.0])
        d = g.growth_ode(a)
        assert np.allclose(d, a, rtol=1e-4)

    def test_normalized_at_unity(self):
        g = GrowthCalculator(PLANCK2013)
        assert g.growth_ode(1.0) == pytest.approx(1.0, rel=1e-10)

    def test_monotonic_increase(self):
        g = GrowthCalculator(PLANCK2013)
        d = g.growth_ode(np.array([0.01, 0.1, 0.3, 0.7, 1.0]))
        assert np.all(np.diff(d) > 0)

    def test_lambda_suppression(self):
        """Dark energy suppresses growth: D(a) < a at late times (normalised
        to match in the matter era)."""
        g = GrowthCalculator(PLANCK2013)
        d01, d1 = g.growth_ode(np.array([0.01, 1.0]), normalize=False)
        # growth from a=0.01 to 1 should be < factor 100 (EdS value)
        assert d1 / d01 < 100.0
        assert d1 / d01 > 50.0

    def test_paper_growth_ratio_with_radiation(self):
        """§2.1: radiation changes the z=99 -> z=0 growth factor at the
        several-percent level for Planck 2013 parameters.

        The paper quotes 82.8 (CLASS, correct) vs 79.0 (no radiation).
        Our Newtonian scale-independent ODE reproduces the no-radiation
        value (79.0) and the *direction and order of magnitude* of the
        radiation correction (~2% here vs ~5% in CLASS, whose value
        additionally includes Boltzmann-level baryon-CDM relative
        evolution that a fluid ODE cannot carry).  Documented in
        EXPERIMENTS.md.
        """
        def growth_since(params, a_from):
            d = GrowthCalculator(params).growth_ode(
                np.array([a_from, 1.0]), normalize=False
            )
            return float(d[1] / d[0])

        a99 = 1.0 / 100.0
        with_r = growth_since(PLANCK2013, a99)
        no_r = growth_since(PLANCK2013.with_(include_radiation=False), a99)
        assert no_r == pytest.approx(79.0, rel=0.01)
        # radiation (Meszaros drag) is a several-percent effect
        rel_change = abs(no_r - with_r) / no_r
        assert 0.005 < rel_change < 0.06

    def test_growth_rate_eds_is_one(self):
        g = GrowthCalculator(EDS)
        assert g.growth_rate(0.5) == pytest.approx(1.0, rel=1e-3)

    def test_growth_rate_omega_m_power(self):
        """f(a=1) ~ Omega_m^0.55 for LCDM."""
        g = GrowthCalculator(PLANCK2013)
        f = g.growth_rate(1.0)
        assert f == pytest.approx(PLANCK2013.omega_m**0.55, rel=0.02)

    def test_scalar_and_array_agree(self):
        g = GrowthCalculator(PLANCK2013)
        assert g.growth_ode(0.5) == pytest.approx(
            g.growth_ode(np.array([0.5]))[0]
        )


class TestGrowthHeath:
    def test_heath_matches_ode_without_radiation(self):
        p = PLANCK2013.with_(include_radiation=False)
        g = GrowthCalculator(p)
        for a in (0.1, 0.3, 1.0):
            assert g.growth_heath(a) == pytest.approx(g.growth_ode(a), rel=2e-3)

    def test_heath_eds(self):
        g = GrowthCalculator(EDS)
        assert g.growth_heath(0.25) == pytest.approx(0.25, rel=1e-6)


class TestGrowth2LPT:
    def test_eds_limit(self):
        """D2 -> -(3/7) D1^2 in EdS."""
        g = GrowthCalculator(EDS)
        d1 = g.growth_ode(0.5, normalize=False)
        d2 = g.growth_2lpt(0.5)
        assert d2 == pytest.approx(-3.0 / 7.0 * d1**2, rel=1e-3)

    def test_negative_sign(self):
        g = GrowthCalculator(PLANCK2013)
        assert g.growth_2lpt(1.0) < 0


def solve_per_call(params, a_eval, a_init=1e-6):
    """(D, dD/dlna) at ``a_eval`` from a solve of its own, end point and
    ``t_eval`` as every ``GrowthCalculator`` call made them before the
    solution was shared."""
    bg = Background(params)

    def rhs(lna, y):
        a = np.exp(lna)
        e2 = float(bg.e2(a))
        p = params
        de = p.omega_de * float(bg._de_ratio(a))
        dlne2 = (
            -4.0 * p.omega_r / a**4
            - 3.0 * p.omega_m / a**3
            - 2.0 * p.omega_k / a**2
            - 3.0 * (1.0 + p.w0 + p.wa * (1.0 - a)) * de
        ) / e2
        dlnh = 0.5 * dlne2
        om_a = p.omega_m / a**3 / e2
        d, dp = y
        return [dp, -(2.0 + dlnh) * dp + 1.5 * om_a * d]

    a_eval = np.atleast_1d(np.asarray(a_eval, dtype=float))
    sol = solve_ivp(
        rhs,
        (np.log(a_init), np.log(max(a_eval.max(), 1.0))),
        [a_init, a_init],
        t_eval=np.log(np.clip(a_eval, a_init, None)),
        rtol=1e-9,
        atol=1e-12,
        dense_output=True,
        method="RK45",
    )
    assert sol.success
    return sol.y


@pytest.fixture
def count_solves(monkeypatch):
    """Empty the shared solutions and count ``solve_ivp`` calls from here on."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    growth_module._solution.cache_clear()
    monkeypatch.setattr(integrate, "solve_ivp", counting)
    yield calls
    growth_module._solution.cache_clear()


class TestSharedSolution:
    #: below a_init (clipped), the IC epochs, late times, and beyond a = 1
    #: (the integration's end point moves)
    EPOCHS = [
        1e-8, 0.0123, 0.02, 0.5, 1.0, 1.7,
        np.array([0.01, 0.1, 0.3, 0.7, 1.0]),
        np.array([1e-8, 1e-3, 0.5, 2.0]),
        np.linspace(0.001, 1.0, 300),
    ]

    @pytest.mark.parametrize(
        "params", [PLANCK2013, EDS, PLANCK2013.with_(include_radiation=False)],
        ids=["planck", "eds", "no-radiation"],
    )
    def test_every_reading_is_the_per_call_solve_bit_for_bit(self, params):
        g = GrowthCalculator(params)
        d_one = solve_per_call(params, [1.0])[0][-1]
        for a in self.EPOCHS:
            d, dp = solve_per_call(params, a)
            scalar = np.ndim(a) == 0
            om_a = g.bg.omega_m_a(np.asarray(a, dtype=float))
            for got, want in (
                (g.growth_ode(a, normalize=False), d),
                (g.growth_ode(a), d / d_one),
                (g.growth_rate(a), dp / d),
                (g.growth_2lpt(a), -3.0 / 7.0 * d**2 * om_a ** (-1.0 / 143.0)),
            ):
                assert isinstance(got, float) if scalar else got.shape == np.shape(a)
                assert np.array_equal(np.atleast_1d(got), want), a

    def test_one_solve_serves_two_ics_and_a_hundred_power_spectra(self, count_solves):
        """Ten solves per two ``generate_ic`` calls and two per
        ``power(k, a)`` before: five readings per IC (D twice over for
        the normalisation, f, D2, D again), each a solve of its own."""
        from repro.simulation import ICConfig, generate_ic

        for n in (6, 4):
            generate_ic(PLANCK2013, ICConfig(n_per_dim=n, a_init=0.02, seed=1))
        power = LinearPower(PLANCK2013)
        k = np.logspace(-2, 0, 5)
        for _ in range(100):
            power.power(k, a=0.5)
        assert len(count_solves) == 1

    def test_each_cosmology_start_and_end_point_gets_its_own(self, count_solves):
        g = GrowthCalculator(PLANCK2013)
        g.growth_ode(0.5), g.growth_rate(0.1), GrowthCalculator(PLANCK2013).growth_2lpt(0.3)
        assert len(count_solves) == 1
        other = PLANCK2013.with_(omega_m=0.25)
        d_other = GrowthCalculator(other).growth_ode(0.5)
        assert len(count_solves) == 2
        assert d_other == solve_per_call(other, [0.5])[0][0] / solve_per_call(other, [1.0])[0][0]
        assert d_other != g.growth_ode(0.5)
        GrowthCalculator(PLANCK2013, a_init=1e-5).growth_ode(0.5)
        assert len(count_solves) == 3
        g.growth_ode(2.0, normalize=False)  # beyond a = 1: a longer integration
        assert [span[1] for span in count_solves] == [0.0, 0.0, 0.0, float(np.log(2.0))]
        g.growth_ode(2.0, normalize=False), g.growth_ode(0.7)
        assert len(count_solves) == 4


def test_early_inputs_of_the_step_benchmark_are_pinned(monkeypatch):
    """The 2LPT inputs of ``benchmarks/step`` (D, f and D2 at a = 0.02
    scale every displacement and momentum): sha256 over positions and
    masses, as the benchmark's committed force references key them."""
    step = Path(__file__).resolve().parent.parent / "benchmarks" / "step" / "workloads.py"
    spec = importlib.util.spec_from_file_location("step_workloads", step)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    for (n, seed), digest in {
        (14, 1): "53f692e08c9e7586",
        (8, 1): "deb65f9438f3ce6e",
        (14, 13): "d1e4d42f25901200",
    }.items():
        assert workloads.input_hash(workloads.make_inputs("early", n, seed))[:16] == digest
