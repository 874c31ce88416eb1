"""Tests for drift/kick integrals (repro.cosmology.timeintegrals)."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from repro.cosmology import (
    EDS,
    PLANCK2013,
    WMAP7,
    Background,
    DriftKickIntegrals,
    code_mean_density,
    code_particle_mass,
)
from repro.cosmology.timeintegrals import gauss_kronrod

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestCodeUnits:
    def test_mean_density(self):
        assert code_mean_density(EDS) == pytest.approx(3.0 / (8.0 * math.pi))

    def test_particle_mass_sums_to_density(self):
        n = 4096
        m = code_particle_mass(PLANCK2013, n)
        assert m * n == pytest.approx(code_mean_density(PLANCK2013))


class TestDriftKick:
    def test_zero_interval(self):
        dk = DriftKickIntegrals(PLANCK2013)
        assert dk.drift_factor(0.5, 0.5) == 0.0
        assert dk.kick_factor(0.5, 0.5) == 0.0

    def test_eds_analytic_drift(self):
        """EdS: E = a^{-3/2}, so drift = ∫ a^{-3/2} da = 2(√a1 - √a0)...
        wait: 1/(a^3 E) = a^{-3/2}; ∫ = 2(a1^{-1/2}... check sign."""
        dk = DriftKickIntegrals(EDS)
        a0, a1 = 0.25, 1.0
        # ∫ a^{-3/2} da = -2 a^{-1/2}
        expected = -2.0 * (a1**-0.5 - a0**-0.5)
        assert dk.drift_factor(a0, a1) == pytest.approx(expected, rel=1e-10)

    def test_eds_analytic_kick(self):
        dk = DriftKickIntegrals(EDS)
        a0, a1 = 0.25, 1.0
        # 1/(a^2 E) = a^{-1/2}; ∫ = 2 √a
        expected = 2.0 * (math.sqrt(a1) - math.sqrt(a0))
        assert dk.kick_factor(a0, a1) == pytest.approx(expected, rel=1e-10)

    def test_additivity(self):
        dk = DriftKickIntegrals(PLANCK2013)
        whole = dk.kick_factor(0.1, 0.9)
        split = dk.kick_factor(0.1, 0.5) + dk.kick_factor(0.5, 0.9)
        assert whole == pytest.approx(split, rel=1e-10)

    def test_positivity_forward(self):
        dk = DriftKickIntegrals(PLANCK2013)
        assert dk.drift_factor(0.2, 0.4) > 0
        assert dk.kick_factor(0.2, 0.4) > 0

    def test_drift_exceeds_kick_early(self):
        """At a < 1 the 1/a^3 drift weight dominates the 1/a^2 kick weight."""
        dk = DriftKickIntegrals(PLANCK2013)
        assert dk.drift_factor(0.02, 0.03) > dk.kick_factor(0.02, 0.03)


def _integrands(params):
    """The two factors' integrands, as ``DriftKickIntegrals`` writes them."""
    e = Background(params).efunc
    return {
        "drift_factor": lambda a: 1.0 / (a**3 * float(e(a))),
        "kick_factor": lambda a: 1.0 / (a**2 * float(e(a))),
    }


def _quad(f, a0, a1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a0, a1, limit=200, epsabs=1e-14, epsrel=1e-12)[0]


class TestQuadpackRule:
    """The in-repo 21-point Gauss-Kronrod rule against ``scipy.integrate.quad``."""

    @pytest.mark.parametrize("params", [PLANCK2013, EDS, WMAP7], ids=lambda p: p.name)
    def test_step_intervals_give_quads_bits(self, params):
        """700 seeded step intervals a cosmology (2,100 in all), d ln a in
        2^-7 .. 2^-3 from a in 0.01 .. 1.26: every factor is quad's float
        exactly — a Python float, so a float32 ``acc * kick`` stays float32."""
        rng = np.random.default_rng(31)
        dk = DriftKickIntegrals(params)
        f = _integrands(params)
        for _ in range(700):
            a0 = float(np.exp(rng.uniform(math.log(0.01), math.log(1.26))))
            a1 = a0 * float(np.exp(2.0 ** -rng.uniform(3.0, 7.0)))
            for name, integrand in f.items():
                got = getattr(dk, name)(a0, a1)
                assert type(got) is float
                assert got == _quad(integrand, a0, a1), (name, a0, a1)

    @pytest.mark.parametrize("params", [PLANCK2013, EDS], ids=lambda p: p.name)
    @pytest.mark.parametrize("a0, a1", [(0.1, 0.9), (0.25, 1.0), (0.0, 1.0)])
    def test_wide_intervals_bisect_to_quads_tolerance(self, params, a0, a1):
        dk = DriftKickIntegrals(params)
        for name, integrand in _integrands(params).items():
            if a0 == 0.0 and name == "drift_factor":
                continue  # ∫ da / (a^3 E) diverges at a = 0
            got = getattr(dk, name)(a0, a1)
            assert type(got) is float
            assert got == pytest.approx(_quad(integrand, a0, a1), rel=1e-13, abs=0)

    def test_first_pass_accepted_or_bisected(self):
        """A step interval takes one 21-point pass; 0 -> 1 needs bisection."""
        calls = []

        def counted(a):
            calls.append(a)
            return math.sqrt(a)

        assert gauss_kronrod(counted, 0.5, 0.55) == _quad(math.sqrt, 0.5, 0.55)
        assert len(calls) == 21
        calls.clear()
        assert gauss_kronrod(counted, 0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-13)
        assert len(calls) > 21 and all(type(a) is float for a in calls)

    def test_reversed_interval_is_negated(self):
        dk = DriftKickIntegrals(PLANCK2013)
        assert dk.kick_factor(0.6, 0.5) == -dk.kick_factor(0.5, 0.6)


_NO_IC_RUN = """
import sys, tempfile
import numpy as np
from repro.cosmology import PLANCK2013, code_particle_mass
from repro.simulation import ParticleSet, Simulation, SimulationConfig

n = 6
g = (np.arange(n) + 0.5) / n
pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
pos = np.mod(pos + np.random.default_rng(1).normal(0.0, 1e-3, pos.shape), 1.0)
ps = ParticleSet(pos=pos, mom=np.zeros_like(pos),
                 mass=np.full(n**3, code_particle_mass(PLANCK2013, n**3)),
                 ids=np.arange(n**3, dtype=np.int64), a=0.5, a_mom=0.5)
cfg = SimulationConfig(n_per_dim=n, a_init=0.5, a_final=0.9, p=2, max_refine=1)
with tempfile.TemporaryDirectory() as d:
    with Simulation(cfg, particles=ps) as sim:
        sim.run(max_steps=2)
        path = sim.save_checkpoint(d + "/restart.sdf")
    with Simulation.resume(path) as sim:
        sim.run(max_steps=1)
        assert sim.steps_completed == 3, sim.steps_completed
print(" ".join(m for m in ("scipy.integrate", "scipy.optimize", "scipy.interpolate")
               if m in sys.modules))
"""

_IC_RUN = """
import sys
from repro.cosmology import PLANCK2013
from repro.simulation import ICConfig, Simulation, SimulationConfig, generate_ic

ps = generate_ic(PLANCK2013, ICConfig(n_per_dim=4, a_init=0.05, seed=1))
cfg = SimulationConfig(n_per_dim=4, a_init=0.05, a_final=0.06, p=2, max_refine=1)
with Simulation(cfg, particles=ps) as sim:
    sim.run(max_steps=1)
print("scipy.integrate" in sys.modules)
"""


def test_only_initial_conditions_import_scipy_integrate():
    """A run on inputs it did not generate, through a checkpoint and a
    resume, imports none of scipy's integrate, optimize or interpolate;
    2LPT initial conditions (the growth ODE, the σ8 normalisation) still
    import integrate.  Should the second half fail because the IC path
    stopped needing it, update DESIGN.md's scipy row and README's
    Dependencies along with this test."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = [
        subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, timeout=300, env=env)
        for script in (_NO_IC_RUN, _IC_RUN)
    ]
    for done in out:
        assert done.returncode == 0, done.stdout + done.stderr
    assert out[0].stdout.strip() == ""
    assert out[1].stdout.strip() == "True"
