"""Linear growth of matter perturbations.

2HOT (§2.1) gets the growth function either from CLASS (numerically,
including the effect of radiation) or analytically when radiation and
non-trivial dark energy are excluded.  Both paths are reproduced:

* :meth:`GrowthCalculator.growth_ode` integrates the sub-horizon growth
  ODE in ln(a) with the full Friedmann background, including the
  Meszaros suppression of growth during radiation domination.  The
  paper's headline check — the z=99 -> z=0 growth ratio moving from
  82.8 to 79.0 (almost 5%) when radiation is dropped for Planck 2013
  parameters — is a regression test of this module.
* :meth:`GrowthCalculator.growth_heath` evaluates the classic Heath
  (1977) integral, exact for matter + curvature + Lambda.

Also provided: the logarithmic growth rate f = dlnD/dlna, and the
second-order (2LPT) growth factor used by the IC generator.
"""

from __future__ import annotations

import functools

import numpy as np

from .background import Background
from .params import CosmologyParams

__all__ = ["GrowthCalculator"]


def _rhs(lna, y, bg: Background):
    """Growth ODE in x = ln a for y = (D, dD/dlna).

    D'' + [2 + dlnH/dlnA] D' = (3/2) Omega_m(a) D, with radiation
    (and dark energy) entering only through the background.
    """
    a = np.exp(lna)
    e2 = float(bg.e2(a))
    # dln(H)/dln(a) = (1/2) dln(E^2)/dln(a)
    p = bg.params
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


@functools.lru_cache(maxsize=16)
def _solution(params: CosmologyParams, a_init: float, lna_end: float):
    """The growth ODE integrated once from ``a_init`` to exp(``lna_end``).

    Returns scipy's dense output, (D, dD/dlna) as a function of ln a —
    the interpolant ``solve_ivp`` itself evaluates for a ``t_eval``, so
    reading it gives the numbers a solve per call would.  Shared by
    every :class:`GrowthCalculator` of the same cosmology in the process.
    """
    # During matter domination D ~ a; during radiation domination the
    # growing mode is the Meszaros solution D ~ 1 + 3a/(2a_eq); starting
    # deep in the radiation era with D ∝ a and letting the ODE relax
    # through equality captures the suppression automatically.
    from scipy import integrate

    sol = integrate.solve_ivp(
        _rhs,
        (np.log(a_init), lna_end),
        [a_init, a_init],
        args=(Background(params),),
        rtol=1e-9,
        atol=1e-12,
        dense_output=True,
        method="RK45",
    )
    if not sol.success:  # pragma: no cover - defensive
        raise RuntimeError(f"growth ODE failed: {sol.message}")
    return sol.sol


class GrowthCalculator:
    """Computes D(a), f(a) and the 2LPT growth factor for a cosmology."""

    def __init__(self, params: CosmologyParams, a_init: float = 1e-6):
        self.params = params
        self.bg = Background(params)
        self.a_init = a_init

    # ----- ODE growth ----------------------------------------------------------
    def _solve(self, a_eval: np.ndarray) -> np.ndarray:
        """(D, dD/dlna) at the 1-d array ``a_eval``, clipped below at ``a_init``."""
        lna_end = float(np.log(max(a_eval.max(), 1.0)))
        sol = _solution(self.params, self.a_init, lna_end)
        return sol(np.log(np.clip(a_eval, self.a_init, None)))

    def growth_ode(self, a, normalize: bool = True):
        """Linear growth factor D(a) from the ODE.

        With ``normalize`` (default), D(a=1) = 1; otherwise D matches the
        raw growing-mode amplitude with D ~ a deep in matter domination.
        """
        a = np.asarray(a, dtype=float)
        scalar = a.ndim == 0
        d = self._solve(np.atleast_1d(a))[0]
        if normalize:
            d = d / self._solve(np.array([1.0]))[0][-1]
        return float(d[0]) if scalar else d

    def growth_rate(self, a):
        """f(a) = dlnD/dlna from the ODE solution."""
        a = np.asarray(a, dtype=float)
        scalar = a.ndim == 0
        d, dp = self._solve(np.atleast_1d(a))
        f = dp / d
        return float(f[0]) if scalar else f

    # ----- analytic (Heath) growth ----------------------------------------------
    def growth_heath(self, a):
        """Heath (1977) integral growth factor, normalized to D(1) = 1.

        D(a) ∝ H(a) ∫_0^a da' / (a' H(a'))^3.  Exact for cosmologies with
        matter, curvature and a cosmological constant but **no radiation**;
        2HOT keeps this path for comparison with codes lacking radiation.
        """
        p = self.params

        def e_norad(x):
            return np.sqrt(
                p.omega_m / x**3 + p.omega_k / x**2 + p.omega_de
            )

        from scipy import integrate

        def one(av):
            val, _ = integrate.quad(
                lambda x: 1.0 / (x * e_norad(x)) ** 3, 1e-12, av, limit=200
            )
            return e_norad(av) * val

        a = np.asarray(a, dtype=float)
        scalar = a.ndim == 0
        d = np.array([one(av) for av in np.atleast_1d(a)]) / one(1.0)
        return float(d[0]) if scalar else d

    # ----- 2LPT ------------------------------------------------------------------
    def growth_2lpt(self, a):
        """Second-order growth factor D2(a).

        Uses the standard fit D2 ≈ -(3/7) D1^2 Omega_m(a)^{-1/143}
        (Bouchet et al. 1995), adequate for 2LPT initial conditions.
        Returned with the conventional negative sign.
        """
        a = np.asarray(a, dtype=float)
        d1 = self.growth_ode(a, normalize=False)
        om_a = self.bg.omega_m_a(a)
        return -3.0 / 7.0 * d1**2 * om_a ** (-1.0 / 143.0)

