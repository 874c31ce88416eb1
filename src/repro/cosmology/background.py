"""Friedmann background evolution (paper eq. 1).

Replaces the tabulated background quantities 2HOT obtains from CLASS
(§2.1): the Hubble rate H(a), the age of the Universe t(a), comoving
distances, and the density parameters of each species as functions of
the scale factor.  Everything here is a direct quadrature of

    (H/H0)^2 = Omega_R/a^4 + Omega_M/a^3 + Omega_k/a^2 + Omega_DE f(a)

with f(a) the CPL dark-energy density ratio.

``scipy.integrate`` is imported inside the functions that call it, as in
the rest of this package: a run that generates no initial conditions
never reaches them and so never pays for the import.
"""

from __future__ import annotations

import math

import numpy as np

from .params import CosmologyParams

__all__ = ["Background"]

# Conversion: (km/s/Mpc)^-1 in Gyr.  1/H0 [Gyr] = 977.79222 / (H0 [km/s/Mpc])
_HINV_GYR = 977.79222168


class Background:
    """Evaluates background quantities for a :class:`CosmologyParams`.

    All methods accept scalars or numpy arrays of the scale factor
    ``a`` (a=1 today) and broadcast element-wise.
    """

    def __init__(self, params: CosmologyParams):
        self.params = params

    # ----- expansion rate ----------------------------------------------------
    def e2(self, a):
        """(H(a)/H0)^2 from the Friedmann equation."""
        p = self.params
        a = np.asarray(a, dtype=float)
        return (
            p.omega_r / a**4
            + p.omega_m / a**3
            + p.omega_k / a**2
            + p.omega_de * self._de_ratio(a)
        )

    def _de_ratio(self, a):
        p = self.params
        if p.w0 == -1.0 and p.wa == 0.0:
            return np.ones_like(np.asarray(a, dtype=float))
        a = np.asarray(a, dtype=float)
        return a ** (-3.0 * (1.0 + p.w0 + p.wa)) * np.exp(-3.0 * p.wa * (1.0 - a))

    def efunc(self, a):
        """H(a)/H0."""
        return np.sqrt(self.e2(a))

    # ----- densities ---------------------------------------------------------
    def omega_m_a(self, a):
        """Matter density parameter at scale factor a."""
        a = np.asarray(a, dtype=float)
        return self.params.omega_m / a**3 / self.e2(a)

    def omega_de_a(self, a):
        """Dark-energy density parameter at scale factor a."""
        a = np.asarray(a, dtype=float)
        return self.params.omega_de * self._de_ratio(a) / self.e2(a)

    def omega_r_a(self, a):
        """Radiation density parameter at scale factor a."""
        a = np.asarray(a, dtype=float)
        return self.params.omega_r / a**4 / self.e2(a)

    # ----- times and distances -----------------------------------------------
    def age_gyr(self, a=1.0) -> float:
        """Age of the Universe at scale factor ``a`` in Gyr.

        t(a) = (1/H0) int_0^a da' / (a' E(a')).
        """
        a = float(a)

        def integrand(x):
            return 1.0 / (x * self.efunc(x))

        from scipy import integrate

        val, _ = integrate.quad(integrand, 0.0, a, limit=200)
        return val * _HINV_GYR / (100.0 * self.params.h)

    def lookback_gyr(self, a) -> float:
        """Lookback time from today to scale factor a, in Gyr."""
        return self.age_gyr(1.0) - self.age_gyr(a)

    def comoving_distance(self, a) -> float:
        """Comoving distance to scale factor ``a`` in Mpc/h.

        chi(a) = (c/H0) int_a^1 da' / (a'^2 E(a')), reported in h^-1 Mpc.
        """
        a = float(a)

        def integrand(x):
            return 1.0 / (x * x * self.efunc(x))

        from scipy import integrate

        val, _ = integrate.quad(integrand, a, 1.0, limit=200)
        # c/H0 in Mpc/h = 2997.92458
        return val * 2997.92458

    def a_of_t(self, t_gyr: float, a_bracket=(1e-6, 2.0)) -> float:
        """Invert age(a) = t via bisection."""
        from scipy import optimize

        lo, hi = a_bracket
        return float(
            optimize.brentq(lambda a: self.age_gyr(a) - t_gyr, lo, hi, xtol=1e-12)
        )

    # ----- matter-radiation equality ------------------------------------------
    @property
    def a_equality(self) -> float:
        """Scale factor at matter-radiation equality."""
        p = self.params
        if p.omega_r == 0.0:
            return 0.0
        return p.omega_r / p.omega_m

    @property
    def z_equality(self) -> float:
        a_eq = self.a_equality
        return math.inf if a_eq == 0.0 else 1.0 / a_eq - 1.0
