"""Friedmann background evolution (paper eq. 1).

Replaces the tabulated background quantities 2HOT obtains from CLASS
(§2.1): the Hubble rate H(a), comoving distances and the matter density
parameter as functions of the scale factor.  Everything here follows
from

    (H/H0)^2 = Omega_R/a^4 + Omega_M/a^3 + Omega_k/a^2 + Omega_DE f(a)

with f(a) the CPL dark-energy density ratio.

``scipy.integrate`` is imported inside the functions that call it, as in
the rest of this package: a run that generates no initial conditions
never reaches them and so never pays for the import.
"""

from __future__ import annotations

import numpy as np

from .params import CosmologyParams

__all__ = ["Background"]


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

    # ----- distances -----------------------------------------------------------
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
