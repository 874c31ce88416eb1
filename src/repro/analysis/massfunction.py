"""Halo mass function: measurement and theory fits (paper §6, Fig. 8).

Figure 8 plots N(M)/Tinker08 for suites of simulations, finding the
Tinker08 fit ~5% low at 1e15 Msun/h for WMAP1 (its calibration
cosmology) and 10-15% low for Planck 2013 (non-universality).  This
module provides:

* :func:`binned_mass_function` — dn/dlnM from a halo catalog,
* :class:`TinkerMassFunction` — the Tinker et al. (2008) SO fit with
  its Delta-interpolated parameters and redshift evolution,
* :class:`WarrenMassFunction` — the Warren et al. (2006) FOF fit (the
  paper's own earlier 10%-level calibration, §6).

All fits are expressed as multiplicity functions f(sigma) with

    dn/dM = f(sigma) (rho_m/M) dln(1/sigma)/dM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cosmology import CosmologyParams, LinearPower

__all__ = [
    "binned_mass_function",
    "TinkerMassFunction",
    "WarrenMassFunction",
    "MassFunctionResult",
]


@dataclass
class MassFunctionResult:
    """Binned dn/dlnM measurement."""

    m_center: np.ndarray  # geometric bin centers [Msun/h]
    dn_dlnm: np.ndarray  # [h^3/Mpc^3]
    counts: np.ndarray
    poisson_err: np.ndarray  # fractional


def binned_mass_function(
    masses_msun_h: np.ndarray,
    volume_mpc_h: float,
    n_bins: int = 12,
    m_range: tuple | None = None,
) -> MassFunctionResult:
    """Count halos into logarithmic mass bins."""
    m = np.asarray(masses_msun_h, dtype=np.float64)
    m = m[m > 0]
    if m_range is None:
        m_range = (m.min() * 0.99, m.max() * 1.01)
    edges = np.geomspace(m_range[0], m_range[1], n_bins + 1)
    counts, _ = np.histogram(m, bins=edges)
    dlnm = np.diff(np.log(edges))
    centers = np.sqrt(edges[:-1] * edges[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        err = 1.0 / np.sqrt(counts)
    return MassFunctionResult(
        m_center=centers,
        dn_dlnm=counts / dlnm / volume_mpc_h**3,
        counts=counts,
        poisson_err=err,
    )


class WarrenMassFunction:
    """Warren et al. (2006) FOF(0.2) fit:
    f = 0.7234 (sigma^-1.625 + 0.2538) exp(-1.1982 / sigma^2)."""

    def f(self, sigma):
        s = np.asarray(sigma, dtype=np.float64)
        return 0.7234 * (s**-1.625 + 0.2538) * np.exp(-1.1982 / s**2)

    def dn_dlnm(self, params: CosmologyParams, m_msun_h, power: LinearPower | None = None):
        return _dn_dlnm(self, params, m_msun_h, power)


# Tinker et al. 2008, Table 2 parameter rows (Delta_mean, A, a, b, c)
_TINKER_TABLE = np.array(
    [
        [200, 0.186, 1.47, 2.57, 1.19],
        [300, 0.200, 1.52, 2.25, 1.27],
        [400, 0.212, 1.56, 2.05, 1.34],
        [600, 0.218, 1.61, 1.87, 1.45],
        [800, 0.248, 1.87, 1.59, 1.58],
        [1200, 0.255, 2.13, 1.51, 1.80],
        [1600, 0.260, 2.30, 1.46, 1.97],
        [2400, 0.260, 2.53, 1.44, 2.24],
        [3200, 0.260, 2.66, 1.41, 2.44],
    ]
)


class TinkerMassFunction:
    """Tinker et al. (2008) spherical-overdensity mass function.

    f(sigma) = A [ (sigma/b)^-a + 1 ] exp(-c/sigma^2), with parameters
    spline-interpolated in log(Delta) and the published redshift
    evolution: A(z) = A0 (1+z)^-0.14, a(z) = a0 (1+z)^-0.06,
    b(z) = b0 (1+z)^-alpha, log10 alpha(Delta) = -(0.75/log10(Delta/75))^1.2.
    """

    def __init__(self, delta: float = 200.0):
        self.delta = float(delta)
        logd = np.log10(_TINKER_TABLE[:, 0])
        x = np.log10(self.delta)
        self.a0 = np.interp(x, logd, _TINKER_TABLE[:, 1])
        self.aa0 = np.interp(x, logd, _TINKER_TABLE[:, 2])
        self.b0 = np.interp(x, logd, _TINKER_TABLE[:, 3])
        self.c0 = np.interp(x, logd, _TINKER_TABLE[:, 4])

    def parameters(self, z: float = 0.0):
        alpha = 10 ** (-((0.75 / np.log10(self.delta / 75.0)) ** 1.2))
        big_a = self.a0 * (1 + z) ** -0.14
        small_a = self.aa0 * (1 + z) ** -0.06
        b = self.b0 * (1 + z) ** -alpha
        return big_a, small_a, b, self.c0

    def f(self, sigma, z: float = 0.0):
        big_a, small_a, b, c = self.parameters(z)
        s = np.asarray(sigma, dtype=np.float64)
        return big_a * ((s / b) ** -small_a + 1.0) * np.exp(-c / s**2)

    def dn_dlnm(self, params: CosmologyParams, m_msun_h, power: LinearPower | None = None):
        return _dn_dlnm(self, params, m_msun_h, power)


def _dn_dlnm(fit, params: CosmologyParams, m_msun_h, power):
    """dn/dlnM = f(sigma) (rho_m / M) |dln sigma / dln M| at z = 0."""
    lp = power or LinearPower(params)
    m = np.atleast_1d(np.asarray(m_msun_h, dtype=np.float64))
    sigma = lp.sigma_m(m)
    dls = lp.dlnsigma_dlnm(m)
    try:
        f = fit.f(sigma, 0.0)
    except TypeError:
        f = fit.f(sigma)
    rho = params.rho_mean0
    return f * rho / m * np.abs(dls)
