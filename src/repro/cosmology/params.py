"""Cosmological parameter sets.

The paper (§2.1) stresses that at the precision 2HOT targets, the
radiation content of the Universe (photons plus massless neutrinos)
must be included in the background evolution: with the Planck 2013
parameters, neglecting radiation shifts the age of the Universe by
3.7 Myr and the linear growth factor from z=99 by almost 5%
(82.8 -> 79.0).  :class:`CosmologyParams` therefore carries the photon
temperature and effective neutrino number, from which the radiation
density is derived, and an optional CPL dark-energy equation of state
(w0, wa) so that "any cosmology which can be defined in CLASS" has a
usable analogue here.

Units follow the conventions of the cosmological literature: H0 in
km/s/Mpc, densities as fractions of the critical density today.
"""

from __future__ import annotations

import dataclasses
__all__ = [
    "CosmologyParams",
    "PLANCK2013",
    "WMAP7",
    "WMAP5",
    "WMAP1",
    "EDS",
]

# Physical constants (CODATA / PDG values, SI unless noted).
# Critical density today in units of h^2 Msun / Mpc^3.
RHO_CRIT0 = 2.77536627e11
# Radiation density parameter per unit (T_cmb/2.7255 K)^4 h^-2 from
# Omega_gamma h^2 = 2.469e-5 (T/2.7255)^4.
_OMEGA_GAMMA_H2_REF = 2.469e-5
_T_CMB_REF = 2.7255


@dataclasses.dataclass(frozen=True)
class CosmologyParams:
    """A homogeneous background cosmology.

    Attributes
    ----------
    omega_m:
        Total matter density fraction today (CDM + baryons).
    omega_b:
        Baryon density fraction today (subset of ``omega_m``).
    omega_de:
        Dark energy density fraction today.  If ``flat`` construction
        helpers are used this is inferred from the closure relation.
    h:
        Dimensionless Hubble parameter, H0 = 100 h km/s/Mpc.
    sigma8:
        RMS linear density fluctuation in 8 Mpc/h spheres at z=0,
        used to normalise the power spectrum.
    n_s:
        Scalar spectral index of the primordial power spectrum.
    t_cmb:
        CMB temperature today [K]; sets the photon density.
    n_eff:
        Effective number of massless neutrino species.
    w0, wa:
        CPL dark-energy equation of state w(a) = w0 + wa (1 - a).
    include_radiation:
        If False, photons and neutrinos are dropped from the Friedmann
        equation (the paper keeps this switch so 2HOT can be compared
        with codes that ignore radiation).
    """

    omega_m: float
    omega_b: float
    omega_de: float
    h: float
    sigma8: float = 0.8
    n_s: float = 0.96
    t_cmb: float = _T_CMB_REF
    n_eff: float = 3.046
    w0: float = -1.0
    wa: float = 0.0
    include_radiation: bool = True
    name: str = "custom"

    # ----- derived densities -------------------------------------------------
    @property
    def omega_gamma(self) -> float:
        """Photon density fraction today."""
        if not self.include_radiation:
            return 0.0
        return (
            _OMEGA_GAMMA_H2_REF
            * (self.t_cmb / _T_CMB_REF) ** 4
            / self.h**2
        )

    @property
    def omega_nu(self) -> float:
        """Massless-neutrino density fraction today."""
        if not self.include_radiation:
            return 0.0
        return self.omega_gamma * self.n_eff * (7.0 / 8.0) * (4.0 / 11.0) ** (4.0 / 3.0)

    @property
    def omega_r(self) -> float:
        """Total radiation density fraction today (photons + neutrinos)."""
        return self.omega_gamma + self.omega_nu

    @property
    def omega_k(self) -> float:
        """Curvature density fraction today from the closure relation."""
        return 1.0 - self.omega_m - self.omega_de - self.omega_r

    # ----- scales ------------------------------------------------------------
    @property
    def rho_mean0(self) -> float:
        """Comoving mean matter density today [h^2 Msun / Mpc^3]."""
        return RHO_CRIT0 * self.omega_m

    def particle_mass(self, box_mpc_h: float, n_particles: int) -> float:
        """Mass of one N-body particle [Msun/h] for a cube of side
        ``box_mpc_h`` Mpc/h sampled with ``n_particles`` equal-mass bodies."""
        volume = box_mpc_h**3
        return self.rho_mean0 * volume / n_particles

    def with_(self, **kw) -> "CosmologyParams":
        """Return a copy with selected fields replaced."""
        return dataclasses.replace(self, **kw)


def _flat(omega_m: float, omega_b: float, h: float, sigma8: float, n_s: float,
          name: str) -> CosmologyParams:
    """Build a spatially flat cosmology (omega_de from closure)."""
    probe = CosmologyParams(
        omega_m=omega_m, omega_b=omega_b, omega_de=0.0, h=h,
        sigma8=sigma8, n_s=n_s, name=name,
    )
    return probe.with_(omega_de=1.0 - omega_m - probe.omega_r)


#: Planck 2013 XVI cosmological parameters, the headline model of the paper.
PLANCK2013 = _flat(0.3175, 0.0490, 0.6711, 0.8344, 0.9624, name="Planck2013")

#: WMAP 7-year parameters (the model superseded by Planck in the paper).
WMAP7 = _flat(0.272, 0.0455, 0.704, 0.810, 0.967, name="WMAP7")

#: WMAP 5-year parameters.
WMAP5 = _flat(0.258, 0.0441, 0.719, 0.796, 0.963, name="WMAP5")

#: WMAP 1st-year parameters, against which Tinker08 was calibrated (Fig. 8).
WMAP1 = _flat(0.270, 0.0463, 0.72, 0.90, 0.99, name="WMAP1")

#: Einstein-de Sitter: pure matter, analytic growth D(a) = a.
EDS = CosmologyParams(
    omega_m=1.0, omega_b=0.05, omega_de=0.0, h=0.7, sigma8=0.8, n_s=1.0,
    include_radiation=False, name="EdS",
)
