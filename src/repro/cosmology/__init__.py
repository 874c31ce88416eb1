"""Cosmological background, growth and linear power (CLASS substitute).

Public API::

    from repro.cosmology import (
        CosmologyParams, PLANCK2013, WMAP1, WMAP7, EDS,
        Background, GrowthCalculator, LinearPower, DriftKickIntegrals,
    )
"""

from .background import Background
from .growth import GrowthCalculator
from .params import EDS, PLANCK2013, WMAP1, WMAP5, WMAP7, CosmologyParams
from .power import LinearPower, tophat_window
from .timeintegrals import (
    DriftKickIntegrals,
    code_mean_density,
    code_particle_mass,
)

__all__ = [
    "Background",
    "CosmologyParams",
    "DriftKickIntegrals",
    "EDS",
    "GrowthCalculator",
    "LinearPower",
    "PLANCK2013",
    "WMAP1",
    "WMAP5",
    "WMAP7",
    "code_mean_density",
    "code_particle_mass",
    "tophat_window",
]
