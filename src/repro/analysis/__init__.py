"""Analysis pipeline: power spectra, halos, mass functions, sky maps."""

from .halos import FOFResult, HaloCatalog, fof_halos, so_masses
from .massfunction import (
    MassFunctionResult,
    TinkerMassFunction,
    WarrenMassFunction,
    binned_mass_function,
)
from .power import PowerSpectrumResult, measure_power
from .skymap import EqualAreaSphere, mollweide_xy, project_to_sky

__all__ = [
    "EqualAreaSphere",
    "FOFResult",
    "HaloCatalog",
    "MassFunctionResult",
    "PowerSpectrumResult",
    "TinkerMassFunction",
    "WarrenMassFunction",
    "binned_mass_function",
    "fof_halos",
    "measure_power",
    "mollweide_xy",
    "project_to_sky",
    "so_masses",
]
