"""Gravity solvers: treecode, direct, Ewald, periodic, PM/TreePM."""

from .direct import direct_accelerations, direct_potential_energy
from .kernels import NUMBA_AVAILABLE, kernel_available, resolve_backend
from .smoothing import (
    DehnenK1Softening,
    NoSoftening,
    PlummerSoftening,
    SofteningKernel,
    SplineSoftening,
    make_softening,
)
from .solver import ForceSpec, TreecodeConfig, TreecodeGravity
from .treeforce import ForceResult, evaluate_forces

__all__ = [
    "DehnenK1Softening",
    "ForceResult",
    "ForceSpec",
    "NUMBA_AVAILABLE",
    "NoSoftening",
    "PlummerSoftening",
    "SofteningKernel",
    "SplineSoftening",
    "TreecodeConfig",
    "TreecodeGravity",
    "direct_accelerations",
    "direct_potential_energy",
    "evaluate_forces",
    "kernel_available",
    "make_softening",
    "resolve_backend",
]
