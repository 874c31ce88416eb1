"""Gravity solvers: treecode, direct, Ewald, periodic, PM/TreePM."""

from .direct import direct_accelerations
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

# read by benchmarks/step/run.py for its env stamp; ROADMAP item 1 (the
# PR that may edit benchmarks/step/) drops that reader and this line
NUMBA_AVAILABLE = False  # the numba backend is retired (DESIGN.md, "Answered A/Bs")

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
    "evaluate_forces",
    "make_softening",
]
