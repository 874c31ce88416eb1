"""Cartesian multipole machinery (paper §2.2).

Multi-index tables, derivative tensors of radial Green's functions,
particle/multipole/local translations, homogeneous-cube moments and
analytic prism forces for background subtraction, and the Salmon &
Warren absolute error bounds behind 2HOT's MAC.
"""

from .bounds import (
    acceleration_error_bound,
    critical_radius,
)
from .codegen import (
    compiled_dtensor_function,
    dtensors_soa,
    generate_dtensor_source,
)
from .cube import cube_moments, subtract_background
from .dtensors import derivative_tensors, recurrence_plan
from .expansion import eval_coeffs, m2l, m2p, p2m
from .multiindex import MultiIndexSet, multi_index_set, n_coeffs
from .prism import prism_acceleration, prism_potential
from .radial import (
    ErfcKernel,
    ErfKernel,
    NewtonianKernel,
    PlummerKernel,
    RadialKernel,
)

__all__ = [
    "ErfKernel",
    "ErfcKernel",
    "MultiIndexSet",
    "NewtonianKernel",
    "PlummerKernel",
    "RadialKernel",
    "acceleration_error_bound",
    "compiled_dtensor_function",
    "critical_radius",
    "cube_moments",
    "derivative_tensors",
    "dtensors_soa",
    "eval_coeffs",
    "generate_dtensor_source",
    "m2l",
    "m2p",
    "multi_index_set",
    "n_coeffs",
    "p2m",
    "prism_acceleration",
    "prism_potential",
    "recurrence_plan",
    "subtract_background",
]
