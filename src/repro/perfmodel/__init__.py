"""Performance models: machine catalog, flop accounting, scaling, checkpoints."""

from .checkpoint import expected_overhead, optimal_interval, simulate_run
from .io import LUSTRE_ORNL, PANASAS_LANL, FileSystemModel
from .flops import (
    FLOPS_PER_MONOPOLE_PP,
    flops_per_cell_interaction,
    flops_per_particle,
)
from .machines import TABLE1_MACHINES, TABLE3_PROCESSORS, Machine, Processor
from .scaling import (
    ScalingInputs,
    StageBreakdown,
    StrongScalingModel,
    table2_breakdown,
)

__all__ = [
    "FileSystemModel",
    "LUSTRE_ORNL",
    "PANASAS_LANL",
    "FLOPS_PER_MONOPOLE_PP",
    "Machine",
    "Processor",
    "ScalingInputs",
    "StageBreakdown",
    "StrongScalingModel",
    "TABLE1_MACHINES",
    "TABLE3_PROCESSORS",
    "expected_overhead",
    "flops_per_cell_interaction",
    "flops_per_particle",
    "optimal_interval",
    "simulate_run",
    "table2_breakdown",
]
