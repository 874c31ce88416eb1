"""Strong-scaling model (paper Fig. 5) and timestep breakdown (Table 2).

Fig. 5 measures one 2HOT timestep of a 128G-particle simulation on
16k-256k Jaguar cores: perfect scaling to 64k cores, 96% at 128k, 86%
at 256k.  The model here decomposes the step time into

    T(P) = W / (P * f)                      force work (perfectly parallel)
         + c_sort * (N/P) * log2(P) terms   decomposition (sample sort)
         + c_tree * log2(P) * alpha         tree build / branch exchange
         + V(P) / beta + m(P) * alpha       traversal request/reply
         + T_imb(P)                         load imbalance tail

with the communication volumes and imbalance *measured* from the
simulated parallel traversal on a small problem and scaled by the
surface/volume law (remote work ~ (N/P)^{2/3}), which is the standard
treecode communication scaling the paper's decomposition is designed
to achieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .machines import MachineModel

__all__ = ["ScalingInputs", "StrongScalingModel", "StageBreakdown", "table2_breakdown"]


#: bytes of one hashed cell on the wire
_HCELL_BYTES = 128.0


@dataclass
class ScalingInputs:
    """Calibration constants, typically measured from a small run."""

    n_particles: float
    flops_per_particle: float
    #: measured load imbalance (max/mean - 1) at a reference rank count
    imbalance_ref: float
    imbalance_ref_ranks: int
    #: remote hcells per rank at the reference rank count
    remote_cells_ref: float


@dataclass
class StrongScalingModel:
    """Evaluates T(P) and parallel efficiency for a machine."""

    inputs: ScalingInputs
    machine: MachineModel = field(default_factory=MachineModel)

    def time_components(self, p: int) -> dict:
        i = self.inputs
        m = self.machine
        force = i.n_particles * i.flops_per_particle / (p * m.flops_per_core)
        # sample sort: local sort ~ (N/P) log(N/P) key ops + alltoall of a
        # few percent of particles
        npp = i.n_particles / p
        sort = 8e-9 * npp * math.log2(max(npp, 2)) + m.ptp_time(0.05 * npp * 48) * 2
        # tree build: local (linear) + log P branch aggregation rounds
        tree = 2e-8 * npp + math.log2(max(p, 2)) * m.ptp_time(4096 * _HCELL_BYTES)
        # traversal communication: remote cells scale with domain surface,
        # (N/P)^(2/3) per rank, normalized to the measured reference
        ref_surface = (i.n_particles / i.imbalance_ref_ranks) ** (2.0 / 3.0)
        remote = i.remote_cells_ref * (npp ** (2.0 / 3.0)) / ref_surface
        comm = remote * _HCELL_BYTES / m.bandwidth_Bps + 32 * m.latency_s
        # load imbalance: grows slowly with P (domain granularity); the
        # standard (P/P_ref)^(1/3) granularity scaling
        imb = i.imbalance_ref * (p / i.imbalance_ref_ranks) ** (1.0 / 3.0)
        imbalance = force * imb
        return {
            "force": force,
            "sort": sort,
            "tree": tree,
            "traversal_comm": comm,
            "imbalance": imbalance,
        }

    def step_time(self, p: int) -> float:
        return float(sum(self.time_components(p).values()))

    def efficiency(self, p: int, p_ref: int) -> float:
        """Parallel efficiency relative to ideal scaling from p_ref."""
        return self.step_time(p_ref) * p_ref / (self.step_time(p) * p)

    def tflops(self, p: int) -> float:
        i = self.inputs
        return i.n_particles * i.flops_per_particle / self.step_time(p) / 1e12


@dataclass
class StageBreakdown:
    """Table 2 stage timings (seconds)."""

    domain_decomposition: float
    tree_build: float
    tree_traversal: float
    data_communication: float
    force_evaluation: float
    load_imbalance: float

    @property
    def total(self) -> float:
        return (
            self.domain_decomposition
            + self.tree_build
            + self.tree_traversal
            + self.data_communication
            + self.force_evaluation
            + self.load_imbalance
        )

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("Domain Decomposition", self.domain_decomposition),
            ("Tree Build", self.tree_build),
            ("Tree Traversal", self.tree_traversal),
            ("Data Communication During Traversal", self.data_communication),
            ("Force Evaluation", self.force_evaluation),
            ("Load Imbalance", self.load_imbalance),
        ]


def table2_breakdown(
    measured_fractions: dict,
    n_particles: float,
    flops_per_particle: float,
    n_ranks: int,
    machine: MachineModel,
) -> StageBreakdown:
    """Scale measured per-stage fractions to a target configuration.

    ``measured_fractions`` maps the stage names (as in
    :class:`StageBreakdown` fields) to fractions of a measured step; the
    force-evaluation time is computed from first principles (flops /
    machine rate) and the other stages set relative to it.
    """
    force = n_particles * flops_per_particle / (n_ranks * machine.flops_per_core)
    f_force = measured_fractions.get("force_evaluation", 0.5)
    scale = force / max(f_force, 1e-9)
    return StageBreakdown(
        domain_decomposition=scale * measured_fractions.get("domain_decomposition", 0.0),
        tree_build=scale * measured_fractions.get("tree_build", 0.0),
        tree_traversal=scale * measured_fractions.get("tree_traversal", 0.0),
        data_communication=scale * measured_fractions.get("data_communication", 0.0),
        force_evaluation=force,
        load_imbalance=scale * measured_fractions.get("load_imbalance", 0.0),
    )
