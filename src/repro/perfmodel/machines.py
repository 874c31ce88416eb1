"""Machine catalog: the hardware of Tables 1 and 3.

Each entry carries enough microarchitectural detail (clock, core
count, SIMD width, fused-multiply-add balance) to *model* the
sustained performance of the HOT gravity kernels, following the
paper's own accounting in §7: Delta -> Jaguar performance is explained
by a factor 55 in clock x 4096 in concurrency x ~0.8 efficiency.
Modeled numbers are compared against the published measurements in the
Table 1/Table 3 benchmarks.  :class:`MachineModel` is the alpha-beta
machine (latency, bandwidth, node structure, sustained flop/s per core)
the simulated parallel runs, the scaling model and the kernel counters'
roofline are modeled on.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Machine", "MachineModel", "Processor", "TABLE1_MACHINES", "TABLE3_PROCESSORS"]


@dataclass(frozen=True)
class MachineModel:
    """Alpha-beta communication model with node topology.

    Attributes
    ----------
    latency_s:
        Per-message latency alpha (seconds).
    bandwidth_Bps:
        Per-link bandwidth beta (bytes/second).
    cores_per_node:
        Ranks sharing one network endpoint.
    node_bandwidth_Bps:
        Injection bandwidth of one node (shared by its ranks).
    flops_per_core:
        Sustainable flop/s of one core for the gravity kernels (the
        ~40%-of-peak figure the paper quotes).
    memory_per_node_bytes:
        For modelling the OpenMPI buffer blow-up of §3.1.
    """

    latency_s: float = 2e-6
    bandwidth_Bps: float = 5e9
    cores_per_node: int = 16
    node_bandwidth_Bps: float = 1e10
    flops_per_core: float = 8e9
    memory_per_node_bytes: float = 32e9
    name: str = "generic"

    def ptp_time(self, nbytes: float) -> float:
        """Point-to-point message time (postal model)."""
        return self.latency_s + nbytes / self.bandwidth_Bps


@dataclass(frozen=True)
class Processor:
    """A single core or accelerator running the gravity micro-kernel."""

    name: str
    clock_ghz: float
    simd_width: int  # single-precision lanes
    dual_issue: bool  # can it issue mul+add (or FMA) per cycle
    #: fraction of peak the gravity inner loop sustains (the paper: ~40%
    #: on CPUs with SSE/AVX, ~25% target on GPUs, much less unvectorized)
    kernel_efficiency: float
    measured_gflops: float  # Table 3 published value
    n_units: int = 1  # SMs for GPUs

    @property
    def peak_gflops(self) -> float:
        issue = 2.0 if self.dual_issue else 1.0
        return self.clock_ghz * self.simd_width * issue * self.n_units

    @property
    def modeled_gflops(self) -> float:
        return self.peak_gflops * self.kernel_efficiency


#: Table 3 entries (single-precision monopole micro-kernel).
TABLE3_PROCESSORS = [
    Processor("2530-MHz Intel P4 (icc)", 2.53, 1, False, 0.46, 1.17),
    Processor("2530-MHz Intel P4 (SSE)", 2.53, 4, False, 0.64, 6.51),
    Processor("2600-MHz AMD Opteron 8435", 2.6, 4, True, 0.67, 13.88),
    Processor("2660-MHz Intel Xeon E5430", 2.66, 4, True, 0.77, 16.34),
    Processor("2100-MHz AMD Opteron 6172 (Hopper)", 2.1, 4, True, 0.85, 14.25),
    Processor("PowerXCell 8i (single SPE)", 3.2, 4, True, 0.64, 16.36),
    Processor("2200-MHz AMD Opteron 6274 (Jaguar)", 2.2, 4, True, 0.96, 16.97),
    Processor("2600-MHz Intel Xeon E5-2670 (AVX)", 2.6, 8, True, 0.68, 28.41),
    Processor(
        "1300-MHz NVIDIA M2090 GPU (16 SMs)", 1.3, 32, True, 0.82, 1097.0, n_units=16
    ),
    Processor(
        "732-MHz NVIDIA K20X GPU (15 SMs)", 0.732, 192, True, 0.53, 2243.0, n_units=15
    ),
]


@dataclass(frozen=True)
class Machine:
    """A Table 1 system: HOT's sustained Tflop/s through two decades."""

    year: int
    site: str
    name: str
    procs: int
    measured_tflops: float
    clock_ghz: float
    simd_width: int  # single-precision lanes per processor
    dual_issue: bool
    kernel_efficiency: float

    @property
    def concurrency(self) -> float:
        """processors x SIMD lanes x issue width — §7's metric (Jaguar:
        16384 nodes x 16 cores x 4-wide multiply-add = 2.1 million)."""
        return self.procs * self.simd_width * (2 if self.dual_issue else 1)

    @property
    def modeled_tflops(self) -> float:
        issue = 2.0 if self.dual_issue else 1.0
        peak = self.procs * self.clock_ghz * self.simd_width * issue / 1e3
        return peak * self.kernel_efficiency


#: Table 1 (performance of HOT across two decades).  Efficiencies are the
#: single free parameter per row, constrained to the plausible 0.2-0.5
#: band the paper quotes (and lower for pre-SIMD machines with slow
#: memory systems).
TABLE1_MACHINES = [
    Machine(2012, "OLCF", "Cray XT5 (Jaguar)", 262144, 1790.0, 2.2, 4, True, 0.39),
    Machine(2012, "LANL", "Appro (Mustang)", 24576, 163.0, 2.3, 4, True, 0.36),
    Machine(2011, "LANL", "SGI XE1300", 4096, 41.7, 2.66, 4, True, 0.48),
    Machine(2006, "LANL", "Linux Networx", 448, 1.88, 2.2, 2, True, 0.48),
    Machine(2003, "LANL", "HP/Compaq (QB)", 3600, 2.79, 1.25, 1, True, 0.31),
    Machine(2002, "NERSC", "IBM SP-3(375/W)", 256, 0.058, 0.375, 1, True, 0.30),
    Machine(1996, "Sandia", "Intel (ASCI Red)", 6800, 0.465, 0.2, 1, True, 0.17),
    Machine(1995, "JPL", "Cray T3D", 256, 0.008, 0.15, 1, False, 0.21),
    Machine(1995, "LANL", "TMC CM-5", 512, 0.014, 0.032, 4, True, 0.11),
    Machine(1993, "Caltech", "Intel Delta", 512, 0.010, 0.04, 1, False, 0.49),
]
