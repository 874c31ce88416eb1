"""Machines the simulated parallel runs are modeled on.

The paper's parallel algorithms are exercised on real data by
:mod:`repro.parallel.comm`; wall-clock is *modeled* with the standard
postal (alpha-beta) abstraction plus node structure, which is what the
paper's own scalability arguments use implicitly ("number of
communication buffers scaling as the number of processes squared",
latency hiding, etc.).  The model itself, :class:`MachineModel`, lives
in :mod:`repro.perfmodel.machines`, beside the hardware catalog, so that
the flop model and the scaling model can read it without importing this
package.
"""

from __future__ import annotations

from ..perfmodel.machines import MachineModel

__all__ = ["MachineModel", "JAGUAR_LIKE", "CLUSTER_LIKE"]


#: roughly a Cray XT5 node (Jaguar, the paper's Fig. 5 machine)
JAGUAR_LIKE = MachineModel(
    latency_s=5e-6,
    bandwidth_Bps=3e9,
    cores_per_node=16,
    node_bandwidth_Bps=6e9,
    flops_per_core=7e9,
    memory_per_node_bytes=16e9,
    name="jaguar-like",
)

#: a commodity cluster (Mustang-ish)
CLUSTER_LIKE = MachineModel(
    latency_s=1.5e-6,
    bandwidth_Bps=4e9,
    cores_per_node=24,
    node_bandwidth_Bps=8e9,
    flops_per_core=9e9,
    memory_per_node_bytes=64e9,
    name="cluster-like",
)
