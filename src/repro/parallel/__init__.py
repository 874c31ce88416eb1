"""Simulated parallel machine: the paper's §3 algorithms on real data.

SFC domain decomposition by parallel sample sort (American-flag radix
on-node), Alltoall strategy variants, hierarchical branch-node
aggregation, asynchronous batched messages (active messages), and the
request/reply parallel traversal — all executing against an in-process
machine with alpha-beta cost accounting.
"""

from .abm import ABMEngine, Message
from .alltoall import (
    alltoall_hierarchical,
    alltoall_pairwise,
    estimate_buffered_memory_per_node,
    sparse_exchange_pattern,
)
from .branches import (
    branch_nodes,
    coarsen_for_receiver,
    exchange_global_concat,
    exchange_hierarchical,
)
from .comm import CostLedger, SimComm
from .domain import Decomposition, decompose, domain_surface_stats
from .executor import ForceExecutor, ensure_executor
from .machine import CLUSTER_LIKE, JAGUAR_LIKE, MachineModel
from .ptraverse import ParallelTraversalStats, parallel_traversal
from .sort import american_flag_sort, choose_splitters, sample_sort

__all__ = [
    "ABMEngine",
    "CLUSTER_LIKE",
    "CostLedger",
    "Decomposition",
    "ForceExecutor",
    "JAGUAR_LIKE",
    "MachineModel",
    "Message",
    "ParallelTraversalStats",
    "SimComm",
    "alltoall_hierarchical",
    "alltoall_pairwise",
    "american_flag_sort",
    "branch_nodes",
    "choose_splitters",
    "coarsen_for_receiver",
    "decompose",
    "domain_surface_stats",
    "ensure_executor",
    "estimate_buffered_memory_per_node",
    "exchange_global_concat",
    "exchange_hierarchical",
    "parallel_traversal",
    "sample_sort",
    "sparse_exchange_pattern",
]
