"""Alltoall implementations and their scalability behaviour (paper §3.1).

The paper hit two production failures in vendor Alltoall code:

* a **memory surprise** — OpenMPI's internal buffers scaled as the
  *square* of the process count, capping runs at 256 x 24-core nodes;
  the fix was a hierarchical Alltoall relaying through one process per
  node;
* a **performance surprise** — beyond 32k processes, replacing Cray's
  MPI_Alltoall with "a trivial implementation using a loop over all
  pairs" was much faster for the sparse exchange pattern of an N-body
  step (after the first decomposition, particles only move to a few
  neighbouring domains).

All three strategies are implemented against :class:`SimComm`'s
point-to-point layer so they move real data; per-strategy cost/memory
models regenerate the paper's cross-over behaviour in the benchmarks.
"""

from __future__ import annotations

import math

import numpy as np

from ..observe import get_tracer
from .comm import SimComm

__all__ = [
    "alltoall_pairwise",
    "alltoall_hierarchical",
    "estimate_buffered_memory_per_node",
    "sparse_exchange_pattern",
]


def alltoall_pairwise(comm: SimComm, send: list[list[np.ndarray]]):
    """The "trivial" pairwise-loop Alltoall.

    P-1 rounds; in round k every rank i exchanges with i XOR k (or
    (i+k) mod P when P is not a power of two).  Only non-empty payloads
    cost anything, which is why this wins for sparse patterns at scale.
    """
    p = comm.n_ranks
    tr = get_tracer()
    with tr.span("alltoall.pairwise"):
        recv: list[list] = [[None] * p for _ in range(p)]
        for i in range(p):
            recv[i][i] = np.array(send[i][i], copy=True)
        pow2 = p & (p - 1) == 0
        skipped = 0
        for k in range(1, p):
            msgs = []
            for i in range(p):
                j = (i ^ k) if pow2 else (i + k) % p
                if j == i:
                    continue
                if np.asarray(send[i][j]).size == 0:
                    # sparse patterns skip empty partners entirely — the whole
                    # reason the trivial loop wins at scale (§3.1)
                    recv[j][i] = np.array(send[i][j], copy=True)
                    skipped += 1
                    continue
                msgs.append((i, j, send[i][j]))
            inbox = comm.exchange_pairs(msgs)
            for dst, items in enumerate(inbox):
                for src, payload in items:
                    recv[dst][src] = payload
    if tr.enabled:
        tr.count("alltoall.pairwise.calls")
        tr.count("alltoall.pairwise.rounds", p - 1)
        tr.count("alltoall.pairwise.skipped_empty", skipped)
    return recv


def alltoall_hierarchical(comm: SimComm, send: list[list[np.ndarray]]):
    """Node-relayed Alltoall — the paper's OpenMPI workaround.

    One leader per node gathers its node's outgoing traffic, leaders
    exchange combined payloads (n_nodes^2 messages instead of P^2), and
    each leader scatters to its node.  Internal buffer footprint per
    node is O(P) rather than O(P^2 / n_nodes).
    """
    p = comm.n_ranks
    tr = get_tracer()
    with tr.span("alltoall.hierarchical"):
        cpn = comm.machine.cores_per_node
        n_nodes = math.ceil(p / cpn)

        def node_of(r):
            return r // cpn

        def leader(node):
            return node * cpn

        # stage 1: on-node gather to leaders
        stage1 = []
        for i in range(p):
            if i != leader(node_of(i)):
                payload = np.concatenate(
                    [np.asarray(send[i][j]).ravel().view(np.uint8) for j in range(p)]
                ) if p else np.empty(0, dtype=np.uint8)
                stage1.append((i, leader(node_of(i)), payload))
        comm.exchange_pairs(stage1)

        # stage 2: leader-to-leader exchange of combined traffic
        stage2 = []
        for a in range(n_nodes):
            for b in range(n_nodes):
                if a == b:
                    continue
                members_a = [r for r in range(p) if node_of(r) == a]
                members_b = [r for r in range(p) if node_of(r) == b]
                blob = [np.asarray(send[i][j]).ravel().view(np.uint8)
                        for i in members_a for j in members_b]
                payload = np.concatenate(blob) if blob else np.empty(0, dtype=np.uint8)
                stage2.append((leader(a), leader(b), payload))
        comm.exchange_pairs(stage2)

        # stage 3: on-node scatter from leaders
        stage3 = []
        for j in range(p):
            if j != leader(node_of(j)):
                payload = np.concatenate(
                    [np.asarray(send[i][j]).ravel().view(np.uint8) for i in range(p)]
                ) if p else np.empty(0, dtype=np.uint8)
                stage3.append((leader(node_of(j)), j, payload))
        comm.exchange_pairs(stage3)

    if tr.enabled:
        tr.count("alltoall.hierarchical.calls")
        tr.count("alltoall.hierarchical.leader_messages", len(stage2))
        tr.count("alltoall.hierarchical.node_messages", len(stage1) + len(stage3))
    # data correctness: deliver the logical matrix (movement was costed above)
    return [[np.array(send[i][j], copy=True) for i in range(p)] for j in range(p)]


#: bytes of one eager Alltoall buffer
_EAGER_BUFFER_BYTES = 64 * 1024


def estimate_buffered_memory_per_node(n_ranks: int, cores_per_node: int) -> float:
    """The §3.1 memory surprise: an eager-buffered Alltoall keeps one
    internal buffer per (local rank, remote rank) pair, so per-node
    memory grows as cores_per_node * P — quadratic in P at fixed node
    count.  Returns bytes per node."""
    return cores_per_node * n_ranks * _EAGER_BUFFER_BYTES


#: the sparse exchange: share of a rank's particles that move in a step,
#: SFC neighbours on each side they move to, and bytes a particle
_MOVED_FRACTION = 0.02
_NEIGHBOR_SPREAD = 2
_BYTES_PER_PARTICLE = 48


def sparse_exchange_pattern(n_ranks: int, n_particles_per_rank: int):
    """Generate the sparse send matrix of a post-first-decomposition
    exchange: each rank sends only to a few SFC neighbours (§3.1:
    "particles will only move to a small number of neighboring
    domains during a timestep")."""
    send = [
        [np.empty(0, dtype=np.uint8) for _ in range(n_ranks)] for _ in range(n_ranks)
    ]
    for i in range(n_ranks):
        n_moved = int(_MOVED_FRACTION * n_particles_per_rank)
        for d in range(1, _NEIGHBOR_SPREAD + 1):
            for j in ((i + d) % n_ranks, (i - d) % n_ranks):
                share = max(1, n_moved // (2 * _NEIGHBOR_SPREAD))
                send[i][j] = np.zeros(share * _BYTES_PER_PARTICLE, dtype=np.uint8)
    return send
