"""§3.1-3.2: communication-algorithm scaling surprises.

Regenerated claims:

* **memory surprise** — buffered Alltoall per-node memory grows
  linearly in P (quadratically machine-wide), crossing a node's RAM
  near the paper's observed 256-node OpenMPI ceiling; the hierarchical
  relay through one leader per node puts only n_nodes(n_nodes-1)
  messages on the network where the pairwise loop puts P(P-1),
* **performance surprise** — for the sparse particle-exchange pattern,
  the trivial pairwise loop sends only the non-empty pairs and beats a
  dense exchange as P grows,
* **branch aggregation** — hierarchical pairwise aggregation moves far
  less data per rank than WS93's global concatenation as P grows.
"""

import numpy as np
import pytest

from _simlib import once, print_table
from repro.keys import KEY_BITS, keys_from_positions
from repro.parallel import (
    MachineModel,
    SimComm,
    alltoall_hierarchical,
    alltoall_pairwise,
    branch_nodes,
    estimate_buffered_memory_per_node,
    exchange_global_concat,
    exchange_hierarchical,
    sparse_exchange_pattern,
)


class NodeTallyComm(SimComm):
    """A :class:`SimComm` that also counts the messages crossing nodes."""

    internode = 0

    def exchange_pairs(self, messages):
        cpn = self.machine.cores_per_node
        self.internode += sum(1 for s, d, _ in messages if s // cpn != d // cpn)
        return super().exchange_pairs(messages)


def dense_exchange(p: int):
    """Every rank sends one distinct key to every rank."""
    return [[np.full(1, i * p + j, dtype=np.uint64) for j in range(p)] for i in range(p)]


def test_memory_surprise(benchmark):
    def run():
        rows = []
        for nodes in (16, 64, 256, 1024):
            p = nodes * 24
            mem = estimate_buffered_memory_per_node(p, 24)
            rows.append((nodes, p, mem / 1e9))
        relay = []
        for nodes in (2, 8):
            p = nodes * 24
            send = dense_exchange(p)
            comms = {}
            for name, alltoall in (("pairwise", alltoall_pairwise),
                                   ("hierarchical", alltoall_hierarchical)):
                comm = comms[name] = NodeTallyComm(p, MachineModel(cores_per_node=24))
                recv = alltoall(comm, send)
                assert all(recv[j][i][0] == i * p + j for i in range(p) for j in range(p))
            relay.append((nodes, p, comms["pairwise"], comms["hierarchical"]))
        return rows, relay

    rows, relay = once(benchmark, run)
    print_table(
        "§3.1 memory surprise: buffered Alltoall per-node footprint",
        ["nodes", "ranks", "GB/node (32 GB nodes)"],
        [(n, p, round(g, 2)) for n, p, g in rows],
    )
    by_nodes = {n: g for n, p, g in rows}
    # the paper's ceiling: "could not run on more than 256 24-core nodes"
    assert by_nodes[256] > 32 * 0.25  # within reach of node RAM
    assert by_nodes[1024] > 32  # clearly impossible
    assert by_nodes[16] < 4  # and fine at small scale
    print_table(
        "§3.1 hierarchical Alltoall: dense exchange, 24 ranks a node",
        ["nodes", "ranks", "pairwise msgs", "pairwise inter-node",
         "relay msgs", "relay inter-node"],
        [(n, p, cp.ledger.total_messages(), cp.internode,
          ch.ledger.total_messages(), ch.internode) for n, p, cp, ch in relay],
    )
    for nodes, p, c_pair, c_relay in relay:
        assert c_pair.ledger.total_messages() == p * (p - 1)
        assert c_pair.internode == p * (p - 1) - nodes * 24 * 23
        # the leaders alone cross the network, once per node pair; the
        # rest is one on-node gather and one scatter message per member
        assert c_relay.internode == nodes * (nodes - 1)
        assert c_relay.ledger.total_messages() == nodes * (nodes - 1) + 2 * (p - nodes)


def test_performance_surprise_sparse_pairwise(benchmark):
    """The trivial pairwise loop's cost tracks the number of *non-empty*
    partners; a dense implementation pays all P^2 lanes."""

    def run():
        rows = []
        for p in (8, 32, 128):
            send = sparse_exchange_pattern(p, 20000)
            comm = SimComm(p, MachineModel())
            alltoall_pairwise(comm, send)
            dense_msgs = p * (p - 1)
            rows.append(
                (p, comm.ledger.total_messages(), dense_msgs,
                 comm.ledger.time_s)
            )
        return rows

    rows = once(benchmark, run)
    print_table(
        "§3.1 performance surprise: sparse exchange, pairwise loop",
        ["ranks", "messages sent", "dense P(P-1)", "modeled time (s)"],
        [(p, m, d, round(t, 6)) for p, m, d, t in rows],
    )
    # the sparse fraction of the dense lane count falls with P
    fracs = [msgs / dense for _p, msgs, dense, _t in rows]
    assert all(a > b for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] < 0.05
    # message count grows linearly (4 neighbors each), not quadratically
    assert rows[-1][1] / rows[0][1] == pytest.approx(
        rows[-1][0] / rows[0][0], rel=0.2
    )


def test_branch_aggregation_scaling(benchmark):
    """Bytes per rank: global concatenation grows ~linearly with P;
    hierarchical aggregation grows ~log P."""
    rng = np.random.default_rng(7)
    c = rng.random((20, 3))
    pos = (c[rng.integers(0, 20, 20000)] + 0.04 * rng.standard_normal((20000, 3))) % 1.0
    keys = np.sort(keys_from_positions(pos))
    n = len(keys)

    def run():
        rows = []
        for p in (8, 32, 128):
            bounds = (np.arange(p + 1) * n) // p
            branches = [branch_nodes(keys, bounds[i], bounds[i + 1]) for i in range(p)]
            placeholder = np.uint64(1) << np.uint64(3 * KEY_BITS)
            intervals = [
                (int(keys[bounds[i]] - placeholder),
                 int(keys[bounds[i + 1] - 1] - placeholder))
                for i in range(p)
            ]
            c1 = SimComm(p)
            exchange_global_concat(c1, branches)
            c2 = SimComm(p)
            exchange_hierarchical(c2, branches, intervals)
            rows.append(
                (p,
                 c1.ledger.total_bytes() / p,
                 c2.ledger.total_bytes() / p,
                 float(np.mean([len(b) for b in branches])))
            )
        return rows

    rows = once(benchmark, run)
    print_table(
        "§3.2 branch exchange: bytes per rank",
        ["ranks", "global concat B/rank", "hierarchical B/rank", "mean branches"],
        [(p, round(a), round(b), round(m, 1)) for p, a, b, m in rows],
    )
    # hierarchical wins at every scale tested and the gap widens
    gaps = [a / b for _p, a, b, _m in rows]
    assert all(g > 1.0 for g in gaps[1:])
    assert gaps[-1] > gaps[0]
