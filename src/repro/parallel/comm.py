"""Simulated SPMD communicator with cost accounting.

An in-process stand-in for MPI: the "machine" owns the state of all
ranks and executes each collective for every rank at once (data
actually moves between per-rank arrays, so algorithmic bugs are real
bugs), while a :class:`CostLedger` accumulates bytes, message counts
and modeled time under a :class:`~repro.parallel.machine.MachineModel`.

The API mirrors mpi4py's buffer layer in spirit — alltoallv, allgather,
allreduce, point-to-point batches — but takes *lists over ranks*
because one Python process plays all ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..observe import get_tracer
from .machine import MachineModel

__all__ = ["CostLedger", "SimComm"]


@dataclass
class CostLedger:
    """Accumulated communication cost of a simulated execution."""

    bytes_sent: np.ndarray  # per rank
    messages_sent: np.ndarray  # per rank
    time_s: float = 0.0
    peak_buffer_bytes_per_node: float = 0.0

    def total_bytes(self) -> int:
        return int(self.bytes_sent.sum())

    def total_messages(self) -> int:
        return int(self.messages_sent.sum())


class SimComm:
    """A P-rank simulated communicator.

    All collective methods take/return lists of length P.  Modeled time
    assumes the collective's critical path (max over ranks), bulk-
    synchronous between calls — the paper's code is bulk-synchronous at
    this granularity too (decomposition, tree build, traversal phases).
    """

    def __init__(self, n_ranks: int, machine: MachineModel | None = None, tracer=None):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = int(n_ranks)
        self.machine = machine or MachineModel()
        self.tracer = tracer
        self.ledger = CostLedger(
            bytes_sent=np.zeros(self.n_ranks),
            messages_sent=np.zeros(self.n_ranks, dtype=np.int64),
        )

    # ----- accounting helpers --------------------------------------------------
    def _account(self, per_rank_bytes, per_rank_msgs, time_s: float) -> None:
        self.ledger.bytes_sent += per_rank_bytes
        self.ledger.messages_sent += per_rank_msgs
        self.ledger.time_s += time_s
        tr = self.tracer if self.tracer is not None else get_tracer()
        if tr.enabled:
            tr.count("comm.bytes", float(np.sum(per_rank_bytes)))
            tr.count("comm.messages", float(np.sum(per_rank_msgs)))
            tr.count("comm.modeled_time_s", time_s)

    @staticmethod
    def _nbytes(a) -> int:
        return int(np.asarray(a).nbytes)

    # ----- collectives -----------------------------------------------------------
    def alltoallv(self, send: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
        """send[i][j] is the array rank i sends to rank j.

        Returns recv with recv[j][i] = send[i][j] (copies).  Time model:
        every rank sends/receives its row/column; the step time is the
        max over ranks of (messages * latency + bytes / bandwidth).
        """
        p = self.n_ranks
        if len(send) != p or any(len(row) != p for row in send):
            raise ValueError("send must be a PxP matrix of arrays")
        recv = [[np.array(send[i][j], copy=True) for i in range(p)] for j in range(p)]
        sent_bytes = np.array(
            [sum(self._nbytes(send[i][j]) for j in range(p) if j != i) for i in range(p)],
            dtype=np.float64,
        )
        msgs = np.array(
            [sum(1 for j in range(p) if j != i and self._nbytes(send[i][j]) > 0)
             for i in range(p)],
            dtype=np.int64,
        )
        m = self.machine
        times = msgs * m.latency_s + sent_bytes / m.bandwidth_Bps
        self._account(sent_bytes, msgs, float(times.max(initial=0.0)))
        return recv

    def allgather(self, values: list[np.ndarray]) -> list[list[np.ndarray]]:
        """Every rank receives every rank's array."""
        p = self.n_ranks
        if len(values) != p:
            raise ValueError("one value per rank required")
        out = [[np.array(v, copy=True) for v in values] for _ in range(p)]
        sizes = np.array([self._nbytes(v) for v in values], dtype=np.float64)
        m = self.machine
        # ring allgather: p-1 steps, each rank forwards
        t = (p - 1) * m.latency_s + sizes.sum() / m.bandwidth_Bps
        self._account(sizes * (p - 1), np.full(p, p - 1, dtype=np.int64), t)
        return out

    def allreduce(self, values: list[np.ndarray], op=np.add) -> list[np.ndarray]:
        """Elementwise reduction visible on all ranks."""
        p = self.n_ranks
        total = values[0].copy()
        for v in values[1:]:
            total = op(total, v)
        size = self._nbytes(values[0])
        m = self.machine
        import math

        rounds = max(1, math.ceil(math.log2(max(p, 2))))
        t = 2 * rounds * (m.latency_s + size / m.bandwidth_Bps)
        self._account(
            np.full(p, 2 * rounds * size, dtype=np.float64),
            np.full(p, 2 * rounds, dtype=np.int64),
            t,
        )
        return [total.copy() for _ in range(p)]

    def bcast(self, value: np.ndarray, root: int = 0) -> list[np.ndarray]:
        p = self.n_ranks
        size = self._nbytes(value)
        m = self.machine
        import math

        rounds = max(1, math.ceil(math.log2(max(p, 2))))
        t = rounds * (m.latency_s + size / m.bandwidth_Bps)
        sent = np.zeros(p)
        sent[root] = size * rounds
        msgs = np.zeros(p, dtype=np.int64)
        msgs[root] = rounds
        self._account(sent, msgs, t)
        return [np.array(value, copy=True) for _ in range(p)]

    def exchange_pairs(self, messages: list[tuple[int, int, np.ndarray]]):
        """A batch of point-to-point messages [(src, dst, payload)].

        Returns per-rank inboxes: list of (src, payload).  Time model:
        per-rank serialization of its own sends plus one latency per
        message, critical path = max over ranks.
        """
        p = self.n_ranks
        inbox: list[list] = [[] for _ in range(p)]
        sent_bytes = np.zeros(p)
        msgs = np.zeros(p, dtype=np.int64)
        for src, dst, payload in messages:
            if not (0 <= src < p and 0 <= dst < p):
                raise ValueError("bad rank in message")
            inbox[dst].append((src, np.array(payload, copy=True)))
            sent_bytes[src] += self._nbytes(payload)
            msgs[src] += 1
        m = self.machine
        times = msgs * m.latency_s + sent_bytes / m.bandwidth_Bps
        self._account(sent_bytes, msgs, float(times.max(initial=0.0)))
        return inbox

    def barrier(self) -> None:
        import math

        rounds = max(1, math.ceil(math.log2(max(self.n_ranks, 2))))
        self._account(
            np.zeros(self.n_ranks),
            np.zeros(self.n_ranks, dtype=np.int64),
            rounds * self.machine.latency_s,
        )
