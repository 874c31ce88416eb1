"""Asynchronous Batched Messages — active messages in simulation (§3.2).

2HOT hides traversal latency with its own active-message layer (ABM)
inside MPI: requests for remote hcells are *batched* per destination
and handled by event-driven callbacks, overlapping communication with
the force computation.  "We believe that such event-driven handlers
are more robust and less error-prone to implement correctly."

This module is a discrete-event simulator of that layer: handlers are
registered per message type, messages posted to a rank are delivered
after a modeled latency, and messages to the same destination posted
within a batching window coalesce into one wire message (one latency,
summed bytes).  Running the same workload with batching on and off
quantifies the latency amortization that makes request/reply traversal
viable — the benchmark regenerates that comparison.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .machine import MachineModel

__all__ = ["Message", "ABMEngine"]


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    message: "Message" = field(compare=False)


@dataclass
class Message:
    """An active message: delivered to ``handler`` type on ``dst``."""

    src: int
    dst: int
    mtype: str
    payload: object
    nbytes: int = 64


class ABMEngine:
    """Event-driven active-message simulator with per-destination batching."""

    def __init__(
        self,
        n_ranks: int,
        machine: MachineModel | None = None,
        batch_window_s: float = 5e-6,
        batching: bool = True,
    ):
        self.n_ranks = int(n_ranks)
        self.machine = machine or MachineModel()
        self.batch_window_s = float(batch_window_s)
        self.batching = batching
        self._handlers: dict[str, callable] = {}
        self._queue: list[_Event] = []
        self._seq = itertools.count()
        self.now = 0.0
        # statistics
        self.messages_posted = 0
        self.wire_messages = 0
        self.bytes_on_wire = 0
        self._pending_batches: dict[tuple[int, int], list] = {}
        self._batch_deadline: dict[tuple[int, int], float] = {}

    def on(self, mtype: str, handler) -> None:
        """Register ``handler(engine, message)`` for a message type."""
        self._handlers[mtype] = handler

    def post(self, src: int, dst: int, mtype: str, payload, nbytes: int = 64) -> None:
        """Send an active message (from inside or outside a handler)."""
        if not (0 <= src < self.n_ranks and 0 <= dst < self.n_ranks):
            raise ValueError("bad rank")
        msg = Message(src=src, dst=dst, mtype=mtype, payload=payload, nbytes=nbytes)
        self.messages_posted += 1
        if not self.batching or src == dst:
            self._ship([msg], self.now)
            return
        key = (src, dst)
        self._pending_batches.setdefault(key, []).append(msg)
        if key not in self._batch_deadline:
            self._batch_deadline[key] = self.now + self.batch_window_s
            heapq.heappush(
                self._queue,
                _Event(
                    self._batch_deadline[key],
                    next(self._seq),
                    Message(src, dst, "__flush__", key, 0),
                ),
            )

    def _ship(self, msgs: list[Message], t: float) -> None:
        nbytes = sum(m.nbytes for m in msgs)
        m = self.machine
        arrive = t + m.latency_s + nbytes / m.bandwidth_Bps
        self.wire_messages += 1
        self.bytes_on_wire += nbytes
        for msg in msgs:
            heapq.heappush(self._queue, _Event(arrive, next(self._seq), msg))

    #: event cap of :meth:`run` (a guard against a message loop)
    MAX_EVENTS = 10_000_000

    def run(self) -> float:
        """Drain the event queue; returns the simulated completion time."""
        n = 0
        while self._queue and n < self.MAX_EVENTS:
            ev = heapq.heappop(self._queue)
            self.now = max(self.now, ev.time)
            msg = ev.message
            if msg.mtype == "__flush__":
                key = msg.payload
                batch = self._pending_batches.pop(key, [])
                self._batch_deadline.pop(key, None)
                if batch:
                    self._ship(batch, self.now)
            else:
                handler = self._handlers.get(msg.mtype)
                if handler is None:
                    raise KeyError(f"no handler for message type {msg.mtype!r}")
                handler(self, msg)
            n += 1
        if self._queue:
            raise RuntimeError("event budget exhausted (livelock?)")
        return self.now
