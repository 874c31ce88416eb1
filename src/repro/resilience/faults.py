"""Deterministic fault injection — the test harness for the resilience layer.

A :class:`FaultPlan` is a parsed ``REPRO_FAULTS`` specification: a
semicolon-separated list of clauses, each ``action:key=value,...``.
The plan is *deterministic* — a clause fires when its selectors match
the (worker, shard, epoch) coordinates of an execution, at most
``times`` times — so a test can kill exactly worker 1 at shard 2 of
force call 3 and assert the recovery path byte for byte.

Supported actions
-----------------
``kill``
    ``os._exit`` the worker process that picks up the matching shard
    (selectors: ``worker=``, ``shard=``, ``epoch=``, ``times=``).
``raise``
    Raise a transient :class:`FaultInjected` inside the worker for the
    matching shard (same selectors) — exercises the bounded-retry path.
``delay``
    Sleep ``seconds=`` before running the matching shard — exercises
    the shard-timeout / pool-restart path.
``corrupt``
    Flip one byte (``byte=`` offset, ``xor=`` mask, default 0xFF) of
    the ``index=``-th checkpoint written by a
    :class:`~repro.resilience.checkpoint.CheckpointStore` — exercises
    checksum detection and newest-valid restore.

Faults only fire on a shard's *first* dispatch (``attempt == 0``), so
a recovery re-dispatch of the same shard is never re-killed — exactly
one injected failure per clause occurrence, whatever the retry path.

Example::

    REPRO_FAULTS="kill:worker=0,shard=1;corrupt:index=2,byte=100"

:func:`parse_fault_spec` types each key by its :class:`FaultClause`
field, so ``byte=0x40`` and ``seconds=0.5`` parse as written.
"""

from __future__ import annotations

import os
import time
import typing
from dataclasses import dataclass, field, fields

__all__ = ["FaultInjected", "FaultClause", "FaultPlan", "parse_fault_spec"]

FAULTS_ENV = "REPRO_FAULTS"


class FaultInjected(RuntimeError):
    """The transient exception raised by a ``raise`` clause."""


@dataclass
class FaultClause:
    """One parsed clause: an action plus its match selectors."""

    action: str  # kill | raise | delay | corrupt
    worker: int | None = None
    shard: int | None = None
    epoch: int | None = None
    index: int | None = None  # corrupt: which checkpoint write
    byte: int = 0  # corrupt: byte offset
    xor: int = 0xFF  # corrupt: flip mask
    seconds: float = 0.0  # delay
    times: int = 1
    fired: int = field(default=0, compare=False)

    def matches(self, worker=None, shard=None, epoch=None, index=None) -> bool:
        if self.fired >= self.times:
            return False
        for want, got in (
            (self.worker, worker),
            (self.shard, shard),
            (self.epoch, epoch),
            (self.index, index),
        ):
            if want is not None and want != got:
                return False
        return True


#: the clause actions a spec may name
ACTIONS = frozenset({"kill", "raise", "delay", "corrupt"})

#: how a ``key=value`` string becomes a clause field of each annotated type
_CONVERT = {int: lambda v: int(v, 0), float: float}


def parse_fault_spec(spec: str | None) -> list[FaultClause]:
    """Parse ``action:key=value,...;...`` into :class:`FaultClause` instances.

    ``action`` must be one of :data:`ACTIONS`; each key must name a
    clause field (other than ``action`` and ``fired``) and is converted
    by that field's type: ``int`` (or ``int | None``) by ``int(v, 0)``,
    so ``byte=0x40`` works; ``float``.  Empty or ``None`` -> no clauses.
    """
    types = typing.get_type_hints(FaultClause)
    convert = {}
    for f in fields(FaultClause):
        if f.name not in ("action", "fired"):
            tp = types[f.name]  # ``int | None`` converts as ``int``
            convert[f.name] = next(_CONVERT[t] for t in (tp, *typing.get_args(tp))
                                   if t in _CONVERT)
    clauses = []
    for chunk in filter(None, (c.strip() for c in (spec or "").split(";"))):
        action, _, rest = chunk.partition(":")
        action = action.strip()
        if action not in ACTIONS:
            raise ValueError(f"unknown fault action {action!r} in {chunk!r}")
        kw = {}
        for pair in filter(None, (p.strip() for p in rest.split(","))):
            key, _, val = pair.partition("=")
            key = key.strip()
            if key not in convert:
                raise ValueError(f"unknown fault key {key!r} in {chunk!r}")
            kw[key] = convert[key](val)
        clauses.append(FaultClause(action=action, **kw))
    return clauses


class FaultPlan:
    """A deterministic set of injected faults (possibly empty)."""

    def __init__(self, clauses: list[FaultClause] | None = None, spec: str = ""):
        self.clauses = clauses or []
        self.spec = spec
        self._checkpoint_writes = 0

    def __bool__(self) -> bool:
        return bool(self.clauses)

    @classmethod
    def parse(cls, spec: str | None) -> "FaultPlan":
        """Parse a spec string; empty/None -> empty plan."""
        spec = (spec or "").strip()
        return cls(parse_fault_spec(spec), spec=spec)

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """The plan in the process environment's ``REPRO_FAULTS``."""
        return cls.parse(os.environ.get(FAULTS_ENV))

    # ----- worker-side hooks ----------------------------------------------------
    def apply_worker(self, worker: int, shard: int, epoch: int, attempt: int = 0):
        """Fire any matching kill/raise/delay clause for this execution.

        Called by the executor's worker loop before running a shard;
        re-dispatches (``attempt > 0``) never re-fire.
        """
        if attempt > 0:
            return
        for cl in self.clauses:
            if not cl.matches(worker=worker, shard=shard, epoch=epoch):
                continue
            if cl.action == "delay":
                cl.fired += 1
                time.sleep(cl.seconds)
            elif cl.action == "raise":
                cl.fired += 1
                raise FaultInjected(
                    f"injected transient fault (worker {worker}, shard {shard})"
                )
            elif cl.action == "kill":
                cl.fired += 1
                os._exit(17)

    # ----- checkpoint-side hook -------------------------------------------------
    def corrupt_checkpoint(self, path) -> bool:
        """Flip the configured byte of this checkpoint write, if matched.

        Counts writes internally so ``index=n`` selects the n-th (0-based)
        checkpoint written through this plan.  Returns True if the file
        was corrupted.
        """
        index = self._checkpoint_writes
        self._checkpoint_writes += 1
        hit = False
        for cl in self.clauses:
            if cl.action != "corrupt" or not cl.matches(index=index):
                continue
            cl.fired += 1
            with open(path, "r+b") as f:
                f.seek(0, os.SEEK_END)
                size = f.tell()
                off = min(cl.byte, max(size - 1, 0))
                f.seek(off)
                b = f.read(1)
                f.seek(off)
                f.write(bytes([b[0] ^ (cl.xor & 0xFF)]))
            hit = True
        return hit
