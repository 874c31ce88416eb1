"""Fault tolerance: durable checkpoints, scheduling, fault injection.

The layer that lets a run survive the paper's "hardware failure about
every million CPU hours" (§3.4.2): checkpoints are written atomically
with per-column checksums and full restart metadata
(:class:`CheckpointStore`), on a schedule derived from the Young/Daly
optimum or every N steps (:class:`CheckpointScheduler`), and every
recovery path is provable under deterministic fault injection
(:class:`FaultPlan`, ``REPRO_FAULTS``).  A run asks for checkpoints
in one way, ``Simulation.run(checkpointer=(scheduler, store))``, and
``Simulation.resume`` (:mod:`repro.simulation.driver`) restarts
bit-identically from what this package writes.  The self-healing
worker-pool counterpart lives in
:class:`repro.parallel.executor.ForceExecutor`.
"""

from .checkpoint import CheckpointStore, NoValidCheckpoint
from .faults import FaultClause, FaultInjected, FaultPlan
from .scheduler import CheckpointScheduler

__all__ = [
    "CheckpointScheduler",
    "CheckpointStore",
    "FaultClause",
    "FaultInjected",
    "FaultPlan",
    "NoValidCheckpoint",
]
