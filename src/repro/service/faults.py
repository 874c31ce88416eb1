"""Deterministic job-level fault injection for the service test harness.

The resilience layer's ``REPRO_FAULTS`` (:mod:`repro.resilience.faults`)
injects faults *inside* one run — worker kills, checkpoint corruption.
The service needs one level up: kill a whole job mid-run, make a job
hang, corrupt a specific job's checkpoints — each exactly once, so a
test (or the CI ``service-smoke`` job) can assert the recovery path
converges to bit-identical results.

``REPRO_SERVICE_FAULTS`` is the same ``action:key=value,...;...``
grammar, read by the same parser
(:func:`repro.resilience.faults.parse_fault_spec`); its clauses match
a job's *name* and only on its first attempt — a recovery relaunch is
never re-faulted, mirroring the attempt-0 rule of the worker-level
plan.

Supported actions
-----------------
``kill``
    SIGKILL the job's subprocess once ``events=`` step events have
    appeared on its JSONL stream (``job=`` name selector; the crash is
    indistinguishable from a real one, which is the point).
``hang``
    Replace attempt 0's command with a sleeper that emits no events —
    exercises heartbeat hang detection end to end.
``corrupt``
    Pass ``REPRO_FAULTS="corrupt:index=...,byte=...,xor=..."`` into
    attempt 0's environment, corrupting that job's ``index``-th
    checkpoint write — exercises newest-valid fallback under resume.

Example::

    REPRO_SERVICE_FAULTS="kill:job=sweep0,events=2;corrupt:job=sweep0,index=1"
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resilience.faults import ClausePlan

__all__ = ["ServiceFaultClause", "ServiceFaultPlan", "SERVICE_FAULTS_ENV"]

SERVICE_FAULTS_ENV = "REPRO_SERVICE_FAULTS"


@dataclass
class ServiceFaultClause:
    """One parsed clause: an action plus its job selector."""

    action: str  # kill | hang | corrupt
    job: str | None = None  # job *name* match (None = any job)
    events: int = 1  # kill: fire after this many stream events
    after_s: float = 0.0  # kill: alternatively fire after S run seconds
    index: int = 0  # corrupt: which checkpoint write of the job
    byte: int = 0  # corrupt: byte offset
    xor: int = 0xFF  # corrupt: flip mask
    times: int = 1
    fired: int = field(default=0, compare=False)

    def matches(self, name: str, attempt: int) -> bool:
        if self.fired >= self.times or attempt != 0:
            return False
        return self.job is None or self.job == name


class ServiceFaultPlan(ClausePlan):
    """A deterministic set of job-level faults (possibly empty)."""

    env = SERVICE_FAULTS_ENV
    clause_cls = ServiceFaultClause
    actions = frozenset({"kill", "hang", "corrupt"})

    # ----- scheduler-side hooks -------------------------------------------------
    def hang_clause(self, name: str, attempt: int) -> ServiceFaultClause | None:
        """The hang clause to apply at launch, if any (marks it fired)."""
        for cl in self.clauses:
            if cl.action == "hang" and cl.matches(name, attempt):
                cl.fired += 1
                return cl
        return None

    def corrupt_env(self, name: str, attempt: int) -> str | None:
        """The child ``REPRO_FAULTS`` value for a matching corrupt clause."""
        for cl in self.clauses:
            if cl.action == "corrupt" and cl.matches(name, attempt):
                cl.fired += 1
                return f"corrupt:index={cl.index},byte={cl.byte},xor={cl.xor}"
        return None

    def kill_clause(self, name: str, attempt: int) -> ServiceFaultClause | None:
        """The armed kill clause for this attempt (NOT marked fired —
        the supervisor fires it when the event/time threshold passes)."""
        for cl in self.clauses:
            if cl.action == "kill" and cl.matches(name, attempt):
                return cl
        return None
