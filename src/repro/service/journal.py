"""Durable job store: an append-only JSONL journal of state transitions.

The single source of truth for the job service.  Every submission,
admission, launch, retry, completion and control request is one
envelope-stamped line, appended and read through
:mod:`repro.instrument.events` — the repo's one JSONL contract, shared
with the run registry and the traces: whole lines interleave across
concurrent processes and a torn tail can never poison the store.

Restart safety is pure replay: :meth:`JobJournal.replay` folds the
event stream through the :class:`~repro.service.jobs.Job` state
machine and hands back every job exactly where the dead service left
it — jobs caught in ``admitted``/``running`` are the ones a restarted
scheduler must requeue with checkpoint resume.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..instrument.events import append_record, read_records
from .jobs import Job, JobSpec, new_job_id

__all__ = ["SERVICE_SCHEMA_VERSION", "JobJournal", "ReplayState"]

SERVICE_SCHEMA_VERSION = 1

#: journal events that drive the job state machine (see Job.apply)
JOB_EVENTS = frozenset(
    {"admitted", "started", "done", "failed", "retrying", "requeued", "cancelled"}
)
#: control / lifecycle records that carry no per-job transition
#: ("killed" is the supervisor's audit record of a kill it delivered —
#: the job's own transition follows when the subprocess is reaped)
CONTROL_EVENTS = frozenset(
    {"submitted", "cancel_requested", "drain_requested",
     "service_started", "service_stopped", "drained", "killed"}
)

#: supervisor kill reasons -> the counter they durably increment
_KILL_COUNTERS = {"fault_kill": "kills", "timeout": "timeouts", "hung": "hangs"}


@dataclass
class ReplayState:
    """What a journal replay reconstructs."""

    #: job id -> Job, in submission order
    jobs: dict = field(default_factory=dict)
    #: cancel requests targeting jobs that are still active
    pending_cancels: set = field(default_factory=set)
    #: records whose transition the state machine rejected (corruption
    #: or version skew — counted, never fatal)
    skipped: int = 0
    #: total parsed records
    records: int = 0
    #: durable service counters folded from the event stream, so a
    #: restarted process reports the same metrics the dead one would
    counts: dict = field(default_factory=lambda: {
        "kills": 0, "hangs": 0, "timeouts": 0, "preempts": 0,
        "retries": 0, "cache_hits": 0, "attached": 0,
    })


class JobJournal:
    """Append-only journal under ``path`` with replay + incremental tail."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: read offset for :meth:`read_new` (set by replay/append)
        self._offset = 0

    # ----- writing -------------------------------------------------------------
    def append(self, event: str, job: str | None = None, **fields) -> dict:
        """Append one stamped record; returns what was written."""
        rec = {
            "svc_schema": SERVICE_SCHEMA_VERSION,
            "t": time.time(),
            "pid": os.getpid(),
            "event": str(event),
        }
        if job is not None:
            rec["job"] = job
        rec.update(fields)
        append_record(self.path, rec)
        return rec

    # ----- reading -------------------------------------------------------------
    def records(self) -> list[dict]:
        """All parseable records, oldest first (torn lines skipped)."""
        return read_records(self.path)[0]

    def read_new(self) -> list[dict]:
        """Records appended since the last replay/read_new call.

        The scheduler tails its own journal with this to pick up
        ``submitted`` / ``cancel_requested`` / ``drain_requested``
        records written by other processes while it runs.
        """
        recs, self._offset = read_records(self.path, self._offset)
        return recs

    # ----- reconstruction -------------------------------------------------------
    def replay(self) -> ReplayState:
        """Fold the full event stream into live job state.

        Every job-bearing record goes through :meth:`Job.apply`; a
        record the state machine rejects (a partial write that parsed
        as JSON, version skew) is counted and skipped rather than
        poisoning the reconstruction.  Sets the :meth:`read_new` offset
        to the journal tail.
        """
        state = ReplayState()
        recs, self._offset = read_records(self.path)
        for rec in recs:
            state.records += 1
            if not self.apply_record(state, rec):
                state.skipped += 1
        return state

    @staticmethod
    def apply_record(state: ReplayState, rec: dict) -> bool:
        """Fold one record into ``state``; False if it had to be skipped."""
        event = rec.get("event")
        jid = rec.get("job")
        if event == "submitted":
            spec_payload = rec.get("spec")
            if not jid or not isinstance(spec_payload, dict):
                return False
            job = Job(
                id=jid,
                spec=JobSpec.from_payload(spec_payload),
                key=rec.get("key", ""),
                submitted_t=float(rec.get("t", 0.0)),
            )
            job.attached_to = rec.get("attached_to")
            if job.attached_to:
                state.counts["attached"] += 1
            state.jobs[jid] = job
            return True
        if event == "killed":
            counter = _KILL_COUNTERS.get(rec.get("reason"))
            if counter:
                state.counts[counter] += 1
            return True
        if event in JOB_EVENTS:
            job = state.jobs.get(jid)
            if job is None:
                return False
            try:
                job.apply(event, t=rec.get("t"), **{
                    k: v for k, v in rec.items()
                    if k not in ("svc_schema", "t", "pid", "event", "job")
                })
            except Exception:
                return False
            if event == "retrying":
                key = "preempts" if rec.get("reason") == "preempted" else "retries"
                state.counts[key] += 1
            elif (event == "done" and rec.get("cached_from")
                    and job.attempt == 0 and job.attached_to is None):
                state.counts["cache_hits"] += 1
            if job.terminal:
                state.pending_cancels.discard(jid)
            return True
        if event == "cancel_requested":
            job = state.jobs.get(jid)
            if job is not None and job.active:
                state.pending_cancels.add(jid)
            return True
        if event in CONTROL_EVENTS:
            return True
        return False

    def submit(self, spec: JobSpec, attached_to: str | None = None,
               job_id: str | None = None) -> Job:
        """Journal a submission and return the constructed Job."""
        now = time.time()
        jid = job_id or new_job_id(now)
        self.append(
            "submitted", job=jid, key=spec.key(),
            spec=spec.to_payload(),
            **({"attached_to": attached_to} if attached_to else {}),
        )
        job = Job(id=jid, spec=spec, submitted_t=now)
        job.attached_to = attached_to
        return job
