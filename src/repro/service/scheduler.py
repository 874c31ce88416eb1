"""The crash-safe job scheduler: admission, supervision, retry, recovery.

One :class:`JobService` owns a service directory::

    <dir>/journal.jsonl      durable job store (append-only transitions)
    <dir>/service.pid        liveness lock for the serving process
    <dir>/jobs/<id>/         private per-job dir: stage.json, events.jsonl,
                             stdout.log, stderr.log, checkpoints/

Scheduling is an async supervision loop over subprocesses running
``python -m repro.pipeline.run_stage``:

* **admission control** — submissions beyond ``queue_bound`` active
  jobs are rejected with the typed :class:`~repro.service.jobs.QueueFull`
  (backpressure); launch order is fair round-robin across submitters;
  concurrency is bounded by ``max_concurrent`` and an optional
  ``core_budget`` weighted by each job's declared cores.
* **supervision** — per-job wall-clock timeout, heartbeat hang
  detection on the job's JSONL event stream, and deterministic
  job-level fault injection (``REPRO_SERVICE_FAULTS``) for tests.
* **retry with resume** — a killed/crashed/hung/timed-out job is
  relaunched after exponential backoff with deterministic jitter,
  passing ``--resume`` so it restarts from its newest valid checkpoint:
  the retried run is bit-identical to an uninterrupted one (PR 4's
  guarantee), and corrupted checkpoints fall back to older ones.
* **preemption courtesy** — SIGTERM/SIGINT to the service delivers
  SIGTERM to every running job; the driver checkpoints and exits with
  status 75 (:data:`~repro.pipeline.run_stage.EXIT_PREEMPTED`), the
  job requeues with resume at zero retry cost, and the service drains.
* **dedup + result cache** — submissions are keyed by the PR 3
  provenance config sha256; an identical finished config returns the
  cached result, an identical in-flight config attaches to that job.
* **crash safety** — the service process itself dying is just another
  fault: a restarted service replays the journal and requeues (with
  resume) every job the dead one had in flight.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from ..instrument.events import read_records
from .faults import ServiceFaultPlan
from .jobs import (
    Job,
    JobSpec,
    QueueFull,
    ServiceError,
    UnknownJob,
    deterministic_jitter,
)
from .journal import JobJournal

__all__ = ["ServiceConfig", "JobService"]


@dataclass
class ServiceConfig:
    """Operational envelope of one service instance."""

    #: concurrent running jobs
    max_concurrent: int = 2
    #: total cores runnable at once, weighted by ``JobSpec.cores``
    #: (0 = bounded by ``max_concurrent`` alone)
    core_budget: int = 0
    #: admission bound on *active* (non-terminal, non-attached) jobs
    queue_bound: int = 64
    #: supervision poll cadence
    poll_s: float = 0.05
    #: retry backoff: base * 2^(retries-1), capped, plus jitter fraction
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    backoff_jitter: float = 0.25
    #: grace between SIGTERM and SIGKILL when draining/cancelling
    drain_grace_s: float = 20.0
    #: preemption round-trips before a job is failed as thrashing
    max_preempts: int = 8
    #: interpreter for job subprocesses
    python: str = sys.executable


class _Attempt:
    """Supervision state of one running subprocess."""

    def __init__(self, job: Job, proc: subprocess.Popen, jobdir: Path,
                 hang_injected: bool, kill_clause):
        self.job = job
        self.proc = proc
        self.jobdir = jobdir
        self.t_start = time.monotonic()
        self.events_path = jobdir / "events.jsonl"
        self.events_seen = 0
        self._events_offset = 0
        self.last_heartbeat = time.monotonic()
        self.hang_injected = hang_injected
        self.kill_clause = kill_clause
        self.kill_sent: str | None = None  # why we signalled it, if we did
        self.term_sent_t: float | None = None

    def poll_events(self) -> int:
        """Count newly appended event records (the heartbeat signal)."""
        recs, self._events_offset = read_records(self.events_path, self._events_offset)
        fresh = len(recs)
        if fresh:
            self.events_seen += fresh
            self.last_heartbeat = time.monotonic()
        return fresh


class JobService:
    """Durable multi-tenant simulation runner over one service directory."""

    def __init__(self, directory, config: ServiceConfig | None = None,
                 faults: ServiceFaultPlan | str | None = None, **config_kw):
        # absolute: job paths are handed to subprocesses whose cwd is
        # their own job dir, where a relative service dir would dangle
        self.dir = Path(directory).resolve()
        self.dir.mkdir(parents=True, exist_ok=True)
        if config is None:
            config = ServiceConfig(**config_kw)
        elif config_kw:
            raise TypeError("pass either a ServiceConfig or keyword fields")
        self.config = config
        self.journal = JobJournal(self.dir / "journal.jsonl")
        replay = self.journal.replay()
        #: job id -> Job, submission-ordered (dict preserves order)
        self.jobs: dict[str, Job] = replay.jobs
        self._pending_cancels: set[str] = set(replay.pending_cancels)
        self._replay_skipped = replay.skipped
        if faults is None:
            faults = ServiceFaultPlan.from_env()
        elif isinstance(faults, str):
            faults = ServiceFaultPlan.parse(faults)
        self.faults = faults
        self._drain = False
        self._running: dict[str, _Attempt] = {}
        self._rr_cursor = 0
        self._max_depth = 0
        #: recovery accounting for the service metrics / bench — seeded
        #: from the journal so a restarted process reports the history
        self.counts = replay.counts

    # ----- lookup ---------------------------------------------------------------
    def find(self, ref: str) -> Job:
        """Resolve a job by id prefix or exact name (newest wins)."""
        ref = str(ref).strip()
        by_id = [j for j in self.jobs.values() if j.id.startswith(ref)]
        if len(by_id) == 1:
            return by_id[0]
        by_name = [j for j in self.jobs.values() if j.name == ref]
        if by_name:
            return by_name[-1]
        if len(by_id) > 1:
            raise UnknownJob(f"job ref {ref!r} is ambiguous ({len(by_id)} ids)")
        raise UnknownJob(f"no job matches {ref!r}")

    def job_dir(self, job: Job) -> Path:
        return self.dir / "jobs" / job.id

    @property
    def queue_depth(self) -> int:
        return sum(
            1 for j in self.jobs.values()
            if j.active and j.attached_to is None
        )

    # ----- submission / admission ----------------------------------------------
    def submit(self, config_or_spec, **spec_kw) -> Job:
        """Admit one job (or serve it from cache); returns its Job.

        ``config_or_spec`` is a :class:`JobSpec`, a stage-config dict,
        or a path to a stage JSON file.  Raises :class:`QueueFull` when
        the active-job bound is reached — typed backpressure, nothing
        journaled.
        """
        spec = self._normalize_spec(config_or_spec, spec_kw)
        key = spec.key()
        if spec.cache:
            # dedup: a finished identical config is served from cache...
            done = [j for j in self.jobs.values()
                    if j.key == key and j.state == "done" and j.spec.cache
                    and j.result is not None and j.cached_from is None]
            if done:
                src = done[-1]
                job = self.journal.submit(spec)
                self.jobs[job.id] = job
                self._journal_apply(job, "done", result=src.result,
                                    cached_from=src.id)
                self.counts["cache_hits"] += 1
                return job
            # ...an identical in-flight config is attached, not re-run
            live = [j for j in self.jobs.values()
                    if j.key == key and j.active and j.spec.cache
                    and j.attached_to is None]
            if live:
                job = self.journal.submit(spec, attached_to=live[-1].id)
                self.jobs[job.id] = job
                self.counts["attached"] += 1
                return job
        depth = self.queue_depth
        if depth >= self.config.queue_bound:
            raise QueueFull(depth, self.config.queue_bound)
        job = self.journal.submit(spec)
        self.jobs[job.id] = job
        self._max_depth = max(self._max_depth, self.queue_depth)
        return job

    def sweep(self, configs, **spec_kw) -> list[Job]:
        """Submit a batch (a parameter sweep); returns the Jobs in order."""
        return [self.submit(cfg, **spec_kw) for cfg in configs]

    @staticmethod
    def _normalize_spec(config_or_spec, spec_kw) -> JobSpec:
        if isinstance(config_or_spec, JobSpec):
            if spec_kw:
                raise TypeError("keyword fields only apply to raw configs")
            return config_or_spec
        cfg = config_or_spec
        if isinstance(cfg, (str, Path)):
            cfg = json.loads(Path(cfg).read_text())
        if not isinstance(cfg, dict):
            raise TypeError(f"cannot submit {type(config_or_spec).__name__}")
        return JobSpec(config=cfg, **spec_kw)

    # ----- control --------------------------------------------------------------
    def cancel(self, ref: str) -> Job:
        """Request cancellation (journaled; applied by the serve loop,
        or immediately for jobs that are not running)."""
        job = self.find(ref)
        if job.terminal:
            return job
        self.journal.append("cancel_requested", job=job.id)
        self._pending_cancels.add(job.id)
        if job.id not in self._running:
            self._apply_cancel(job)
        return job

    def request_drain(self) -> None:
        """Journal a drain request (picked up by the serving process)
        and nudge it with SIGTERM if its pidfile names a live process."""
        self.journal.append("drain_requested")
        pid = self.server_pid()
        if pid is not None and pid != os.getpid():
            try:
                os.kill(pid, signal.SIGTERM)
            except OSError:
                pass

    def server_pid(self) -> int | None:
        """PID of a live serving process, or None."""
        try:
            pid = int((self.dir / "service.pid").read_text().strip())
        except (OSError, ValueError):
            return None
        try:
            os.kill(pid, 0)
        except OSError:
            return None
        return pid

    # ----- the serve loop -------------------------------------------------------
    def serve_forever(self, drain_when_idle: bool = True) -> dict:
        """Synchronous wrapper: run :meth:`serve` to completion."""
        return asyncio.run(self.serve(drain_when_idle=drain_when_idle))

    async def serve(self, drain_when_idle: bool = True) -> dict:
        """Supervise the queue until drained (or idle); returns metrics.

        A SIGTERM/SIGINT (or a journaled ``drain_requested``) delivers
        the §3.4.1 preemption courtesy to every running job — SIGTERM,
        final checkpoint, requeue-with-resume — then stops.
        """
        pidfile = self.dir / "service.pid"
        other = self.server_pid()
        if other is not None and other != os.getpid():
            raise ServiceError(f"service already running (pid {other})")
        pidfile.write_text(f"{os.getpid()}\n")
        self.journal.append(
            "service_started", pid=os.getpid(),
            jobs=len(self.jobs), replay_skipped=self._replay_skipped,
        )
        self._requeue_orphans()
        handled = self._install_signal_handlers()
        t_serve0 = time.monotonic()
        try:
            while True:
                self._absorb_journal()
                self._max_depth = max(self._max_depth, self.queue_depth)
                self._apply_pending_cancels()
                self._reap()
                if self._drain:
                    await self._drain_running()
                    break
                self._supervise()
                self._launch_ready()
                if drain_when_idle and not self._running and not self._launchable(
                    any_backoff=True
                ):
                    break
                await asyncio.sleep(self.config.poll_s)
            metrics = self.metrics()
            metrics["serve_wall_s"] = round(time.monotonic() - t_serve0, 6)
            self.journal.append("service_stopped", pid=os.getpid(),
                                metrics=metrics, drained=self._drain)
            self._record_observation(metrics)
            return metrics
        finally:
            self._remove_signal_handlers(handled)
            try:
                if pidfile.exists() and pidfile.read_text().strip() == str(os.getpid()):
                    pidfile.unlink()
            except OSError:
                pass

    # ----- signals --------------------------------------------------------------
    def _install_signal_handlers(self):
        def trigger(*_args):
            self._drain = True

        try:
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, trigger)
            loop.add_signal_handler(signal.SIGINT, trigger)
            return ("loop", loop)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        try:
            prev = {
                signal.SIGTERM: signal.signal(signal.SIGTERM, trigger),
                signal.SIGINT: signal.signal(signal.SIGINT, trigger),
            }
            return ("signal", prev)
        except (ValueError, OSError):  # non-main thread
            return None

    def _remove_signal_handlers(self, handled) -> None:
        if handled is None:
            return
        kind, payload = handled
        if kind == "loop":
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    payload.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
        else:
            for sig, prev in payload.items():
                try:
                    signal.signal(sig, prev)
                except (ValueError, OSError):
                    pass

    # ----- restart recovery -----------------------------------------------------
    def _requeue_orphans(self) -> None:
        """Jobs the journal says were in flight belong to a dead service:
        requeue them with checkpoint resume (the service-crash story)."""
        for job in self.jobs.values():
            if job.state in ("admitted", "running") and job.id not in self._running:
                self._journal_apply(job, "requeued", reason="service_restart",
                                    resume=True)

    # ----- journal tailing ------------------------------------------------------
    def _absorb_journal(self) -> None:
        """Fold in records other processes appended while we serve."""
        for rec in self.journal.read_new():
            if rec.get("pid") == os.getpid():
                continue  # our own writes are already applied in memory
            event = rec.get("event")
            if event == "drain_requested":
                self._drain = True
                continue
            if event == "cancel_requested":
                jid = rec.get("job")
                if jid in self.jobs and self.jobs[jid].active:
                    self._pending_cancels.add(jid)
                continue
            if event == "submitted":
                from .journal import ReplayState

                tmp = ReplayState(jobs=self.jobs)
                JobJournal.apply_record(tmp, rec)

    # ----- cancellation ---------------------------------------------------------
    def _apply_cancel(self, job: Job) -> None:
        if job.terminal:
            self._pending_cancels.discard(job.id)
            return
        self._journal_apply(job, "cancelled", error="cancelled by request")
        self._pending_cancels.discard(job.id)
        self._resolve_attached(job)

    def _apply_pending_cancels(self) -> None:
        for jid in sorted(self._pending_cancels):
            job = self.jobs.get(jid)
            if job is None:
                self._pending_cancels.discard(jid)
                continue
            att = self._running.get(jid)
            if att is None:
                self._apply_cancel(job)
            elif att.kill_sent is None:
                # running: courtesy SIGTERM first; the reaper finishes it
                self._signal_attempt(att, "cancel")

    # ----- launch ---------------------------------------------------------------
    def _launchable(self, any_backoff: bool = False) -> list[Job]:
        """Queued, unattached, backoff-cleared jobs (FIFO per submitter)."""
        now = time.time()
        out = []
        for job in self.jobs.values():
            if job.state != "queued" or job.attached_to is not None:
                continue
            if job.id in self._pending_cancels:
                continue
            if not any_backoff and job.not_before > now:
                continue
            out.append(job)
        return out

    def _used_cores(self) -> int:
        return sum(max(1, a.job.spec.cores) for a in self._running.values())

    def _launch_ready(self) -> None:
        """Admit + start jobs under the concurrency/core budget, fair
        round-robin across submitters."""
        ready = self._launchable()
        if not ready:
            return
        by_submitter: dict[str, list[Job]] = {}
        for job in ready:
            by_submitter.setdefault(job.spec.submitter, []).append(job)
        submitters = sorted(by_submitter)
        while ready and len(self._running) < self.config.max_concurrent:
            # rotate the cursor so no submitter monopolizes the slots
            for step in range(len(submitters)):
                name = submitters[(self._rr_cursor + step) % len(submitters)]
                bucket = by_submitter.get(name)
                if bucket:
                    self._rr_cursor = (self._rr_cursor + step + 1) % len(submitters)
                    job = bucket.pop(0)
                    break
            else:
                return
            ready.remove(job)
            budget = self.config.core_budget
            if budget and self._used_cores() + max(1, job.spec.cores) > budget:
                continue  # try a narrower job from another submitter
            self._start(job)

    def _start(self, job: Job) -> None:
        jobdir = self.job_dir(job)
        jobdir.mkdir(parents=True, exist_ok=True)
        stage_path = jobdir / "stage.json"
        if not stage_path.exists():
            stage_path.write_text(
                json.dumps(job.spec.config, indent=2, sort_keys=True) + "\n"
            )
        spec = job.spec
        attempt = job.attempt  # attempts already launched
        resume = job.resume_next or attempt > 0
        hang = self.faults.hang_clause(job.name, attempt)
        kill_clause = self.faults.kill_clause(job.name, attempt)
        env = dict(os.environ)
        corrupt = self.faults.corrupt_env(job.name, attempt)
        if corrupt is not None:
            env["REPRO_FAULTS"] = corrupt
        elif "REPRO_FAULTS" in env:
            # worker-level plans are per-test machinery; a service job
            # only sees faults addressed to it through the service plan
            del env["REPRO_FAULTS"]
        env.pop(  # service plan must not cascade into children
            "REPRO_SERVICE_FAULTS", None)
        # make the library importable for the child whatever the cwd
        pkg_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
        if hang is not None:
            cmd = [self.config.python, "-c", "import time; time.sleep(600)"]
        else:
            cmd = [
                self.config.python, "-m", "repro.pipeline.run_stage",
                str(stage_path),
                "--workdir", str(spec.workdir or jobdir),
                "--trace", str(jobdir / "events.jsonl"),
                "--checkpoint-dir", str(jobdir / "checkpoints"),
                "--workers", str(spec.workers),
            ]
            if spec.checkpoint_every:
                cmd += ["--checkpoint-every", str(spec.checkpoint_every)]
            if resume:
                cmd += ["--resume"]
        self._journal_apply(
            job, "admitted",
        )
        with open(jobdir / "stdout.log", "ab") as out, \
                open(jobdir / "stderr.log", "ab") as err:
            proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, env=env,
                cwd=str(spec.workdir or jobdir),
                start_new_session=True,  # killpg reaches the job's workers
            )
        self._journal_apply(
            job, "started", attempt=attempt + 1, resume=resume, pid=proc.pid,
            hang_injected=hang is not None, corrupt_injected=corrupt is not None,
        )
        job.resume_next = False
        self._running[job.id] = _Attempt(
            job, proc, jobdir, hang_injected=hang is not None,
            kill_clause=kill_clause,
        )

    # ----- supervision ----------------------------------------------------------
    def _supervised_kill(self, att: _Attempt, reason: str, counter: str) -> None:
        """Kill an attempt for cause, with a durable audit record —
        counters survive a service restart because replay re-counts them."""
        self.counts[counter] += 1
        self.journal.append("killed", job=att.job.id, reason=reason,
                            child_pid=att.proc.pid)
        self._signal_attempt(att, reason, hard=True)

    def _signal_attempt(self, att: _Attempt, reason: str,
                        hard: bool = False) -> None:
        att.kill_sent = reason
        att.term_sent_t = time.monotonic()
        try:
            if hard:
                try:
                    os.killpg(os.getpgid(att.proc.pid), signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    att.proc.kill()
            else:
                att.proc.terminate()
        except (OSError, ProcessLookupError):
            pass

    def _supervise(self) -> None:
        """Timeouts, heartbeats, injected kills, SIGTERM escalation."""
        now = time.monotonic()
        for att in list(self._running.values()):
            if att.proc.poll() is not None:
                continue  # the reaper handles it next pass
            att.poll_events()
            spec = att.job.spec
            cl = att.kill_clause
            if (cl is not None and att.kill_sent is None
                    and cl.fired < cl.times
                    and (att.events_seen >= cl.events
                         or (cl.after_s and now - att.t_start >= cl.after_s))):
                cl.fired += 1
                self._supervised_kill(att, "fault_kill", "kills")
                continue
            if att.kill_sent is None and spec.timeout_s > 0 \
                    and now - att.t_start > spec.timeout_s:
                self._supervised_kill(att, "timeout", "timeouts")
                continue
            if att.kill_sent is None and spec.heartbeat_timeout_s > 0 \
                    and now - att.last_heartbeat > spec.heartbeat_timeout_s:
                self._supervised_kill(att, "hung", "hangs")
                continue
            if att.kill_sent in ("cancel", "drain") and att.term_sent_t is not None \
                    and now - att.term_sent_t > self.config.drain_grace_s:
                self._signal_attempt(att, att.kill_sent, hard=True)

    def _reap(self) -> None:
        """Fold exited subprocesses back into the state machine."""
        from ..pipeline.run_stage import EXIT_PREEMPTED

        for jid, att in list(self._running.items()):
            rc = att.proc.poll()
            if rc is None:
                continue
            del self._running[jid]
            job = att.job
            if jid in self._pending_cancels or att.kill_sent == "cancel":
                self._apply_cancel(job)
                continue
            if rc == 0:
                result = self._read_result(att.jobdir)
                self._journal_apply(job, "done", result=result)
                self._resolve_attached(job)
                continue
            if rc == EXIT_PREEMPTED or att.kill_sent == "drain":
                self.counts["preempts"] += 1
                if job.preempts + 1 > self.config.max_preempts:
                    self._journal_apply(
                        job, "failed",
                        error=f"preempted {job.preempts + 1}x (thrashing)",
                    )
                    self._resolve_attached(job)
                    continue
                # the courtesy worked: checkpointed, free requeue
                self._journal_apply(job, "retrying", reason="preempted",
                                    resume=True, not_before=time.time())
                self._journal_apply(job, "requeued", resume=True)
                continue
            reason = att.kill_sent or f"exit_{rc}"
            err = self._read_error_tail(att.jobdir)
            if job.retries + 1 > job.spec.max_retries:
                self._journal_apply(
                    job, "failed",
                    error=f"{reason} after {job.attempt} attempts: {err}",
                )
                self._resolve_attached(job)
                continue
            backoff = self._backoff_s(job)
            self.counts["retries"] += 1
            self._journal_apply(
                job, "retrying", reason=reason, error=err, resume=True,
                retries=job.retries + 1, backoff_s=round(backoff, 3),
                not_before=time.time() + backoff,
            )
            self._journal_apply(job, "requeued", resume=True)

    def _backoff_s(self, job: Job) -> float:
        c = self.config
        base = min(c.backoff_base_s * (2 ** job.retries), c.backoff_cap_s)
        return base * (1.0 + c.backoff_jitter
                       * deterministic_jitter(job.id, job.retries + 1))

    def _resolve_attached(self, primary: Job) -> None:
        """Duplicate submissions riding on ``primary`` share its fate."""
        for job in self.jobs.values():
            if job.attached_to != primary.id or job.terminal:
                continue
            if primary.state == "done":
                self._journal_apply(job, "done", result=primary.result,
                                    cached_from=primary.id)
            elif primary.state == "failed":
                self._journal_apply(job, "failed",
                                    error=f"primary {primary.id} failed")
            else:  # cancelled primary: the duplicate still wants the result
                job.attached_to = None
                self.journal.append("requeued", job=job.id,
                                    detached_from=primary.id)

    @staticmethod
    def _read_result(jobdir: Path) -> dict | None:
        """The stage summary: last JSON line run_stage printed."""
        try:
            lines = (jobdir / "stdout.log").read_text().strip().splitlines()
        except OSError:
            return None
        for line in reversed(lines):
            line = line.strip()
            if line.startswith("{"):
                try:
                    return json.loads(line)
                except json.JSONDecodeError:
                    continue
        return None

    @staticmethod
    def _read_error_tail(jobdir: Path, n: int = 3) -> str:
        try:
            lines = (jobdir / "stderr.log").read_text().strip().splitlines()
        except OSError:
            return ""
        return " | ".join(lines[-n:])[-500:]

    # ----- drain ----------------------------------------------------------------
    async def _drain_running(self) -> None:
        """Checkpoint-then-drain every running job (§3.4.1 courtesy)."""
        if self._running:
            self.journal.append("drained", jobs=sorted(self._running))
        for att in self._running.values():
            if att.kill_sent is None:
                self._signal_attempt(att, "drain")  # SIGTERM: checkpoint + 75
        deadline = time.monotonic() + self.config.drain_grace_s
        while self._running and time.monotonic() < deadline:
            self._reap()
            await asyncio.sleep(self.config.poll_s)
        for att in list(self._running.values()):
            self._signal_attempt(att, "drain", hard=True)
        while self._running:
            self._reap()
            if self._running:
                await asyncio.sleep(self.config.poll_s)

    # ----- metrics --------------------------------------------------------------
    def metrics(self) -> dict:
        """Service-level health/throughput metrics from live state."""
        jobs = list(self.jobs.values())
        done = [j for j in jobs if j.state == "done"]
        computed = [j for j in done if j.cached_from is None]
        waits = sorted(
            j.started_t - j.submitted_t for j in jobs
            if j.started_t is not None and j.submitted_t
        )
        finished = [j.finished_t for j in jobs if j.finished_t is not None]
        submitted = [j.submitted_t for j in jobs if j.submitted_t]
        span_s = (max(finished) - min(submitted)) if finished and submitted else 0.0
        out = {
            "jobs": len(jobs),
            "done": len(done),
            "computed": len(computed),
            "failed": sum(j.state == "failed" for j in jobs),
            "cancelled": sum(j.state == "cancelled" for j in jobs),
            "queue_depth": self.queue_depth,
            "max_queue_depth": self._max_depth,
            "queue_wait_p50_s": round(_percentile(waits, 0.50), 6),
            "queue_wait_p99_s": round(_percentile(waits, 0.99), 6),
            "span_s": round(span_s, 6),
            "jobs_per_hour": round(len(done) * 3600.0 / span_s, 3)
            if span_s > 0 else None,
            **self.counts,
        }
        recovery = [
            j for j in computed if j.retries or j.preempts
        ]
        out["recovered_jobs"] = len(recovery)
        out["resumed_jobs"] = sum(
            1 for j in computed
            if isinstance(j.result, dict) and j.result.get("resumed_from")
        )
        return out

    def _record_observation(self, metrics: dict) -> None:
        """Append the sweep's metrics to the run observatory (never raises)."""
        try:
            from ..diagnose.manifest import config_hash
            from ..observe import get_observer

            obs = get_observer()
            if not getattr(obs, "enabled", False) or obs.registry is None:
                return
            obs.registry.record(
                "service",
                {"service_dir": str(self.dir), **metrics},
                key=config_hash({"service_dir": str(self.dir)}),
            )
        except Exception:
            pass

    # ----- shared write path ----------------------------------------------------
    def _journal_apply(self, job: Job, event: str, **fields) -> None:
        """Journal first, then apply — the store never lags the state."""
        rec = self.journal.append(event, job=job.id, **fields)
        job.apply(event, t=rec["t"], **fields)


def _percentile(sorted_vals, q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(int(q * len(sorted_vals)), len(sorted_vals) - 1)
    return float(sorted_vals[idx])
