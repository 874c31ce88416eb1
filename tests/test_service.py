"""Tests for the crash-safe job service (ISSUE 9).

Fast layers (state machine, journal, admission/dedup) run in-process;
the end-to-end layer drives real ``run_stage`` subprocesses through
the scheduler under deterministic fault injection — job kill mid-run,
hung job with a corrupted newest checkpoint, service-process kill,
SIGTERM drain — and asserts every job converges to results
bit-identical to an uninterrupted run.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.io import load_checkpoint
from repro.pipeline.run_stage import run_stage
from repro.service import (
    InvalidTransition,
    Job,
    JobJournal,
    JobService,
    JobSpec,
    QueueFull,
    ServiceConfig,
    ServiceFaultPlan,
    deterministic_jitter,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def ic_config(seed=7, n=6):
    return {
        "stage": "ic", "n_per_dim": n, "box_mpc_h": 100.0, "a_init": 0.02,
        "seed": seed, "omega_m": 0.3, "omega_b": 0.05, "h": 0.7,
        "sigma8": 0.8, "n_s": 0.96, "output": "ic.sdf",
    }


def evolve_config(ic_sdf, tag=0):
    return {
        "stage": "evolve", "input": str(ic_sdf), "a_final": 0.05,
        "errtol": 0.1, "snapshot_base": "snap", "snapshots_a": [0.05],
        "sweep_id": tag,  # distinct dedup keys within a sweep
    }


SNAP_NAME = "snap_a0.0500.sdf"


@pytest.fixture(scope="module")
def ic_sdf(tmp_path_factory):
    """One tiny IC file shared by every evolve job in this module."""
    d = tmp_path_factory.mktemp("svc_ic")
    cfg = d / "ic.json"
    cfg.write_text(json.dumps(ic_config()))
    run_stage(cfg, workdir=d)
    return d / "ic.sdf"


@pytest.fixture(scope="module")
def reference(ic_sdf, tmp_path_factory):
    """The uninterrupted evolve run every faulted job must match,
    plus its checkpoint store (for pre-seeding corruption tests)."""
    d = tmp_path_factory.mktemp("svc_ref")
    cfg = d / "evolve.json"
    cfg.write_text(json.dumps(evolve_config(ic_sdf)))
    run_stage(cfg, workdir=d, checkpoint_every=1)
    ps, _ = load_checkpoint(d / SNAP_NAME)
    return {"dir": d, "pos": ps.pos, "mom": ps.mom, "mass": ps.mass}


def assert_bit_identical(snap_path, reference):
    ps, _ = load_checkpoint(snap_path)
    np.testing.assert_array_equal(ps.pos, reference["pos"])
    np.testing.assert_array_equal(ps.mom, reference["mom"])
    np.testing.assert_array_equal(ps.mass, reference["mass"])


def fast_service(tmp_path, **kw) -> JobService:
    kw.setdefault("backoff_base_s", 0.1)
    faults = kw.pop("faults", None)
    return JobService(tmp_path / "svc", ServiceConfig(**kw), faults=faults)


# ----- state machine -----------------------------------------------------------
class TestStateMachine:
    def make(self, **kw):
        return Job(id="j1", spec=JobSpec(config={"stage": "ic", "seed": 1}), **kw)

    def test_happy_path_walk(self):
        job = self.make()
        for event in ("admitted", "started", "done"):
            job.apply(event)
        assert job.state == "done"
        assert job.terminal and not job.active
        assert job.attempt == 1

    def test_illegal_transition_raises(self):
        job = self.make()
        job.apply("admitted")
        job.apply("started")
        job.apply("done")
        with pytest.raises(InvalidTransition):
            job.apply("started")

    def test_retry_consumes_budget_preemption_does_not(self):
        job = self.make()
        job.apply("admitted"); job.apply("started")
        job.apply("retrying", reason="exit_1", retries=1, not_before=123.0)
        assert (job.retries, job.preempts) == (1, 0)
        assert job.not_before == 123.0 and job.resume_next
        job.apply("requeued", resume=True)
        job.apply("admitted"); job.apply("started", attempt=2)
        job.apply("retrying", reason="preempted")
        assert (job.retries, job.preempts) == (1, 1)  # free requeue

    def test_queued_to_done_is_the_cache_edge(self):
        job = self.make()
        job.apply("done", result={"x": 1}, cached_from="other")
        assert job.state == "done" and job.cached_from == "other"

    def test_jitter_is_deterministic_and_bounded(self):
        vals = {deterministic_jitter("job-a", k) for k in range(50)}
        assert len(vals) == 50
        assert all(0.0 <= v < 1.0 for v in vals)
        assert deterministic_jitter("job-a", 3) == deterministic_jitter("job-a", 3)

    def test_dedup_key_ignores_operational_knobs(self):
        cfg = {"stage": "evolve", "a_final": 0.1}
        a = JobSpec(config=cfg, workers=0, timeout_s=0.0, max_retries=2)
        b = JobSpec(config=cfg, workers=4, timeout_s=60.0, max_retries=0)
        c = JobSpec(config={**cfg, "a_final": 0.2})
        assert a.key() == b.key() != c.key()

    def test_spec_payload_roundtrip(self):
        spec = JobSpec(config={"stage": "ic", "seed": 2}, name="x",
                       submitter="ci", workers=3, timeout_s=9.0)
        assert JobSpec.from_payload(spec.to_payload()) == spec


# ----- the journal --------------------------------------------------------------
class TestJournal:
    def test_replay_reconstructs_exact_state(self, tmp_path):
        j = JobJournal(tmp_path / "journal.jsonl")
        spec = JobSpec(config={"stage": "ic", "seed": 1})
        job = j.submit(spec)
        for event, kw in (("admitted", {}), ("started", {"attempt": 1}),
                          ("retrying", {"reason": "exit_1", "retries": 1,
                                        "not_before": 5.0}),
                          ("requeued", {"resume": True})):
            rec = j.append(event, job=job.id, **kw)
            job.apply(event, t=rec["t"], **kw)
        state = JobJournal(tmp_path / "journal.jsonl").replay()
        got = state.jobs[job.id]
        assert got.state == "queued"
        assert got.retries == 1 and got.resume_next
        assert got.spec == spec
        assert state.skipped == 0

    def test_torn_tail_is_repaired_not_poisonous(self, tmp_path):
        j = JobJournal(tmp_path / "journal.jsonl")
        j.append("service_started", pid=1)
        with open(j.path, "ab") as fh:
            fh.write(b'{"svc_schema": 1, "event": "truncat')  # dead writer
        j.append("service_stopped", pid=1)
        events = [r["event"] for r in j.records()]
        assert events == ["service_started", "service_stopped"]

    def test_trailing_fragment_left_for_next_read(self, tmp_path):
        j = JobJournal(tmp_path / "journal.jsonl")
        j.append("service_started")
        j.replay()
        with open(j.path, "ab") as fh:
            fh.write(b'{"event": "drain_requested"')  # mid-write
        assert j.read_new() == []
        with open(j.path, "ab") as fh:
            fh.write(b', "svc_schema": 1}\n')
        assert [r["event"] for r in j.read_new()] == ["drain_requested"]

    def test_parallel_writers_never_tear_records(self, tmp_path):
        """N processes appending to one journal concurrently leave
        N x M whole, parseable records.  A writer may put an empty line
        before its record (see ``JobJournal.append``); readers skip it."""
        n_procs, n_recs = 6, 40
        path = tmp_path / "journal.jsonl"
        script = (
            "import sys\n"
            "from repro.service import JobJournal\n"
            "j = JobJournal(sys.argv[1])\n"
            "w = int(sys.argv[2])\n"
            "for i in range(int(sys.argv[3])):\n"
            "    j.append('service_started', writer=w, i=i, pad='x' * 256)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), str(w), str(n_recs)],
                env={**os.environ, "PYTHONPATH": SRC},
            )
            for w in range(n_procs)
        ]
        assert all(p.wait(timeout=120) == 0 for p in procs)

        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        parsed = [json.loads(line) for line in lines]  # none torn or interleaved
        assert all(rec["pad"] == "x" * 256 for rec in parsed)
        seen = {(rec["writer"], rec["i"]) for rec in parsed}
        assert len(parsed) == len(seen) == n_procs * n_recs
        # the replaying reader agrees, and tails nothing twice
        j = JobJournal(path)
        assert j.replay().records == n_procs * n_recs
        assert j.read_new() == []

    def test_record_for_unknown_job_counts_skipped(self, tmp_path):
        j = JobJournal(tmp_path / "journal.jsonl")
        j.append("done", job="never-submitted")
        state = j.replay()
        assert state.skipped == 1 and not state.jobs

    def test_replay_rejects_illegal_history(self, tmp_path):
        j = JobJournal(tmp_path / "journal.jsonl")
        job = j.submit(JobSpec(config={"stage": "ic"}))
        j.append("done", job=job.id, result={})
        j.append("started", job=job.id)  # illegal after done
        state = j.replay()
        assert state.jobs[job.id].state == "done"
        assert state.skipped == 1


# ----- admission / dedup / control (no subprocesses) ----------------------------
class TestAdmission:
    def test_queue_full_is_typed_backpressure(self, tmp_path):
        svc = fast_service(tmp_path, queue_bound=2)
        svc.submit(ic_config(seed=1))
        svc.submit(ic_config(seed=2))
        with pytest.raises(QueueFull) as ei:
            svc.submit(ic_config(seed=3))
        assert ei.value.depth == 2 and ei.value.bound == 2
        # the rejection was not journaled: a replay sees two jobs
        assert len(JobService(tmp_path / "svc").jobs) == 2

    def test_cache_hit_for_finished_identical_config(self, tmp_path):
        svc = fast_service(tmp_path)
        first = svc.submit(ic_config(seed=1))
        for ev, kw in (("admitted", {}), ("started", {}),
                       ("done", {"result": {"particles": 216}})):
            svc._journal_apply(first, ev, **kw)
        dup = svc.submit(ic_config(seed=1))
        assert dup.state == "done"
        assert dup.cached_from == first.id
        assert dup.result == {"particles": 216}
        assert svc.counts["cache_hits"] == 1
        # durable: a fresh replay agrees
        again = JobService(tmp_path / "svc").jobs[dup.id]
        assert again.state == "done" and again.cached_from == first.id

    def test_duplicate_in_flight_attaches(self, tmp_path):
        svc = fast_service(tmp_path)
        primary = svc.submit(ic_config(seed=1))
        dup = svc.submit(ic_config(seed=1))
        assert dup.attached_to == primary.id
        assert svc.counts["attached"] == 1
        assert svc.queue_depth == 1  # attached jobs hold no slot

    def test_attached_job_detaches_when_primary_cancelled(self, tmp_path):
        svc = fast_service(tmp_path)
        primary = svc.submit(ic_config(seed=1))
        dup = svc.submit(ic_config(seed=1))
        svc.cancel(primary.id)
        assert primary.state == "cancelled"
        assert dup.attached_to is None and dup.state == "queued"

    def test_no_cache_opts_out(self, tmp_path):
        svc = fast_service(tmp_path)
        a = svc.submit(ic_config(seed=1), cache=False)
        b = svc.submit(ic_config(seed=1), cache=False)
        assert b.attached_to is None and a.key == b.key

    def test_cancel_queued_job(self, tmp_path):
        svc = fast_service(tmp_path)
        job = svc.submit(ic_config(seed=1))
        svc.cancel(job.id[:8])  # id-prefix lookup
        assert job.state == "cancelled"

    def test_absorb_cross_process_submission(self, tmp_path, monkeypatch):
        svc = fast_service(tmp_path)
        other = JobJournal(svc.journal.path)  # a second process's handle
        with monkeypatch.context() as mp:
            # the absorb filter skips own-pid records; impersonate a peer
            mp.setattr(os, "getpid", lambda: 999_999_999)
            job = other.submit(JobSpec(config=ic_config(seed=9), name="remote"))
        svc._absorb_journal()
        assert svc.jobs[job.id].name == "remote"

    def test_backoff_grows_exponentially_and_caps(self, tmp_path):
        svc = fast_service(tmp_path, backoff_base_s=0.5, backoff_cap_s=4.0,
                           backoff_jitter=0.0)
        job = Job(id="jx", spec=JobSpec(config={"stage": "ic"}))
        waits = []
        for retries in (0, 1, 2, 3, 4, 10):
            job.retries = retries
            waits.append(svc._backoff_s(job))
        assert waits[:4] == [0.5, 1.0, 2.0, 4.0]
        assert waits[4] == waits[5] == 4.0  # capped

    def test_fault_plan_parsing(self):
        plan = ServiceFaultPlan.parse(
            "kill:job=a,events=3;hang:job=b;corrupt:job=c,index=1,byte=64"
        )
        assert [c.action for c in plan.clauses] == ["kill", "hang", "corrupt"]
        assert plan.kill_clause("a", 0).events == 3
        assert plan.kill_clause("a", 1) is None  # attempt-0 only
        assert plan.corrupt_env("c", 0) == "corrupt:index=1,byte=64,xor=255"
        assert plan.corrupt_env("c", 0) is None  # fires once
        with pytest.raises(ValueError):
            ServiceFaultPlan.parse("explode:job=a")


# ----- end to end under fault injection -----------------------------------------
def serve(svc: JobService) -> dict:
    return svc.serve_forever()


class TestServeEndToEnd:
    def test_clean_sweep_completes(self, tmp_path):
        svc = fast_service(tmp_path, max_concurrent=2)
        jobs = svc.sweep([ic_config(seed=s) for s in (1, 2, 3)],
                         submitter="t")
        metrics = serve(svc)
        assert metrics["done"] == 3 and metrics["failed"] == 0
        assert all(j.state == "done" for j in jobs)
        assert all((j.result or {}).get("particles") == 216 for j in jobs)
        assert metrics["queue_wait_p99_s"] >= metrics["queue_wait_p50_s"] >= 0
        assert metrics["jobs_per_hour"] > 0

    def test_killed_job_resumes_bit_identical(self, tmp_path, ic_sdf, reference):
        svc = fast_service(tmp_path, faults="kill:job=victim,events=3")
        job = svc.submit(evolve_config(ic_sdf), name="victim")
        metrics = serve(svc)
        assert job.state == "done"
        assert metrics["kills"] == 1 and metrics["retries"] == 1
        assert job.retries == 1 and job.attempt == 2
        assert_bit_identical(svc.job_dir(job) / SNAP_NAME, reference)
        # recovery counters are durable: a fresh replay reports the same
        replayed = JobService(svc.dir).metrics()
        assert replayed["kills"] == 1 and replayed["retries"] == 1

    def test_hung_job_with_corrupt_newest_checkpoint(self, tmp_path, ic_sdf,
                                                     reference):
        """Attempt 0 hangs (heartbeat kill); the newest pre-seeded
        checkpoint is corrupt, so the retry must fall back to the older
        valid one — and still converge bit-identically."""
        svc = fast_service(tmp_path, faults="hang:job=stuck")
        # the window must outlive interpreter startup (~1 s) or the real
        # retry gets killed before its first trace event lands
        job = svc.submit(evolve_config(ic_sdf), name="stuck",
                         heartbeat_timeout_s=3.0)
        ckdir = svc.job_dir(job) / "checkpoints"
        ckdir.mkdir(parents=True)
        ref_ckpts = sorted((reference["dir"] / "checkpoints").glob("ckpt_*.sdf"))
        assert len(ref_ckpts) >= 2
        for p in ref_ckpts[-2:]:
            shutil.copy(p, ckdir / p.name)
        newest = ckdir / ref_ckpts[-1].name
        blob = bytearray(newest.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        newest.write_bytes(bytes(blob))

        metrics = serve(svc)
        assert job.state == "done"
        assert metrics["hangs"] == 1 and metrics["retries"] == 1
        assert job.result["resumed_from"].endswith(ref_ckpts[-2].name)
        assert_bit_identical(svc.job_dir(job) / SNAP_NAME, reference)

    def test_timeout_kills_and_budget_exhaustion_fails(self, tmp_path):
        svc = fast_service(tmp_path)
        job = svc.submit(ic_config(seed=5), timeout_s=0.2, max_retries=0)
        metrics = serve(svc)
        assert job.state == "failed"
        assert metrics["timeouts"] == 1
        assert "timeout" in job.error

    def _serve_subprocess(self, svc_dir):
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--dir", str(svc_dir),
             "serve", "--max-concurrent", "1"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )

    def _wait_for_checkpoint(self, jobdir: Path, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if list((jobdir / "checkpoints").glob("ckpt_*.sdf")):
                return
            time.sleep(0.05)
        raise AssertionError("job never wrote a checkpoint")

    def _child_pids(self, svc: JobService) -> list[int]:
        return [r["pid"] for r in svc.journal.records()
                if r["event"] == "started" and "pid" in r]

    def test_service_process_crash_requeues_and_resumes(self, tmp_path, ic_sdf,
                                                        reference):
        """SIGKILL the serving process mid-job (and its orphan child):
        a restarted service finds the job ``running`` in the journal,
        requeues it with resume, and converges bit-identically."""
        svc = fast_service(tmp_path)
        job = svc.submit(evolve_config(ic_sdf), name="orphan")
        server = self._serve_subprocess(svc.dir)
        try:
            self._wait_for_checkpoint(svc.job_dir(job))
            os.kill(server.pid, signal.SIGKILL)  # no drain courtesy at all
            server.wait(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
        # the job subprocess is now an orphan of a dead supervisor
        restarted = JobService(svc.dir, ServiceConfig(backoff_base_s=0.1))
        assert restarted.jobs[job.id].state == "running"
        for pid in self._child_pids(restarted):
            try:
                os.killpg(os.getpgid(pid), signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and self._pid_alive(
                self._child_pids(restarted)):
            time.sleep(0.05)
        metrics = restarted.serve_forever()
        got = restarted.jobs[job.id]
        assert got.state == "done"
        assert metrics["failed"] == 0
        assert got.result["resumed_from"]  # warm restart, not recompute
        assert_bit_identical(restarted.job_dir(got) / SNAP_NAME, reference)

    @staticmethod
    def _pid_alive(pids) -> bool:
        for pid in pids:
            try:
                os.kill(pid, 0)
            except OSError:
                continue
            return True
        return False

    def test_sigterm_drain_preempts_then_finishes_on_next_serve(
            self, tmp_path, ic_sdf, reference):
        """SIGTERM to the service: running job gets the checkpoint-then-
        drain courtesy (exit 75, no retry cost) and the next serve
        finishes it from the checkpoint."""
        svc = fast_service(tmp_path)
        job = svc.submit(evolve_config(ic_sdf), name="drainee")
        server = self._serve_subprocess(svc.dir)
        try:
            self._wait_for_checkpoint(svc.job_dir(job))
            os.kill(server.pid, signal.SIGTERM)
            rc = server.wait(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
        assert rc == 0  # a drained server exits cleanly
        restarted = JobService(svc.dir, ServiceConfig(backoff_base_s=0.1))
        got = restarted.jobs[job.id]
        assert got.state == "queued" and got.resume_next
        assert got.preempts == 1 and got.retries == 0  # courtesy is free
        metrics = restarted.serve_forever()
        assert restarted.jobs[job.id].state == "done"
        assert metrics["failed"] == 0
        assert restarted.jobs[job.id].result["resumed_from"]
        assert_bit_identical(restarted.job_dir(got) / SNAP_NAME, reference)
