"""Shared-memory multi-worker force execution (sink-shard data parallelism).

The serial->parallel seam of the whole stack: the paper's decomposition
(§3.1-3.3) assigns each process an SFC-contiguous block of *sink*
leaves and lets it traverse them against the global tree — who computes
changes, what is computed never does.  :class:`ForceExecutor` realizes
that on one shared-memory node:

* a **persistent** pool of ``multiprocessing`` workers survives across
  force calls, so per-step cost is array publication, not process
  creation or module import;
* per force call the particle / tree / moment arrays are published
  **once** through ``multiprocessing.shared_memory`` — workers map the
  same physical pages, nothing megabyte-sized is ever pickled;
* sink leaves are cut into one SFC-contiguous shard per worker,
  balanced by particle count (:func:`~repro.parallel.domain.sfc_cut`,
  the paper's one curve interval per process).  Each shard re-walks the
  upper tree from the root and translates every sink cell it straddles,
  so fewer shards repeat less.  Measured only on the clustered
  2,744-particle benchmark at two workers: 8 shards re-tested 35 % of
  the serial MAC tests and 2 shards 17 %, for 13-19 % less step wall
  time, with load imbalance no better (higher at one of two seeds);
  balance at more workers is unmeasured;
* each worker runs :func:`~repro.gravity.solver.solve_forces`
  restricted to its shard (the ``sink_leaves`` parameter) under the
  caller's :class:`~repro.gravity.solver.ForceSpec`, writing its
  ``acc``/``pot`` slice into a shared output segment.  Every sink
  particle belongs to exactly one shard, so the slices are disjoint
  and the merge is deterministic — no reduction race, no
  scheduling-dependent rounding.  At ``workers=1`` a single shard
  reproduces the serial interaction stream bit for bit.

Per-shard wall times come back through the result queue and merge into
the parent tracer's timers (``executor/traverse``, ``executor/evaluate``,
``executor/shard``), turning the modeled load imbalance of
:mod:`repro.parallel.ptraverse` into a measured one.

**Self-healing** (paper §3.4.2: production runs lose a node about every
million CPU hours — the pool must degrade, not die): the collector
detects dead workers (respawned; the missing shards are re-dispatched
— writes are deterministic and slice-disjoint, so duplicate execution
is idempotent), worker-side exceptions (the failed shard alone is
retried with bounded attempts and backoff), and hung workers (no
progress for ``REPRO_SHARD_TIMEOUT`` seconds restarts the pool).  When the
respawn/retry budget is exhausted the remaining shards are computed
serially in the parent — the force result is always produced, bit for
bit the same, and every recovery is recorded in
``stats["executor"]["recoveries"]`` and emitted through the tracer.
Deterministic fault injection for all of these paths comes from
:class:`repro.resilience.faults.FaultPlan` (``REPRO_FAULTS``).
"""

from __future__ import annotations

import atexit
import os
import queue as _queue
import secrets
import time
import traceback
import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from .domain import sfc_cut

__all__ = ["ForceExecutor", "ensure_executor"]

_SEG_PREFIX = "reprofx"

#: tree / moment arrays each worker needs to traverse and evaluate
_TREE_ARRAYS = (
    "pos", "mass", "cell_key", "cell_level", "cell_first_child", "cell_nchildren",
    "cell_start", "cell_count", "cell_is_ghost", "cell_center", "cell_side",
)
_MOM_ARRAYS = ("moments", "bmax", "r_crit")


def _publish(arrays: dict[str, np.ndarray], tag: str):
    """Copy arrays into fresh shared-memory segments.

    Returns ``(meta, segments)`` where ``meta`` maps logical name ->
    (segment name, shape, dtype str) — the only thing that crosses the
    task queue.
    """
    meta = {}
    segments = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(arr.nbytes, 1),
            name=f"{_SEG_PREFIX}_{tag}_{name}_{secrets.token_hex(4)}",
        )
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        meta[name] = (shm.name, arr.shape, arr.dtype.str)
        segments.append(shm)
    return meta, segments


def _attach(meta: dict):
    """Map published segments; returns (arrays, segments to keep alive).

    Attaching normally registers the segment with the resource tracker
    (on < 3.13 unconditionally), but only the *parent* owns these
    segments: a worker registration would either double-unlink memory
    the parent still uses (spawn, private tracker) or race the parent's
    own unregistration (fork, shared tracker).  Registration is
    suppressed for the duration of the attach — process-local, and only
    ever executed inside worker processes.
    """
    from multiprocessing import resource_tracker

    arrays = {}
    segments = []
    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        for name, (shm_name, shape, dt) in meta.items():
            shm = shared_memory.SharedMemory(name=shm_name)
            arrays[name] = np.ndarray(
                tuple(shape), dtype=np.dtype(dt), buffer=shm.buf
            )
            segments.append(shm)
    finally:
        resource_tracker.register = orig_register
    return arrays, segments


class _WorkerState:
    """One epoch's attached arrays + reconstructed tree/moments views."""

    __slots__ = ("epoch", "segments", "tree", "moms", "spec", "acc", "pot")

    def __init__(self):
        self.epoch = -1
        self.segments = []
        self.tree = self.moms = self.spec = self.acc = self.pot = None

    def release(self) -> None:
        self.tree = self.moms = self.spec = self.acc = self.pot = None
        for shm in self.segments:
            try:
                shm.close()
            except Exception:
                pass
        self.segments = []

    def load(self, epoch: int, meta: dict) -> None:
        from ..tree.moments import TreeMoments
        from ..tree.structure import Tree

        self.release()
        arrays, self.segments = _attach(meta["segments"])
        empty = np.empty(0)
        self.tree = Tree(
            box=meta["box"],
            nleaf=meta["nleaf"],
            pos=arrays["pos"],
            mass=arrays["mass"],
            keys=None,
            order=None,
            cell_key=arrays["cell_key"],
            cell_level=arrays["cell_level"],
            cell_parent=None,
            cell_first_child=arrays["cell_first_child"],
            cell_nchildren=arrays["cell_nchildren"],
            cell_start=arrays["cell_start"],
            cell_count=arrays["cell_count"],
            cell_is_ghost=arrays["cell_is_ghost"],
            cell_center=arrays["cell_center"],
            cell_side=arrays["cell_side"],
            hash=None,
        )
        m = meta["moms"]
        self.moms = TreeMoments(
            p=m["p"],
            tol=m["tol"],
            background=m["background"],
            mean_density=m["mean_density"],
            mac=m["mac"],
            moments=arrays["moments"],
            babs=empty,
            bmax=arrays["bmax"],
            mnorm=empty,
            mnorm2=empty,
            r_crit=arrays["r_crit"],
        )
        self.spec = meta["spec"]
        self.acc = arrays["acc_out"]
        self.pot = arrays.get("pot_out")
        self.epoch = epoch


def _run_shard(tree, moms, spec, acc, pot, sinks, s0: int, s1: int):
    """Traverse + evaluate one shard, writing into ``acc`` / ``pot``.

    Returns the shard's :func:`~repro.gravity.solver.solve_forces` stats
    and its timing record.
    """
    from ..gravity.solver import solve_forces

    t0_mono = time.monotonic()
    res, _, traverse_s, evaluate_s = solve_forces(
        tree, moms, spec, sink_leaves=sinks, particle_range=(s0, s1),
    )
    acc[s0:s1] = res.acc
    if pot is not None and res.pot is not None:
        pot[s0:s1] = res.pot
    spans = {
        # CLOCK_MONOTONIC is system-wide on the platforms the pool runs
        # on, so worker-side stamps are comparable across processes —
        # what the observe timeline needs to draw per-worker lanes
        "t0": t0_mono,
        "t1": t0_mono + traverse_s + evaluate_s,
        "traverse_s": traverse_s,
        "evaluate_s": evaluate_s,
    }
    return res.stats, spans


def _bad_shards(shards, *outputs) -> dict[int, int]:
    """Non-finite values per shard of the key-sorted ``outputs``.

    One ``isfinite`` pass when the outputs are finite; only then are the
    shards' ``[s0, s1)`` slices counted one by one.
    """
    outputs = [o for o in outputs if o is not None]
    if all(np.isfinite(o).all() for o in outputs):
        return {}
    bad = {}
    for sid, _, s0, s1 in shards:
        n = sum(int(np.count_nonzero(~np.isfinite(o[s0:s1]))) for o in outputs)
        if n:
            bad[sid] = n
    return bad


def _worker_main(worker_id: int, tasks, results, libraries: dict) -> None:
    """Persistent worker loop: pull shards until the ``None`` sentinel.

    ``libraries`` are the compiled evaluator files the parent loaded
    (:func:`repro.gravity.native.library_paths`): a spawned worker loads
    them rather than resolving its own, which would compile again where
    the cache cannot be written.

    An injected :class:`~repro.resilience.faults.FaultPlan` (spec string
    carried in the epoch metadata, so it survives spawn) fires before the
    shard runs: ``kill`` exits the process, ``raise`` surfaces as an
    ``err`` result, ``delay`` stalls past the parent's timeout.  Faults
    never fire on re-dispatches (``attempt > 0``), so recovery always
    converges.
    """
    from ..gravity import native

    native.adopt_libraries(libraries)
    state = _WorkerState()
    plan = None
    plan_spec = None
    while True:
        msg = tasks.get()
        if msg is None:
            state.release()
            return
        epoch, meta, shard_id, sinks, s0, s1, attempt = msg
        try:
            fault_spec = meta["faults"]
            if fault_spec != plan_spec:
                from ..resilience.faults import FaultPlan

                plan = FaultPlan.parse(fault_spec) if fault_spec else None
                plan_spec = fault_spec
            if plan is not None:
                plan.apply_worker(worker_id, shard_id, epoch, attempt=attempt)
            if epoch != state.epoch:
                state.load(epoch, meta)
            stats, spans = _run_shard(
                state.tree, state.moms, state.spec, state.acc, state.pot,
                sinks, s0, s1,
            )
            results.put(("ok", epoch, shard_id, worker_id, stats, spans))
        except Exception:
            results.put(
                ("err", epoch, shard_id, worker_id, traceback.format_exc(), None)
            )


class ForceExecutor:
    """Persistent shared-memory worker pool for treecode force solves.

    Parameters
    ----------
    workers:
        Number of worker processes (>= 1).  ``workers=1`` runs the
        whole sink set as a single shard in one worker and is
        bit-identical to the serial path.

    The start method (``REPRO_START_METHOD``: "fork", "spawn",
    "forkserver"; else the platform default), the hang timeout
    (``REPRO_SHARD_TIMEOUT``: seconds without *any* shard result before
    the pool is declared hung and restarted; else disabled — dead
    workers are still detected immediately) and the fault-injection
    plan (``REPRO_FAULTS``) are deployment settings read from the
    environment.
    """

    #: bounded re-dispatches per shard: worker-side exceptions beyond
    #: this raise; death/hang re-dispatches beyond this fall back to
    #: computing the shard serially in the parent
    MAX_RETRIES = 2
    #: worker respawn budget per force call; once exhausted the pool is
    #: unrecoverable and the call degrades to serial execution
    MAX_RESPAWNS = 4
    #: linear backoff step between re-dispatches of a failing shard
    RETRY_BACKOFF_S = 0.05

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._ctx = mp.get_context(os.environ.get("REPRO_START_METHOD") or None)
        self.workers = int(workers)
        env = os.environ.get("REPRO_SHARD_TIMEOUT", "").strip()
        self.shard_timeout = float(env) if env else None
        self._fault_spec = os.environ.get("REPRO_FAULTS", "") or None
        self.closed = False
        #: the pool proved unrecoverable; all further work runs serially
        self.degraded = False
        #: every recovery action taken over the executor's lifetime
        self.recoveries: list[dict] = []
        self._epoch = 0
        self._tag = f"{os.getpid():x}{secrets.token_hex(2)}"
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._procs = [self._spawn(i) for i in range(self.workers)]
        atexit.register(self.close)

    def _spawn(self, worker_id: int):
        from ..gravity import native

        p = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._tasks, self._results, native.library_paths()),
            daemon=True,
            name=f"repro-force-{worker_id}",
        )
        p.start()
        return p

    # ----- sharding -----------------------------------------------------------
    def _make_shards(self, tree):
        """One SFC-contiguous sink-leaf shard per worker, balanced by
        particle count.

        Returns ``[(shard_id, sinks, s0, s1), ...]`` where [s0, s1) are
        the key-sorted particle indices owned by the shard; the ranges
        tile [0, N) because SFC-sorted leaf ranges are contiguous.  A
        single shard is encoded as ``sinks=None`` so the worker uses
        the traversal's default sink order — the exact serial stream.
        """
        leaves = tree.leaf_indices
        if self.workers == 1 or len(leaves) <= 1:
            return [(0, None, 0, tree.n_particles)]
        lsfc = leaves[np.argsort(tree.cell_start[leaves], kind="stable")]
        bounds = sfc_cut(tree.cell_count[lsfc], self.workers)
        shards = []
        for sid, (b0, b1) in enumerate(zip(bounds[:-1], bounds[1:])):
            sinks = lsfc[b0:b1]
            s0 = int(tree.cell_start[sinks[0]])
            s1 = int(tree.cell_start[sinks[-1]] + tree.cell_count[sinks[-1]])
            shards.append((sid, sinks, s0, s1))
        return shards

    # ----- one force call -----------------------------------------------------
    def compute(self, tree, moms, spec, tracer=None):
        """Traverse + evaluate all sink leaves across the pool under ``spec``.

        ``spec`` is the solver's :class:`~repro.gravity.solver.ForceSpec`,
        shipped to the workers as is.

        The tree and moments must already be built (the upward pass is
        cheap and serial); returns a
        :class:`~repro.gravity.treeforce.ForceResult` in original
        particle order, matching what the serial traverse/evaluate pair
        would produce, with the shards' stats merged by
        :func:`~repro.gravity.solver.merge_stats` and the pool's own
        record under ``stats["executor"]``.  A non-finite output value
        adds ``stats["bad_shards"]`` (shard id -> count), which the
        solver's guard names when it raises.
        """
        from ..gravity.solver import merge_stats
        from ..gravity.treeforce import ForceResult
        from ..observe import get_tracer

        if self.closed:
            raise RuntimeError("executor is closed")
        tr = tracer if tracer is not None else get_tracer()
        self._epoch += 1
        epoch = self._epoch
        n = tree.n_particles

        arrays = {name: getattr(tree, name) for name in _TREE_ARRAYS}
        arrays.update({name: getattr(moms, name) for name in _MOM_ARRAYS})
        arrays["acc_out"] = np.zeros((n, 3), dtype=np.float64)
        if spec.want_potential:
            arrays["pot_out"] = np.zeros(n, dtype=np.float64)
        meta_segments, segments = _publish(arrays, f"{self._tag}{epoch:x}")
        meta = {
            "segments": meta_segments,
            "box": float(tree.box),
            "nleaf": int(tree.nleaf),
            "moms": {
                "p": moms.p,
                "tol": moms.tol,
                "background": moms.background,
                "mean_density": moms.mean_density,
                "mac": moms.mac,
            },
            "spec": spec,
            "faults": self._fault_spec,
        }
        try:
            shards = self._make_shards(tree)
            # parent-side views of the shared output: the merge source,
            # and the serial-fallback write target
            acc_view = np.ndarray(
                (n, 3), dtype=np.float64,
                buffer=segments_buf(segments, meta_segments, "acc_out"),
            )
            pot_view = None
            if spec.want_potential:
                pot_view = np.ndarray(
                    (n,), dtype=np.float64,
                    buffer=segments_buf(segments, meta_segments, "pot_out"),
                )
            # the serial fallback's arguments to _run_shard
            local = (tree, moms, spec, acc_view, pot_view)
            if not self.degraded:
                for sid, sinks, s0, s1 in shards:
                    self._tasks.put((epoch, meta, sid, sinks, s0, s1, 0))
            shard_stats, shard_spans, recoveries = self._collect(
                epoch, meta, shards, local
            )

            # deterministic merge: disjoint [s0, s1) slices already sit in
            # the shared output; unsort + cast once, exactly like serial
            acc_sorted = np.array(acc_view)
            pot_sorted = None if pot_view is None else np.array(pot_view)
            # while the output is still key-sorted, each shard owns one slice
            bad_shards = _bad_shards(shards, acc_sorted, pot_sorted)
            acc = np.empty_like(acc_sorted)
            acc[tree.order] = acc_sorted
            pot = None
            if pot_sorted is not None:
                pot = np.empty_like(pot_sorted)
                pot[tree.order] = pot_sorted
            if np.dtype(spec.dtype) != np.dtype(np.float64):
                acc = acc.astype(spec.dtype)
                if pot is not None:
                    pot = pot.astype(spec.dtype)
        finally:
            # drop our buffer exports before releasing the segments, and
            # unlink before close so /dev/shm is cleaned even if a live
            # export keeps the local mapping pinned
            acc_view = pot_view = local = None
            for shm in segments:
                try:
                    shm.unlink()
                except Exception:
                    pass
                try:
                    shm.close()
                except Exception:
                    pass

        stats = merge_stats(
            [shard_stats[sid] for sid in sorted(shard_stats)], spec.want_potential
        )
        stats.update(self._pool_stats(shard_spans, tr, recoveries))
        if bad_shards:
            stats["bad_shards"] = bad_shards
        return ForceResult(acc=acc, pot=pot, stats=stats)

    def _collect(self, epoch: int, meta: dict, shards, local: tuple):
        """Wait for all shard results, healing dead/hung workers.

        Recovery protocol, in escalating order:

        * worker-reported exception -> re-dispatch only that shard
          (bounded by ``MAX_RETRIES``, linear backoff); beyond the
          budget the error is deterministic and raises;
        * dead worker -> respawn it and re-dispatch every unfinished
          shard (duplicate completions are deduped; the deterministic,
          slice-disjoint writes make double execution idempotent); a
          shard past its re-dispatch budget is computed serially;
        * no progress for ``REPRO_SHARD_TIMEOUT`` seconds -> restart the
          whole pool and re-dispatch;
        * respawn budget exhausted -> the pool is unrecoverable: mark
          the executor degraded and finish every pending shard
          serially in the parent (``_run_shard`` on ``local``).

        Returns ``(shard_stats, shard_spans, recoveries)``.
        """
        pending = {sid: (sinks, s0, s1) for sid, sinks, s0, s1 in shards}
        attempts = dict.fromkeys(pending, 0)
        err_count = dict.fromkeys(pending, 0)
        shard_stats: dict[int, dict] = {}
        shard_spans: dict[int, tuple[int, dict]] = {}
        recoveries: list[dict] = []
        respawns = 0
        last_progress = time.monotonic()

        def finish_local(sid: int) -> None:
            sinks, s0, s1 = pending.pop(sid)
            st, sp = _run_shard(*local, sinks, s0, s1)
            sp["local"] = True  # timeline: a parent-lane recovery span
            sp["attempt"] = attempts[sid]
            shard_stats[sid] = st
            shard_spans[sid] = (0, sp)

        def redispatch_or_local(sid: int) -> None:
            if attempts[sid] >= self.MAX_RETRIES:
                recoveries.append({
                    "kind": "serial_shard", "shard": sid,
                    "reason": f"re-dispatch budget ({self.MAX_RETRIES}) exhausted",
                })
                finish_local(sid)
                return
            attempts[sid] += 1
            sinks, s0, s1 = pending[sid]
            self._tasks.put((epoch, meta, sid, sinks, s0, s1, attempts[sid]))

        def degrade(reason: str) -> None:
            self.degraded = True
            recoveries.append({
                "kind": "serial_fallback", "reason": reason,
                "shards": sorted(pending),
            })
            for sid in sorted(pending):
                finish_local(sid)

        if self.degraded:
            degrade("pool previously unrecoverable")

        while pending:
            try:
                msg = self._results.get(timeout=0.1)
            except _queue.Empty:
                now = time.monotonic()
                dead = [i for i, p in enumerate(self._procs) if not p.is_alive()]
                if dead:
                    if respawns + len(dead) > self.MAX_RESPAWNS:
                        for i in dead:
                            recoveries.append({
                                "kind": "worker_death", "worker": i,
                                "exitcode": self._procs[i].exitcode,
                                "respawned": False,
                            })
                        degrade(
                            f"respawn budget ({self.MAX_RESPAWNS}) exhausted"
                        )
                        continue
                    for i in dead:
                        recoveries.append({
                            "kind": "worker_death", "worker": i,
                            "exitcode": self._procs[i].exitcode,
                            "respawned": True,
                        })
                        self._procs[i] = self._spawn(i)
                        respawns += 1
                    # the dead worker's in-flight shard will never report:
                    # re-dispatch everything unfinished (dedupe below makes
                    # a queued duplicate harmless)
                    for sid in list(pending):
                        redispatch_or_local(sid)
                    last_progress = time.monotonic()
                elif (
                    self.shard_timeout
                    and now - last_progress > self.shard_timeout
                ):
                    if respawns + self.workers > self.MAX_RESPAWNS:
                        degrade(
                            f"pool hung > {self.shard_timeout:g}s with "
                            f"respawn budget exhausted"
                        )
                        continue
                    recoveries.append({
                        "kind": "pool_restart",
                        "reason": f"no progress in {self.shard_timeout:g}s",
                    })
                    for i, p in enumerate(self._procs):
                        p.terminate()
                        p.join(timeout=1.0)
                        if p.is_alive():
                            p.kill()
                            p.join(timeout=1.0)
                        self._procs[i] = self._spawn(i)
                        respawns += 1
                    for sid in list(pending):
                        redispatch_or_local(sid)
                    last_progress = time.monotonic()
                continue
            kind, ep, sid, wid, payload, spans = msg
            if ep != epoch or sid not in pending:
                continue  # stale epoch, or duplicate of a healed shard
            last_progress = time.monotonic()
            if kind == "ok":
                pending.pop(sid)
                spans["attempt"] = attempts[sid]
                shard_stats[sid] = payload
                shard_spans[sid] = (wid, spans)
                continue
            # worker-side exception: retry only this shard, with backoff
            err_count[sid] += 1
            if err_count[sid] > self.MAX_RETRIES:
                raise RuntimeError(
                    f"shard {sid} failed in worker pool after "
                    f"{err_count[sid]} attempts:\n{payload}"
                )
            recoveries.append({
                "kind": "shard_retry", "shard": sid, "worker": wid,
                "attempt": err_count[sid],
                "error": payload.strip().splitlines()[-1],
            })
            time.sleep(self.RETRY_BACKOFF_S * err_count[sid])
            attempts[sid] += 1
            sinks, s0, s1 = pending[sid]
            self._tasks.put((epoch, meta, sid, sinks, s0, s1, attempts[sid]))
        return shard_stats, shard_spans, recoveries

    def _pool_stats(self, shard_spans, tr, recoveries) -> dict:
        """The pool's own record of one call, ``stats["executor"]``.

        Shard timelines, per-worker busy seconds, load imbalance and
        recoveries; the force stats themselves are
        :func:`~repro.gravity.solver.merge_stats`'.
        """
        out = {}
        busy = np.zeros(self.workers)
        shard_seconds = [0.0] * len(shard_spans)
        traverse_s = evaluate_s = 0.0
        events = []
        t_origin = min((spans["t0"] for _, spans in shard_spans.values()), default=0.0)
        for sid, (wid, spans) in shard_spans.items():
            shard_s = spans["traverse_s"] + spans["evaluate_s"]
            busy[wid] += shard_s
            shard_seconds[sid] = shard_s
            traverse_s += spans["traverse_s"]
            evaluate_s += spans["evaluate_s"]
            # one timeline event per shard, offsets relative to the
            # call's first shard start (repro-obs timeline input)
            events.append({
                "shard": sid,
                "worker": wid,
                "t0": round(spans["t0"] - t_origin, 6),
                "t1": round(spans["t1"] - t_origin, 6),
                "traverse_s": round(spans["traverse_s"], 6),
                "evaluate_s": round(spans["evaluate_s"], 6),
                "attempt": int(spans.get("attempt", 0)),
                "local": bool(spans.get("local", False)),
            })
            if tr.enabled:
                # the worker-side spans land in the parent's timers
                tr.add_time("executor/traverse", spans["traverse_s"])
                tr.add_time("executor/evaluate", spans["evaluate_s"])
                tr.add_time("executor/shard", shard_s)
        events.sort(key=lambda e: (e["t0"], e["shard"]))
        mean_busy = float(busy.mean()) if self.workers else 0.0
        out["executor"] = {
            "workers": self.workers,
            "n_shards": len(shard_spans),
            "shard_seconds": shard_seconds,
            "shard_events": events,
            "worker_busy_s": busy.tolist(),
            "load_imbalance": float(busy.max() / mean_busy - 1.0)
            if mean_busy > 0
            else 0.0,
            "traverse_s": traverse_s,
            "evaluate_s": evaluate_s,
        }
        if recoveries:
            self.recoveries.extend(recoveries)
            out["executor"]["recoveries"] = recoveries
            out["executor"]["degraded"] = self.degraded
            for r in recoveries:
                tr.emit({"type": "executor_recovery", **r})
            if tr.enabled:
                tr.count("executor.recoveries", len(recoveries))
        if tr.enabled:
            tr.count("executor.shards", len(shard_spans))
        return out

    # ----- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release every shared-memory segment.

        Hardened against a pool that died mid-``compute``: sentinels go
        only to live workers, stragglers are terminated then killed, the
        result queue is drained, and the queue feeder threads are
        cancelled rather than joined — a dead consumer can therefore
        never hang teardown or leak shared-memory segments.
        """
        if self.closed:
            return
        self.closed = True
        try:
            atexit.unregister(self.close)
        except Exception:
            pass
        for p in self._procs:
            if p.is_alive():
                try:
                    self._tasks.put_nowait(None)
                except Exception:
                    pass
        for p in self._procs:
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=1.0)
        # drain undelivered results so the feeder thread can flush
        try:
            while True:
                self._results.get_nowait()
        except Exception:
            pass
        for q in (self._tasks, self._results):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def segments_buf(segments, meta_segments, name):
    """The buffer of the published segment holding logical array ``name``."""
    shm_name = meta_segments[name][0]
    for shm in segments:
        if shm.name == shm_name:
            return shm.buf
    raise KeyError(name)


def ensure_executor(current: ForceExecutor | None, workers: int) -> ForceExecutor:
    """Reuse ``current`` if it matches ``workers``, else replace it."""
    if current is not None and not current.closed and current.workers == workers:
        return current
    if current is not None:
        current.close()
    return ForceExecutor(workers)
