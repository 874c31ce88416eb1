#!/usr/bin/env python3
"""The whole-timestep benchmark: ``Simulation(cfg, particles).run(max_steps=K)``.

Two ways in, one measurement:

* ``run.py --workload W --seed S --seconds T --trace 0|1`` measures one
  workload in this one process and prints one JSON object as its last
  line (``correct``, ``attempted``, ``failed``, ``metrics``) — the form
  ``BENCHMARK.json`` registers.  ``--trace 0`` reports the end-to-end
  metrics of an untraced run.  ``--trace 1`` runs untraced, then again
  with the wrappers of :mod:`layers` installed, and reports the
  per-layer metrics.
* ``run.py [--workloads a,b] [--seed S] [--repeats R] [--quick] [--out F]``
  runs that R times per workload and trace mode on the one seed, each
  in a fresh subprocess, prints every metric by name with its unit and
  the check results, and writes one JSON for ``compare.py``.

Every workload is a closed loop of one client on the public API only
(``SimulationConfig``, ``Simulation``, ``ParticleSet``,
``sim.integrator.force``, ``save_checkpoint``/``resume``).  The number
of steps K is what fits ``--seconds`` at the cost of the first
full-size force solve (at least 2, at most 6), so a run measures for
the time it was given.

The two registered times, ``step_wall_s`` and ``setup_s``, are stated at
the reference pace of :mod:`pace`: the host's speed moves by 30-40% for
seconds to minutes at a time, so every timed interval is divided by how
long the benchmark's own fixed kernels took just before and after it.
The raw walls and every pace sample stay in the ``--out`` record.

Every process this file starts is stopped and waited for before it
exits (:func:`stop_children`), the worker pool's resource tracker too.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up time counts interpreter-side imports

import argparse
import atexit
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".bench_tmp"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: (name, unit, better, bound) — BENCHMARK.json's ``end_to_end`` list
END_TO_END = (
    ("step_wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("force_ok_frac", "ratio", "higher", 0.1),
)

#: (name, unit, better, bound, absolute slack) — reported and compared by
#: ``compare.py`` like the end-to-end metrics, but not registered, because
#: their run-to-run spread exceeds any bound the registry admits (25%):
#: ``peak_rss_mb`` follows the per-process chunk autotune (188-262 MB on one
#: input, which compare mostly reads as ``unresolved``), and
#: ``force_err_p90`` repeats exactly for a seed, which is how compare pairs
#: it, but moves by 7-60% from one seed to the next
UNREGISTERED = (
    ("peak_rss_mb", "MB", "lower", 0.15, 0.0),
    ("force_err_p90", "ratio", "lower", 0.1, 0.05),
)

#: set-ups per ``--trace 0`` run, each in a fresh process (the first-use costs
#: are per process); the run reports their median.  One set-up alone spreads
#: by 27-61% on this host, too wide to hold a 25% bound between two sets; a
#: third one buys nothing (measured: 13-21% with three, 9-17% with two).
SETUPS = 2

#: steps of one ``run``: the median and the Layzer-Irvine drift need two; six
#: is the issue's K and keeps a run on a faster host inside its time
MIN_STEPS = 2
MAX_STEPS = 6
QUICK_STEPS = 2
N_PROBES = 48
QUICK_PROBES = 8


def _enter_checkout() -> None:
    """Pin BLAS/OpenMP to one thread and make the program importable."""
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to benchmark under {ROOT / 'src'}")
    for p in (str(ROOT / "src"), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)


def child_pids() -> list[int]:
    """Live and unreaped processes whose parent is this one."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                out.append(int(entry))
    return out


def stop_children(owner: int = os.getpid()) -> None:
    """Stop and reap every process this one started; registered first, so runs last.

    A worker pool publishes its arrays in shared memory, for which
    ``multiprocessing`` starts a resource tracker that ends only on the
    end-of-file of this process's exit, that is, after it.  It is told to
    stop and waited for here.  Anything else still a child (a pool that an
    exception left open) is terminated, then killed, and waited for.
    """
    if os.getpid() != owner:  # a forked pool worker inherits the registration
        return
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"), "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        try:
            tracker._stop()
        except OSError:
            pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = child_pids()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        while pids and (sig == signal.SIGKILL or time.monotonic() < deadline):
            for pid in list(pids):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        pids.remove(pid)
                except OSError:
                    pids.remove(pid)
            time.sleep(0.01)


# ----- one workload, measured in this process ---------------------------------------

def set_up(workload, seed: int, quick: bool):
    """Inputs, the ``Simulation``, and a warm-up on an 8^3 clone.

    The clone's ``run(max_steps=0)`` pays the size-independent first-use
    costs (lattice sums, chunk autotune, derivative-tensor codegen, the
    worker pool's first spawn) so they count as set-up, not as a step.
    Returns ``(sim, {"wall": seconds since this process started, "paces":
    the host's pace at both ends})``; the wall leaves the first sample out.
    """
    import pace

    samplers = max(1, workload.overrides.get("workers", 0))
    t0 = time.perf_counter()
    paces = [pace.sample(samplers)]
    sampling = time.perf_counter() - t0

    import workloads as W
    from repro.simulation import Simulation

    config = W.make_config(workload, quick)
    sim = Simulation(config, W.make_inputs(workload.inputs, config.n_per_dim, seed))
    clone_n = W.QUICK_N_PER_DIM
    clone = Simulation(
        dataclasses.replace(config, n_per_dim=clone_n),
        W.make_inputs(workload.inputs, clone_n, seed),
    )
    with clone:
        clone.run(max_steps=0)
    wall = time.perf_counter() - _PROCESS_START - sampling
    return sim, {"wall": wall, "paces": paces + [pace.sample(samplers)]}


def run_child(cmd: list[str], timeout: float) -> str:
    """Run one of this file's own modes in a fresh process; its standard output.

    A child that overruns gets SIGINT first: the ``KeyboardInterrupt`` lets
    its own :func:`stop_children` reap its pool workers, which a plain kill
    would orphan.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out)
    return out


def set_up_again(args, samplers: int) -> dict:
    """The set-up of one more fresh process: its wall, and the paces it and this one saw."""
    import pace

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--quick"] if args.quick else [])
    before = pace.sample(samplers)
    setup = json.loads(run_child(cmd, timeout=120).strip().splitlines()[-1])
    setup["paces"] = [before] + setup["paces"] + [pace.sample(samplers)]
    return setup


def at_reference_pace(wall: float, paces: list[float]) -> float:
    """``wall`` in seconds of the reference host, from pace samples taken around it."""
    import pace

    return wall * pace.REFERENCE_S / statistics.median(paces)


def first_force(sim):
    """The first full-size solve: probe accelerations, pool spawn, K's yardstick."""
    t0 = time.perf_counter()
    acc = sim.integrator.force(sim.particles)
    return acc, time.perf_counter() - t0


def steps_for(seconds: float, force_s: float, quick: bool, floor: int = MIN_STEPS) -> int:
    """Steps that fit ``seconds``: ``run`` solves once up front, then once a step."""
    if quick:
        return QUICK_STEPS
    return min(MAX_STEPS, max(floor, int(seconds / max(force_s, 1e-6)) - 1))


def state_hash(particles) -> str:
    h = hashlib.sha256(particles.pos.tobytes())
    h.update(particles.mom.tobytes())
    return h.hexdigest()


def reference_path(inputs: str) -> Path:
    return HERE / "reference" / f"{inputs}_seed1.npz"


def probe_reference(pos, mass, config, inputs: str, seed: int, n_probes: int, digest: str):
    """(probe indices, a_ref, source) — committed when it matches, else live."""
    import numpy as np

    from repro.diagnose.probe import reference_accelerations
    from repro.gravity import make_softening

    path = reference_path(inputs)
    if path.exists():
        with np.load(path) as ref:
            if str(ref["sha256"]) == digest and len(ref["idx"]) == n_probes:
                return ref["idx"], ref["a_ref"], "committed"
    idx = np.sort(np.random.default_rng([seed, 0x9B]).choice(len(pos), n_probes, replace=False))
    a_ref = reference_accelerations(
        pos, mass, idx, softening=make_softening(config.softening, config.eps), periodic=True
    )
    return idx, a_ref, "recomputed"


def probe_force(pos, mass, acc, config, inputs: str, seed: int, quick: bool, digest: str) -> dict:
    """Force error at seeded probe particles of the initial state, in units of ``errtol``."""
    import numpy as np

    n_probes = min(QUICK_PROBES if quick else N_PROBES, len(pos))
    idx, a_ref, source = probe_reference(pos, mass, config, inputs, seed, n_probes, digest)
    err = np.linalg.norm(np.asarray(acc, dtype=np.float64)[idx] - a_ref, axis=1)
    err /= config.errtol
    return {
        "n_probes": int(n_probes),
        "reference_source": source,
        "force_err_p50": float(np.percentile(err, 50)),
        "force_err_p90": float(np.percentile(err, 90)),
        "force_err_max": float(err.max()),
        "force_ok_frac": float((err <= 1.0).mean()),
        "finite": bool(np.isfinite(err).all()),
    }


def run_steps(sim, k: int, li_ceiling: float, samplers: int = 0) -> dict:
    """``sim.run(max_steps=k)`` plus the per-step checks on what it recorded.

    With ``samplers``, the host's pace is sampled before the run and after
    every step, in the callback, which ``StepRecord.wall`` does not cover.
    """
    import numpy as np

    import pace

    first = len(sim.history)
    hashes: list[str] = []
    paces = [pace.sample(samplers)] if samplers else []

    def after_step(s, rec):
        hashes.append(state_hash(s.particles))
        if samplers:
            paces.append(pace.sample(samplers))

    sim.run(max_steps=k, callback=after_step)
    records = sim.history[first:]
    ps = sim.particles
    state_ok = bool(np.isfinite(ps.pos).all() and np.isfinite(ps.mom).all())
    bad = sum(
        not (np.isfinite(r.wall) and r.wall > 0 and np.isfinite(r.layzer_irvine))
        for r in records
    )
    failed = (k - len(records)) + bad
    if not state_ok:
        failed = k
    walls = [r.wall for r in records]
    li_drift = None
    if len(records) >= 2 and records[1].potential != 0.0:
        # between the first two records, which every run has: the drift grows
        # with every step (2e-4 a step on the early input), K varies with the host
        li_drift = (records[1].layzer_irvine - records[0].layzer_irvine) / abs(
            records[1].potential
        )
    return {
        "steps": len(records),
        "steps_asked": k,
        "steps_failed": int(failed),
        "step_walls": walls,
        "paces": paces,
        "step_wall_s": statistics.median(walls) if walls else float("nan"),
        # each step against the pace sampled just before and just after it
        "step_wall_ref_s": statistics.median(
            at_reference_pace(w, paces[i:i + 2]) for i, w in enumerate(walls)
        ) if walls and samplers else None,
        "init_force_wall_s": sim.run_totals.get("init_force_wall_s"),
        "li_drift_rel": li_drift,
        "li_ok": bool(li_drift is None or abs(li_drift) <= li_ceiling),
        "state_hashes": hashes,
    }


def checkpoint_round_trip(sim, scratch: Path) -> dict:
    """One ``save_checkpoint`` + ``Simulation.resume``; arrays must come back bit for bit."""
    import numpy as np

    from repro.simulation import Simulation

    path = scratch / "roundtrip.sdf"
    t0 = time.perf_counter()
    sim.save_checkpoint(path)
    t1 = time.perf_counter()
    with Simulation.resume(path) as back:
        t2 = time.perf_counter()
        a, b = sim.particles, back.particles
        same = all(
            np.array_equal(getattr(a, f), getattr(b, f)) for f in ("pos", "mom", "mass", "ids")
        ) and (a.a, a.a_mom, sim.steps_completed) == (b.a, b.a_mom, back.steps_completed)
    return {
        "ok": bool(same),
        "write_s": t1 - t0,
        "read_s": t2 - t1,
        "bytes": path.stat().st_size,
    }


def peak_rss_mb(workers: int) -> dict:
    """Peak resident memory of this process plus its (reaped) pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # RUSAGE_CHILDREN reports the largest single child; every worker maps the
    # same shared arrays, so workers x that is the pool's peak
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0 if workers else 0.0
    return {"self_mb": own, "worker_mb": child, "peak_rss_mb": own + workers * child}


def serial_reference(workload, seed: int, quick: bool, acc) -> dict:
    """Serial solve of the same inputs: the sharded force must match bit for bit."""
    import numpy as np

    import workloads as W
    from repro.simulation import Simulation

    config = dataclasses.replace(W.make_config(workload, quick), workers=0)
    with Simulation(config, W.make_inputs(workload.inputs, config.n_per_dim, seed)) as serial:
        acc_serial = serial.integrator.force(serial.particles)
        mac_tests = serial.last_stats.get("mac_tests")
    return {"ok": bool(np.array_equal(acc_serial, acc)), "serial_mac_tests": mac_tests}


def autotune_pick(config):
    """The (cell, pp) chunk sizes this process calibrated for itself, or None.

    The pick is a one-shot timing per process and moves the step time by
    tens of percent (README, baseline findings), so every record names it.
    ``autotune_chunks`` caches per process: asking after the run is free.
    Pool workers calibrate each for themselves; the parent has no pick.
    """
    if config.workers:
        return None
    try:
        from repro.gravity.treeforce import autotune_chunks

        return list(autotune_chunks(config.p, "<f4"))  # ``Simulation`` solves in float32
    except (ImportError, TypeError):
        return None


def environment(sim) -> dict:
    import numpy as np

    from repro.gravity import NUMBA_AVAILABLE

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_ENV},
        "backend": sim.last_stats.get("backend"),
        "backend_fallback": sim.last_stats.get("backend_fallback"),
        "autotune_chunks": autotune_pick(sim.config),
        "numba_available": bool(NUMBA_AVAILABLE),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
    }


def measure(args) -> dict:
    """Set up, solve once, run K steps (twice when tracing), check, and report."""
    import workloads as W

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="step-", dir=SCRATCH))
    try:
        return _measure(args, W.WORKLOADS[args.workload], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, workload, scratch: Path) -> dict:
    import workloads as W

    sim, setup = set_up(workload, args.seed, args.quick)
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "mode": "quick" if args.quick else "full",
        "trace": int(args.trace),
        "n_particles": len(sim.particles),
        "input_sha256": W.input_hash(sim.particles),
        "seconds": args.seconds,
    }
    if args.trace:
        out.update(measure_layers(args, workload, sim, scratch))
    else:
        out.update(measure_end_to_end(args, workload, sim, setup, out["input_sha256"], scratch))
    out["attempted"] = sum(c["attempted"] for c in out["checks"].values())
    out["failed"] = sum(c["failed"] for c in out["checks"].values())
    out["correct"] = out["failed"] == 0
    return out


def measure_end_to_end(args, workload, sim, setup: dict, digest: str, scratch: Path) -> dict:
    """``--trace 0``: one solve for the probes and K, then the untraced run."""
    import workloads as W

    workers = workload.overrides.get("workers", 0)
    pos0, mass0 = sim.particles.pos.copy(), sim.particles.mass.copy()
    acc, force_s = first_force(sim)
    k = steps_for(args.seconds, force_s, args.quick)
    steps = run_steps(sim, k, W.LI_CEILING[workload.inputs], samplers=max(1, workers))
    env = environment(sim)
    ckpt = checkpoint_round_trip(sim, scratch)
    sim.close()
    # read before the probe reference below can grow this process
    rss = peak_rss_mb(workers)
    setups = [setup] + [set_up_again(args, max(1, workers)) for _ in range(SETUPS - 1)]
    probe = probe_force(pos0, mass0, acc, sim.config, workload.inputs, args.seed, args.quick, digest)
    return {
        "env": env,
        "first_force_s": force_s,
        "untraced": steps,
        "checkpoint": ckpt,
        "rss": rss,
        "setups": setups,
        "probe": probe,
        "end_to_end": {
            "step_wall_s": steps["step_wall_ref_s"],
            "setup_s": statistics.median(at_reference_pace(**s) for s in setups),
            "force_ok_frac": probe["force_ok_frac"],
            "peak_rss_mb": rss["peak_rss_mb"],
            "force_err_p90": probe["force_err_p90"],
        },
        "throughput_particles_per_s": len(sim.particles) / steps["step_wall_ref_s"],
        "checks": {
            "steps": {"attempted": k, "failed": steps["steps_failed"]},
            # a gross-error gate; the grade is force_ok_frac and force_err_p90
            "force_finite": {"attempted": 1, "failed": int(not probe["finite"])},
            "layzer_irvine": {"attempted": 1, "failed": int(not steps["li_ok"])},
            "checkpoint_round_trip": {"attempted": 1, "failed": int(not ckpt["ok"])},
        },
    }


def measure_layers(args, workload, sim, scratch: Path) -> dict:
    """``--trace 1``: one untraced step as the reference, then the traced run.

    The traced run gets half of ``--seconds`` and at least two steps (a
    drift needs two records); the untraced step fixes the state the
    traced run's first step must reproduce bit for bit.
    """
    import layers
    import workloads as W

    li_ceiling = W.LI_CEILING[workload.inputs]
    workers = workload.overrides.get("workers", 0)
    if workers:
        acc, _ = first_force(sim)
    plain = run_steps(sim, 1, li_ceiling)
    env = environment(sim)
    sim.close()
    k = steps_for(args.seconds / 2, plain["init_force_wall_s"], args.quick)
    traced, metrics, rec = run_traced(workload, args.seed, args.quick, k, scratch)
    # read before the serial reference below grows this process
    metrics["process.peak_rss_mb"] = peak_rss_mb(workers)["peak_rss_mb"]
    same = traced["steps"]["state_hashes"][:1] == plain["state_hashes"][:1] != []
    checks = {
        "steps": {
            "attempted": 1 + k,
            "failed": plain["steps_failed"] + traced["steps"]["steps_failed"],
        },
        "traced_state_identical": {"attempted": 1, "failed": int(not same)},
        "layzer_irvine": {"attempted": 1, "failed": int(not traced["steps"]["li_ok"])},
        "checkpoint_round_trip": {"attempted": 1, "failed": int(not traced["checkpoint"]["ok"])},
    }
    metrics["parallel.mac_redundancy"] = 0.0
    if workers:
        serial = serial_reference(workload, args.seed, args.quick, acc)
        checks["serial_force_identical"] = {"attempted": 1, "failed": int(not serial["ok"])}
        if metrics.get("parallel.mac_tests") and serial["serial_mac_tests"]:
            metrics["parallel.mac_redundancy"] = (
                metrics["parallel.mac_tests"] / serial["serial_mac_tests"] - 1.0
            )
    missing = layers.fill_missing(metrics, rec)
    # a traced run that could not measure a registered row is not a result
    checks["trace_complete"] = {"attempted": 1, "failed": int(bool(missing))}
    return {
        "env": env,
        "untraced": plain,
        "traced": traced["steps"],
        "per_layer": metrics,
        "trace_missing": missing,
        # the raw rows, [span, start, end, parent row]: written with ``--out``
        "spans": rec.spans,
        # for the record only: single steps cannot resolve the wrappers' cost
        "traced_over_untraced_step": traced["steps"]["step_wall_s"] / plain["step_wall_s"],
        "checks": checks,
    }


def run_traced(workload, seed: int, quick: bool, k: int, scratch: Path):
    """The same run again under :mod:`layers`' wrappers: (record, metrics, recorder)."""
    import layers
    import workloads as W
    from repro.simulation import Simulation

    config = W.make_config(workload, quick)
    with layers.Recorder().install() as rec:
        sim = Simulation(config, W.make_inputs(workload.inputs, config.n_per_dim, seed))
        with sim:
            steps = run_steps(sim, k, W.LI_CEILING[workload.inputs])
            ckpt = checkpoint_round_trip(sim, scratch)
    run_row = rec.find("simulation.driver_self")
    metrics: dict = {}
    if run_row is not None:
        t_steps = run_row[1] + float(steps["init_force_wall_s"] or 0.0)
        metrics = layers.summarise(rec, run_row, t_steps, steps["steps"])
    metrics["simulation.init_force_s"] = steps["init_force_wall_s"]
    metrics["simulation.li_drift_rel"] = steps["li_drift_rel"]
    metrics["io.checkpoint_bytes"] = ckpt["bytes"]
    return {"steps": steps, "checkpoint": ckpt}, metrics, rec


def contract_line(result: dict) -> str:
    """The driver's last line: exactly ``correct``, ``attempted``, ``failed``, ``metrics``."""
    if result["trace"]:
        import layers

        # the registered schema admits numbers only: an unmeasured row prints 0,
        # and the failed ``trace_complete`` check says the line is not a result
        metrics = {
            name: {"value": result["per_layer"][name] or 0, "unit": unit}
            for name, unit, _ in layers.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


# ----- the report: every workload, each run in a fresh process ----------------------

def child(workload: str, seed: int, seconds: float, trace: int, quick: bool, out: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)] + (["--quick"] if quick else [])
    run_child(cmd, timeout=600)
    return json.loads(out.read_text())


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med, "q1": med, "q3": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def report(args) -> dict:
    import layers
    import workloads as W

    names = args.workloads.split(",") if args.workloads else list(W.WORKLOADS)
    unknown = [n for n in names if n not in W.WORKLOADS]
    if unknown:
        sys.exit(f"run.py: unknown workload(s) {unknown}; choose from {list(W.WORKLOADS)}")
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="report-", dir=SCRATCH))
    doc = {
        "benchmark": "benchmarks/step",
        "mode": "quick" if args.quick else "full",
        "seconds": args.seconds,
        "seed": args.seed,
        "repeats": args.repeats,
        "end_to_end": [
            dict(zip(("name", "unit", "better", "bound", "slack"), m + (0.0,))) for m in END_TO_END
        ] + [dict(zip(("name", "unit", "better", "bound", "slack"), m)) for m in UNREGISTERED],
        "exact": [name for name, _, _ in layers.EXACT],
        "workloads": {},
    }
    runs: dict[str, list] = {name: [] for name in names}
    try:
        # the same seed every time: what differs between the runs is the host
        # and the process, which is the noise a verdict has to beat.  Workloads
        # take turns, so a slow minute of the host costs each of them one run
        # instead of costing one of them its median.
        for _ in range(args.repeats):
            for name in names:
                plain = child(name, args.seed, args.seconds, 0, args.quick, scratch / "plain.json")
                traced = child(name, args.seed, args.seconds, 1, args.quick, scratch / "traced.json")
                doc.setdefault("env", {k: v for k, v in plain["env"].items() if k != "autotune_chunks"})
                runs[name].append({
                    "n_particles": plain["n_particles"],
                    "end_to_end": plain["end_to_end"],
                    "per_layer": traced["per_layer"],
                    "trace_missing": traced["trace_missing"],
                    "steps": plain["untraced"]["steps"],
                    "step_wall_raw_s": plain["untraced"]["step_wall_s"],
                    "host_pace_s": statistics.median(plain["untraced"]["paces"]),
                    "traced_steps": traced["traced"]["steps"],
                    "traced_over_untraced_step": traced["traced_over_untraced_step"],
                    "autotune_chunks": plain["env"]["autotune_chunks"],
                    "checks": {"untraced": plain["checks"], "traced": traced["checks"]},
                    "attempted": plain["attempted"] + traced["attempted"],
                    "failed": plain["failed"] + traced["failed"],
                    "probe": plain["probe"],
                    "state_hashes": plain["untraced"]["state_hashes"],
                })
                print_run(name, args.seed, runs[name][-1], plain["env"]["backend"], layers.PER_LAYER)
        for name in names:
            doc["workloads"][name] = tabulate(W.WORKLOADS[name].why, runs[name], layers.PER_LAYER)
        hashes = {name: [r["state_hashes"] for r in runs[name]] for name in names}
        doc["same_state"] = same_state_checks(hashes, W.WORKLOADS)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return doc


def tabulate(why: str, runs: list[dict], per_layer) -> dict:
    """One workload's runs as columns: a list per metric, in run order."""
    end_to_end = {m: [r["end_to_end"][m] for r in runs] for m, *_ in END_TO_END + UNREGISTERED}
    return {
        "why": why,
        "n_particles": runs[0]["n_particles"],
        "steps": [r["steps"] for r in runs],
        # for the record: the registered times are at the reference pace
        "step_wall_raw_s": [r["step_wall_raw_s"] for r in runs],
        "host_pace_s": [r["host_pace_s"] for r in runs],
        "traced_steps": [r["traced_steps"] for r in runs],
        "traced_over_untraced_step": [r["traced_over_untraced_step"] for r in runs],
        "autotune_chunks": [r["autotune_chunks"] for r in runs],
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "failed_checks": sorted({
            f"run {i}: {mode}.{check}"
            for i, r in enumerate(runs) for mode, checks in r["checks"].items()
            for check, c in checks.items() if c["failed"]
        }),
        "reference_source": [r["probe"]["reference_source"] for r in runs],
        "force_err_max": [r["probe"]["force_err_max"] for r in runs],
        "end_to_end": end_to_end,
        "summary": {m: quartiles(v) for m, v in end_to_end.items()},
        "per_layer": {m: [r["per_layer"][m] for r in runs] for m, *_ in per_layer},
        "trace_missing": sorted({line for r in runs for line in r["trace_missing"]}),
    }


def same_state_checks(hashes: dict, workloads) -> dict:
    """Workloads that must evolve one state: hashes agree on every common step."""
    out = {}
    for name, mine in hashes.items():
        theirs = hashes.get(workloads[name].same_state_as or "")
        if theirs is None:
            continue
        common = [min(len(a), len(b)) for a, b in zip(mine, theirs)]
        out[name] = {
            "as": workloads[name].same_state_as,
            "steps_compared": common,
            "identical": all(a[:n] == b[:n] for a, b, n in zip(mine, theirs, common)),
        }
        print(f"{name}: state after each of {common} steps identical to "
              f"{out[name]['as']}: {out[name]['identical']}")
    return out


def print_run(name: str, seed: int, run: dict, backend: str, per_layer) -> None:
    import pace

    print(f"== {name}  seed {seed}  N={run['n_particles']}  K={run['steps']} "
          f"(traced {run['traced_steps']})  backend={backend}  "
          f"autotune_chunks={run['autotune_chunks']}")
    print(f"  host pace {run['host_pace_s']:.4f} s (reference {pace.REFERENCE_S} s), "
          f"raw median step {run['step_wall_raw_s']:.4f} s")
    for metric, unit, _, bound, *_ in END_TO_END + UNREGISTERED:
        print(f"  {metric:<40} {run['end_to_end'][metric]:>14.6g} {unit:<8} bound {bound:.0%}")
    for metric, unit, _ in per_layer:
        value = run["per_layer"][metric]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<40} {shown:>14} {unit}")
    for mode, checks in run["checks"].items():
        for check, c in checks.items():
            print(f"  check {mode}.{check:<32} {c['attempted'] - c['failed']}/{c['attempted']} ok")
    print(f"  probe: worst {run['probe']['force_err_max']:.4g} x errtol over "
          f"{run['probe']['n_probes']} probes, reference {run['probe']['reference_source']}")
    for line in run["trace_missing"]:
        print(f"  trace_missing {line}")
    print(f"  ops_attempted {run['attempted']}  ops_failed {run['failed']}", flush=True)


# ----- reference files ---------------------------------------------------------------

def regen_reference() -> None:
    """Rewrite ``reference/{early,clustered}_seed1.npz`` from the current generators."""
    import numpy as np

    import workloads as W

    for workload in (W.WORKLOADS["early_hier"], W.WORKLOADS["clustered_hier"]):
        path = reference_path(workload.inputs)
        path.unlink(missing_ok=True)
        config = W.make_config(workload)
        ps = W.make_inputs(workload.inputs, config.n_per_dim, 1)
        digest = W.input_hash(ps)
        idx, a_ref, _ = probe_reference(ps.pos, ps.mass, config, workload.inputs, 1, N_PROBES, digest)
        path.parent.mkdir(exist_ok=True)
        np.savez(path, idx=idx, a_ref=a_ref, sha256=digest, n_per_dim=config.n_per_dim)
        print(f"wrote {path.relative_to(ROOT)} ({len(idx)} probes, inputs {digest[:12]})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="measure this one workload in-process (driver form)")
    ap.add_argument("--workloads", help="comma-separated subset for the report (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of one run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeats", type=int, default=1, help="report: runs per workload and mode")
    ap.add_argument("--quick", action="store_true",
                    help="8^3, K=2, 8 probes: harness tests only, never comparable")
    ap.add_argument("--out", help="write the full JSON record here")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--regen-reference", action="store_true",
                    help="recompute and rewrite the committed probe references")
    args = ap.parse_args(argv)
    _enter_checkout()
    atexit.register(stop_children)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    if args.regen_reference:
        regen_reference()
        return 0
    if args.workload is None:
        doc = report(args)
        if args.out:
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        return 1 if any(sum(w["failed"]) for w in doc["workloads"].values()) else 0

    import workloads as W

    if args.workload not in W.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from {list(W.WORKLOADS)}")
    if args.setup_only:
        sim, setup = set_up(W.WORKLOADS[args.workload], args.seed, args.quick)
        sim.close()
        print(json.dumps(setup))
        return 0
    result = measure(args)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for check, c in result["checks"].items():
        print(f"check {check}: {c['attempted'] - c['failed']}/{c['attempted']} ok")
    for line in result.get("trace_missing", ()):
        print(f"trace_missing {line}", file=sys.stderr)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
