"""Execute one generated pipeline stage: ``python -m repro.pipeline.run_stage cfg.json``.

The counterpart of :mod:`repro.pipeline.config`: each JSON file written
by :class:`PipelineSpec` is a complete, self-contained description of
one stage (ic / evolve / analysis); this module dispatches on the
``stage`` key and runs it, reading/writing SDF files, so the generated
shell scripts actually work end to end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from ..observe import Tracer, get_tracer, use_tracer
from ..observe.manifest import config_hash, write_manifest
from ..observe.registry import KIND_STAGE

__all__ = ["run_stage", "main"]

_STAGES = {}


class _ProgressLine:
    """Live one-line progress for the evolve stage.

    Repaints one carriage-returned status line per completed step:
    step number, scale factor, the step-wall EWMA, an ETA extrapolated
    from it (remaining ln-a over the current dlna), and the worst
    health severity seen so far.  Only constructed for a TTY (or when
    ``REPRO_PROGRESS=1`` forces it), so batch logs stay clean.
    """

    #: EWMA weight of the newest step wall time
    ALPHA = 0.3

    def __init__(self, stream, a_final: float):
        self.stream = stream
        self.a_final = float(a_final)
        self.ewma: float | None = None
        self._wrote = False

    def __call__(self, sim, rec) -> None:
        w = float(rec.wall)
        self.ewma = w if self.ewma is None else (
            self.ALPHA * w + (1.0 - self.ALPHA) * self.ewma
        )
        steps_left = 0.0
        if rec.dlna > 0 and rec.a < self.a_final:
            steps_left = math.log(self.a_final / rec.a) / rec.dlna
        severity = "-"
        if sim.health is not None:
            seen = sim.health.events_seen
            severity = ("error" if seen.get("error") else
                        "warn" if seen.get("warn") else "ok")
        self.stream.write(
            f"\r[evolve] step {sim.steps_completed}  a={rec.a:.4f}  "
            f"{w:.2f}s/step (ewma {self.ewma:.2f})  "
            f"eta ~{steps_left * self.ewma:.0f}s  health={severity}\x1b[K"
        )
        self.stream.flush()
        self._wrote = True

    def close(self) -> None:
        if self._wrote:
            self.stream.write("\n")
            self.stream.flush()


def _make_progress(a_final: float) -> _ProgressLine | None:
    """A progress line when stderr is a TTY; ``REPRO_PROGRESS`` (1/0)
    overrides the detection either way."""
    env = os.environ.get("REPRO_PROGRESS", "").strip().lower()
    if env in ("0", "off", "false", "no"):
        return None
    stream = sys.stderr
    forced = env in ("1", "on", "true", "yes")
    if forced or (hasattr(stream, "isatty") and stream.isatty()):
        return _ProgressLine(stream, a_final)
    return None


#: exit status of a preempted stage (BSD EX_TEMPFAIL): the run honoured
#: the §3.4.1 courtesy — final checkpoint written, safe to resume — so a
#: batch supervisor can tell it from a crash and rerun with ``--resume``
EXIT_PREEMPTED = 75


def run_stage(config_path, workdir=None, tracer=None, workers=None, health=None,
              checkpoint_every=None, resume=None) -> dict:
    """Run the stage described by a generated JSON config.

    Returns a small result summary dict (also printed).  Paths inside
    the config are resolved relative to ``workdir`` (default: the
    config file's directory).  Under an enabled tracer (passed here or
    installed process-wide) the stage runs inside a
    ``pipeline.<stage>`` span and the summary gains its wall time; a
    tracer with a registry also files a ``pipeline_stage`` record.
    ``workers`` overrides the config's force-solve worker count
    (``--workers`` on the CLI; 0, serial, when neither sets one).
    ``health`` turns on in-situ health monitoring for the evolve stage
    (``--health``, or the config's ``health`` key): classified health
    events stream to the tracer's sink, a run-provenance manifest is
    written next to the stage config, and the summary gains the event
    counts.
    ``checkpoint_every`` makes the evolve stage write a durable
    checkpoint every N steps under ``<workdir>/checkpoints``; ``resume``
    restarts the evolve stage from the newest valid checkpoint there
    (corrupted files are skipped, already-written snapshots are not
    recomputed).
    """
    config_path = Path(config_path)
    cfg = json.loads(config_path.read_text())
    workdir = Path(workdir) if workdir else config_path.parent
    cfg["workers"] = int((cfg.get("workers") or 0) if workers is None else workers)
    cfg["health"] = bool(cfg.get("health") if health is None else health)
    if checkpoint_every is not None:
        cfg["checkpoint_every"] = int(checkpoint_every)
    if resume is not None:
        cfg["resume"] = bool(resume)
    stage = cfg.get("stage")
    fn = _STAGES.get(stage)
    if fn is None:
        raise ValueError(f"unknown stage {stage!r} in {config_path}")
    tr = tracer if tracer is not None else get_tracer()
    # install for the duration so the driver/solver underneath see it too
    with use_tracer(tr), tr.span(f"pipeline.{stage}") as sp:
        if cfg["health"]:
            manifest_path = workdir / f"{config_path.stem}.manifest.json"
            write_manifest(
                manifest_path, config=cfg,
                seeds={"seed": cfg.get("seed")},
                extra={"stage_config": str(config_path)},
            )
        summary = fn(cfg, workdir)
        if cfg["health"]:
            summary["manifest"] = str(manifest_path)
    if tr.enabled:
        summary["wall_s"] = round(sp.seconds, 6)
        tr.count(f"pipeline.{stage}.runs")
        tr.emit({"type": "pipeline_stage", **summary})
    if tr.registry is not None:
        key = config_hash(cfg)
        tr.record(
            KIND_STAGE,
            {"stage": stage, "config": str(config_path),
             "config_sha256": key, "wall_s": summary["wall_s"],
             "workers": int(cfg.get("workers") or 0),
             "summary": summary},
            key=key,
        )
    print(json.dumps(summary))
    return summary


def _stage_ic(cfg, workdir):
    from ..cosmology import CosmologyParams
    from ..io import save_checkpoint
    from ..simulation import ICConfig, generate_ic

    probe = CosmologyParams(
        omega_m=cfg["omega_m"], omega_b=cfg["omega_b"], omega_de=0.0,
        h=cfg["h"], sigma8=cfg["sigma8"], n_s=cfg["n_s"],
    )
    params = probe.with_(omega_de=1.0 - cfg["omega_m"] - probe.omega_r)
    ps = generate_ic(
        params,
        ICConfig(
            n_per_dim=cfg["n_per_dim"],
            box_mpc_h=cfg["box_mpc_h"],
            a_init=cfg["a_init"],
            seed=cfg["seed"],
            use_2lpt=cfg.get("use_2lpt", True),
        ),
    )
    out = workdir / cfg["output"]
    save_checkpoint(
        out, ps, params=params, box_mpc_h=cfg["box_mpc_h"],
        git_tag=cfg.get("code_version"),
    )
    return {"stage": "ic", "particles": len(ps), "output": str(out)}


_STAGES["ic"] = _stage_ic


def _stage_evolve(cfg, workdir):
    import dataclasses

    from ..io import load_checkpoint, save_checkpoint
    from ..io.checkpoint import cosmology_from_metadata
    from ..simulation import Simulation, SimulationConfig

    health_cfg = None
    if cfg.get("health"):
        from ..diagnose import HealthConfig

        # diagnostic snapshots belong with the run's other artifacts
        health_cfg = HealthConfig(snapshot_dir=str(workdir))

    # ----- restart / checkpoint plumbing -----------------------------------------
    ckpt_every = int(cfg.get("checkpoint_every") or 0)
    want_resume = bool(cfg.get("resume"))
    store = None
    if ckpt_every > 0 or want_resume:
        from ..resilience import CheckpointStore

        store = CheckpointStore(workdir / "checkpoints")

    sim = None
    resumed_from = None
    if want_resume and store is not None:
        from ..resilience import NoValidCheckpoint

        try:
            ckpt_path, _, _ = store.latest_valid()
        except NoValidCheckpoint:
            pass  # nothing restartable yet: fall through to a cold start
        else:
            sim = Simulation.resume(
                ckpt_path,
                overrides={"workers": int(cfg.get("workers") or 0)},
                health=health_cfg,
            )
            resumed_from = str(ckpt_path)
            probe = sim.config.cosmology
            box = sim.config.box_mpc_h

    if sim is None:
        ps, md = load_checkpoint(workdir / cfg["input"])
        probe = cosmology_from_metadata(md)
        box = md["box_mpc_h"]
        sim_cfg = SimulationConfig(
            cosmology=probe,
            n_per_dim=round(len(ps) ** (1 / 3)),
            box_mpc_h=box,
            a_init=ps.a,
            a_final=cfg["a_final"],
            errtol=cfg["errtol"],
            p=cfg.get("p_order", 4),
            softening=cfg.get("softening", "dehnen_k1"),
            max_refine=2,
            workers=int(cfg.get("workers") or 0),
        )
        # the monitor stays out of the config, so a monitored and an
        # unmonitored run, cold or resumed, file under one config hash
        sim = Simulation(sim_cfg, particles=ps, health=health_cfg)

    checkpointer = None
    if ckpt_every > 0:
        from ..resilience import CheckpointScheduler

        # one scheduler/store pair spans every snapshot leg of the run
        checkpointer = (CheckpointScheduler(every_steps=ckpt_every), store)

    snapshots = sorted(cfg.get("snapshots_a", [cfg["a_final"]]))
    written = []
    skipped = []
    progress = _make_progress(snapshots[-1])
    with sim:
        try:
            for a_snap in snapshots:
                if a_snap <= sim.particles.a * (1 + 1e-12):
                    # a resumed run restarts past this snapshot; the file
                    # was written before the interruption
                    skipped.append(f"{a_snap:.4f}")
                    continue
                sim.config = dataclasses.replace(sim.config, a_final=a_snap)
                state = sim.run(callback=progress, checkpointer=checkpointer)
                out = workdir / f"{cfg['snapshot_base']}_a{a_snap:.4f}.sdf"
                save_checkpoint(
                    out, state, params=probe, box_mpc_h=box,
                    git_tag=cfg.get("code_version"),
                )
                written.append(str(out))
        finally:
            if progress is not None:
                progress.close()
    summary = {"stage": "evolve", "steps": len(sim.history), "snapshots": written}
    if resumed_from:
        summary["resumed_from"] = resumed_from
    if skipped:
        summary["snapshots_skipped"] = skipped
    if store is not None:
        summary["checkpoints"] = [str(p) for p in store.list()]
    if cfg.get("health"):
        summary["health"] = sim.run_totals.get("health", {}).get("events", {})
    return summary


_STAGES["evolve"] = _stage_evolve


def _stage_analysis(cfg, workdir):
    from ..analysis import fof_halos, measure_power
    from ..io import load_checkpoint

    results = {}
    for snap in cfg["snapshots"]:
        path = workdir / snap
        if not path.exists():
            continue
        ps, md = load_checkpoint(path)
        entry = {}
        if "power" in cfg["tasks"]:
            res = measure_power(
                ps.pos, cfg["box_mpc_h"],
                ngrid=2 * round(len(ps) ** (1 / 3)),
                subtract_shot_noise=False,
            )
            entry["power_k"] = res.k.tolist()
            entry["power"] = res.power.tolist()
        if "fof" in cfg["tasks"]:
            fof = fof_halos(ps.pos, ps.mass, min_members=20)
            entry["n_halos"] = int(fof.n_groups)
        results[snap] = entry
    out = workdir / "analysis_results.json"
    out.write_text(json.dumps(results, indent=1))
    return {"stage": "analysis", "snapshots": len(results), "output": str(out)}


_STAGES["analysis"] = _stage_analysis


def main(argv=None) -> int:
    """CLI entry point: ``python -m repro.pipeline.run_stage cfg.json``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline.run_stage",
        description="Run one generated pipeline stage config.",
    )
    parser.add_argument("config", help="stage JSON written by repro.pipeline.config")
    parser.add_argument(
        "--trace", metavar="OUT.JSONL", default=None,
        help="stream structured trace/health events to this JSONL file",
    )
    parser.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="resolve stage paths against DIR (default: the config's directory)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="force-solve worker processes (default: the config's, else 0)",
    )
    parser.add_argument(
        "--health", action="store_true", default=None,
        help="enable in-situ health monitoring (default: the config's)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="evolve stage: write a durable checkpoint every N steps "
             "under <workdir>/checkpoints",
    )
    parser.add_argument(
        "--resume", action="store_true", default=None,
        help="evolve stage: restart from the newest valid checkpoint "
             "under <workdir>/checkpoints (corrupted files are skipped)",
    )
    args = parser.parse_args(argv)
    from ..simulation import Preempted

    kw = dict(
        workdir=args.workdir, workers=args.workers, health=args.health,
        checkpoint_every=args.checkpoint_every, resume=args.resume,
    )
    try:
        if args.trace is not None:
            # the trace joins whatever REPRO_OBS_DIR / REPRO_OBS_PROFILE
            # asked of the default tracer
            env = get_tracer()
            tr = Tracer(sink=args.trace, registry=env.registry, profile=env.profile)
            try:
                run_stage(args.config, tracer=tr, **kw)
            finally:
                tr.close()
        else:
            run_stage(args.config, **kw)
    except Preempted as exc:
        # the stage checkpointed and drained cleanly; a supervisor can
        # resume it bit-identically — distinguish that from a crash
        print(json.dumps({"preempted": True, "error": str(exc),
                          "checkpoint": str(exc.checkpoint or "")}),
              file=sys.stderr)
        return EXIT_PREEMPTED
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
