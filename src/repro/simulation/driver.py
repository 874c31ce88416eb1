"""Simulation driver: the 2HOT evolution loop in library form.

Couples the IC generator, the symplectic comoving integrator and a
force engine (pure treecode with background subtraction and lattice
periodicity — the 2HOT configuration — or TreePM as the GADGET-2-style
comparator) and advances a cosmological box from a_init to a_final
with factor-of-two quantized global timesteps.

Diagnostics recorded every step:

* the Layzer-Irvine (cosmic energy) integral, whose drift measures the
  combined force + integration error,
* interaction counts per particle (the paper's efficiency metric:
  ~2000 interactions/particle at errtol 1e-5, §7),
* wall-clock per stage (domain/tree/traversal/force split as Table 2).

On top of those records sits optional in-situ health monitoring
(:mod:`repro.diagnose`): ``Simulation(config,
health=HealthConfig(...))`` watches energy/momentum budgets, probes
the realized force error, and fails fast on non-finite state.  The
monitor is not part of :class:`SimulationConfig`, so it never moves the
config hash.  The default ``health=None`` costs one ``is None`` test
per step; every force solve still raises on non-finite output.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..cosmology import Background, CosmologyParams, PLANCK2013
from ..gravity import TreecodeConfig, TreecodeGravity
from ..gravity.pm import TreePMConfig, TreePMGravity
from ..gravity.solver import check_choices
from ..observe import get_tracer
from .ic import ICConfig, generate_ic
from .integrator import LeapfrogIntegrator, StepController
from .particles import ParticleSet

__all__ = ["SimulationConfig", "Simulation", "Preempted"]


class Preempted(RuntimeError):
    """The run stopped at a step boundary after a preemption signal.

    Raised by :meth:`Simulation.run` once it has honoured the paper's
    §3.4.1 preemption-notice contract: on SIGTERM/SIGINT the loop
    finishes the step in flight, writes a final checkpoint (when a
    checkpoint store is active) and partial ``run_totals``, then raises
    this.  A subsequent :meth:`Simulation.resume` continues
    bit-identically, so preemption costs no recomputation.
    """

    def __init__(self, message: str, checkpoint=None):
        super().__init__(message)
        #: path of the final checkpoint written before exiting (or None)
        self.checkpoint = checkpoint


class _SignalGuard:
    """Convert SIGTERM/SIGINT into a step-boundary stop request.

    Installed only in the main thread (signal handlers cannot be set
    elsewhere); everywhere else it degrades to an inert flag that never
    fires.  The previous handlers are restored on :meth:`restore`, and a
    *second* signal falls through to the previous handler — a stuck
    checkpoint write can still be interrupted the hard way.
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self):
        self.signum: int | None = None
        self._previous: dict = {}

    def install(self) -> "_SignalGuard":
        if threading.current_thread() is not threading.main_thread():
            return self
        for sig in self.SIGNALS:
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        return self

    def _handle(self, signum, frame):
        if self.signum is not None:
            # second signal: defer to whatever was installed before us
            prev = self._previous.get(signum)
            if callable(prev):
                prev(signum, frame)
            elif prev == signal.default_int_handler or signum == signal.SIGINT:
                raise KeyboardInterrupt
            return
        self.signum = signum

    @property
    def signaled(self) -> bool:
        return self.signum is not None

    def restore(self) -> None:
        for sig, prev in self._previous.items():
            try:
                signal.signal(sig, prev)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()


@dataclass
class SimulationConfig:
    """Everything needed to reproduce a run (the paper's §3.4 point:
    one high-level description generates all component configs)."""

    cosmology: CosmologyParams = PLANCK2013
    n_per_dim: int = 16
    box_mpc_h: float = 100.0
    a_init: float = 0.02
    a_final: float = 1.0
    seed: int = 1234
    # IC switches (Fig. 7 ablations)
    use_2lpt: bool = True
    dec: bool = False
    sphere_mode: bool = False
    # force engine
    engine: str = "tree"  # "tree" (2HOT) or "treepm" (comparator)
    errtol: float = 1e-5
    p: int = 4
    nleaf: int = 16
    softening: str = "dehnen_k1"
    #: dual-tree walk flavour ("hierarchical" or "fmm-hybrid"; see
    #: :class:`repro.gravity.TreecodeConfig`); TreePM walks hierarchically
    traversal: str = "hierarchical"
    #: softening length as a fraction of the mean interparticle spacing
    eps_frac: float = 0.05
    #: worker processes for the force traverse+evaluate stages
    #: (0 = serial; see :class:`repro.parallel.executor.ForceExecutor`)
    workers: int = 0
    # stepping
    dlna_max: float = 0.125
    #: factor-of-two refinement cap (global steps; see StepController)
    max_refine: int = 4
    #: compute potentials / Layzer-Irvine energies (adds ~20% force cost)
    track_energy: bool = True

    def __post_init__(self):
        check_choices(self, "engine", "traversal", "softening")
        if self.engine == "treepm" and self.traversal != "hierarchical":
            raise ValueError(
                f"SimulationConfig(engine='treepm', traversal={self.traversal!r}): "
                "TreePM's short-range walk is hierarchical only"
            )

    @property
    def eps(self) -> float:
        return self.eps_frac / self.n_per_dim

    @property
    def n_particles(self) -> int:
        return self.n_per_dim**3


@dataclass
class StepRecord:
    a: float
    dlna: float
    wall: float
    interactions_per_particle: float
    layzer_irvine: float
    kinetic: float
    potential: float
    #: per-stage wall times of this step's force call (tracing only)
    stage_seconds: dict = field(default_factory=dict)

    def to_record(self, step: int) -> dict:
        """The structured per-step event streamed to JSONL."""
        return {
            "type": "step",
            "step": step,
            "a": self.a,
            "dlna": self.dlna,
            "wall": self.wall,
            "interactions_per_particle": self.interactions_per_particle,
            "layzer_irvine": self.layzer_irvine,
            "kinetic": self.kinetic,
            "potential": self.potential,
            "stage_seconds": self.stage_seconds,
        }


class Simulation:
    """Run a cosmological box and expose its state for analysis.

    Pass ``tracer=`` (or install one with
    :func:`repro.observe.set_tracer`) to collect per-stage force
    timings and counters, stream the run's records to its sink and
    file the run in its registry; the default no-op tracer costs
    nothing.  Pass ``health=`` a :class:`~repro.diagnose.HealthConfig`
    to monitor the run; :attr:`health` is then its
    :class:`~repro.diagnose.HealthMonitor`, and ``None`` otherwise.
    """

    def __init__(
        self,
        config: SimulationConfig,
        particles: ParticleSet | None = None,
        tracer=None,
        health=None,
    ):
        self.config = config
        self.tracer = tracer
        self.health = None
        if health is not None:
            from ..diagnose import HealthMonitor

            self.health = HealthMonitor(health)
        c = config
        if particles is None:
            ic = ICConfig(
                n_per_dim=c.n_per_dim,
                box_mpc_h=c.box_mpc_h,
                a_init=c.a_init,
                seed=c.seed,
                use_2lpt=c.use_2lpt,
                dec=c.dec,
                sphere_mode=c.sphere_mode,
            )
            particles = generate_ic(c.cosmology, ic)
        self.particles = particles
        self._setup_engine()
        self.integrator = LeapfrogIntegrator(c.cosmology, self._force)
        self.controller = StepController(
            dlna_max=c.dlna_max, eps=c.eps, max_refine=c.max_refine
        )
        self.history: list[StepRecord] = []
        self.run_totals: dict = {}
        #: per-force-call shard timeline groups from sharded runs (the
        #: last ``_TIMELINE_CAP``; feeds the observe worker-timeline analyzer)
        self.shard_timeline: list[dict] = []
        self._force_calls = 0
        #: total completed steps across resumes (checkpoint numbering)
        self.steps_completed = 0
        #: path this simulation was resumed from, if any
        self.resumed_from: str | None = None
        self._last_pot: np.ndarray | None = None
        self._li_accum = 0.0
        self._li_last: tuple[float, float, float] | None = None
        self.bg = Background(c.cosmology)

    # ----- forces ---------------------------------------------------------------
    def _setup_engine(self) -> None:
        c = self.config
        if c.engine == "tree":
            self._solver = TreecodeGravity(
                TreecodeConfig(
                    p=c.p,
                    errtol=c.errtol,
                    nleaf=c.nleaf,
                    background=True,
                    periodic=True,
                    softening=c.softening,
                    traversal=c.traversal,
                    eps=c.eps,
                    want_potential=c.track_energy,
                    dtype=np.float32,
                    workers=c.workers,
                )
            )
        elif c.engine == "treepm":
            self._solver = TreePMGravity(
                TreePMConfig(
                    ngrid=2 * c.n_per_dim,
                    p=c.p,
                    errtol=c.errtol,
                    nleaf=c.nleaf,
                    softening=c.softening if c.softening != "dehnen_k1" else "spline",
                    eps=c.eps,
                    workers=c.workers,
                )
            )
        else:
            raise ValueError(f"unknown engine {c.engine!r}")
        self.last_stats: dict = {}

    #: force calls kept in :attr:`shard_timeline` (and stored per run record)
    _TIMELINE_CAP = 40

    def _force(self, ps: ParticleSet) -> np.ndarray:
        tr = self.tracer if self.tracer is not None else get_tracer()
        res = self._solver.compute(ps.pos, ps.mass, tracer=tr)
        self.last_stats = res.stats
        self._last_pot = res.pot
        self._force_calls += 1
        ex = res.stats.get("executor")
        if ex is not None and ex.get("shard_events"):
            if len(self.shard_timeline) >= self._TIMELINE_CAP:
                del self.shard_timeline[0]
            self.shard_timeline.append(
                {"call": self._force_calls, "events": ex["shard_events"]}
            )
        return res.acc

    def close(self) -> None:
        """Release the force engine's worker pool (serial runs: no-op).

        The pool is *persistent* across steps — that is the point — so
        it outlives :meth:`run`; call this (or use the simulation as a
        context manager) when finished with the object.
        """
        closer = getattr(self._solver, "close", None)
        if closer is not None:
            closer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ----- checkpoint / restart ---------------------------------------------------
    def save_checkpoint(self, path=None, store=None):
        """Write a durable restart checkpoint; returns its path.

        The file carries everything a bit-identical restart needs: the
        particle arrays with the leapfrog (a, a_mom) epochs, the full
        :class:`SimulationConfig` (verified on load — a resume cannot
        silently change physics), the Layzer-Irvine accumulator, the
        completed-step count, and the provenance config hash.
        """
        from ..observe.manifest import config_hash
        from ..io.checkpoint import save_checkpoint as write_checkpoint

        c = self.config
        extra = {
            "restart_steps": self.steps_completed,
            "restart_li_accum": self._li_accum,
            "config_sha256": config_hash(c),
        }
        if self._li_last is not None:
            extra["restart_li_a"], extra["restart_li_t"], extra["restart_li_w"] = (
                self._li_last
            )
        kw = dict(
            params=c.cosmology, box_mpc_h=c.box_mpc_h,
            sim_config=c, extra_metadata=extra,
        )
        if store is not None:
            return store.save(self.steps_completed, self.particles, **kw)
        if path is None:
            raise ValueError("save_checkpoint needs a path or a store")
        write_checkpoint(path, self.particles, **kw)
        return path

    @classmethod
    def resume(cls, path, overrides: dict | None = None, expect_config=None,
               tracer=None, health=None) -> "Simulation":
        """Reconstruct a simulation from a checkpoint and continue.

        The checkpoint's column checksums are verified, its recorded
        configuration is restored (and checked against ``expect_config``
        if given — mismatch raises
        :class:`~repro.io.checkpoint.CheckpointConfigMismatch`), the
        Layzer-Irvine accumulator and step count carry over, and the
        leapfrog offset is reconstructed exactly: a synchronized
        checkpoint continues bit-identically to an uninterrupted run; a
        mid-step (offset) checkpoint gets its closing half-kick from the
        force at the stored positions — the same kick the uninterrupted
        run applied.  ``overrides`` applies *deliberate* config changes
        (e.g. ``{"workers": 4}``) after verification; ``health`` is
        :class:`Simulation`'s, so a resumed leg is monitored the way
        its caller asks and keeps the checkpoint's config hash.
        """
        import dataclasses

        from ..io.checkpoint import load_checkpoint, restart_config

        ps, md = load_checkpoint(path, expect_config=expect_config)
        config = restart_config(md)
        if overrides:
            config = dataclasses.replace(config, **overrides)
        sim = cls(config, particles=ps, tracer=tracer, health=health)
        sim.resumed_from = str(path)
        sim.steps_completed = int(md.get("restart_steps", 0))
        sim._li_accum = float(md.get("restart_li_accum", 0.0))
        if "restart_li_a" in md:
            sim._li_last = (
                float(md["restart_li_a"]),
                float(md["restart_li_t"]),
                float(md["restart_li_w"]),
            )
        if abs(ps.a - ps.a_mom) > 1e-14:
            # leapfrog offset: momenta lag positions — complete the
            # closing half-kick (force at the stored positions) so the
            # KDK stepper resumes from a synchronized, 2nd-order state
            acc = sim._force(ps)
            sim.integrator.n_force_calls += 1
            sim.integrator.kick(ps, acc, ps.a_mom, ps.a)
        return sim

    # ----- run observatory ----------------------------------------------------------
    def _record_observation(self, tracer) -> None:
        """File this run in the tracer's run registry (never raises).

        One record per :meth:`run`, keyed by the provenance config hash
        (the same sha256 the PR 3 manifests pin), carrying run totals,
        summed per-stage force timings, health event counts, the
        capped per-call shard timeline with its worker attribution,
        the tracer's hottest span paths and — when the tracer profiles —
        the hot functions of this run's stages.
        """
        try:
            from ..observe.manifest import config_hash
            from ..observe.registry import KIND_RUN

            c = self.config
            totals = dict(self.run_totals)
            steps = int(totals.get("steps") or 0)
            stage_totals: dict[str, float] = {}
            for rec in self.history:
                for name, sec in (rec.stage_seconds or {}).items():
                    stage_totals[name] = stage_totals.get(name, 0.0) + float(sec)
            payload: dict = {
                "config_sha256": config_hash(c),
                "engine": c.engine,
                "n_particles": c.n_particles,
                "workers": c.workers,
                "errtol": c.errtol,
                "a_final": float(self.particles.a),
                "steps": steps,
                "wall_s": totals.get("wall_s"),
                "interactions_per_particle": totals.get(
                    "interactions_per_particle"
                ),
                "run_totals": totals,
                "stage_seconds": {
                    k: round(v, 6) for k, v in stage_totals.items()
                },
            }
            if steps:
                payload["wall_per_step_s"] = (
                    float(totals.get("step_wall_s", 0.0)) / steps
                )
            kern = self.last_stats.get("kernel")
            if kern:
                payload["kernel"] = kern
            if self.resumed_from:
                payload["resumed_from"] = self.resumed_from
            health = totals.get("health")
            if health:
                payload["health_events"] = health.get("events", {})
            if totals.get("partial"):
                payload["partial"] = True
                payload["error"] = totals.get("error")
            if self.shard_timeline:
                from ..observe.timeline import analyze_timeline

                payload["timeline"] = list(self.shard_timeline)
                payload["worker_summary"] = analyze_timeline(self.shard_timeline)
            profile = tracer.take_profile()
            if profile:
                payload["profile"] = profile
            hottest = sorted(tracer.timers.items(), key=lambda kv: -kv[1][0])
            payload["top_spans"] = [
                {"path": p, "total_s": round(s, 6), "calls": n}
                for p, (s, n) in hottest[:12]
            ]
            tracer.record(KIND_RUN, payload, key=payload["config_sha256"])
        except Exception:
            pass

    # ----- energy diagnostics -----------------------------------------------------
    def _energies(self, ps: ParticleSet, a: float):
        t = ps.kinetic_energy()  # T = sum m v_pec^2/2, v_pec = p/a_mom
        if self._last_pot is None or not self.config.track_energy:
            return t, 0.0
        # comoving potential from the delta-rho problem; physical W ~ 1/a
        w = -0.5 * float((ps.mass * self._last_pot).sum()) / a
        return t, w

    def _update_layzer_irvine(self, a: float, t: float, w: float):
        """Accumulate ∫ (da/a)(2T + W): the Layzer-Irvine integral.

        LI: d(T+W)/da = -(2T + W)/a, so T + W + accum is conserved.
        """
        if self._li_last is not None:
            a_prev, t_prev, w_prev = self._li_last
            dlna = np.log(a / a_prev)
            self._li_accum += 0.5 * (
                (2 * t_prev + w_prev) + (2 * t + w)
            ) * dlna
        self._li_last = (a, t, w)
        return t + w + self._li_accum

    # ----- main loop ----------------------------------------------------------------
    def run(self, callback=None, max_steps: int = 10000,
            checkpointer=None) -> ParticleSet:
        """Advance to a_final; ``callback(sim, record)`` fires per step.

        One structured record per step (plus one for the pre-loop force
        evaluation) goes to the tracer's sink — the run's trace, e.g.
        ``Simulation(cfg, tracer=Tracer(sink="trace.jsonl"))``.
        ``run_totals`` afterwards holds run-level wall/interaction
        totals *including* the initial force call, which per-step
        history alone misses.  If the run dies partway — a crash, a
        health fail-fast, a killed job — partial ``run_totals`` (steps
        completed, wall, last a) are still populated and emitted.
        Every record is on disk as soon as it is emitted, and when the
        run returns or raises a tracer with a registry has filed it
        there.

        Checkpointing: ``checkpointer=(scheduler, store)`` — a
        :class:`~repro.resilience.CheckpointScheduler` and a
        :class:`~repro.resilience.CheckpointStore` — writes durable
        checkpoints after the steps the scheduler selects; ``None``
        (the default) writes none.  Restart from one with
        :meth:`Simulation.resume` — the continuation is bit-identical
        to the uninterrupted run.
        """
        c = self.config
        ps = self.particles
        tr = self.tracer if self.tracer is not None else get_tracer()

        def health_check(events) -> None:
            """Stream health events, then honor a fail-fast verdict."""
            for ev in events:
                tr.emit(ev.to_record())
            fatal = self.health.fatal
            if fatal is not None:
                tr.emit({"type": "health_fatal", "message": str(fatal),
                         "snapshot": fatal.snapshot})
                raise fatal

        ckpt_sched, ckpt_store = checkpointer or (None, None)
        # §3.4.1 preemption courtesy: SIGTERM/SIGINT stop the loop at the
        # next step boundary with a final checkpoint instead of dying
        # mid-kick (main thread only; elsewhere the guard never fires)
        preempt = _SignalGuard().install()
        steps = 0
        init_wall = 0.0
        init_ipp = 0.0
        first_step = len(self.history)
        capped0 = self.controller.capped_steps
        t_run0 = time.perf_counter()

        def totals() -> dict:
            new = self.history[first_step:]
            rt = {
                "wall_s": time.perf_counter() - t_run0,
                "steps": steps,
                "init_force_wall_s": init_wall,
                "init_interactions_per_particle": init_ipp,
                "step_wall_s": float(sum(r.wall for r in new)),
                # steps taken at the refinement cap that fail its criterion
                "capped_steps": self.controller.capped_steps - capped0,
                "interactions_per_particle": init_ipp
                + float(sum(r.interactions_per_particle for r in new)),
            }
            if ckpt_sched is not None:
                rt["checkpoints"] = ckpt_sched.describe()
            if self.health is not None:
                rt["health"] = self.health.summary()
            return rt

        try:
            with tr.stage("init_force"):
                acc = self._force(ps)
            init_wall = time.perf_counter() - t_run0
            init_ipp = self.last_stats.get("interactions_per_particle", 0.0)
            self.integrator.n_force_calls += 1
            tr.emit(
                {
                    "type": "init_force",
                    "a": ps.a,
                    "wall": init_wall,
                    "interactions_per_particle": init_ipp,
                    "stage_seconds": self.last_stats.get("stage_seconds", {}),
                }
            )
            if self.health is not None:
                health_check(self.health.on_init(self, acc))
            while ps.a < c.a_final * (1 - 1e-12) and steps < max_steps:
                t0 = time.perf_counter()
                with tr.stage("step"):
                    dlna = self.controller.choose(c.cosmology, ps, acc, ps.a, tracer=tr)
                    a_next = min(ps.a * np.exp(dlna), c.a_final)
                    acc = self.integrator.step_kdk(ps, a_next, acc0=acc)
                    t, w = self._energies(ps, ps.a)
                    li = self._update_layzer_irvine(ps.a, t, w)
                rec = StepRecord(
                    a=ps.a,
                    dlna=dlna,
                    wall=time.perf_counter() - t0,
                    interactions_per_particle=self.last_stats.get(
                        "interactions_per_particle", 0.0
                    ),
                    layzer_irvine=li,
                    kinetic=t,
                    potential=w,
                    stage_seconds=self.last_stats.get("stage_seconds", {}),
                )
                self.history.append(rec)
                steps += 1
                self.steps_completed += 1
                tr.emit(rec.to_record(len(self.history)))
                if callback is not None:
                    callback(self, rec)
                # after the callback: monitors see the state that will
                # enter the next step, callback mutations included
                if self.health is not None:
                    health_check(self.health.on_step(self, rec, acc))
                if ckpt_sched is not None and ckpt_sched.due(
                    self.steps_completed, time.perf_counter()
                ):
                    t_ck = time.perf_counter()
                    path = self.save_checkpoint(store=ckpt_store)
                    write_s = time.perf_counter() - t_ck
                    ckpt_sched.wrote(time.perf_counter(), write_s)
                    tr.emit({
                        "type": "checkpoint",
                        "path": str(path),
                        "step": self.steps_completed,
                        "a": float(ps.a),
                        "write_s": write_s,
                        "policy": ckpt_sched.describe(),
                    })
                if preempt.signaled and ps.a < c.a_final * (1 - 1e-12):
                    final_ckpt = None
                    if ckpt_store is not None:
                        final_ckpt = self.save_checkpoint(store=ckpt_store)
                        tr.emit({
                            "type": "checkpoint",
                            "path": str(final_ckpt),
                            "step": self.steps_completed,
                            "a": float(ps.a),
                            "preempt": True,
                        })
                    tr.emit({
                        "type": "preempt",
                        "signal": int(preempt.signum),
                        "step": self.steps_completed,
                        "a": float(ps.a),
                        "checkpoint": str(final_ckpt) if final_ckpt else None,
                    })
                    raise Preempted(
                        f"preempted by signal {preempt.signum} at step "
                        f"{self.steps_completed} (a={ps.a:.4f})",
                        checkpoint=final_ckpt,
                    )
            self.run_totals = totals()
            tr.emit({"type": "run_totals", **self.run_totals})
        except BaseException as exc:
            # a crashed run still leaves a usable diagnostics tail:
            # partial totals say how far it got before dying
            self.run_totals = {
                "partial": True,
                "preempted": isinstance(exc, Preempted),
                "error": f"{type(exc).__name__}: {exc}",
                "last_a": float(ps.a),
                **totals(),
            }
            try:
                tr.emit({"type": "run_totals", **self.run_totals})
            except Exception:
                pass
            raise
        finally:
            preempt.restore()
            # a crashed run is exactly the one the trajectory must keep
            if tr.registry is not None:
                self._record_observation(tr)
        return ps
