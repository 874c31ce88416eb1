"""High-level treecode gravity solver — the 2HOT force engine.

Ties the pieces together: tree build (+ghosts), upward moment pass
(+background subtraction), MAC traversal (+periodic images) and
blocked force evaluation.  This is the object the simulation driver
and the benchmarks talk to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..observe import get_tracer
from ..multipoles.radial import RadialKernel
from ..perfmodel.flops import flops_from_stats, kernel_counters
from ..tree import (
    InteractionLists,
    Tree,
    TreeMoments,
    build_tree,
    compute_moments,
    traverse_lists,
)
from . import native
from .periodic import PeriodicLocalExpansion
from .smoothing import SofteningKernel, make_softening
from .treeforce import ForceResult, evaluate_forces

__all__ = [
    "MAX_STATS",
    "ForceSpec",
    "TreecodeConfig",
    "TreecodeGravity",
    "check_choices",
    "merge_stats",
    "raise_if_nonfinite",
    "solve_forces",
]

#: allowed values of the enum-like string fields of every force config
_CHOICES = {
    "engine": ("tree", "treepm"),
    "traversal": ("hierarchical", "fmm-hybrid"),
    "mac": ("moment", "absolute"),
    "softening": ("none", "plummer", "spline", "dehnen_k1", "k1"),
}


def check_choices(config, *names: str) -> None:
    """Reject a config whose string field ``name`` is not an allowed value.

    Called from ``__post_init__``, so a typo fails where the config is
    written instead of inside a pool worker several stages later.
    """
    for name in names:
        value = getattr(config, name)
        allowed = _CHOICES[name]
        # make_softening() is case-insensitive; keep accepting what it accepts
        known = value.lower() if name == "softening" and isinstance(value, str) else value
        if known not in allowed:
            raise ValueError(
                f"{type(config).__name__}.{name}={value!r}: expected one of "
                f"{'|'.join(allowed)}"
            )


def raise_if_nonfinite(result: ForceResult, label: str) -> None:
    """Fail fast on non-finite solver output: the one non-finite force guard.

    Every solve ends here (:meth:`_ForceSolver._finish`), so a NaN or
    Inf force never reaches the integrator, the state or a checkpoint.
    Raises :class:`FloatingPointError` naming the arrays (and, for
    sharded runs, the worker shards the executor found them in,
    ``stats["bad_shards"]``) so the corruption is attributed at the
    source instead of surfacing steps later as an exploded integration.
    """
    bad = []
    if not np.isfinite(result.acc).all():
        bad.append(f"acc: {int(np.count_nonzero(~np.isfinite(result.acc)))} non-finite")
    if result.pot is not None and not np.isfinite(result.pot).all():
        bad.append(f"pot: {int(np.count_nonzero(~np.isfinite(result.pot)))} non-finite")
    shards = result.stats.get("bad_shards")
    if shards:
        bad.append(f"worker shards: {shards}")
    if bad:
        raise FloatingPointError(f"{label}: non-finite force output ({'; '.join(bad)})")


@dataclass(frozen=True)
class ForceSpec:
    """What one traverse + evaluate pass needs besides the tree and moments.

    Built once by a solver from its config and handed unchanged to
    :func:`solve_forces` — in process, or pickled to every shard of a
    :class:`~repro.parallel.executor.ForceExecutor` — so adding a force
    knob touches the config that sets it and the function that expands
    it, not every call site in between.
    """

    traversal: str = "hierarchical"
    periodic: bool = False
    ws: int = 1
    #: fmm-hybrid dual-MAC knob (see :class:`TreecodeConfig`)
    cc_xmax: float = 0.5
    softening: SofteningKernel | None = None
    #: radial Green's function of the cell interactions (None = 1/r)
    kernel: RadialKernel | None = None
    #: drop interactions entirely beyond this distance (TreePM short range)
    rcut: float | None = None
    dtype: type = np.float64
    want_potential: bool = True

    def __post_init__(self):
        check_choices(self, "traversal")


def solve_forces(
    tree: Tree,
    moms: TreeMoments,
    spec: ForceSpec,
    sink_leaves: np.ndarray | None = None,
    particle_range: tuple[int, int] | None = None,
    tracer=None,
) -> tuple[ForceResult, InteractionLists, float, float]:
    """Traverse, prune and evaluate ``sink_leaves`` (default: all) under ``spec``.

    The one place a :class:`ForceSpec` is expanded into
    ``traverse_lists`` / ``evaluate_forces`` keywords; the serial
    solvers and every executor shard run through here.  Returns
    ``(result, lists, traverse seconds, evaluate seconds)`` with the
    traversal counters merged into ``result.stats``.
    ``particle_range`` is :func:`evaluate_forces`'s shard mode.
    """
    tr = tracer if tracer is not None else get_tracer()
    t0 = time.perf_counter()
    with tr.span("traverse"):
        inter = traverse_lists(
            tree,
            moms,
            traversal=spec.traversal,
            periodic=spec.periodic,
            ws=spec.ws,
            cc_xmax=spec.cc_xmax,
            sink_leaves=sink_leaves,
        )
        if spec.rcut is not None:
            from .pm import _prune_far

            inter = _prune_far(tree, moms, inter, spec.rcut)
    t1 = time.perf_counter()
    with tr.span("evaluate"):
        result = evaluate_forces(
            tree,
            moms,
            inter,
            softening=spec.softening,
            dtype=spec.dtype,
            want_potential=spec.want_potential,
            kernel=spec.kernel,
            particle_range=particle_range,
        )
    t2 = time.perf_counter()
    # the evaluator has counted three of the four from the CSR rows;
    # recounting them per entry cost 3-5 ms of unattributed time a solve
    by_family = {
        "cell": result.stats["cell_interactions"],
        "pp": result.stats["pp_interactions"],
        # particle x ghost cell pairs only; the evaluator's prism counts
        # also cover the background cubes of the direct leaf pairs
        "ghost": inter.n_prism_interactions(tree),
        "m2l": result.stats["m2l_interactions"],
    }
    result.stats.update(
        traversal_rounds=inter.rounds,
        mac_tests=inter.mac_tests,
        frontier_peak=inter.frontier_peak,
        inherited_accepts=inter.inherited_accepts,
        leaf_accepts=inter.leaf_accepts,
        # traversal-level count: excludes the near-field background prism
        # corrections that the evaluate counters include
        traversal_interactions=sum(by_family.values()),
        interactions_by_family=by_family,
    )
    return result, inter, t1 - t0, t2 - t1


#: the stats merged over shards by max, not by sum: the walk's peak
#: frontier and round count, and the widest sink leaf
MAX_STATS = frozenset({"frontier_peak", "traversal_rounds", "m_max"})


def merge_stats(parts: list[dict], want_potential: bool = True) -> dict:
    """One solve's stats from the :func:`solve_forces` stats of its shards.

    The one merge rule of the force accounting: every stat is a count
    or a seconds value (nested dicts of them included) and adds up,
    except the :data:`MAX_STATS`, which take the max, and ``order``, the
    same on every shard.  Nothing derived is merged: ``kernel`` is
    recomputed from the merged counts, so its tile shape is the serial
    one whatever the worker count.  Particle interaction counts add up
    to the serial ones exactly; the translations of a sink cell that
    straddles two shards (``cell_entries``, ``m2l_pairs`` and the sums
    holding them, ``m2l_classes``, ``m2l_tile_rows``) count once per
    shard, and ``mac_tests``, ``inherited_accepts`` and ``leaf_accepts``
    the shards' re-walks of the shared upper tree.
    """
    out: dict = {}
    for part in parts:
        _add_stats(out, part)
    out["kernel"] = kernel_counters(out, want_potential)
    return out


def _add_stats(out: dict, part: dict) -> None:
    for key, value in part.items():
        if key == "kernel":
            continue
        if isinstance(value, dict):
            _add_stats(out.setdefault(key, {}), value)
        elif key not in out or key == "order":
            out[key] = value
        elif key in MAX_STATS:
            out[key] = max(out[key], value)
        else:
            out[key] += value


#: order of the lattice local expansion (§2.4)
P_LATTICE = 8


@dataclass
class TreecodeConfig:
    """Knobs of the treecode force calculation.

    Defaults mirror the paper's production settings scaled to library
    use: order-4 (hexadecapole) expansions, absolute error tolerance
    ("errtol") 1e-5, background subtraction on, Dehnen K1 smoothing.
    """

    p: int = 4
    errtol: float = 1e-5
    nleaf: int = 16
    background: bool = True
    periodic: bool = False
    ws: int = 1
    #: include the |n| > ws lattice local-expansion correction (§2.4);
    #: requires background subtraction (the lattice sums assume the
    #: neutralized delta-rho problem, i.e. Ewald boundary conditions)
    lattice_correction: bool = True
    #: multipole acceptance criterion: "moment" (estimate; sees the
    #: background-subtraction cancellation) or "absolute" (rigorous bound)
    mac: str = "moment"
    #: dual-tree walk flavour: "hierarchical" (sink-cell frontier with
    #: inherited accepts and CSR segment-reduce evaluation) or
    #: "fmm-hybrid" (the same walk with mutual cell-cell accepts into
    #: sink-side local expansions — Dehnen-style O(N) far field with
    #: exact momentum conservation)
    traversal: str = "hierarchical"
    #: fmm-hybrid dual-MAC knob: a cell pair is mutually accepted when
    #: b_max(a) + b_max(b) < cc_xmax * dist AND both sides pass the
    #: one-sided MAC.  Separate from ``xmax`` so the §2.2.2
    #: error-correlation tradeoff is measurable: smaller = tighter
    #: local expansions (less correlated error, more pp work)
    cc_xmax: float = 0.5
    softening: str = "dehnen_k1"
    eps: float = 0.01
    dtype: type = np.float64
    want_potential: bool = True
    #: worker processes for the traverse+evaluate stages; 0 = in-process
    #: serial.  ``workers=1`` runs one pool worker over a single shard
    #: and is bit-identical to serial; ``workers>1`` shards the sink
    #: leaves (see :class:`repro.parallel.executor.ForceExecutor`).
    workers: int = 0

    def __post_init__(self):
        check_choices(self, "traversal", "mac", "softening")


class _ForceSolver:
    """The force call both solvers share: the worker pool, the traverse +
    evaluate dispatch and the accounting around it.

    A subclass builds the tree and moments, calls :meth:`_solve`, adds
    its own far field (lattice, mesh) and returns through :meth:`_finish`,
    which runs the non-finite guard; ``config.workers`` is read here.
    """

    _executor = None
    last_tree: Tree | None = None
    last_moments: TreeMoments | None = None

    def close(self) -> None:
        """Shut down the worker pool (no-op for serial configurations)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _solve(self, tree, moms, spec: ForceSpec, tr, stage: dict) -> ForceResult:
        """Traverse + evaluate in process (``workers=0``) or across the pool.

        Adds the stage rows to ``stage`` — ``traverse`` and ``evaluate``
        in process, ``execute`` (the pool's wall-clock; the summed
        per-worker seconds live in ``stats["executor"]``) sharded — and
        the same stats and tracer counters either way.
        """
        workers = self.config.workers
        if workers:
            from ..parallel.executor import ensure_executor

            self._executor = ensure_executor(self._executor, workers)
            with tr.span("execute") as sp_execute:
                result = self._executor.compute(tree, moms, spec, tracer=tr)
            stage["execute"] = sp_execute.seconds
        else:
            result, _, stage["traverse"], stage["evaluate"] = solve_forces(
                tree, moms, spec, tracer=tr
            )
        self.last_tree, self.last_moments = tree, moms
        stats = result.stats
        # the traversal-level count, in process or summed over the shards
        stats["interactions_per_particle"] = stats["traversal_interactions"] / max(
            tree.n_particles, 1
        )
        stats.update(
            n_cells=tree.n_cells, errtol=moms.tol, mac=moms.mac, traversal=spec.traversal
        )
        if tr.enabled:
            stats["flops"] = flops_from_stats(stats, spec.want_potential)
            tr.count("traverse.mac_tests", stats["mac_tests"])
            tr.count("traverse.accepts_inherited", stats["inherited_accepts"])
            tr.count("traverse.accepts_leaf", stats["leaf_accepts"])
            tr.count("traverse.frontier_peak", stats["frontier_peak"])
            tr.count("force.calls")
            tr.count(
                "force.interactions",
                stats["cell_interactions"]
                + stats["pp_interactions"]
                + stats["prism_interactions"],
            )
            tr.count("force.cells", tree.n_cells)
            tr.count("force.flops", stats["flops"])
        return result

    def _finish(self, result: ForceResult, tr, stage: dict, force_s: float) -> ForceResult:
        """Check the finished fields and file the call's stage rows."""
        raise_if_nonfinite(result, self._label)
        if tr.enabled:
            result.stats["stage_seconds"] = stage
            result.stats["force_seconds"] = force_s
        return result


class TreecodeGravity(_ForceSolver):
    """One-shot or reusable treecode force evaluations.

    Example
    -------
    >>> solver = TreecodeGravity(TreecodeConfig(errtol=1e-6))
    >>> result = solver.compute(pos, mass, box=1.0)
    >>> result.acc.shape
    (N, 3)
    """

    _label = "treecode"

    def __init__(self, config: TreecodeConfig | None = None):
        self.config = cfg = config or TreecodeConfig()
        self.spec = ForceSpec(
            traversal=cfg.traversal,
            periodic=cfg.periodic,
            ws=cfg.ws,
            cc_xmax=cfg.cc_xmax,
            softening=make_softening(cfg.softening, cfg.eps),
            dtype=cfg.dtype,
            want_potential=cfg.want_potential,
        )
        # build (or load) the compiled units now, not in the first solve
        native.evaluator(cfg.p, cfg.dtype)
        native.upward()
        #: lattice sums depend only on geometry/order, not on the
        #: particles — cache the expansion across compute() calls
        self._ple_cache: dict[tuple, PeriodicLocalExpansion] = {}

    def _lattice_expansion(self, box: float) -> PeriodicLocalExpansion:
        cfg = self.config
        key = (cfg.p + 2, cfg.ws, box)
        ple = self._ple_cache.get(key)
        if ple is None:
            ple = self._ple_cache[key] = PeriodicLocalExpansion(
                p_source=key[0], p_local=P_LATTICE, ws=key[1], box=key[2]
            )
        return ple

    def compute(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        box: float = 1.0,
        tracer=None,
    ) -> ForceResult:
        """Build the tree and evaluate accelerations (and potentials).

        The background density is total mass / box^3, the right one for
        a periodic cosmological volume.  With a
        real tracer (passed here or installed via ``set_tracer``) the
        per-stage wall times — build / moments / traverse / evaluate /
        lattice, Table 2's rows — land in ``result.stats`` under
        ``stage_seconds`` alongside a ``flops`` count from the honest
        per-interaction accounting.
        """
        cfg = self.config
        tr = tracer if tracer is not None else get_tracer()
        mean_density = float(np.sum(mass)) / box**3
        with tr.span("force") as sp_force:
            with tr.span("build") as sp_build:
                tree = build_tree(
                    pos, mass, box=box, nleaf=cfg.nleaf, with_ghosts=cfg.background
                )
            with tr.span("moments") as sp_moments:
                moms = compute_moments(
                    tree,
                    p=cfg.p,
                    tol=cfg.errtol,
                    background=cfg.background,
                    mean_density=mean_density if cfg.background else None,
                    mac=cfg.mac,
                )
            stage = {"build": sp_build.seconds, "moments": sp_moments.seconds, "lattice": 0.0}
            result = self._solve(tree, moms, self.spec, tr, stage)
            if cfg.periodic and cfg.lattice_correction and cfg.background:
                with tr.span("lattice") as sp_lattice:
                    root = int(np.flatnonzero(tree.cell_level == 0)[0])
                    ple = self._lattice_expansion(box)
                    pot_far, acc_far = ple.field(moms.moments[root], pos)
                    result.acc += acc_far.astype(result.acc.dtype)
                    if result.pot is not None:
                        result.pot += pot_far.astype(result.pot.dtype)
                stage["lattice"] = sp_lattice.seconds
        return self._finish(result, tr, stage, sp_force.seconds)
