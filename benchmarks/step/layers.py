"""Per-layer spans recorded from the benchmark's side of the program's call boundaries.

One table, :data:`LAYERS`, names each layer entry point *as its caller
sees it* — the module whose namespace holds the name, the attribute
(dotted for a method), and the span it reports under.  ``install``
replaces those attributes with timing wrappers, so the program's own
orchestration decides what runs: a later PR that reuses the tree shows
up as fewer ``tree.*`` calls, not as a bypassed benchmark.

Spans are kept in memory as ``[name, start, end, parent]`` rows and
turned into metrics once the run is over.  A layer's self time is its
span minus the part its child spans cover, so the rows of one run sum
to its wall time exactly; what lands in the two glue rows
(:data:`GLUE`) is the unattributed share.

A table row whose entry point no longer exists is reported, never
raised: its metrics read ``None`` and the reason lands in
``trace_missing``.  The untraced end-to-end run never imports this
module's wrappers at all.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (module holding the name, attribute, span) — the layer is the span's prefix
LAYERS = (
    ("repro.simulation", "generate_ic", "simulation.ic"),
    ("repro.simulation.driver", "Simulation.run", "simulation.driver_self"),
    ("repro.simulation.integrator", "StepController.choose", "simulation.choose_dt"),
    ("repro.simulation.integrator", "LeapfrogIntegrator.kick", "simulation.kick"),
    ("repro.simulation.integrator", "LeapfrogIntegrator.drift", "simulation.drift"),
    ("repro.simulation.particles", "ParticleSet.kinetic_energy", "simulation.energies"),
    ("repro.gravity.solver", "TreecodeGravity.compute", "gravity.compute_self"),
    ("repro.tree.structure", "keys_from_positions", "keys.encode"),
    ("repro.gravity.solver", "build_tree", "tree.build"),
    ("repro.gravity.solver", "compute_moments", "tree.moments"),
    ("repro.gravity.solver", "traverse_lists", "tree.traverse"),
    ("repro.gravity.solver", "evaluate_forces", "gravity.evaluate_self"),
    ("repro.gravity.treeforce", "segment_sum", "gravity.segment_sum"),
    ("repro.gravity.localexp", "accumulate_m2l", "gravity.m2l"),
    ("repro.gravity.localexp", "sweep_l2l", "gravity.l2l"),
    ("repro.gravity.localexp", "l2p_accumulate", "gravity.l2p"),
    ("repro.gravity.treeforce", "prism_acceleration", "multipoles.prism"),
    ("repro.gravity.treeforce", "prism_potential", "multipoles.prism"),
    ("repro.gravity.solver", "PeriodicLocalExpansion.field", "gravity.lattice"),
    ("repro.parallel.executor", "ForceExecutor.compute", "parallel.execute"),
    ("repro.io.checkpoint", "save_checkpoint", "io.checkpoint_write"),
    ("repro.io.checkpoint", "load_checkpoint", "io.checkpoint_read"),
)

#: spans whose self time is orchestration, not a named piece of work
GLUE = ("simulation.driver_self", "gravity.compute_self")

#: spans timed once around the run, not per step
ONE_SHOT = ("simulation.ic", "io.checkpoint_write", "io.checkpoint_read")


# ----- counts read from what the layers return ------------------------------------
# Each reader gets (result, args, kwargs) of one call and returns exact
# counts; they describe the solve at the seeded initial state (the first
# call inside the run), so they repeat exactly for a given seed.

def _build_counts(tree, args, kwargs):
    return {"tree.build.n_cells": int(tree.n_cells), "tree.build.max_level": int(tree.max_level)}


def _traverse_counts(inter, args, kwargs):
    tree = args[0]
    n = max(int(tree.n_particles), 1)
    accepts = inter.inherited_accepts + inter.leaf_accepts + inter.m2l_accepts
    return {
        "tree.traverse.mac_tests": int(inter.mac_tests),
        "tree.traverse.frontier_peak": int(inter.frontier_peak),
        "tree.traverse.rounds": int(inter.rounds),
        "tree.traverse.accept_ratio": accepts / max(int(inter.mac_tests), 1),
        "tree.traverse.ipp": inter.interactions_per_particle(tree),
        "tree.traverse.ipp_cell": inter.n_cell_interactions(tree) / n,
        "tree.traverse.ipp_pp": inter.n_pp_interactions(tree) / n,
        "tree.traverse.ipp_ghost": inter.n_prism_interactions(tree) / n,
        "tree.traverse.ipp_m2l": inter.n_m2l_interactions(tree) / n,
    }


def _kernel_counts(stats):
    kern = stats["kernel"]
    return {
        "gravity.kernel.interactions_per_s": float(kern["interactions_per_s"]),
        "gravity.kernel.gflops": float(kern["gflops"]),
        "gravity.kernel.tile_occupancy": float(kern["tile_occupancy"]),
        "multipoles.prism.interactions": int(stats["prism_interactions"]),
    }


def _evaluate_counts(result, args, kwargs):
    return _kernel_counts(result.stats)


def _execute_counts(result, args, kwargs):
    stats = result.stats
    ex = stats["executor"]
    tree = args[1]  # args[0] is the executor itself
    n = max(int(tree.n_particles), 1)
    fam = stats["interactions_by_family"]
    accepts = stats["inherited_accepts"] + stats["leaf_accepts"]
    busy = ex["worker_busy_s"]
    # shard stamps are offsets from the call's first shard start
    wall = max((e["t1"] for e in ex["shard_events"]), default=0.0) or 1e-12
    out = {
        "parallel.n_shards": int(ex["n_shards"]),
        "parallel.load_imbalance": float(ex["load_imbalance"]),
        "parallel.worker_busy_frac": sum(busy) / (len(busy) * wall),
        "parallel.worker_traverse_s": float(ex["traverse_s"]),
        "parallel.worker_evaluate_s": float(ex["evaluate_s"]),
        "parallel.mac_tests": int(stats["mac_tests"]),
        # the shards' walks stand in for the serial traverse row
        "tree.traverse.mac_tests": int(stats["mac_tests"]),
        "tree.traverse.frontier_peak": int(stats["frontier_peak"]),
        "tree.traverse.rounds": int(stats["traversal_rounds"]),
        "tree.traverse.accept_ratio": accepts / max(int(stats["mac_tests"]), 1),
        "tree.traverse.ipp": stats["traversal_interactions"] / n,
        "tree.traverse.ipp_cell": fam.get("cell", 0) / n,
        "tree.traverse.ipp_pp": fam.get("pp", 0) / n,
        "tree.traverse.ipp_ghost": fam.get("ghost", 0) / n,
        "tree.traverse.ipp_m2l": fam.get("m2l", 0) / n,
    }
    out.update(_kernel_counts(stats))
    return out


COUNTERS = {
    "tree.build": _build_counts,
    "tree.traverse": _traverse_counts,
    "gravity.evaluate_self": _evaluate_counts,
    "parallel.execute": _execute_counts,
}

#: per-step means of a counter (times that vary call to call); every
#: other counted name is exact and read from the first call only
_PER_CALL_MEANS = (
    "gravity.kernel.interactions_per_s",
    "gravity.kernel.gflops",
    "parallel.load_imbalance",
    "parallel.worker_busy_frac",
    "parallel.worker_traverse_s",
    "parallel.worker_evaluate_s",
)
_PARALLEL_ONLY = (
    "parallel.n_shards", "parallel.load_imbalance", "parallel.worker_busy_frac",
    "parallel.worker_traverse_s", "parallel.worker_evaluate_s", "parallel.mac_tests",
)


#: counts read from what the first solve returns: they repeat exactly for a seed
EXACT = (
    ("tree.build.n_cells", "count", "lower"),
    ("tree.build.max_level", "count", "lower"),
    ("tree.traverse.mac_tests", "count", "lower"),
    ("tree.traverse.frontier_peak", "count", "lower"),
    ("tree.traverse.rounds", "count", "lower"),
    ("tree.traverse.accept_ratio", "ratio", "higher"),
    ("tree.traverse.ipp", "count", "lower"),
    ("tree.traverse.ipp_cell", "count", "lower"),
    ("tree.traverse.ipp_pp", "count", "lower"),
    ("tree.traverse.ipp_ghost", "count", "lower"),
    ("tree.traverse.ipp_m2l", "count", "lower"),
    ("gravity.kernel.tile_occupancy", "ratio", "higher"),
    ("multipoles.prism.interactions", "count", "lower"),
    ("parallel.n_shards", "count", "lower"),
    ("parallel.mac_tests", "count", "lower"),
    ("parallel.mac_redundancy", "ratio", "lower"),
)


def _metric_table():
    """Every per-layer metric as (name, unit, better) — BENCHMARK.json's list."""
    rows = []
    for span in dict.fromkeys(span for _, _, span in LAYERS):
        rows.append((f"{span}_s", "s", "lower"))
        if span not in ONE_SHOT:
            rows.append((f"{span}_calls", "count", "lower"))
    rows += EXACT
    rows += [
        ("gravity.kernel.interactions_per_s", "1/s", "higher"),
        ("gravity.kernel.gflops", "GFLOP/s", "higher"),
        ("simulation.init_force_s", "s", "lower"),
        ("simulation.li_drift_rel", "ratio", "lower"),
        ("io.checkpoint_bytes", "bytes", "lower"),
        ("parallel.load_imbalance", "ratio", "lower"),
        ("parallel.worker_busy_frac", "ratio", "higher"),
        ("parallel.worker_traverse_s", "s", "lower"),
        ("parallel.worker_evaluate_s", "s", "lower"),
        ("process.peak_rss_mb", "MB", "lower"),
        ("step.attributed_frac", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _metric_table()


class Recorder:
    """In-memory span and count store behind the installed wrappers."""

    def __init__(self):
        #: [span name, start, end, index of the parent span or -1]
        self.spans: list[list] = []
        #: (index of the span the counts were read under, {name: value})
        self.counts: list[tuple[int, dict]] = []
        #: metric-or-span name -> why it could not be measured
        self.missing: dict[str, str] = {}
        #: seconds spent reading counts: tracing cost that no span shows
        self.counting_s = 0.0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # ----- wrapping ---------------------------------------------------------------
    def _wrap(self, fn, span: str, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            row = [span, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(row)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    self.counts.append((idx, counter(result, args, kwargs)))
                except Exception as exc:  # a renamed field must not fail the run
                    self.missing.setdefault(span + ".counts", f"{type(exc).__name__}: {exc}")
                self.counting_s += clock() - row[2]
            return result

        return traced

    def install(self) -> "Recorder":
        """Replace every resolvable entry of :data:`LAYERS` by its timing wrapper."""
        for module, attribute, span in LAYERS:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing[span] = f"{module}:{attribute}: {type(exc).__name__}: {exc}"
                continue
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, span, COUNTERS.get(span)))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ----- turning spans into metrics ---------------------------------------------
    def self_times(self, t0: float, t1: float):
        """({span: self seconds}, {span: calls}) of the spans clipped to [t0, t1]."""
        clipped = [max(0.0, min(e, t1) - max(s, t0)) for _, s, e, _ in self.spans]
        own = list(clipped)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, s, _, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= clipped[i]
            if t0 <= s < t1:
                calls[name] += 1
        total: dict[str, float] = defaultdict(float)
        for (name, *_), sec in zip(self.spans, own):
            total[name] += sec
        return total, calls

    def find(self, span: str):
        """The first recorded row of ``span``, or None."""
        return next((r for r in self.spans if r[0] == span), None)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapper adds to one call, timed on a function that does nothing."""
    rec = Recorder()
    traced = rec._wrap(lambda: None, "calibration", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - t0) / calls


def summarise(rec: Recorder, run_row, t_steps: float, n_steps: int) -> dict:
    """Per-layer metrics of one traced ``Simulation.run``.

    ``run_row`` is the run's own span; the stepping window is
    ``[t_steps, run end]`` (everything after the initial force solve).
    Times and calls are per step over that window; exact counts come
    from the first counted call inside the run — the solve at the
    seeded initial state — so they do not depend on how many steps fit.
    """
    t_run0, t_run1 = run_row[1], run_row[2]
    own, calls = rec.self_times(t_steps, t_run1)
    whole, _ = rec.self_times(0.0, float("inf"))
    k = max(n_steps, 1)
    out: dict = {}
    for span in {span for _, _, span in LAYERS} - set(rec.missing):
        if span in ONE_SHOT:
            out[f"{span}_s"] = whole.get(span, 0.0)
        else:
            out[f"{span}_s"] = own.get(span, 0.0) / k
            out[f"{span}_calls"] = calls.get(span, 0) / k

    means: dict[str, list] = defaultdict(list)
    for idx, values in rec.counts:
        start = rec.spans[idx][1]
        if not t_run0 <= start <= t_run1:
            continue
        for name, value in values.items():
            if name not in _PER_CALL_MEANS:
                out.setdefault(name, value)
            elif start >= t_steps:
                means[name].append(value)
    out.update({name: sum(v) / len(v) for name, v in means.items()})
    if "parallel.execute" not in calls:
        # serial workloads: the executor did no work
        out.update(dict.fromkeys(_PARALLEL_ONLY, 0))

    glue = sum(own.get(span, 0.0) for span in GLUE)
    out["step.attributed_frac"] = 1.0 - glue / max(t_run1 - t_steps, 1e-12)
    # what tracing itself cost the traced run: every span at the calibrated
    # price of a wrapper, plus the time spent reading counts.  (The traced
    # run's wall over the untraced one's cannot resolve this: two runs of a
    # few steps differ by several percent either way.)
    out["trace.overhead_frac"] = (len(rec.spans) * span_cost_s() + rec.counting_s) / max(
        t_run1 - t_run0, 1e-12
    )
    return out


def fill_missing(metrics: dict, rec: Recorder) -> list[str]:
    """Give every :data:`PER_LAYER` name a value; returns ``trace_missing``.

    A metric nothing measured reads ``None`` and carries a reason, so a
    renamed entry point degrades one row instead of failing the run.
    """
    for name, _, _ in PER_LAYER:
        if name not in metrics:
            metrics[name] = None
            span = name.rsplit("_", 1)[0]
            rec.missing.setdefault(name, rec.missing.get(span, "no counted call returned it"))
    return sorted(f"{name}: {why}" for name, why in rec.missing.items())
