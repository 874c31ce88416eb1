"""Structural monitors: tree shape, executor balance, interaction drift.

Valdarnini 2003 makes the case that treecode pathologies — degenerate
tree shapes, load imbalance, interaction-count blowups — have to be
measured continuously, not discovered post-mortem.  These monitors
watch the *mechanism* rather than the physics: the tree the solver
just built, the worker-pool balance of the last force call, and the
step-over-step interaction count the MAC produced.
"""

from __future__ import annotations

import numpy as np

from .monitors import HealthContext, HealthEvent, Monitor, classify

__all__ = [
    "tree_shape_stats",
    "TreeShapeMonitor",
    "ExecutorBalanceMonitor",
    "InteractionDriftMonitor",
    "RecoveryMonitor",
]


def tree_shape_stats(tree) -> dict:
    """Leaf occupancy and depth distribution of one built tree.

    Cheap (a few NumPy passes over the cell arrays); the returned dict
    is JSON-ready and doubles as the monitor's raw observation.
    """
    leaves = tree.leaf_indices
    counts = tree.cell_count[leaves]
    levels = tree.cell_level[leaves]
    ghosts = int(np.count_nonzero(tree.cell_is_ghost))
    lvl, nlvl = np.unique(tree.cell_level, return_counts=True)
    return {
        "n_cells": int(tree.n_cells),
        "n_leaves": int(len(leaves)),
        "n_ghosts": ghosts,
        "max_level": int(tree.cell_level.max()),
        "leaf_occupancy_mean": float(counts.mean()) if len(counts) else 0.0,
        "leaf_occupancy_max": int(counts.max()) if len(counts) else 0,
        "leaf_level_mean": float(levels.mean()) if len(levels) else 0.0,
        "cells_per_level": {int(k): int(v) for k, v in zip(lvl, nlvl)},
    }


class TreeShapeMonitor(Monitor):
    """Warn on degenerate trees: overfull leaves or runaway depth.

    A real leaf holding more than ``OCCUPANCY_FACTOR * nleaf`` bodies
    means the build hit its depth cap on coincident/clustered points
    (the split rule otherwise guarantees <= nleaf), and depth past
    ``DEPTH_WARN`` makes traversals pathological.
    """

    name = "tree_shape"
    OCCUPANCY_FACTOR = 4.0
    DEPTH_WARN = 21

    def __init__(self):
        self.last: dict = {}

    def check(self, ctx: HealthContext) -> list[HealthEvent]:
        tree = getattr(getattr(ctx.sim, "_solver", None), "last_tree", None)
        if tree is None:
            return []
        stats = tree_shape_stats(tree)
        self.last = stats
        events = []
        cap = self.OCCUPANCY_FACTOR * tree.nleaf
        if stats["leaf_occupancy_max"] > cap:
            events.append(self._event(
                ctx, "warn",
                f"leaf holds {stats['leaf_occupancy_max']} bodies "
                f"(> {self.OCCUPANCY_FACTOR:g} x nleaf={tree.nleaf}: depth-capped split)",
                value=stats["leaf_occupancy_max"], threshold=cap,
            ))
        if stats["max_level"] > self.DEPTH_WARN:
            events.append(self._event(
                ctx, "warn",
                f"tree depth {stats['max_level']} exceeds {self.DEPTH_WARN}",
                value=stats["max_level"], threshold=self.DEPTH_WARN,
            ))
        return events

    def summary(self) -> dict:
        return dict(self.last)


class ExecutorBalanceMonitor(Monitor):
    """Shard load imbalance of the worker pool (``stats["executor"]``).

    The executor reports ``max(busy)/mean(busy) - 1`` per force call;
    sustained imbalance means the particle-count-balanced shards (one
    per worker) no longer track traversal cost (deep clustering), and
    the cut should weight leaves by measured work instead.
    """

    name = "executor_balance"
    WARN = 0.5
    ERROR = 2.0

    def __init__(self):
        self.max_imbalance = 0.0

    def check(self, ctx: HealthContext) -> list[HealthEvent]:
        ex = getattr(ctx.sim, "last_stats", {}).get("executor")
        if not ex:
            return []
        imb = float(ex.get("load_imbalance", 0.0))
        self.max_imbalance = max(self.max_imbalance, imb)
        sev = classify(imb, self.WARN, self.ERROR)
        if sev == "info":
            return [self._event(
                ctx, "info", f"executor load imbalance {imb:.3f}",
                value=imb, threshold=self.WARN,
            )]
        return [self._event(
            ctx, sev,
            f"executor load imbalance {imb:.3f} across "
            f"{ex.get('workers', '?')} workers",
            value=imb, threshold=self.WARN,
        )]

    def summary(self) -> dict:
        return {"max_imbalance": self.max_imbalance, "warn": self.WARN}


class RecoveryMonitor(Monitor):
    """Worker-pool self-healing activity (``stats["executor"]``).

    The executor recovers from worker deaths, shard errors and pool
    hangs transparently — the force result is unchanged — but each
    recovery costs wall clock and signals trouble (a flaky node, an
    OOM-prone worker).  Surface every recovery as a warn event, and
    escalate to error when the pool gives up and degrades to serial.
    """

    name = "executor_recovery"

    def __init__(self):
        self.total = 0
        self.by_kind: dict[str, int] = {}
        self.degraded = False

    def start(self, ctx: HealthContext) -> list[HealthEvent]:
        # the init force call can already need a recovery
        return self.check(ctx)

    def check(self, ctx: HealthContext) -> list[HealthEvent]:
        # read the executor's cumulative log, not the per-call stats: a
        # solver may run the pool several times per force evaluation
        ex = getattr(getattr(ctx.sim, "_solver", None), "_executor", None)
        if ex is None:
            return []
        events = []
        recoveries = list(getattr(ex, "recoveries", ()))
        for r in recoveries[self.total:]:
            kind = r.get("kind", "unknown")
            self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
            detail = {k: v for k, v in r.items() if k != "kind"}
            events.append(self._event(
                ctx, "warn",
                f"executor recovery: {kind} {detail}" if detail
                else f"executor recovery: {kind}",
                value=len(events) + self.total + 1,
            ))
        self.total = len(recoveries)
        if getattr(ex, "degraded", False) and not self.degraded:
            self.degraded = True
            events.append(self._event(
                ctx, "error",
                "worker pool unrecoverable: degraded to serial execution",
                value=self.total,
            ))
        return events

    def summary(self) -> dict:
        return {
            "recoveries": self.total,
            "by_kind": dict(self.by_kind),
            "degraded": self.degraded,
        }


class InteractionDriftMonitor(Monitor):
    """Step-over-step drift of the interactions-per-particle count.

    The MAC keeps this near-constant for a smoothly evolving box
    (~2000 at errtol 1e-5, §7); a sudden jump means the tree or the
    acceptance criterion went pathological (collapsed cells, broken
    bounds), usually steps before anything shows in the energies.
    """

    name = "interaction_drift"
    JUMP_FACTOR = 3.0

    def __init__(self):
        self._prev: float | None = None
        self.max_ratio = 1.0

    def check(self, ctx: HealthContext) -> list[HealthEvent]:
        rec = ctx.record
        ipp = float(getattr(rec, "interactions_per_particle", 0.0) or 0.0) if rec else 0.0
        if ipp <= 0.0:
            return []
        events = []
        if self._prev is not None and self._prev > 0:
            ratio = max(ipp / self._prev, self._prev / ipp)
            self.max_ratio = max(self.max_ratio, ratio)
            if ratio > self.JUMP_FACTOR:
                events.append(self._event(
                    ctx, "warn",
                    f"interactions/particle jumped x{ratio:.2f} "
                    f"({self._prev:.0f} -> {ipp:.0f})",
                    value=ratio, threshold=self.JUMP_FACTOR,
                ))
        self._prev = ipp
        return events

    def summary(self) -> dict:
        return {"max_ratio": self.max_ratio, "jump_factor": self.JUMP_FACTOR}
