"""Shared-memory force executor: consistency, edge cases, teardown.

The contract under test: ``workers=1`` reproduces the serial force
path bit for bit (single shard, identical interaction stream);
``workers>1`` does too, because every shard writes a disjoint slice and
a restricted walk replays the full walk's decisions for its sinks;
the sink leaves are cut into one particle-balanced shard per worker
(:func:`~repro.parallel.domain.sfc_cut`), one shard when there is one
leaf; and a closed pool leaves behind neither worker processes nor
shared-memory segments.
"""

import glob
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.gravity import TreecodeConfig, TreecodeGravity
from repro.gravity.pm import TreePMConfig, TreePMGravity
from repro.gravity.solver import ForceSpec, solve_forces
from repro.observe import Tracer
from repro.parallel.domain import sfc_cut
from repro.parallel.executor import ForceExecutor, ensure_executor
from repro.tree import build_tree, compute_moments


def _particles(n, seed=11):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    mass = rng.uniform(0.5, 1.5, n) / n
    return pos, mass


def _tree_moms(pos, mass, p=2, tol=1e-3, background=True):
    tree = build_tree(pos, mass, box=1.0, nleaf=16, with_ghosts=background)
    moms = compute_moments(
        tree, p=p, tol=tol, background=background,
        mean_density=float(mass.sum()) if background else None,
    )
    return tree, moms


# ----- solver-level consistency -----------------------------------------------


def test_workers1_bit_identical_to_serial():
    pos, mass = _particles(1200)
    cfg = dict(p=2, errtol=1e-3, periodic=True)
    serial = TreecodeGravity(TreecodeConfig(**cfg)).compute(pos, mass, box=1.0)
    with TreecodeGravity(TreecodeConfig(**cfg, workers=1)) as solver:
        par = solver.compute(pos, mass, box=1.0)
    assert np.array_equal(serial.acc, par.acc)
    assert np.array_equal(serial.pot, par.pot)


def test_workers1_bit_identical_float32():
    # the driver's production configuration accumulates in float32
    pos, mass = _particles(800)
    cfg = dict(p=2, errtol=1e-3, periodic=True, dtype=np.float32)
    serial = TreecodeGravity(TreecodeConfig(**cfg)).compute(pos, mass, box=1.0)
    with TreecodeGravity(TreecodeConfig(**cfg, workers=1)) as solver:
        par = solver.compute(pos, mass, box=1.0)
    assert par.acc.dtype == np.float32
    assert par.pot.dtype == np.float32
    assert np.array_equal(serial.acc, par.acc)
    assert np.array_equal(serial.pot, par.pot)


def test_workers2_allclose_and_stats():
    pos, mass = _particles(1500)
    cfg = dict(p=2, errtol=1e-3, periodic=True)
    serial = TreecodeGravity(TreecodeConfig(**cfg)).compute(pos, mass, box=1.0)
    with TreecodeGravity(TreecodeConfig(**cfg, workers=2)) as solver:
        par = solver.compute(pos, mass, box=1.0)
        again = solver.compute(pos, mass, box=1.0)  # persistent pool reuse
    assert np.array_equal(par.acc, serial.acc)
    assert np.array_equal(par.pot, serial.pot)
    # sharded merge is deterministic whatever the worker scheduling
    assert np.array_equal(par.acc, again.acc)
    assert 0 < par.stats["prism_interactions"] < par.stats["prism_cubes"]
    ex = par.stats["executor"]
    assert ex["workers"] == 2
    assert ex["n_shards"] == 2
    assert len(ex["shard_seconds"]) == ex["n_shards"]
    assert par.stats["interactions_per_particle"] == pytest.approx(
        serial.stats["interactions_per_particle"]
    )


@pytest.mark.parametrize("n_cuts", [1, 2, 3, 7])
def test_restricted_solves_at_any_leaf_cut_bit_identical(n_cuts):
    """The pool cuts one shard per worker, so no pool makes these shard
    counts: restricted solves between arbitrary SFC leaf cuts, merged as
    the executor merges them, are the serial solve bit for bit."""
    pos, mass = _particles(1200, seed=5)
    tree, moms = _tree_moms(pos, mass)
    spec = ForceSpec(periodic=True, dtype=np.float32)
    serial, *_ = solve_forces(tree, moms, spec)
    leaves = tree.leaf_indices[np.argsort(tree.cell_start[tree.leaf_indices], kind="stable")]
    rng = np.random.default_rng(n_cuts)
    cuts = np.sort(rng.choice(np.arange(1, len(leaves)), n_cuts, replace=False))
    acc = np.zeros((tree.n_particles, 3))
    pot = np.zeros(tree.n_particles)
    for sinks in np.split(leaves, cuts):
        s0 = int(tree.cell_start[sinks[0]])
        s1 = int(tree.cell_start[sinks[-1]] + tree.cell_count[sinks[-1]])
        res, *_ = solve_forces(tree, moms, spec, sink_leaves=sinks, particle_range=(s0, s1))
        acc[s0:s1] = res.acc
        pot[s0:s1] = res.pot
    merged_acc = np.empty_like(acc)
    merged_acc[tree.order] = acc
    merged_pot = np.empty_like(pot)
    merged_pot[tree.order] = pot
    assert np.array_equal(merged_acc.astype(np.float32), serial.acc)
    assert np.array_equal(merged_pot.astype(np.float32), serial.pot)


#: serial stats a sharded solve counts differently by design
_SHARD_SURPLUS = (
    # a sink cell that straddles two shards is gathered by both
    "cell_entries", "m2l_classes", "m2l_tile_rows",
    # every shard re-walks the shared upper tree
    "mac_tests", "inherited_accepts", "leaf_accepts", "frontier_peak", "traversal_rounds",
)
#: M2L pairs are translations of a sink cell too, and these keys sum them
_M2L_SUMS = ("m2l_pairs", "m2l_interactions", "traversal_interactions")
_SECONDS = ("family_seconds", "prism_seconds")


@pytest.mark.parametrize("traversal", ["hierarchical", "fmm-hybrid"])
def test_sharded_stats_keep_every_serial_key(traversal):
    """The merge drops no stat: every count of the serial solve is in
    the sharded one with the serial value, apart from the named surplus
    of straddling sink cells and re-walks, and the seconds."""
    pos, mass = _particles(1500)
    cfg = dict(p=2, errtol=1e-3, periodic=True, traversal=traversal, nleaf=8)
    serial = TreecodeGravity(TreecodeConfig(**cfg)).compute(pos, mass, box=1.0)
    with TreecodeGravity(TreecodeConfig(**cfg, workers=2)) as solver:
        par = solver.compute(pos, mass, box=1.0)
    assert par.stats["executor"]["n_shards"] > 1
    extra = par.stats["m2l_pairs"] - serial.stats["m2l_pairs"]
    assert extra > 0 if traversal == "fmm-hybrid" else extra == 0
    for key in _M2L_SUMS:
        assert par.stats[key] == serial.stats[key] + extra, key
    fam = dict(serial.stats["interactions_by_family"])
    fam["m2l"] += extra
    assert par.stats["interactions_by_family"] == fam
    checked = 0
    for key, value in serial.stats.items():
        if isinstance(value, str) or key == "kernel":
            continue  # labels; the derived kernel record has its own test
        assert key in par.stats, key
        if key in _SECONDS:
            assert set(par.stats[key]) == set(value), key
        elif key not in (*_SHARD_SURPLUS, *_M2L_SUMS, "interactions_by_family",
                         "interactions_per_particle"):
            assert par.stats[key] == value, key
            checked += 1
    assert checked >= 12


def test_treepm_workers_allclose():
    pos, mass = _particles(1000)
    serial = TreePMGravity(TreePMConfig(ngrid=32, errtol=1e-3)).compute(
        pos, mass, box=1.0
    )
    with TreePMGravity(TreePMConfig(ngrid=32, errtol=1e-3, workers=2)) as solver:
        par = solver.compute(pos, mass, box=1.0)
    scale = np.abs(serial.acc).max()
    assert np.allclose(par.acc, serial.acc, rtol=1e-12, atol=1e-12 * scale)


# ----- executor-level edge cases ----------------------------------------------


def test_single_leaf_tree_single_shard():
    # fewer particles than nleaf: one leaf, so one shard whatever workers
    pos, mass = _particles(10)
    tree, moms = _tree_moms(pos, mass, background=False)
    with ForceExecutor(2) as ex:
        res = ex.compute(tree, moms, ForceSpec())
        assert res.stats["executor"]["n_shards"] == 1
    from repro.gravity.treeforce import evaluate_forces
    from repro.tree.traversal import traverse_lists

    inter = traverse_lists(tree, moms, periodic=False)
    ref = evaluate_forces(tree, moms, inter)
    assert np.array_equal(res.acc, ref.acc)


def test_tiny_n_more_workers_than_leaves():
    # the shared SFC cut by hand: pieces end at the first item whose
    # cumulative weight reaches k * total / n ...
    assert sfc_cut([3, 1, 1, 1, 2, 4], 3).tolist() == [0, 2, 5, 6]
    assert sfc_cut(np.ones(10), 2).tolist() == [0, 5, 10]
    assert sfc_cut(np.ones(10), 3).tolist() == [0, 4, 7, 10]
    # ... a heavy item moves a cut just far enough to leave no piece empty
    assert sfc_cut([1, 100, 1], 3).tolist() == [0, 1, 2, 3]
    assert sfc_cut([1, 1, 1, 1, 100], 3).tolist() == [0, 3, 4, 5]
    # ... and more pieces than items gives one item a piece
    assert sfc_cut([5, 1, 1], 5).tolist() == [0, 1, 2, 3]
    assert sfc_cut([7], 4).tolist() == [0, 1]
    # a tree with fewer leaves than workers gets one shard a leaf
    pos, mass = _particles(40)
    tree, moms = _tree_moms(pos, mass, background=False)
    n_leaves = len(tree.leaf_indices)
    pool = SimpleNamespace(workers=n_leaves + 3)  # no processes needed to cut
    shards = ForceExecutor._make_shards(pool, tree)
    assert [len(sinks) for _, sinks, _, _ in shards] == [1] * n_leaves
    with ForceExecutor(2) as ex:
        res = ex.compute(tree, moms, ForceSpec())
    assert res.stats["executor"]["n_shards"] == min(2, n_leaves)
    assert np.all(np.isfinite(res.acc))


def test_want_potential_false():
    pos, mass = _particles(300)
    tree, moms = _tree_moms(pos, mass, background=False)
    with ForceExecutor(2) as ex:
        res = ex.compute(tree, moms, ForceSpec(want_potential=False))
    assert res.pot is None
    assert np.all(np.isfinite(res.acc))


def test_shards_tile_particles():
    pos, mass = _particles(2000)
    tree, moms = _tree_moms(pos, mass)
    ex = ForceExecutor(2)
    try:
        shards = ex._make_shards(tree)
        ranges = sorted((s0, s1) for _, _, s0, s1 in shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == tree.n_particles
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0  # contiguous, disjoint: deterministic merge
        sinks = np.concatenate([s for _, s, _, _ in shards])
        assert np.array_equal(np.sort(sinks), np.sort(tree.leaf_indices))
    finally:
        ex.close()


# ----- instrumentation merge --------------------------------------------------


def test_worker_metrics_merge_into_parent_tracer():
    pos, mass = _particles(1200)
    tracer = Tracer()
    with TreecodeGravity(TreecodeConfig(p=2, errtol=1e-3, workers=2)) as solver:
        res = solver.compute(pos, mass, box=1.0, tracer=tracer)
    times = tracer.stage_times()
    assert "executor/traverse" in times
    assert "executor/evaluate" in times
    assert times["executor/shard"] > 0
    # per-worker busy seconds: the measured load-imbalance input, the
    # same shard seconds the parent's timers hold
    busy = res.stats["executor"]["worker_busy_s"]
    assert len(busy) == 2
    assert sum(busy) == pytest.approx(times["executor/shard"])
    n_shards = res.stats["executor"]["n_shards"]
    assert tracer.counters["executor.shards"] == n_shards
    assert tracer.timers["executor/shard"][1] == n_shards
    assert res.stats["stage_seconds"]["execute"] > 0
    assert res.stats["executor"]["load_imbalance"] >= 0.0


# ----- lifecycle / teardown ---------------------------------------------------


def test_teardown_leaves_no_segments_or_workers():
    pos, mass = _particles(600)
    tree, moms = _tree_moms(pos, mass)
    ex = ForceExecutor(2)
    ex.compute(tree, moms, ForceSpec())
    procs = list(ex._procs)
    ex.close()
    assert ex.closed
    for p in procs:
        assert not p.is_alive()
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/reprofx*") == []
    # idempotent close, and computing on a closed pool is an error
    ex.close()
    with pytest.raises(RuntimeError):
        ex.compute(tree, moms, ForceSpec())


def test_ensure_executor_reuse_and_replace():
    ex1 = ensure_executor(None, 2)
    try:
        assert ensure_executor(ex1, 2) is ex1
        ex2 = ensure_executor(ex1, 1)
        try:
            assert ex2 is not ex1
            assert ex1.closed and not ex2.closed
            assert ex2.workers == 1
        finally:
            ex2.close()
    finally:
        ex1.close()


def test_worker_error_propagates():
    pos, mass = _particles(200)
    tree, moms = _tree_moms(pos, mass, background=False)
    with ForceExecutor(1) as ex:
        with pytest.raises(RuntimeError, match="shard"):
            # a bogus softening object fails inside the worker
            ex.compute(tree, moms, ForceSpec(softening="not-a-kernel"))
        # the pool survives a failed call and keeps serving
        res = ex.compute(tree, moms, ForceSpec())
        assert np.all(np.isfinite(res.acc))
