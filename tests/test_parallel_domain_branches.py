"""Tests for domain decomposition, branch exchange, ABM and parallel traversal."""

import numpy as np
import pytest

from repro.keys import KEY_BITS, cell_geometry, key_level
from repro.parallel import (
    ABMEngine,
    MachineModel,
    SimComm,
    branch_nodes,
    coarsen_for_receiver,
    decompose,
    domain_surface_stats,
    exchange_global_concat,
    exchange_hierarchical,
    parallel_traversal,
)
from repro.tree import build_tree, compute_moments, traverse_hierarchical


def clustered(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.random((10, 3))
    pos = (c[rng.integers(0, 10, n)] + 0.05 * rng.standard_normal((n, 3))) % 1.0
    return pos


class TestDecomposition:
    @pytest.mark.parametrize("curve", ["morton", "hilbert"])
    def test_partition(self, curve):
        pos = clustered()
        d = decompose(pos, 8, curve=curve)
        assert d.rank_of.min() >= 0
        assert d.rank_of.max() < 8
        assert d.counts().sum() == len(pos)

    def test_balanced_counts(self):
        pos = clustered()
        d = decompose(pos, 16)
        assert d.load_imbalance() < 0.05

    def test_weighted_balance(self):
        pos = clustered()
        rng = np.random.default_rng(1)
        w = rng.random(len(pos)) * 10
        d = decompose(pos, 8, weights=w)
        assert d.load_imbalance(w) < 0.2

    def test_sfc_contiguity(self):
        """Domains are contiguous along the curve: sorting particles by
        key makes rank assignments non-decreasing."""
        pos = clustered()
        d = decompose(pos, 8)
        order = np.argsort(d.keys)
        assert np.all(np.diff(d.rank_of[order]) >= 0)

    def test_hilbert_more_compact_than_morton(self):
        """Hilbert domains have smaller surface fraction (the reason SFC
        choice matters, Fig. 4)."""
        pos = clustered(8000, seed=2)
        sm = domain_surface_stats(pos, decompose(pos, 32, curve="morton"))
        sh = domain_surface_stats(pos, decompose(pos, 32, curve="hilbert"))
        assert sh["boundary_fraction"] <= sm["boundary_fraction"] * 1.1

    def test_unknown_curve(self):
        with pytest.raises(ValueError):
            decompose(clustered(100), 4, curve="peano")


class TestBranchNodes:
    def test_cover_is_exact_partition_of_interval(self):
        rng = np.random.default_rng(4)
        pos = rng.random((2000, 3))
        from repro.keys import keys_from_positions

        keys = np.sort(keys_from_positions(pos))
        nodes = branch_nodes(keys, 100, 700)
        # every particle key in [100, 700) lies in exactly one node
        lv = key_level(nodes)
        starts = (nodes ^ (np.uint64(1) << (3 * lv).astype(np.uint64))) << (
            (KEY_BITS - lv) * 3
        ).astype(np.uint64)
        spans = (np.uint64(1) << ((KEY_BITS - lv) * 3).astype(np.uint64))
        placeholder = np.uint64(1) << np.uint64(3 * KEY_BITS)
        body = keys[100:700] - placeholder
        hits = np.zeros(len(body), dtype=int)
        for s, sp in zip(starts, spans):
            hits += (body >= s) & (body < s + sp)
        assert np.all(hits == 1)
        # nodes are disjoint and sorted
        ends = starts + spans
        assert np.all(starts[1:] >= ends[:-1])

    def test_single_particle(self):
        from repro.keys import keys_from_positions

        keys = np.sort(keys_from_positions(np.random.default_rng(1).random((50, 3))))
        nodes = branch_nodes(keys, 10, 11)
        assert len(nodes) >= 1

    def test_empty_range(self):
        assert len(branch_nodes(np.array([], dtype=np.uint64), 0, 0)) == 0

    def test_full_range_coarse(self):
        """Covering everything produces far fewer nodes than particles."""
        from repro.keys import keys_from_positions

        keys = np.sort(keys_from_positions(np.random.default_rng(2).random((5000, 3))))
        nodes = branch_nodes(keys, 0, 5000)
        assert len(nodes) < 5000 / 4


class TestBranchExchange:
    def _setup(self, p=8, n=4000):
        from repro.keys import keys_from_positions

        pos = clustered(n, seed=5)
        keys = np.sort(keys_from_positions(pos))
        bounds = (np.arange(p + 1) * n) // p
        branches = [branch_nodes(keys, bounds[i], bounds[i + 1]) for i in range(p)]
        placeholder = np.uint64(1) << np.uint64(3 * KEY_BITS)
        intervals = [
            (int(keys[bounds[i]] - placeholder), int(keys[bounds[i + 1] - 1] - placeholder))
            for i in range(p)
        ]
        return branches, intervals

    def test_global_concat_everyone_gets_everything(self):
        branches, intervals = self._setup()
        comm = SimComm(8)
        known = exchange_global_concat(comm, branches)
        allnodes = np.unique(np.concatenate(branches))
        for k in known:
            np.testing.assert_array_equal(k, allnodes)

    def test_hierarchical_cheaper_at_scale(self):
        """The point of §3.2: hierarchical aggregation moves fewer bytes
        per rank than global concatenation once P is large."""
        branches, intervals = self._setup(p=32, n=8000)
        c1 = SimComm(32)
        exchange_global_concat(c1, branches)
        c2 = SimComm(32)
        exchange_hierarchical(c2, branches, intervals)
        assert c2.ledger.total_bytes() < c1.ledger.total_bytes()

    def test_hierarchical_covers_own_plus_remote_structure(self):
        branches, intervals = self._setup(p=8)
        comm = SimComm(8)
        known = exchange_hierarchical(comm, branches, intervals)
        for r, k in enumerate(known):
            # own branches retained
            assert np.all(np.isin(branches[r], k))
            # something was learned about every other rank (node or ancestor)
            for q in range(8):
                if q == r or len(branches[q]) == 0:
                    continue
                anc = set()
                for node in k:
                    anc.add(int(node))
                found = False
                for node in branches[q]:
                    x = int(node)
                    while x:
                        if x in anc:
                            found = True
                            break
                        x >>= 3
                    if found:
                        break
                assert found

    def test_coarsen_far_regions(self, monkeypatch):
        from repro.parallel import branches

        monkeypatch.setattr(branches, "_DETAIL_LEVELS", 2)
        keys = np.array([(1 << 18) | 123, (1 << 18) | 124], dtype=np.uint64)
        placeholder = 1 << (3 * KEY_BITS)
        far = coarsen_for_receiver(keys, placeholder - 10, placeholder - 5)
        assert key_level(far).max() < key_level(keys).max()


class TestABM:
    def test_request_reply(self):
        eng = ABMEngine(4)
        seen = []
        eng.on("ping", lambda e, m: e.post(m.dst, m.src, "pong", m.payload))
        eng.on("pong", lambda e, m: seen.append(m.payload))
        eng.post(0, 3, "ping", "hello")
        t = eng.run()
        assert seen == ["hello"]
        assert t > 0

    def test_batching_reduces_wire_messages(self):
        def run(batching):
            eng = ABMEngine(2, batching=batching)
            eng.on("data", lambda e, m: None)
            for _ in range(100):
                eng.post(0, 1, "data", None, nbytes=32)
            eng.run()
            return eng.wire_messages

        assert run(True) < run(False)

    def test_batching_latency_savings(self):
        machine = MachineModel(latency_s=1e-4, bandwidth_Bps=1e12)
        eng_b = ABMEngine(2, machine, batching=True)
        eng_n = ABMEngine(2, machine, batching=False)
        for eng in (eng_b, eng_n):
            eng.on("data", lambda e, m: None)
            for _ in range(50):
                eng.post(0, 1, "data", None, nbytes=8)
        # batched: one flush window + one message latency; unbatched: the
        # events all arrive after one latency each (parallel) but total
        # wire messages differ — assert on bytes/messages
        eng_b.run()
        eng_n.run()
        assert eng_b.wire_messages < eng_n.wire_messages

    def test_unknown_type_raises(self):
        eng = ABMEngine(2)
        eng.post(0, 1, "mystery", None)
        with pytest.raises(KeyError):
            eng.run()


class TestParallelTraversal:
    def test_work_partitioned_exactly(self):
        pos = clustered(3000, seed=7)
        mass = np.full(len(pos), 1.0 / len(pos))
        tree = build_tree(pos, mass, nleaf=16)
        moms = compute_moments(tree, p=2, tol=1e-4)
        serial = traverse_hierarchical(tree, moms)
        w_serial = (
            serial.n_cell_interactions(tree)
            + serial.n_pp_interactions(tree)
            + serial.n_prism_interactions(tree)
        )
        stats = parallel_traversal(tree, moms, n_ranks=8)
        assert stats.work_per_rank.sum() == w_serial

    def test_remote_fraction_reasonable(self):
        pos = clustered(3000, seed=8)
        mass = np.full(len(pos), 1.0 / len(pos))
        tree = build_tree(pos, mass, nleaf=16)
        moms = compute_moments(tree, p=2, tol=1e-4)
        stats = parallel_traversal(tree, moms, n_ranks=4)
        assert stats.remote_cells_requested.sum() > 0
        assert stats.abm_wire_messages > 0
        assert stats.abm_time_s > 0

    def test_more_ranks_more_communication(self):
        pos = clustered(3000, seed=9)
        mass = np.full(len(pos), 1.0 / len(pos))
        tree = build_tree(pos, mass, nleaf=16)
        moms = compute_moments(tree, p=2, tol=1e-4)
        s4 = parallel_traversal(tree, moms, n_ranks=4)
        s16 = parallel_traversal(tree, moms, n_ranks=16)
        assert s16.remote_cells_requested.sum() > s4.remote_cells_requested.sum()

    def test_batching_helps(self):
        pos = clustered(2000, seed=10)
        mass = np.full(len(pos), 1.0 / len(pos))
        tree = build_tree(pos, mass, nleaf=16)
        moms = compute_moments(tree, p=2, tol=1e-4)
        b = parallel_traversal(tree, moms, n_ranks=8, batching=True)
        n = parallel_traversal(tree, moms, n_ranks=8, batching=False)
        assert b.abm_wire_messages <= n.abm_wire_messages


def _rank_forces(tree, moms, spec, n_ranks):
    """Forces rank by rank: SFC-contiguous particle blocks of sink
    leaves, each solved alone and written as its key-sorted slice."""
    from repro.gravity.solver import solve_forces

    n = tree.n_particles
    leaf = tree.leaf_indices
    leaf = leaf[np.argsort(tree.cell_start[leaf])]
    bounds = (np.arange(n_ranks + 1) * n) // n_ranks
    rank = np.searchsorted(bounds, tree.cell_start[leaf], side="right") - 1
    acc, pot = np.zeros((n, 3)), np.zeros(n)
    shards = 0
    for r in range(n_ranks):
        sinks = leaf[rank == r]
        if len(sinks) == 0:
            continue
        s0 = int(tree.cell_start[sinks[0]])
        s1 = int(tree.cell_start[sinks[-1]] + tree.cell_count[sinks[-1]])
        res = solve_forces(tree, moms, spec, sink_leaves=sinks, particle_range=(s0, s1))[0]
        acc[s0:s1], pot[s0:s1] = res.acc, res.pot
        shards += 1
    assert shards > 1
    out_acc, out_pot = np.empty_like(acc), np.empty_like(pot)
    out_acc[tree.order], out_pot[tree.order] = acc, pot
    return out_acc, out_pot


class TestParallelForces:
    def test_distributed_equals_serial(self):
        """HOT's decomposition contract: the parallel force calculation
        computes the identical interaction set — per-leaf CSR segments
        do not depend on the sharding, so results agree bit for bit."""
        from repro.gravity import make_softening
        from repro.gravity.solver import ForceSpec
        from repro.gravity.treeforce import evaluate_forces

        pos = clustered(2000, seed=12)
        mass = np.full(len(pos), 1.0 / len(pos))
        tree = build_tree(pos, mass, nleaf=16)
        moms = compute_moments(tree, p=2, tol=1e-4)
        soft = make_softening("plummer", 1e-3)
        serial = evaluate_forces(
            tree, moms, traverse_hierarchical(tree, moms),
            softening=soft, want_potential=True,
        )
        for n_ranks in (3, 8):
            acc, pot = _rank_forces(tree, moms, ForceSpec(softening=soft), n_ranks)
            assert np.array_equal(acc, serial.acc)
            assert np.array_equal(pot, serial.pot)

    def test_distributed_periodic(self):
        from repro.gravity import make_softening
        from repro.gravity.solver import ForceSpec
        from repro.gravity.treeforce import evaluate_forces

        pos = clustered(800, seed=13)
        mass = np.full(len(pos), 1.0 / len(pos))
        tree = build_tree(pos, mass, nleaf=8, with_ghosts=True)
        moms = compute_moments(
            tree, p=2, tol=1e-4, background=True, mean_density=1.0
        )
        soft = make_softening("spline", 5e-3)
        serial = evaluate_forces(
            tree, moms, traverse_hierarchical(tree, moms, periodic=True, ws=1),
            softening=soft, want_potential=True,
        )
        spec = ForceSpec(periodic=True, ws=1, softening=soft)
        acc, pot = _rank_forces(tree, moms, spec, 4)
        assert np.array_equal(acc, serial.acc)
        assert np.array_equal(pot, serial.pot)
