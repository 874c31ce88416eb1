"""Replaying the last walk: re-decide its recorded pairs, re-walk the flips.

``traverse_hierarchical(..., previous=lists)`` re-decides every pair the
previous walk recorded against the new moments and walks again only
below the pairs whose decision changed.  Its lists must be those of a
fresh walk, field by field: that is what keeps resume, the worker pool
and every force bit-identical whether a solve replayed or not.
"""

import dataclasses

import numpy as np
import pytest

from repro.gravity.pm import ASMTH, RCUT, _prune_far
from repro.gravity.solver import solve_forces
from repro.resilience import CheckpointScheduler, CheckpointStore
from repro.simulation import Simulation, SimulationConfig
from repro.tree import build_tree, compute_moments, traverse_hierarchical, traverse_lists

#: every array field of InteractionLists, and its counters
LIST_FIELDS = (
    "sink_leaves", "offsets",
    "cell_cells", "cell_src", "cell_off", "cell_indptr",
    "leaf_sink", "leaf_src", "leaf_off", "leaf_indptr",
    "ghost_sink", "ghost_src", "ghost_off", "ghost_indptr",
    "m2l_cells", "m2l_src", "m2l_off", "m2l_indptr",
)
COUNTERS = (
    "rounds", "mac_tests", "frontier_peak",
    "inherited_accepts", "leaf_accepts", "m2l_accepts",
)


def record_rows(walk):
    """The record's (round, a, b, image, live bits, code) rows, sorted."""
    rnd = np.repeat(np.arange(len(walk.round_ptr) - 1), np.diff(walk.round_ptr))
    rows = zip(rnd, walk.a, walk.b, walk.off, walk.fl, walk.code)
    return sorted(tuple(int(x) for x in row) for row in rows)


def assert_same_lists(got, want):
    for name in LIST_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in COUNTERS:
        assert getattr(got, name) == getattr(want, name), name


class TestReplayByHand:
    """Two clumps in opposite octants of an open box: A, 8 particles, is
    one leaf; B, 16, is an interior cell over 7 leaves.  The walk tests
    the root self-pair (round 1); its children A-A, A-B and B-B (round
    2); A against each of B's 7 leaves and B's 7 x 8 / 2 = 28 leaf pairs
    (round 3): 1 + 3 + 35 = 39 pairs.  A accepts B as one multipole;
    B does not accept A, so A-B splits B and A sinks into B's leaves."""

    @staticmethod
    def two_clumps():
        rng = np.random.default_rng(0)
        a = 0.25 + 0.05 * (rng.random((8, 3)) - 0.5)
        b = 0.75 + 0.05 * (rng.random((16, 3)) - 0.5)
        pos = np.concatenate([a, b])
        tree = build_tree(pos, rng.random(24) + 0.5, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-2)
        A, B = 1, 2
        assert tree.cell_count[[A, B]].tolist() == [8, 16]
        assert tree.is_leaf[A] and tree.cell_nchildren[B] == 7
        kids = np.arange(tree.cell_first_child[B], tree.cell_first_child[B] + 7)
        assert tree.is_leaf[kids].all()
        return tree, moms, A, B, kids

    def test_raised_r_crit_splits_one_accept(self):
        """Raising B's r_crit past the A-B distance turns the accept
        "A sinks B" into a split: the replay re-decides all 39 pairs,
        finds that one changed, drops it and the 7 pairs below it
        (A-B_k, which only B_k sank), and walks 8: A-B again and A
        against each of B's leaves, now in both directions; B's leaves
        are too close for A's MAC, so A sums them directly."""
        tree, moms, A, B, kids = self.two_clumps()
        first = traverse_hierarchical(tree, moms)
        assert first.mac_tests == first.walk.walked == 39
        assert first.walk.round_ptr.tolist() == [0, 1, 4, 39]
        assert first.walk.redecided == 0
        row = {int(c): i for i, c in enumerate(first.cell_cells)}
        seg = slice(*first.cell_indptr[row[A] : row[A] + 2])
        assert first.cell_src[seg].tolist() == [B]

        r_crit = moms.r_crit.copy()
        r_crit[B] = 10.0
        raised = dataclasses.replace(moms, r_crit=r_crit)
        replay = traverse_hierarchical(tree, raised, previous=first)
        assert replay.walk.redecided == 39
        assert replay.walk.walked == 1 + 7
        # 39 - 8 kept + 8 walked: the record a fresh walk takes
        fresh = traverse_hierarchical(tree, raised)
        assert replay.walk.round_ptr.tolist() == [0, 1, 4, 39]
        assert record_rows(replay.walk) == record_rows(fresh.walk)
        assert_same_lists(replay, fresh)
        assert replay.mac_tests == fresh.walk.walked == 39
        # A no longer takes B as a multipole: it sums B's leaves directly
        assert A not in replay.cell_cells
        seg = slice(*replay.leaf_indptr[:2])
        assert replay.sink_leaves[0] == A
        assert replay.leaf_src[seg].tolist() == [A, *kids.tolist()]

        # and back: the same pair flips again, against the replayed record
        back = traverse_hierarchical(tree, moms, previous=replay)
        assert back.walk.redecided == 39 and back.walk.walked == 1 + 7
        assert record_rows(back.walk) == record_rows(first.walk)
        assert_same_lists(back, first)

    def test_unchanged_moments_walk_nothing(self):
        tree, moms, *_ = self.two_clumps()
        first = traverse_hierarchical(tree, moms)
        again = traverse_hierarchical(tree, moms, previous=first)
        assert again.walk.redecided == 39 and again.walk.walked == 0
        assert_same_lists(again, first)

    def test_other_topology_or_geometry_walks_fresh(self):
        """A record is replayed only on the tree and geometry it was
        taken on; otherwise it is ignored."""
        tree, moms, *_ = self.two_clumps()
        first = traverse_hierarchical(tree, moms)
        for kw in (dict(xmax=0.5), dict(periodic=True), dict(sink_leaves=tree.leaf_indices[:3])):
            walk = traverse_hierarchical(tree, moms, previous=first, **kw)
            assert walk.walk.redecided == 0, kw
            assert_same_lists(walk, traverse_hierarchical(tree, moms, **kw))
        pos = np.random.default_rng(1).random((24, 3))
        other = build_tree(pos, np.ones(24), nleaf=8)
        other_moms = compute_moments(other, p=2, tol=1e-2)
        walk = traverse_hierarchical(other, other_moms, previous=first)
        assert walk.walk.redecided == 0


def early_config(**kw):
    return SimulationConfig(n_per_dim=8, a_init=0.02, **kw)


class TestReplayEvolvedRun:
    """The 8^3 early input, evolved: the tree's topology holds from step
    to step, so every solve after the first replays the one before."""

    @pytest.mark.parametrize("traversal", ["hierarchical", "fmm-hybrid"])
    def test_every_step_equals_a_fresh_walk(self, traversal):
        replayed = []

        def check(sim, rec):
            solver = sim._solver
            tree, moms, got = solver.last_tree, solver.last_moments, solver.last_interactions
            spec = solver.spec
            fresh = traverse_lists(
                tree, moms, traversal=traversal, periodic=True, ws=1, cc_xmax=spec.cc_xmax
            )
            assert_same_lists(got, fresh)
            replayed.append((got.walk.redecided, got.walk.walked))
            ref = solve_forces(tree, moms, spec)[0].stats
            for key in (
                "inherited_accepts", "leaf_accepts", "mac_tests", "interactions_by_family"
            ):
                assert sim.last_stats[key] == ref[key], key

        Simulation(early_config(traversal=traversal)).run(max_steps=6, callback=check)
        assert len(replayed) == 6 and all(redecided > 0 for redecided, _ in replayed)
        if traversal == "hierarchical":
            # decisions flipped and were walked again on some steps
            assert any(walked > 0 for _, walked in replayed)

    def test_resume_from_step_3_is_bit_identical(self, tmp_path):
        """The resumed run walks fresh at step 3, where the uninterrupted
        one replays: the same lists, so the same bits."""
        ref = Simulation(early_config())
        ps_ref = ref.run(
            max_steps=6,
            checkpointer=(CheckpointScheduler(every_steps=3), CheckpointStore(tmp_path)),
        )
        resumed = Simulation.resume(tmp_path / "ckpt_000003.sdf")
        ps = resumed.run(max_steps=3)
        assert resumed.steps_completed == ref.steps_completed == 6
        np.testing.assert_array_equal(ps.pos, ps_ref.pos)
        np.testing.assert_array_equal(ps.mom, ps_ref.mom)

    def test_workers_2_equals_a_replaying_serial_run(self):
        serial = Simulation(early_config())
        walks = []
        ps_serial = serial.run(
            max_steps=3,
            callback=lambda s, rec: walks.append(s._solver.last_interactions.walk.redecided),
        )
        assert all(walks)
        with Simulation(early_config(workers=2)) as pooled:
            ps = pooled.run(max_steps=3)
            assert pooled._solver.last_interactions is None
        np.testing.assert_array_equal(ps.pos, ps_serial.pos)
        np.testing.assert_array_equal(ps.mom, ps_serial.mom)

    def test_treepm_short_range_walk(self):
        """TreePM keeps the unpruned walk's record on its pruned lists:
        the next solve replays it, and prunes to a fresh walk's lists."""
        replayed = []

        def check(sim, rec):
            solver = sim._solver
            cfg = solver.config
            tree, moms, got = solver.last_tree, solver.last_moments, solver.last_interactions
            # the simulation's box is the unit box
            rcut = RCUT * ASMTH / cfg.ngrid
            fresh = traverse_lists(tree, moms, periodic=True, ws=1)
            assert_same_lists(got, _prune_far(tree, moms, fresh, rcut))
            replayed.append(got.walk.redecided)

        Simulation(early_config(engine="treepm")).run(max_steps=3, callback=check)
        assert len(replayed) == 3 and all(replayed)
