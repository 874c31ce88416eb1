"""An evolved run's walks: every solve's lists are the numpy walk's.

The file and class keep the names they had while a solve could replay
the last solve's walk record; the compiled walk made that replay
unneeded (DESIGN.md, "Answered A/Bs").  What the class still asks of
an evolving run: at every step the compiled walk's lists equal the
numpy oracle walk's field by field, and a resumed run and the worker
pool reproduce the uninterrupted serial run bit for bit.
"""

import numpy as np
import pytest

from repro.gravity.pm import ASMTH, RCUT, _prune_far
from repro.gravity.solver import solve_forces
from repro.resilience import CheckpointScheduler, CheckpointStore
from repro.simulation import Simulation, SimulationConfig
from repro.tree import traverse_lists

from .oracle import oracle_walk
from .test_traversal_hierarchical import assert_same_lists


def early_config(**kw):
    return SimulationConfig(n_per_dim=8, a_init=0.02, **kw)


class TestReplayEvolvedRun:
    """The 8^3 early input, evolved over six steps."""

    @pytest.mark.parametrize("traversal", ["hierarchical", "fmm-hybrid"])
    def test_every_step_equals_a_fresh_walk(self, traversal):
        """Each step's tree and moments, walked by the compiled walk and
        by the numpy oracle: the same lists; and the step's own stats are
        those of a solve over those lists."""
        steps = []

        def check(sim, rec):
            solver = sim._solver
            tree, moms, spec = solver.last_tree, solver.last_moments, solver.spec
            got = traverse_lists(
                tree, moms, traversal=traversal, periodic=True, ws=1, cc_xmax=spec.cc_xmax
            )
            assert_same_lists(got, oracle_walk(
                tree, moms, periodic=True, ws=1, m2l=traversal == "fmm-hybrid",
                cc_xmax=spec.cc_xmax,
            ))
            ref = solve_forces(tree, moms, spec)[0].stats
            for key in (
                "inherited_accepts", "leaf_accepts", "mac_tests", "interactions_by_family"
            ):
                assert sim.last_stats[key] == ref[key], key
            steps.append(got.mac_tests)

        Simulation(early_config(traversal=traversal)).run(max_steps=6, callback=check)
        assert len(steps) == 6 and min(steps) > 0

    def test_resume_from_step_3_is_bit_identical(self, tmp_path):
        """The resumed run walks the same trees: the same lists, so the
        same bits."""
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
        """Two pool shards' restricted walks make the serial run's forces."""
        ps_serial = Simulation(early_config()).run(max_steps=3)
        with Simulation(early_config(workers=2)) as pooled:
            ps = pooled.run(max_steps=3)
        np.testing.assert_array_equal(ps.pos, ps_serial.pos)
        np.testing.assert_array_equal(ps.mom, ps_serial.mom)

    def test_treepm_short_range_walk(self):
        """TreePM's solve prunes the walk's lists to its short range: the
        pruned lists of the compiled walk and of the numpy walk are the
        same, and the step's counts are theirs."""
        steps = []

        def check(sim, rec):
            solver = sim._solver
            tree, moms = solver.last_tree, solver.last_moments
            # the simulation's box is the unit box
            rcut = RCUT * ASMTH / solver.config.ngrid
            got = _prune_far(tree, moms, traverse_lists(tree, moms, periodic=True, ws=1), rcut)
            want = _prune_far(tree, moms, oracle_walk(tree, moms, periodic=True, ws=1), rcut)
            assert_same_lists(got, want)
            assert sim.last_stats["mac_tests"] == got.mac_tests
            assert sim.last_stats["interactions_by_family"]["pp"] == got.n_pp_interactions(tree)
            steps.append(len(got.leaf_src))

        Simulation(early_config(engine="treepm")).run(max_steps=3, callback=check)
        assert len(steps) == 3 and min(steps) > 0
