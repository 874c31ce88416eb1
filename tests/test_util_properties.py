"""Property-based tests for shared utilities and cross-module invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import expand_ranges

from .oracle import cell_leaf_csr, m2m


class TestExpandRanges:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive(self, pairs):
        starts = np.array([p[0] for p in pairs], dtype=np.int64)
        counts = np.array([p[1] for p in pairs], dtype=np.int64)
        got = expand_ranges(starts, counts)
        expect = np.concatenate(
            [np.arange(s, s + c) for s, c in pairs] or [np.empty(0, dtype=np.int64)]
        )
        np.testing.assert_array_equal(got, expect)

    def test_empty(self):
        assert len(expand_ranges(np.empty(0), np.empty(0))) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            expand_ranges(np.array([0]), np.array([-1]))


class TestTreeTraversalProperty:
    @given(st.integers(min_value=30, max_value=400), st.integers(min_value=0, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_mass_partition_per_sink(self, n, seed):
        """For arbitrary particle sets, every sink leaf's interaction
        lists account for exactly the total mass of the box."""
        from repro.tree import build_tree, compute_moments, traverse_hierarchical

        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3))
        mass = rng.random(n) + 0.1
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-4)
        inter = traverse_hierarchical(tree, moms)
        per_sink: dict = {}
        cell_src, _, cell_indptr = cell_leaf_csr(tree, inter)
        cell_sink = np.repeat(inter.sink_leaves, np.diff(cell_indptr))
        for sink, src in zip(
            np.concatenate([cell_sink, inter.leaf_sink]),
            np.concatenate([cell_src, inter.leaf_src]),
        ):
            s, c = tree.cell_start[src], tree.cell_count[src]
            per_sink[sink] = per_sink.get(sink, 0.0) + tree.mass[s : s + c].sum()
        for sink, m in per_sink.items():
            assert m == pytest.approx(mass.sum(), rel=1e-9)


class TestCommConservation:
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_alltoall_bytes_conserved(self, p, seed):
        from repro.parallel import SimComm

        rng = np.random.default_rng(seed)
        send = [
            [rng.integers(0, 9, size=rng.integers(0, 8)).astype(np.int8) for _ in range(p)]
            for _ in range(p)
        ]
        comm = SimComm(p)
        recv = comm.alltoallv(send)
        for i in range(p):
            for j in range(p):
                np.testing.assert_array_equal(recv[j][i], send[i][j])


class TestFOFPermutationProperty:
    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=5, deadline=None)
    def test_group_masses_invariant(self, seed):
        from repro.analysis import fof_halos

        rng = np.random.default_rng(seed)
        c = rng.random((4, 3))
        pos = (c[rng.integers(0, 4, 600)] + 0.01 * rng.standard_normal((600, 3))) % 1.0
        mass = rng.random(600) + 0.5
        a = fof_halos(pos, mass, min_members=30)
        perm = rng.permutation(600)
        b = fof_halos(pos[perm], mass[perm], min_members=30)
        np.testing.assert_allclose(np.sort(a.masses), np.sort(b.masses))


class TestM2MFuzz:
    @given(
        st.floats(min_value=-2, max_value=2, allow_subnormal=False),
        st.floats(min_value=-2, max_value=2, allow_subnormal=False),
        st.floats(min_value=-2, max_value=2, allow_subnormal=False),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_translation_exactness_random_offsets(self, dx, dy, dz, p):
        from repro.multipoles import p2m

        rng = np.random.default_rng(1)
        pos = rng.random((40, 3))
        mass = rng.random(40)
        d = np.array([dx, dy, dz])
        direct = p2m(pos, mass, -d, p)
        translated = m2m(p2m(pos, mass, np.zeros(3), p), d, p)
        scale = np.abs(direct).max() + 1e-30
        np.testing.assert_allclose(translated, direct, atol=2e-10 * scale)
