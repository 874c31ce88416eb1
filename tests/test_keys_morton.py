"""Tests for WS93 Morton keys and cell geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.keys import (
    KEY_BITS,
    ROOT_KEY,
    ancestor_key,
    cell_geometry,
    compact_bits,
    key_level,
    keys_from_positions,
    parent_key,
    positions_from_keys,
    spread_bits,
)


class TestBitSpreading:
    def test_roundtrip_exhaustive_low(self):
        v = np.arange(4096, dtype=np.uint64)
        assert np.array_equal(compact_bits(spread_bits(v)), v)

    def test_spread_is_every_third_bit(self):
        s = spread_bits(np.array([0b111], dtype=np.uint64))[()]
        assert s == 0b1001001

    @given(st.integers(min_value=0, max_value=(1 << 21) - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, v):
        arr = np.array([v], dtype=np.uint64)
        assert compact_bits(spread_bits(arr))[0] == v


class TestKeys:
    def test_placeholder_bit(self):
        k = keys_from_positions(np.array([[0.0, 0.0, 0.0]]))
        assert k[0] == np.uint64(1) << np.uint64(63)

    def test_level_of_body_keys(self):
        k = keys_from_positions(np.random.default_rng(0).random((10, 3)))
        assert np.all(key_level(k) == KEY_BITS)

    def test_roundtrip_within_cell(self):
        rng = np.random.default_rng(1)
        pos = rng.random((5000, 3))
        back = positions_from_keys(keys_from_positions(pos))
        assert np.abs(back - pos).max() <= 1.0 / (1 << KEY_BITS)

    def test_box_scaling(self):
        pos = np.array([[50.0, 25.0, 75.0]])
        k100 = keys_from_positions(pos, box=100.0)
        k1 = keys_from_positions(pos / 100.0, box=1.0)
        assert np.array_equal(k100, k1)

    def test_sorted_keys_follow_z_order(self):
        """Keys sort first on the highest octant digit."""
        pos = np.array([[0.1, 0.1, 0.1], [0.9, 0.1, 0.1], [0.1, 0.1, 0.9]])
        k = keys_from_positions(pos)
        # octant digits: x-low bit = x>=0.5
        d = (k >> np.uint64(60)) & np.uint64(7)
        assert list(d) == [0b000, 0b001, 0b100]

    def test_edge_clamp(self):
        k = keys_from_positions(np.array([[1.0, 1.0, 1.0]]) - 1e-18)
        assert key_level(k)[0] == KEY_BITS  # valid key, not overflowed

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            keys_from_positions(np.zeros(3))


def children(key) -> np.ndarray:
    """The 8 child keys of a cell key: ``key*8 + 0..7``."""
    return (np.uint64(key) << np.uint64(3)) | np.arange(8, dtype=np.uint64)


class TestHierarchy:
    def test_parent_of_children(self):
        kids = children(np.uint64(9))
        assert np.all(parent_key(kids) == 9)

    def test_root(self):
        assert key_level(np.array([ROOT_KEY]))[0] == 0

    def test_ancestor(self):
        pos = np.array([[0.3, 0.7, 0.2]])
        k = keys_from_positions(pos)
        assert ancestor_key(k, 0)[0] == ROOT_KEY
        lvl5 = ancestor_key(k, 5)
        assert key_level(lvl5)[0] == 5

    def test_ancestor_contains_position(self):
        pos = np.array([[0.3, 0.7, 0.2]])
        k = keys_from_positions(pos)
        for lvl in (1, 3, 7):
            a = ancestor_key(k, lvl)
            c, s = cell_geometry(a)
            assert np.all(np.abs(pos - c) <= s / 2 + 1e-12)


class TestCellGeometry:
    def test_root_geometry(self):
        c, s = cell_geometry(np.array([ROOT_KEY]))
        assert s[0] == 1.0
        np.testing.assert_allclose(c[0], [0.5, 0.5, 0.5])

    def test_children_tile_parent(self):
        kids = children(ROOT_KEY)
        c, s = cell_geometry(kids)
        assert np.all(s == 0.5)
        # centers are the 8 quarter-points
        expect = {(0.25, 0.25, 0.25), (0.75, 0.75, 0.75)}
        got = {tuple(row) for row in c}
        assert expect <= got
        assert len(got) == 8

    def test_box_argument(self):
        c, s = cell_geometry(np.array([ROOT_KEY]), box=250.0)
        assert s[0] == 250.0
        np.testing.assert_allclose(c[0], [125.0, 125.0, 125.0])
