"""Tests for multi-index bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multipoles import multi_index_set, n_coeffs


def n_order(n: int) -> int:
    """Multi-indices with |alpha| == n: the rank-n symmetric tensor's terms."""
    s = multi_index_set(n).slice_of_order(n)
    return s.stop - s.start


class TestCounting:
    @pytest.mark.parametrize("p,expected", [(0, 1), (1, 4), (2, 10), (4, 35), (8, 165)])
    def test_n_coeffs(self, p, expected):
        assert n_coeffs(p) == expected

    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 3), (2, 6), (8, 45)])
    def test_n_coeffs_order(self, n, expected):
        assert n_order(n) == expected

    def test_paper_p8_force_terms(self):
        """§2.2.2: 'the expression for the force with p = 8 ... begins
        with 3^8 = 6561 terms', which symmetry reduces to 45 independent
        rank-8 components."""
        assert 3**8 == 6561
        assert n_order(8) == 45


class TestMultiIndexSet:
    def test_enumeration_ordered_by_total_order(self):
        mis = multi_index_set(5)
        assert np.all(np.diff(mis.order) >= 0)

    def test_prefix_property(self):
        """The packed layout for order p is a prefix of that for p+1 —
        relied on by the derivative-tensor recurrence."""
        lo = multi_index_set(4)
        hi = multi_index_set(6)
        assert np.array_equal(lo.alphas, hi.alphas[: len(lo)])

    def test_index_roundtrip(self):
        mis = multi_index_set(6)
        for i, a in enumerate(mis.alphas):
            assert mis.index[tuple(int(x) for x in a)] == i

    def test_packed_index_is_the_enumeration(self):
        """The closed form against the table, for every alpha of the
        largest set the library builds (p_source + p_local + 1 = 15)
        and in any leading shape."""
        mis = multi_index_set(15)
        table = np.array([mis.index[tuple(a)] for a in mis.alphas.tolist()])
        assert np.array_equal(mis.packed_index(mis.alphas), table)
        assert np.array_equal(table, np.arange(len(mis)))
        grid = mis.alphas[:680].reshape(8, 85, 3)
        assert np.array_equal(mis.packed_index(grid), np.arange(680).reshape(8, 85))
        assert mis.packed_index((2, 1, 1)) == mis.index[(2, 1, 1)]
        # the sums and differences the index tables are made of
        lo = multi_index_set(6)
        pair = lo.alphas[:, None, :] + lo.alphas[None, :, :]
        want = [[multi_index_set(12).index[tuple(c)] for c in row] for row in pair.tolist()]
        assert np.array_equal(multi_index_set(12).packed_index(pair), want)

    def test_packed_index_outside_the_set_raises(self):
        """|alpha| > p or a negative component would name another
        coefficient's slot (or one past the end): an error, not an alias."""
        mis = multi_index_set(4)
        for bad in [(5, 0, 0), (2, 2, 1), (-1, 2, 0), (3, -1, 1), (0, 0, -1)]:
            with pytest.raises(ValueError):
                mis.packed_index(np.array([[1, 1, 1], bad]))
        with pytest.raises(ValueError):
            mis.packed_index(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            mis.packed_index(np.array([[1, 0], [0, 1]]))
        assert mis.packed_index(np.empty((0, 3), dtype=np.int64)).shape == (0,)

    def test_factorials(self):
        mis = multi_index_set(4)
        i = mis.index[(2, 1, 1)]
        assert mis.factorial[i] == math.factorial(2)

    def test_multinomial_sum(self):
        """sum over |alpha| = n of n!/alpha! = 3^n (trinomial theorem)."""
        mis = multi_index_set(8)
        for n in range(9):
            sl = mis.slice_of_order(n)
            assert mis.multinomial[sl].sum() == pytest.approx(3.0**n)

    def test_slice_of_order_bounds(self):
        mis = multi_index_set(3)
        with pytest.raises(ValueError):
            mis.slice_of_order(4)

    def test_powers_values(self):
        mis = multi_index_set(3)
        d = np.array([2.0, 3.0, 5.0])
        mono = mis.powers(d)
        i = mis.index[(1, 1, 1)]
        assert mono[i] == pytest.approx(30.0)
        j = mis.index[(3, 0, 0)]
        assert mono[j] == pytest.approx(8.0)

    def test_powers_batched(self):
        mis = multi_index_set(2)
        d = np.ones((4, 3))
        assert mis.powers(d).shape == (4, len(mis))

    @given(st.integers(min_value=0, max_value=8))
    @settings(max_examples=9, deadline=None)
    def test_length_matches_formula(self, p):
        assert len(multi_index_set(p)) == n_coeffs(p)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            multi_index_set(-1)

    def test_translation_table_shapes(self):
        mis = multi_index_set(3)
        tgt, src, shift, binom = mis.translation_table
        assert len(tgt) == len(src) == len(shift) == len(binom)
        # identity entries: beta = alpha with binom 1
        ident = (src == tgt[np.arange(len(tgt))]) & (shift == 0)
        assert np.all(binom[ident] == 1.0)
