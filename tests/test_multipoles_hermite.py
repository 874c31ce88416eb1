"""The multipole field as radial functions times polynomials: the
Hermite table, the moment matrix built from it, and the generated
polynomial shift (``repro.multipoles.hermite`` / ``codegen``)."""

import numpy as np
import pytest

from repro.multipoles import (
    ErfcKernel,
    NewtonianKernel,
    PlummerKernel,
    derivative_tensors,
    multi_index_set,
    n_coeffs,
)
from repro.multipoles.codegen import compiled_shift_function, generate_shift_source
from repro.multipoles.hermite import field_table, hermite_table, shift_plan

KERNELS = [NewtonianKernel(), PlummerKernel(0.3), ErfcKernel(0.9)]


def eval_poly(poly, x):
    """sum_beta c_beta x^beta for ``{beta: c}`` at the rows of ``x``."""
    out = np.zeros(len(x))
    for beta, c in poly.items():
        out += c * np.prod(x ** np.array(beta), axis=1)
    return out


class TestHermiteTable:
    def test_by_hand_through_order_two(self):
        """D_0 = g_0; D_x = x g_1; D_xx = g_1 + x^2 g_2; D_xy = x y g_2."""
        mis = multi_index_set(2)
        h = hermite_table(2)

        def at(*alpha):
            return h[mis.index[alpha]]

        assert at(0, 0, 0) == {0: {(0, 0, 0): 1}}
        assert at(1, 0, 0) == {1: {(1, 0, 0): 1}}
        assert at(0, 0, 1) == {1: {(0, 0, 1): 1}}
        assert at(2, 0, 0) == {1: {(0, 0, 0): 1}, 2: {(2, 0, 0): 1}}
        assert at(0, 2, 0) == {1: {(0, 0, 0): 1}, 2: {(0, 2, 0): 1}}
        assert at(1, 1, 0) == {2: {(1, 1, 0): 1}}
        assert at(0, 1, 1) == {2: {(0, 1, 1): 1}}

    def test_closed_form(self):
        """h_{alpha,k} is a product of one-dimensional Hermite-like
        polynomials: the coefficient of x^(alpha - 2 j) is
        prod_i alpha_i! / (j_i! (alpha_i - 2 j_i)! 2^j_i), in the order
        k = |alpha| - |j|; degree 2k - |alpha| throughout."""
        from math import factorial as f

        p = 6
        mis = multi_index_set(p)
        for alpha, by_k in zip(mis.alphas.tolist(), hermite_table(p)):
            want: dict = {}
            for jx in range(alpha[0] // 2 + 1):
                for jy in range(alpha[1] // 2 + 1):
                    for jz in range(alpha[2] // 2 + 1):
                        j = (jx, jy, jz)
                        c = 1
                        for a, ji in zip(alpha, j):
                            c *= f(a) // (f(ji) * f(a - 2 * ji) * 2**ji)
                        beta = tuple(a - 2 * ji for a, ji in zip(alpha, j))
                        want.setdefault(sum(alpha) - sum(j), {})[beta] = c
            assert by_k == want
            for k, poly in by_k.items():
                assert {sum(beta) for beta in poly} == {2 * k - sum(alpha)}

    @pytest.mark.parametrize("kernel", KERNELS, ids=["newton", "plummer", "erfc"])
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5, 6])
    def test_sums_to_the_derivative_tensor(self, p, kernel):
        """sum_k g_k(r) h_{alpha,k}(x) == D_alpha(x) for every alpha."""
        rng = np.random.default_rng(p)
        x = rng.normal(size=(40, 3)) + np.array([0.5, 0.0, 2.0])
        g = kernel.radial_derivs(np.linalg.norm(x, axis=1), p)
        D = derivative_tensors(x, kernel, p)
        for j, by_k in enumerate(hermite_table(p)):
            got = sum(g[k] * eval_poly(poly, x) for k, poly in by_k.items())
            assert np.abs(got - D[:, j]).max() <= 1e-13 * np.abs(D[:, j]).max()

    def test_layout_of_the_moment_matrix(self):
        """p = 4: 1 + 4 + 10 + 20 + 35 = 70 rows, of which 1 + 4 + 10 +
        16 + 15 = 46 carry a coefficient before the shift (degrees
        2k - p .. k of P_k), in three runs a gather can fetch."""
        tab = field_table(4)
        assert tab.offsets.tolist() == [0, 1, 5, 15, 35, 70]
        assert tab.matrix.shape == (70, 35)
        per_k = [int(tab.filled[a:b].sum()) for a, b in zip(tab.offsets, tab.offsets[1:])]
        assert per_k == [1, 4, 10, 16, 15]
        assert tab.segments == ((0, 15), (19, 35), (55, 70))
        assert [int(field_table(p).filled.sum()) for p in (0, 1, 2, 3)] == [1, 4, 11, 24]
        # P_0 is the monopole; P_1's linear part is minus the dipole
        mis = multi_index_set(4)
        assert tab.matrix[0].tolist() == [1.0] + [0.0] * 34
        x_of_p1 = tab.offsets[1] + mis.index[(1, 0, 0)]
        assert tab.matrix[x_of_p1, :4].tolist() == [0.0, -1.0, 0.0, 0.0]
        # the trace of the quadrupole is the constant of P_1
        row = tab.matrix[tab.offsets[1] + mis.index[(0, 0, 0)]]
        assert {tuple(mis.alphas[j]): row[j] for j in np.flatnonzero(row)} == {
            (2, 0, 0): 0.5, (0, 2, 0): 0.5, (0, 0, 2): 0.5
        }


def interpreted_shift(d, Q, p):
    """Walk ``shift_plan(p)`` in the dtype of the operands."""
    Q = Q.copy()
    power = {(axis, 1): d[axis] for axis in range(3)}
    for axis in range(3):
        for j in range(2, p + 1):
            power[(axis, j)] = (power[(axis, j - 1)] * d[axis]) * Q.dtype.type(1.0 / j)
    for dst, src, axis, j, fresh in shift_plan(p):
        term = power[(axis, j)] * Q[src]
        Q[dst] = term if fresh else Q[dst] + term
    return Q


class TestShift:
    def direct(self, b, tab, x, k):
        """P_k(x) = sum_beta b_{k,beta} x^beta / beta! from unshifted rows."""
        mis = multi_index_set(tab.p)
        rows = slice(tab.offsets[k], tab.offsets[k + 1])
        X = mis.powers(x)[:, : n_coeffs(k)] / mis.factorial[: n_coeffs(k)]
        return np.einsum("nk,kn->n", X, b[rows])

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5, 6])
    def test_an_identity_not_a_series(self, p):
        """P_k(delta + d) read off the shifted rows equals P_k evaluated
        directly, for shifts shorter *and longer* than delta — nothing
        is truncated, so nothing converges or diverges."""
        rng = np.random.default_rng(p)
        n = 64
        tab = field_table(p)
        b = tab.matrix @ rng.normal(size=(n_coeffs(p), n))
        delta = rng.normal(size=(n, 3))
        d = rng.normal(size=(n, 3)) * np.repeat([0.05, 1.0, 20.0, 1.0], n // 4)[:, None]
        ratio = np.linalg.norm(delta, axis=1) / np.linalg.norm(d, axis=1)
        assert ratio.min() < 0.1 and ratio.max() > 10
        Q = b.copy()
        Q[~tab.filled] = np.nan
        shift = compiled_shift_function(p)
        assert shift(np.ascontiguousarray(d.T), Q, np.empty((shift.n_scratch, n))) is Q
        assert np.all(np.isfinite(Q))
        for k in range(p + 1):
            got = self.direct(Q, tab, delta, k)
            # the scale of the sum: its terms before any cancellation
            scale = self.direct(np.abs(b), tab, np.abs(delta) + np.abs(d), k)
            assert np.all(np.abs(got - self.direct(b, tab, delta + d, k)) <= 1e-13 * scale)
            # d_gamma P_k(d) by name: the constant row is P_k(d) itself
            assert np.allclose(Q[tab.offsets[k]], self.direct(b, tab, d, k), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 6])
    def test_generated_is_the_interpreted_plan_walk(self, p, dtype):
        rng = np.random.default_rng(p)
        n = 37
        tab = field_table(p)
        d = rng.normal(size=(3, n)).astype(dtype)
        Q = (tab.matrix @ rng.normal(size=(n_coeffs(p), n))).astype(dtype)
        Q[~tab.filled] = 0
        want = interpreted_shift(d, Q, p)
        shift = compiled_shift_function(p)
        W = np.full((shift.n_scratch + 1, n), np.nan, dtype=dtype)
        got = Q.copy()
        got[~tab.filled] = np.nan
        shift(d, got, W)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        assert np.all(np.isnan(W[shift.n_scratch :]))

    def test_statement_counts_pinned(self):
        """p = 1: the constant of P_1 picks up d . (its three linear
        coefficients): 3 steps, the first one stores.  p = 4: 152
        multiply-adds — a direct gamma-by-gamma sum has 193, and 405
        statements — of which 24 store into an empty row, plus 2
        statements for each of the 9 rows d_i^j / j!, j = 2..4."""
        assert [len(shift_plan(p)) for p in range(5)] == [0, 3, 17, 58, 152]
        assert sum(step[4] for step in shift_plan(4)) == 24 == 70 - 46
        assert [compiled_shift_function(p).n_ops for p in range(5)] == [0, 5, 36, 117, 298]
        assert compiled_shift_function(4).n_ops == 2 * 152 - 24 + 2 * 9
        assert compiled_shift_function(4).n_scratch == 9 + 1
        src = generate_shift_source(4)
        assert (src.count("mul("), src.count("add(")) == (152 + 18, 152 - 24)
        assert shift_plan(1) == ((1, 2, 0, 1, True), (1, 3, 1, 1, False), (1, 4, 2, 1, False))
