"""Tests for derivative tensors and the generated (metaprogrammed) kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multipoles import (
    ErfcKernel,
    NewtonianKernel,
    PlummerKernel,
    compiled_dtensor_function,
    derivative_tensors,
    dtensors_soa,
    generate_dtensor_source,
    multi_index_set,
    n_coeffs,
    recurrence_plan,
)


def finite_difference_tensor(f, x0, alpha, h=1e-3):
    """d^alpha f at x0 by nested central differences (low order, low h)."""

    def deriv(g, axis):
        def d(x):
            e = np.zeros(3)
            e[axis] = h
            return (g(x + e) - g(x - e)) / (2 * h)

        return d

    g = f
    for ax, k in enumerate(alpha):
        for _ in range(k):
            g = deriv(g, ax)
    return g(x0)


def generated_tensors(dx, kernel, p):
    """The generated routine (:func:`dtensors_soa`) in
    :func:`derivative_tensors`' (N, ncoeffs) layout."""
    g = kernel.radial_derivs(np.sqrt(np.einsum("ij,ij->i", dx, dx)), p)
    return dtensors_soa(dx[:, 0], dx[:, 1], dx[:, 2], g, p).T


def interpreted_levels(x, y, z, g, p, levels):
    """Walk ``recurrence_plan(p)`` in the dtype of the operands, every
    level up to max(levels); rows ``[R^L_alpha for L in levels]``."""
    mis, plan = recurrence_plan(p)
    axes = (x, y, z)
    top = max(levels)
    work = {(m, 0): g[m] for m in range(top + p + 1)}
    for tgt, i, idx1, idx2, fac in plan:
        for m in range(top + p - int(mis.order[tgt]), -1, -1):
            val = axes[i] * work[(m + 1, idx1)]
            if idx2 >= 0 and fac != 0.0:
                val += fac * work[(m + 1, idx2)]
            work[(m, tgt)] = val
    return np.stack([work[(lv, j)] for lv in levels for j in range(len(mis))])


class TestNewtonianTensors:
    def test_gradient(self):
        dx = np.array([[1.0, 2.0, -2.0]])
        mis = multi_index_set(1)
        d = derivative_tensors(dx, NewtonianKernel(), 1)
        r = 3.0
        # grad(1/r) = -x/r^3
        for ax, key in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            assert d[0, mis.index[key]] == pytest.approx(-dx[0, ax] / r**3)

    def test_laplacian_is_zero(self):
        """1/r is harmonic: D_(200) + D_(020) + D_(002) = 0."""
        rng = np.random.default_rng(3)
        dx = rng.normal(size=(20, 3))
        mis = multi_index_set(2)
        d = derivative_tensors(dx, NewtonianKernel(), 2)
        lap = (
            d[:, mis.index[(2, 0, 0)]]
            + d[:, mis.index[(0, 2, 0)]]
            + d[:, mis.index[(0, 0, 2)]]
        )
        assert np.allclose(lap, 0.0, atol=1e-12 * np.abs(d).max())

    def test_traces_vanish_at_high_order(self):
        """Contracting any two indices of d^n(1/r) gives zero (harmonicity
        propagates to all orders)."""
        dx = np.array([[0.7, -1.1, 0.4]])
        mis = multi_index_set(4)
        d = derivative_tensors(dx, NewtonianKernel(), 4)
        # contract two free x/y/z index pairs of the rank-4 tensor with
        # a remaining (2,0,0) pattern: sum over the repeated pair
        total = (
            d[0, mis.index[(4, 0, 0)]]
            + d[0, mis.index[(2, 2, 0)]]
            + d[0, mis.index[(2, 0, 2)]]
        )
        assert total == pytest.approx(0.0, abs=1e-10 * np.abs(d).max())

    @pytest.mark.parametrize(
        "alpha",
        [(1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 1, 1), (3, 0, 0), (2, 1, 0)],
    )
    def test_against_finite_differences(self, alpha):
        x0 = np.array([1.1, -0.7, 0.9])
        mis = multi_index_set(3)
        d = derivative_tensors(x0[None, :], NewtonianKernel(), 3)

        def f(x):
            return 1.0 / np.linalg.norm(x)

        fd = finite_difference_tensor(f, x0, alpha)
        got = d[0, mis.index[alpha]]
        assert got == pytest.approx(fd, rel=2e-4, abs=1e-6)

    def test_plummer_tensor_finite_everywhere(self):
        d = derivative_tensors(
            np.array([[0.0, 0.0, 0.0], [1e-8, 0, 0]]), PlummerKernel(0.2), 5
        )
        assert np.all(np.isfinite(d))

    def test_erfc_tensor_against_finite_differences(self):
        from scipy import special

        a = 1.4
        x0 = np.array([0.8, 0.5, -0.3])
        mis = multi_index_set(2)
        d = derivative_tensors(x0[None, :], ErfcKernel(a), 2)

        def f(x):
            r = np.linalg.norm(x)
            return special.erfc(a * r) / r

        for alpha in [(1, 0, 0), (0, 2, 0), (1, 0, 1)]:
            fd = finite_difference_tensor(f, x0, alpha)
            assert d[0, mis.index[alpha]] == pytest.approx(fd, rel=5e-4, abs=1e-7)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            derivative_tensors(np.zeros((3,)), NewtonianKernel(), 2)


class TestCodegen:
    def test_source_is_valid_python(self):
        src = generate_dtensor_source(4)
        compile(src, "<test>", "exec")

    def test_source_mentions_all_outputs(self):
        """Every output row is written, and only the declared scratch
        rows are touched (checked on the executed routine, not its text)."""
        p, n = 3, 7
        fn = compiled_dtensor_function(p)
        rng = np.random.default_rng(0)
        dx = rng.normal(size=(n, 3)) + np.array([3.0, 0, 0])
        g = NewtonianKernel().radial_derivs(np.linalg.norm(dx, axis=1), p)
        D = np.full((n_coeffs(p), n), np.nan)
        W = np.full((fn.n_scratch + 2, n), np.nan)
        assert fn(dx[:, 0], dx[:, 1], dx[:, 2], g, D, W) is D
        assert np.all(np.isfinite(D))
        assert np.all(np.isfinite(W[: fn.n_scratch]))
        assert np.all(np.isnan(W[fn.n_scratch :]))

    @pytest.mark.parametrize("sliced", [False, True], ids=["contiguous", "sliced"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "kernel", [NewtonianKernel(), ErfcKernel(0.8)], ids=["newton", "erfc"]
    )
    @pytest.mark.parametrize("p", [1, 2, 4, 6, 9])
    def test_soa_bit_identical_to_interpreted(self, p, kernel, dtype, sliced):
        """``D[nhi, N]`` equals the interpreted recurrence bit for bit:
        against ``derivative_tensors`` itself in float64, and against
        the same plan walked in float32 (the force kernel's precision)."""
        rng = np.random.default_rng(p)
        n = 40
        step = 2 if sliced else 1
        dx = rng.normal(size=(n * step, 3)) + np.array([3.0, 0, 0])
        g64 = kernel.radial_derivs(
            np.sqrt(np.einsum("ij,ij->i", dx, dx)), p
        )
        # sliced: strided x/y/z columns, every other column of g, D and W
        x, y, z = (dx[::step, i].astype(dtype) for i in range(3))
        if sliced:
            xyz = np.stack([x, y, z], axis=1)
            x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
        g = g64.astype(dtype)[:, ::step]
        fn = compiled_dtensor_function(p)
        D = np.empty((n_coeffs(p), n * step), dtype=dtype)[:, ::step]
        W = np.empty((fn.n_scratch, n * step), dtype=dtype)[:, ::step]
        fn(x, y, z, g, D, W)

        ref = interpreted_levels(x, y, z, g, p, (0,))
        assert D.dtype == ref.dtype == dtype
        assert np.array_equal(D, ref)
        if dtype is np.float64:
            assert np.array_equal(D.T, derivative_tensors(dx[::step], kernel, p))

    @pytest.mark.parametrize("p", [1, 2, 4, 6, 9])
    def test_generated_matches_interpreted(self, p):
        rng = np.random.default_rng(p)
        dx = rng.normal(size=(40, 3)) + np.array([3.0, 0, 0])
        a = derivative_tensors(dx, NewtonianKernel(), p)
        b = generated_tensors(dx, NewtonianKernel(), p)
        assert np.array_equal(a, b)  # bit-identical by construction

    def test_generated_with_erfc(self):
        dx = np.array([[1.0, 0.5, 0.25]])
        k = ErfcKernel(0.8)
        a = derivative_tensors(dx, k, 5)
        b = generated_tensors(dx, k, 5)
        assert np.array_equal(a, b)

    @given(
        st.floats(min_value=-3, max_value=3, allow_subnormal=False),
        st.floats(min_value=-3, max_value=3, allow_subnormal=False),
        st.floats(min_value=1.0, max_value=5.0, allow_subnormal=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_rotation_symmetry_xy(self, x, y, z):
        """Swapping x and y axes permutes the tensor components
        accordingly — a symmetry property of any radial kernel."""
        mis = multi_index_set(3)
        d1 = derivative_tensors(np.array([[x, y, z]]), NewtonianKernel(), 3)
        d2 = derivative_tensors(np.array([[y, x, z]]), NewtonianKernel(), 3)
        # components that vanish with x or y (|y| ~ 1e-244 is a legal
        # draw) carry only rounding residue: compare on the tensor's scale
        atol = 1e-12 * np.abs(d1).max()
        for (t, u, v) in [(1, 0, 0), (2, 1, 0), (1, 1, 1), (3, 0, 0)]:
            i = mis.index[(t, u, v)]
            j = mis.index[(u, t, v)]
            np.testing.assert_allclose(d1[0, i], d2[0, j], rtol=1e-12, atol=atol)


class TestRecurrencePlan:
    def test_smallest_nonzero_axis_ties_to_the_lowest(self):
        """One axis rule: the nonzero axis with the smallest alpha_i.
        alpha_i = 1 has no second term, alpha_i = 2 a factor of 1."""
        mis, plan = recurrence_plan(4)
        step = {tuple(mis.alphas[s[0]]): s for s in plan}

        def idx(*a):
            return mis.index[a]

        assert step[(3, 1, 0)][1:] == (1, idx(3, 0, 0), -1, 0.0)
        assert step[(1, 0, 3)][1:] == (0, idx(0, 0, 3), -1, 0.0)
        assert step[(2, 2, 0)][1:] == (0, idx(1, 2, 0), idx(0, 2, 0), 1.0)
        assert step[(0, 2, 2)][1:] == (1, idx(0, 1, 2), idx(0, 0, 2), 1.0)
        assert step[(1, 1, 2)][1:] == (0, idx(0, 1, 2), -1, 0.0)
        assert step[(0, 0, 4)][1:] == (2, idx(0, 0, 3), idx(0, 0, 2), 3.0)
        # a constant multiply survives only on the pure-axis-power tail
        assert sum(s[4] > 1.0 for s in plan) == 6


class TestCodegenLevels:
    """The demand-driven generator, every order.  (One level: 0 is the
    only one the generator has emitted since its ``levels`` parameter
    went; the interpreted reference still walks any.)"""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("levels", [(0,)])
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5, 6])
    def test_every_level_bit_identical_to_interpreted(self, p, levels, dtype):
        rng = np.random.default_rng(10 * p + len(levels))
        n = 33
        dx = rng.normal(size=(n, 3)) + np.array([0.0, -3.0, 0.0])
        g = ErfcKernel(0.6).radial_derivs(np.linalg.norm(dx, axis=1), p)
        g = g.astype(dtype)
        x, y, z = (np.ascontiguousarray(dx[:, i]).astype(dtype) for i in range(3))
        fn = compiled_dtensor_function(p)
        D = np.full((n_coeffs(p), n), np.nan, dtype=dtype)
        W = np.full((fn.n_scratch + 1, n), np.nan, dtype=dtype)
        assert fn(x, y, z, g, D, W) is D
        assert np.array_equal(D, interpreted_levels(x, y, z, g, p, levels))
        assert np.all(np.isnan(W[fn.n_scratch :]))

    def test_statement_counts_pinned(self):
        """Hand-checkable: a generator regression is a failed equality,
        not a slower benchmark.  p = 1: three x_i g_1.  p = 2: 3 + 3
        first-order rows at levels 1 and 0, three mixed second-order
        rows (one multiply), three pure ones (multiply + add)."""
        def ops(p):
            return compiled_dtensor_function(p).n_ops

        assert [ops(p) for p in (0, 1, 2)] == [0, 3, 15]
        assert (ops(4), ops(5), ops(6)) == (88, 163, 274)
        src = generate_dtensor_source(4)
        by_axis = sum(src.count(f"mul({ax}, ") for ax in "xyz")
        assert (by_axis, src.count("mul(") - by_axis, src.count("add(")) == (58, 9, 21)
        assert compiled_dtensor_function(4).n_scratch == 15


KERNELS = [NewtonianKernel(), PlummerKernel(0.3), ErfcKernel(0.9)]


class TestLevelContraction:
    """Force and potential of a particle-cell interaction from the
    polynomials P_k of ``repro.multipoles.hermite``, as the compiled row
    evaluates them — the moment matrix's b_{k,gamma} read through the
    scaled monomials X_gamma = x^gamma / gamma! at x itself, and
    d_i P_k through X_{gamma - e_i}:
    sum_a wm_a D_{a+e_i} = x_i S + T_i,  S = sum_k g_{k+1} P_k (the
    level-1 chain),  T_i = sum_k g_k d_i P_k,  phi = sum_k g_k P_k."""

    def contract(self, dx, kernel, moments, p):
        from repro.multipoles.hermite import field_table

        n = len(dx)
        tab = field_table(p)
        mis = multi_index_set(p)
        wm = (moments * ((-1.0) ** mis.order) / mis.factorial).T
        b = tab.matrix @ moments.T
        # X with a spare zero column, and each column's gamma - e_i in it
        X = np.zeros((n, len(mis) + 1))
        X[:, :-1] = mis.powers(dx) / mis.factorial
        lowered = [
            [mis.index[tuple(g - np.eye(3, dtype=int)[i])] if g[i] else len(mis)
             for g in mis.alphas]
            for i in range(3)
        ]
        g = kernel.radial_derivs(np.linalg.norm(dx, axis=1), p + 1)
        x = np.ascontiguousarray(dx.T)
        pot, S, T = g[0] * b[0], g[1] * b[0], np.zeros((3, n))
        for k in range(1, p + 1):
            rows = slice(tab.offsets[k], tab.offsets[k + 1])
            cols = slice(0, n_coeffs(k))
            P = np.einsum("nk,kn->n", X[:, cols], b[rows])
            dP = [np.einsum("nk,kn->n", X[:, lowered[i][cols]], b[rows]) for i in range(3)]
            pot = pot + g[k] * P
            S = S + g[k + 1] * P
            T += g[k] * np.array(dP)
        return x * S + T, pot, wm

    @pytest.mark.parametrize("kernel", KERNELS, ids=["newton", "plummer", "erfc"])
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5, 6])
    def test_matches_the_order_p_plus_1_tensor(self, p, kernel):
        rng = np.random.default_rng(p)
        n = 50
        dx = rng.normal(size=(n, 3)) + np.array([0.5, 0.0, 2.0])
        mis, hi = multi_index_set(p), multi_index_set(p + 1)
        acc, pot, wm = self.contract(dx, kernel, rng.normal(size=(n, len(mis))), p)
        D = derivative_tensors(dx, kernel, p + 1).T
        for i in range(3):
            up = mis.alphas.copy()
            up[:, i] += 1
            cols = [hi.index[tuple(int(k) for k in a)] for a in up]
            ref = np.einsum("an,an->n", wm, D[cols])
            assert np.abs(acc[i] - ref).max() <= 1e-13 * np.abs(ref).max()
        ref = np.einsum("an,an->n", wm, D[: len(mis)])
        assert np.abs(pot - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_monopole_has_no_shifted_block(self):
        """p = 0: acc = x M g_1, pot = M g_0 — one coefficient, no
        monomial but the constant, and no generated monomial at all."""
        from repro.multipoles.codegen import _field_program
        from repro.multipoles.hermite import field_table

        dx = np.array([[1.0, 2.0, -2.0], [0.0, 0.0, 4.0]])
        m = np.array([[2.0], [3.0]])
        acc, pot, wm = self.contract(dx, NewtonianKernel(), m, 0)
        r = np.array([3.0, 4.0])
        assert np.array_equal(wm, m.T)
        assert field_table(0).matrix.tolist() == [[1.0]]
        assert "real X" not in _field_program(0)[2]
        np.testing.assert_allclose(pot, m[:, 0] / r, rtol=1e-15)
        np.testing.assert_allclose(acc, -dx.T * m[:, 0] / r**3, rtol=1e-15)

    def test_dipole_by_hand(self):
        """p = 1: P_0 = wm_0, P_1 = wm_1 . x, so S = wm_0 g_1 +
        (wm_1 . x) g_2 and T_i = wm_{e_i} g_1, with wm_0 = M_0,
        wm_{e_i} = -M_{e_i}."""
        dx = np.array([[1.0, 2.0, -2.0]])
        mom = np.array([[2.0, 0.3, -0.5, 0.7]])
        g0, g1, g2 = 1 / 3.0, -1 / 27.0, 3 / 243.0
        acc, pot, wm = self.contract(dx, NewtonianKernel(), mom, 1)
        assert np.array_equal(wm[:, 0], [2.0, -0.3, 0.5, -0.7])
        d = wm[1:, 0]
        S = 2.0 * g1 + (d @ dx[0]) * g2
        np.testing.assert_allclose(acc[:, 0], dx[0] * S + d * g1, rtol=1e-14)
        np.testing.assert_allclose(pot[0], 2.0 * g0 + (d @ dx[0]) * g1, rtol=1e-14)
