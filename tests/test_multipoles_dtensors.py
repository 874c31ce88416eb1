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
    derivative_tensors_generated,
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

        mis, plan = recurrence_plan(p)
        axes = (x, y, z)
        work = {(m, 0): g[m] for m in range(p + 1)}
        for tgt, i, idx1, idx2, fac in plan:
            for m in range(p - int(mis.order[tgt]), -1, -1):
                val = axes[i] * work[(m + 1, idx1)]
                if idx2 >= 0 and fac != 0.0:
                    val += fac * work[(m + 1, idx2)]
                work[(m, tgt)] = val
        ref = np.stack([work[(0, j)] for j in range(len(mis))])
        assert D.dtype == ref.dtype == dtype
        assert np.array_equal(D, ref)
        if dtype is np.float64:
            assert np.array_equal(D.T, derivative_tensors(dx[::step], kernel, p))

    @pytest.mark.parametrize("p", [1, 2, 4, 6, 9])
    def test_generated_matches_interpreted(self, p):
        rng = np.random.default_rng(p)
        dx = rng.normal(size=(40, 3)) + np.array([3.0, 0, 0])
        a = derivative_tensors(dx, NewtonianKernel(), p)
        b = derivative_tensors_generated(dx, NewtonianKernel(), p)
        assert np.array_equal(a, b)  # bit-identical by construction

    def test_generated_with_erfc(self):
        dx = np.array([[1.0, 0.5, 0.25]])
        k = ErfcKernel(0.8)
        a = derivative_tensors(dx, k, 5)
        b = derivative_tensors_generated(dx, k, 5)
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
