"""Tests for radial kernel derivative chains."""

import numpy as np
import pytest
from scipy import special

from repro.multipoles import ErfcKernel, ErfKernel, NewtonianKernel, PlummerKernel


def numeric_chain(f, r, mmax, h=2e-3):
    # note: each nesting level amplifies roundoff by 1/h, so h must stay
    # large enough that eps/h^mmax remains small
    """Numerically build g_{m+1} = (1/r) g_m' by nested differencing."""
    out = [f(r)]
    g = f
    for _ in range(mmax):
        prev = g

        def g(x, prev=prev):
            return (prev(x + h) - prev(x - h)) / (2 * h) / x

        out.append(g(r))
    return np.array(out)


class TestNewtonian:
    def test_g0(self):
        k = NewtonianKernel()
        r = np.array([0.5, 1.0, 2.0])
        assert np.allclose(k.radial_derivs(r, 0)[0], 1.0 / r)

    def test_double_factorial_form(self):
        k = NewtonianKernel()
        r = np.array([1.3, 2.7])
        g = k.radial_derivs(r, 4)
        # g_m = (-1)^m (2m-1)!! r^{-(2m+1)}
        for m, df in enumerate([1, 1, 3, 15, 105]):
            assert np.allclose(g[m], (-1) ** m * df * r ** -(2 * m + 1))

    def test_matches_numerical_derivatives(self):
        k = NewtonianKernel()
        r = np.array([1.5])
        num = numeric_chain(lambda x: 1.0 / x, r, 2)
        assert np.allclose(k.radial_derivs(r, 2), num, rtol=1e-3)


class TestPlummer:
    def test_reduces_to_newtonian_at_zero_eps(self):
        r = np.array([0.7, 1.9])
        a = PlummerKernel(0.0).radial_derivs(r, 3)
        b = NewtonianKernel().radial_derivs(r, 3)
        assert np.allclose(a, b)

    def test_finite_at_origin(self):
        k = PlummerKernel(0.1)
        g = k.radial_derivs(np.array([0.0]), 2)
        assert np.all(np.isfinite(g))
        assert g[0, 0] == pytest.approx(10.0)

    def test_matches_numerical(self):
        eps = 0.3
        k = PlummerKernel(eps)
        r = np.array([0.9])
        num = numeric_chain(lambda x: 1.0 / np.sqrt(x * x + eps * eps), r, 2)
        assert np.allclose(k.radial_derivs(r, 2), num, rtol=1e-3)


class TestErfFamily:
    def test_erfc_g0(self):
        k = ErfcKernel(2.0)
        r = np.array([0.4, 1.1])
        assert np.allclose(k.radial_derivs(r, 0)[0], special.erfc(2.0 * r) / r)

    def test_erfc_matches_numerical(self):
        a = 1.7
        k = ErfcKernel(a)
        r = np.array([0.8])
        num = numeric_chain(lambda x: special.erfc(a * x) / x, r, 3)
        got = k.radial_derivs(r, 3)
        assert np.allclose(got, num, rtol=1e-3)

    def test_erf_matches_numerical(self):
        a = 1.3
        k = ErfKernel(a)
        r = np.array([0.9])
        num = numeric_chain(lambda x: special.erf(a * x) / x, r, 3)
        got = k.radial_derivs(r, 3)
        assert np.allclose(got, num, rtol=1e-3)

    def test_split_sums_to_newtonian(self):
        """erf(ar)/r + erfc(ar)/r = 1/r at every derivative level — the
        exactness of the Ewald / TreePM force split."""
        a = 0.9
        r = np.array([0.5, 1.0, 3.0])
        tot = ErfKernel(a).radial_derivs(r, 5) + ErfcKernel(a).radial_derivs(r, 5)
        newton = NewtonianKernel().radial_derivs(r, 5)
        assert np.allclose(tot, newton, rtol=1e-12, atol=1e-12)

    def test_erfc_decays_fast(self):
        k = ErfcKernel(2.0)
        g = k.radial_derivs(np.array([5.0]), 0)
        assert abs(g[0, 0]) < 1e-20

    def test_chain_caching_extends(self):
        k = ErfcKernel(1.0)
        k.radial_derivs(np.array([1.0]), 2)
        out = k.radial_derivs(np.array([1.0]), 6)
        assert out.shape == (7, 1)


KERNELS = {
    "newtonian": NewtonianKernel(),
    "plummer": PlummerKernel(0.05),
    "erfc": ErfcKernel(1.5),
    "erf": ErfKernel(1.5),
}
MMAX = 5  # p + 1 at the production order


def in_units(kernel, u):
    """The kernel of the same family that describes ``kernel`` when
    lengths are measured in units of ``u``: g(r) = G'(r / u) / u."""
    if isinstance(kernel, PlummerKernel):
        return PlummerKernel(kernel.eps / u)
    if isinstance(kernel, (ErfcKernel, ErfKernel)):
        return type(kernel)(kernel.alpha * u)
    return kernel


class TestWorkingPrecision:
    """The change of length unit that keeps the evaluator's chains
    inside float32's range: g_m(r) = u^-(2m+1) g'_m(r / u)."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("u", [2.0**-18, 2.0**-3, 1.0, 4.0])
    def test_in_units(self, name, u):
        """g_k(r) = u^-(2k+1) g'_k(r / u)."""
        kernel = KERNELS[name]
        r = np.geomspace(0.05, 3.0, 200)
        k = np.arange(MMAX + 1)[:, None]
        scaled = in_units(kernel, u).radial_derivs(r / u, MMAX) * u ** -(2.0 * k + 1)
        ref = kernel.radial_derivs(r, MMAX)
        assert np.all(np.abs(scaled - ref) <= 1e-14 * np.abs(ref))
