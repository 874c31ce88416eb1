"""The multipole field as radial functions times polynomials: the
Hermite table, the moment matrix built from it, and the generated C
row that evaluates the field (``repro.multipoles.hermite`` /
``codegen``)."""

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
from repro.gravity import native
from repro.multipoles.codegen import _field_program, cell_row_ops
from repro.multipoles.hermite import field_table, hermite_table

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
        16 + 15 = 46 carry a coefficient (degrees 2k - p .. k of P_k):
        the rows the evaluator gathers."""
        tab = field_table(4)
        assert tab.offsets.tolist() == [0, 1, 5, 15, 35, 70]
        assert tab.matrix.shape == (70, 35)
        per_k = [int(tab.filled[a:b].sum()) for a, b in zip(tab.offsets, tab.offsets[1:])]
        assert per_k == [1, 4, 10, 16, 15]
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


def interpreted_row(p, dtype, pos, centre, coef):
    """Walk the generated C of one particle x cell row in numpy.

    The statements of ``_field_program(p)`` — geometry, 1/r chain, field
    body — executed one by one in ``dtype`` over the rows of ``pos``
    against one source at ``centre`` with coefficient rows ``coef``:
    the same operations in the same order, so IEEE arithmetic makes it
    bit-identical to the compiled row.
    """
    geometry, chain, body, *_ = _field_program(p)
    real = np.dtype(dtype).type
    out = {n: np.empty(len(pos), dtype=dtype) for n in ("AX", "AY", "AZ", "PH")}
    env = {
        "real": real, "R": real, "SQRT": np.sqrt,
        "px": pos[:, 0], "py": pos[:, 1], "pz": pos[:, 2],
        "cx": centre[0], "cy": centre[1], "cz": centre[2],
        "B": [np.full(len(pos), real(c)) for c in coef], **out,
    }
    for line in "\n".join([geometry, chain, body]).splitlines():
        stmt = line.rstrip(";").replace("[j]", "").replace("(real)(", "real(")
        if stmt.startswith("real "):
            stmt = stmt[len("real "):]
        name, expr = stmt.split(" = ", 1)
        value = eval(expr, {}, env)  # noqa: S307 - the generator's own statements
        if name in out:
            out[name][...] = value
        else:
            env[name] = value
    return out


def compiled_rows(p, dtype, pos, centre, coef):
    """``cell_field`` on n particles of one sink cell against one source
    cell, in box units: each particle's sums are its one row."""
    n = len(pos)
    kind, alpha, e_pow, e_coef, e_ptr, g_pow, g_coef, g_ptr = native.radial_spec(
        NewtonianKernel(), p + 1
    )
    acc, pot = np.zeros((n, 3)), np.zeros(n)
    native.evaluator(p, dtype).cell_field(
        pos=pos, owned=np.ones(n, dtype=np.uint8), cell_start=[0, n], cell_count=[n, 1],
        cell_center=[[0.5] * 3, centre], n_rows=1, row_cell=[0], row_unit=[0], indptr=[0, 1],
        src=[1], off=[0], offsets=np.zeros((1, 3)), coef=np.vstack([coef, coef]), kern=kind,
        alpha=alpha, e_pow=e_pow, e_coef=e_coef, e_ptr=e_ptr, g_pow=g_pow, g_coef=g_coef,
        g_ptr=g_ptr, want_pot=1, s0=0, acc=acc, pot=pot,
    )
    return acc, pot


class TestFieldRow:
    """The generated C row: the field of the polynomial form evaluated
    directly at x from the unshifted coefficients b_{k,gamma}."""

    def direct(self, b, tab, x, k):
        """P_k(x) = sum_beta b_{k,beta} x^beta / beta!."""
        mis = multi_index_set(tab.p)
        rows = slice(tab.offsets[k], tab.offsets[k + 1])
        X = mis.powers(x)[:, : n_coeffs(k)] / mis.factorial[: n_coeffs(k)]
        return np.einsum("nk,kn->n", X, b[rows])

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5, 6])
    def test_an_identity_not_a_series(self, p):
        """P_k from the unshifted b is the Hermite-table polynomial
        sum_alpha wm_alpha h_{alpha,k} at every distance, near and far:
        nothing is truncated, so nothing converges or diverges."""
        rng = np.random.default_rng(p)
        n = 64
        tab = field_table(p)
        mis = multi_index_set(p)
        moments = rng.normal(size=(n_coeffs(p), n))
        b = tab.matrix @ moments
        x = rng.normal(size=(n, 3)) * np.repeat([0.05, 1.0, 20.0, 1.0], n // 4)[:, None]
        wm = moments * (((-1.0) ** mis.order) / mis.factorial)[:, None]
        for k in range(p + 1):
            want = sum(
                wm[j] * eval_poly(by_k[k], x)
                for j, by_k in enumerate(hermite_table(p)) if k in by_k
            )
            scale = sum(
                np.abs(wm[j]) * eval_poly({b_: abs(c) for b_, c in by_k[k].items()}, np.abs(x))
                for j, by_k in enumerate(hermite_table(p)) if k in by_k
            )
            assert np.all(np.abs(self.direct(b, tab, x, k) - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 6])
    def test_generated_is_the_interpreted_plan_walk(self, p, dtype):
        """The compiled row is its own statements walked in numpy, bit for
        bit: IEEE operations, no contraction, no reassociation."""
        rng = np.random.default_rng(p)
        n = 37
        tab = field_table(p)
        pos = rng.uniform(-3.0, 3.0, size=(n, 3))
        centre = np.array([0.3, -0.2, 0.1])
        coef = tab.matrix[tab.filled] @ rng.normal(size=n_coeffs(p))
        want = interpreted_row(p, dtype, pos, centre, coef)
        acc, pot = compiled_rows(p, dtype, pos, centre, coef)
        for i, name in enumerate(("AX", "AY", "AZ")):
            assert np.array_equal(acc[:, i], want[name].astype(np.float64))
        assert np.array_equal(pot, want["PH"].astype(np.float64))

    def test_statement_counts_pinned(self):
        """p = 4: 46 gathered coefficients; every monomial of order 2 to
        4 (31 multiplies, from 9 scaled axes x_i / j); P_k and d_i P_k
        one multiply-add per term.  The row's arithmetic, with and
        without the potential."""
        _, _, body, geometry_ops, body_ops, pot_ops = _field_program(4)
        assert int(field_table(4).filled.sum()) == 46
        assert sum(ln.startswith("real X") for ln in body.splitlines()) == 31
        assert sum(ln.startswith(("real x", "real y", "real z")) for ln in body.splitlines()) == 9
        assert (geometry_ops, body_ops, pot_ops) == (21, 286, 9)
        assert [cell_row_ops(p) for p in range(5)] == [18, 35, 83, 169, 316]
