"""Tests for homogeneous-cube moments, prism forces and background subtraction."""

import numpy as np
import pytest

from repro.multipoles import (
    cube_moments,
    m2p,
    multi_index_set,
    p2m,
    prism_acceleration,
    prism_potential,
    subtract_background,
)


def grid_cube(n=24, side=1.0, center=(0, 0, 0)):
    g = (np.arange(n) + 0.5) / n - 0.5
    gx, gy, gz = np.meshgrid(g, g, g, indexing="ij")
    pos = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1) * side + np.asarray(
        center, dtype=float
    )
    mass = np.full(len(pos), side**3 / len(pos))  # unit density
    return pos, mass


class TestCubeMoments:
    def test_monopole_is_mass(self):
        m = cube_moments(4, 2.0, 3.0)
        assert m[0] == pytest.approx(3.0 * 8.0)

    def test_odd_moments_vanish(self):
        mis = multi_index_set(5)
        m = cube_moments(5, 1.3, 1.0)
        odd = (mis.alphas % 2).sum(axis=1) > 0
        assert np.all(m[odd] == 0.0)

    def test_second_moment_value(self):
        """M_(200) = rho * s^3 * s^2/12 for a cube of side s."""
        mis = multi_index_set(2)
        s, rho = 2.5, 0.7
        m = cube_moments(2, s, rho)
        assert m[mis.index[(2, 0, 0)]] == pytest.approx(rho * s**3 * s**2 / 12.0)

    def test_matches_particle_grid(self):
        pos, mass = grid_cube(n=32)
        mg = p2m(pos, mass, np.zeros(3), 4)
        mc = cube_moments(4, 1.0, 1.0)
        # grid discretisation error ~ 1/n^2
        np.testing.assert_allclose(mg, mc, atol=2e-4)

    def test_batched_sides(self):
        sides = np.array([1.0, 2.0])
        m = cube_moments(3, sides, 1.0)
        assert m.shape == (2, 20)
        assert m[1, 0] == pytest.approx(8.0 * m[0, 0])


class TestBackgroundSubtraction:
    def test_uniform_cell_cancels_exactly(self):
        """A uniform grid cell minus the mean background has (nearly)
        zero moments — the whole point of §2.2.1."""
        pos, mass = grid_cube(n=16)
        m = p2m(pos, mass, np.zeros(3), 4)
        dm = subtract_background(m, 1.0, 1.0, 4)
        assert abs(dm[0]) < 1e-12  # monopole cancels exactly
        assert np.abs(dm).max() < 1e-3  # higher moments cancel to grid error

    def test_far_field_cancellation(self):
        """The background-subtracted expansion of a near-uniform cell
        produces a much smaller far field than the raw expansion."""
        rng = np.random.default_rng(5)
        pos = rng.random((4096, 3)) - 0.5
        mass = np.full(4096, 1.0 / 4096)
        m = p2m(pos, mass, np.zeros(3), 4)
        dm = subtract_background(m, 1.0, 1.0, 4)
        t = np.array([[6.0, 2.0, 1.0]])
        _, acc_raw = m2p(m, np.zeros(3), t, 4)
        _, acc_sub = m2p(dm, np.zeros(3), t, 4)
        assert np.linalg.norm(acc_sub) < 0.1 * np.linalg.norm(acc_raw)

    def test_negative_monopole_possible(self):
        """Empty cells get pure-background (negative) moments."""
        m = np.zeros(35)
        dm = subtract_background(m, 1.0, 1.0, 4)
        assert dm[0] == pytest.approx(-1.0)


#: (lo, hi) = c - s/2, c + s/2 of the unit cube centred on the origin
UNIT_CUBE = (np.zeros(3) - 0.5, np.zeros(3) + 0.5)


class TestPrism:
    def test_potential_far_field_is_monopole(self):
        p = prism_potential(np.array([[20.0, 0, 0]]), [-0.5] * 3, [0.5] * 3, 1.0)
        assert p[0] == pytest.approx(1.0 / 20.0, rel=1e-3)

    def test_acceleration_far_field(self):
        a = prism_acceleration(np.array([[10.0, 0, 0]]), [-0.5] * 3, [0.5] * 3, 1.0)
        assert a[0, 0] == pytest.approx(-0.01, rel=1e-3)
        assert a[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_center_force_vanishes(self):
        a = prism_acceleration(np.zeros((1, 3)), *UNIT_CUBE, 1.0)
        np.testing.assert_allclose(a, 0.0, atol=1e-12)

    def test_interior_poisson_equation(self):
        """Inside the cube the field satisfies Poisson's equation:
        div(acc) = -4 pi rho with our acc = grad(U), U = rho ∫ dV/r."""
        rho = 0.8
        pt = np.array([0.17, -0.11, 0.23])
        h = 1e-4
        div = 0.0
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            ap = prism_acceleration((pt + e)[None, :], *UNIT_CUBE, rho)
            am = prism_acceleration((pt - e)[None, :], *UNIT_CUBE, rho)
            div += (ap[0, ax] - am[0, ax]) / (2 * h)
        assert div == pytest.approx(-4.0 * np.pi * rho, rel=1e-5)

    def test_exterior_laplace_equation(self):
        """Outside the cube the potential is harmonic: div(acc) = 0."""
        pt = np.array([1.3, 0.9, -0.8])
        h = 1e-4
        div = 0.0
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            ap = prism_acceleration((pt + e)[None, :], [-0.5] * 3, [0.5] * 3)
            am = prism_acceleration((pt - e)[None, :], [-0.5] * 3, [0.5] * 3)
            div += (ap[0, ax] - am[0, ax]) / (2 * h)
        assert div == pytest.approx(0.0, abs=1e-6)

    def test_exterior_matches_multipole_expansion(self):
        """Outside, the analytic prism force matches the p=8 multipole
        expansion of the analytic cube moments."""
        pt = np.array([[1.5, 0.7, -0.9]])
        mc = cube_moments(8, 1.0, 1.0)
        _, acc_mp = m2p(mc, np.zeros(3), pt, 8)
        acc = prism_acceleration(pt, [-0.5] * 3, [0.5] * 3, 1.0)
        np.testing.assert_allclose(acc, acc_mp, rtol=1e-4)

    def test_acceleration_is_gradient_of_potential(self):
        pt = np.array([0.3, -0.2, 0.1])
        lo, hi = [-0.5] * 3, [0.5] * 3
        a = prism_acceleration(pt[None, :], lo, hi, 1.0)[0]
        h = 1e-6
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            pp = prism_potential((pt + e)[None, :], lo, hi, 1.0)[0]
            pm = prism_potential((pt - e)[None, :], lo, hi, 1.0)[0]
            assert a[ax] == pytest.approx((pp - pm) / (2 * h), rel=1e-5, abs=1e-7)

    def test_symmetry(self):
        """Mirror-symmetric points get mirror-symmetric forces."""
        lo, hi = [-0.5] * 3, [0.5] * 3
        a1 = prism_acceleration(np.array([[0.2, 0.1, 0.0]]), lo, hi)[0]
        a2 = prism_acceleration(np.array([[-0.2, 0.1, 0.0]]), lo, hi)[0]
        assert a1[0] == pytest.approx(-a2[0])
        assert a1[1] == pytest.approx(a2[1])

    def test_interior_linear_regime(self):
        """Near the center the cube force is ~ linear in displacement
        (like a harmonic restoring force)."""
        eps = 1e-3
        a1 = prism_acceleration(np.array([[eps, 0, 0]]), *UNIT_CUBE, 1.0)[0, 0]
        a2 = prism_acceleration(np.array([[2 * eps, 0, 0]]), *UNIT_CUBE, 1.0)[0, 0]
        assert a2 == pytest.approx(2 * a1, rel=1e-4)
        assert a1 < 0  # restoring (toward center)


def scalar_prism(pt, lo, hi, rho):
    """Textbook Nagy sums for one point and one box, in scalar math:
    the reference the fused kernel is compared against."""
    import math

    def log(v):
        return math.log(max(v, 1e-300))

    def atan(num, den):
        return math.atan(num / den) if den != 0.0 else 0.0

    acc, pot = [0.0, 0.0, 0.0], 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                x = (hi if i else lo)[0] - pt[0]
                y = (hi if j else lo)[1] - pt[1]
                z = (hi if k else lo)[2] - pt[2]
                r = math.sqrt(x * x + y * y + z * z)
                s = 1.0 if (i + j + k) % 2 else -1.0
                acc[0] -= s * (y * log(z + r) + z * log(y + r) - x * atan(y * z, x * r))
                acc[1] -= s * (z * log(x + r) + x * log(z + r) - y * atan(z * x, y * r))
                acc[2] -= s * (x * log(y + r) + y * log(x + r) - z * atan(x * y, z * r))
                pot += s * (
                    x * y * log(z + r) + y * z * log(x + r) + z * x * log(y + r)
                    - 0.5 * x * x * atan(y * z, x * r)
                    - 0.5 * y * y * atan(z * x, y * r)
                    - 0.5 * z * z * atan(x * y, z * r)
                )
    return rho * np.array(acc), rho * pot


class TestFusedPrismKernel:
    """One pass over the eight corners yields acceleration and potential."""

    @pytest.mark.parametrize("where", ["interior", "exterior", "mixed"])
    def test_tiles_match_single_box_calls(self, where):
        """An (n_t x n_e) tile flattened to per-row boxes — the shape the
        tree near field hands over, structure-of-arrays — against one
        public single-box call per entry and the scalar reference."""
        rng = np.random.default_rng({"interior": 1, "exterior": 2, "mixed": 3}[where])
        n_t, n_e, rho = 7, 5, -0.7
        ctr = rng.uniform(-1.0, 1.0, (n_e, 3))
        half = rng.uniform(0.05, 0.4, (n_e, 1))
        if where == "interior":
            pts = ctr[0] + half[0] * rng.uniform(-0.99, 0.99, (n_t, 3))
            ctr, half = ctr[:1].repeat(n_e, 0), half[0] * rng.uniform(1.0, 2.0, (n_e, 1))
        elif where == "exterior":
            pts = rng.uniform(2.0, 3.0, (n_t, 3))
        else:
            pts = rng.uniform(-1.0, 1.0, (n_t, 3))
            pts[:3] = ctr[0] + half[0] * rng.uniform(-0.9, 0.9, (3, 3))
        lo, hi = ctr - half, ctr + half
        inside = np.all((pts[:, None] > lo) & (pts[:, None] < hi), axis=2)
        assert {"interior": inside.all(), "exterior": not inside.any(),
                "mixed": inside.any() and not inside.all()}[where]
        rows = np.empty((3, 3, n_t * n_e))
        rows[0].reshape(3, n_t, n_e)[...] = pts.T[:, :, None]
        rows[1].reshape(3, n_t, n_e)[...] = lo.T[:, None, :]
        rows[2].reshape(3, n_t, n_e)[...] = hi.T[:, None, :]
        acc, pot = prism_acceleration(
            rows[0].T, rows[1].T, rows[2].T, rho, want_potential=True
        )
        acc, pot = acc.reshape(n_t, n_e, 3), pot.reshape(n_t, n_e)
        for e in range(n_e):
            a_e = prism_acceleration(pts, lo[e], hi[e], rho)
            p_e = prism_potential(pts, lo[e], hi[e], rho)
            assert np.abs(acc[:, e] - a_e).max() <= 1e-11 * np.abs(a_e).max()
            np.testing.assert_allclose(pot[:, e], p_e, rtol=1e-13)
            for t in range(n_t):
                a_ref, p_ref = scalar_prism(pts[t], lo[e], hi[e], rho)
                assert np.abs(acc[t, e] - a_ref).max() <= 1e-11 * np.abs(a_e).max()
                assert pot[t, e] == pytest.approx(p_ref, rel=1e-13)

    def test_without_potential_same_acc_bits(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.0, 1.0, (200, 3))
        lo = rng.uniform(-1.0, 0.0, (200, 3))
        both, _ = prism_acceleration(pts, lo, lo + 0.8, 1.3, want_potential=True)
        assert np.array_equal(prism_acceleration(pts, lo, lo + 0.8, 1.3), both)

    def test_corner_identity(self):
        """Per corner U = (x f_x + y f_y + z f_z) / 2: the potential
        integrand needs no logs or arctangents of its own."""
        from repro.multipoles.prism import _corner_terms

        rng = np.random.default_rng(5)
        n = 64
        x, y, z = rng.uniform(-1.0, 1.0, (3, n))
        r = np.sqrt(x * x + y * y + z * z)
        f = np.empty((3, n))
        _corner_terms(x, y, z, r, f, np.empty((8, n)), np.empty(n, dtype=bool))
        u = (
            x * y * np.log(z + r) + y * z * np.log(x + r) + z * x * np.log(y + r)
            - 0.5 * x * x * np.arctan(y * z / (x * r))
            - 0.5 * y * y * np.arctan(z * x / (y * r))
            - 0.5 * z * z * np.arctan(x * y / (z * r))
        )
        np.testing.assert_allclose(0.5 * (x * f[0] + y * f[1] + z * f[2]), u,
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "point",
        [
            (0.5, 0.1, -0.2),  # on a face
            (0.5, -0.5, 0.2),  # on an edge
            (0.5, 0.5, 0.5),  # on a corner
            (-0.5, -0.5, -0.5),  # the corner every log guard fires at
            (0.0, 0.0, 0.0),  # the cube centre
            (0.5, 0.5, 1.7),  # collinear with an edge, above: z + r == 0 at both ends
            (-0.5, 0.5, -1.7),  # ... and below
        ],
        ids=["face", "edge", "corner", "low-corner", "centre", "edge-line-above", "edge-line-below"],
    )
    def test_degenerate_points_equal_their_limit(self, point):
        """Where a log argument or an arctangent denominator vanishes
        its coefficient vanishes too: the guarded value is finite and is
        the limit of the field from a 1e-9 offset."""
        lo, hi = np.full(3, -0.5), np.full(3, 0.5)
        pt = np.array([point])
        with np.errstate(all="raise"):
            acc, pot = prism_acceleration(pt, lo, hi, 1.0, want_potential=True)
        assert np.all(np.isfinite(acc)) and np.all(np.isfinite(pot))
        near = pt + 1e-9 * np.array([[0.6, -0.5, 0.62]])
        a_near, p_near = prism_acceleration(near, lo, hi, 1.0, want_potential=True)
        np.testing.assert_allclose(acc, a_near, atol=1e-6)
        np.testing.assert_allclose(pot, p_near, atol=1e-7)
        a_ref, p_ref = scalar_prism(pt[0], lo, hi, 1.0)
        np.testing.assert_allclose(acc[0], a_ref, atol=1e-13)
        assert pot[0] == pytest.approx(p_ref, abs=1e-13)
