"""Tests for the Salmon-Warren error bounds and critical radii."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multipoles import (
    acceleration_error_bound,
    critical_radius,
    m2p,
    p2m,
)


def make_cloud(seed=0, n=128):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3)) - 0.5
    mass = rng.random(n)
    return pos, mass


def abs_moment(pos, mass, center, n):
    r = np.linalg.norm(pos - center, axis=1)
    return float((mass * r**n).sum())


def direct_field(pos, mass, targets):
    d = targets[:, None, :] - pos[None, :, :]
    r = np.linalg.norm(d, axis=2)
    pot = (mass / r).sum(axis=1)
    acc = -(mass[None, :, None] * d / r[:, :, None] ** 3).sum(axis=1)
    return pot, acc


class TestBoundsAreBounds:
    @pytest.mark.parametrize("p", [0, 1, 2, 4])
    @pytest.mark.parametrize("dist", [1.5, 2.5, 5.0])
    def test_acceleration_bound_holds(self, p, dist):
        """The rigorous bound must exceed the actual truncation error
        for every order and distance tested."""
        pos, mass = make_cloud()
        center = np.zeros(3)
        bmax = np.linalg.norm(pos - center, axis=1).max()
        b_p1 = abs_moment(pos, mass, center, p + 1)
        m = p2m(pos, mass, center, p)
        rng = np.random.default_rng(99)
        for _ in range(5):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            t = (dist * u)[None, :]
            _, acc = m2p(m, center, t, p)
            _, acc_true = direct_field(pos, mass, t)
            err = np.linalg.norm(acc - acc_true)
            bound = float(acceleration_error_bound(dist, p, bmax, b_p1))
            assert err <= bound

    def test_inside_bmax_is_infinite(self):
        assert acceleration_error_bound(0.5, 2, 1.0, 1.0) == np.inf

    def test_monotone_decreasing(self):
        d = np.linspace(1.5, 20.0, 50)
        b = acceleration_error_bound(d, 3, 1.0, 1.0)
        assert np.all(np.diff(b) < 0)

    def test_higher_order_tighter_far_away(self):
        # at large distance, higher order with same B gives smaller bound
        assert acceleration_error_bound(10.0, 4, 1.0, 1.0) < acceleration_error_bound(
            10.0, 2, 1.0, 1.0
        )


class TestCriticalRadius:
    def test_bound_at_critical_radius_equals_tol(self):
        tol = 1e-6
        rc = critical_radius(2, np.array([1.0]), np.array([3.0]), tol)
        b = acceleration_error_bound(rc, 2, 1.0, 3.0)
        assert b[0] == pytest.approx(tol, rel=1e-6)

    def test_vectorized(self):
        rc = critical_radius(2, np.array([1.0, 2.0]), np.array([1.0, 1.0]), 1e-5)
        assert rc.shape == (2,)
        assert rc[1] > rc[0]

    def test_zero_moment_cell(self):
        """Fully cancelled (background-subtracted) cells are always
        acceptable outside their bounding ball."""
        rc = critical_radius(2, np.array([0.7]), np.array([0.0]), 1e-5)
        assert rc[0] == pytest.approx(0.7)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            critical_radius(2, np.array([1.0]), np.array([1.0]), 0.0)

    @given(
        st.floats(min_value=1e-8, max_value=1e-2),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_acceptance_beyond_critical_radius(self, tol, bmax, b_p1):
        """Everything beyond r_crit satisfies the tolerance (the MAC
        contract used by the traversal)."""
        rc = critical_radius(3, np.array([bmax]), np.array([b_p1]), tol)[0]
        for f in (1.001, 1.5, 4.0):
            assert acceleration_error_bound(rc * f, 3, bmax, b_p1) <= tol * 1.01

    def test_tighter_tolerance_larger_radius(self):
        r1 = critical_radius(2, np.array([1.0]), np.array([1.0]), 1e-4)[0]
        r2 = critical_radius(2, np.array([1.0]), np.array([1.0]), 1e-6)[0]
        assert r2 > r1
