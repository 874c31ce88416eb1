"""Tests for the sky projection (Fig. 1 machinery)."""

import numpy as np
import pytest

from repro.analysis import EqualAreaSphere, mollweide_xy, project_to_sky


class TestEqualAreaSphere:
    def test_pixel_count_scales(self):
        s1 = EqualAreaSphere(16)
        s2 = EqualAreaSphere(32)
        assert s2.n_pixels > 3 * s1.n_pixels

    def test_pixels_cover_sphere(self):
        sphere = EqualAreaSphere(24)
        rng = np.random.default_rng(0)
        v = rng.standard_normal((20000, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        pix = sphere.pixel_of(v)
        assert pix.min() >= 0
        assert pix.max() < sphere.n_pixels
        # isotropic points hit nearly all pixels
        assert len(np.unique(pix)) > 0.97 * sphere.n_pixels

    def test_equal_area_occupancy(self):
        """Isotropic points give near-uniform pixel occupancy."""
        sphere = EqualAreaSphere(16)
        rng = np.random.default_rng(1)
        v = rng.standard_normal((300000, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        counts = np.bincount(sphere.pixel_of(v), minlength=sphere.n_pixels)
        expect = len(v) / sphere.n_pixels
        assert counts.std() / expect < 0.15

    def test_centers_map_to_own_pixel(self):
        sphere = EqualAreaSphere(12)
        centers = sphere.pixel_centers()
        pix = sphere.pixel_of(centers)
        assert np.mean(pix == np.arange(sphere.n_pixels)) > 0.95


class TestProjection:
    def test_uniform_box_gives_flat_map(self):
        rng = np.random.default_rng(2)
        pos = rng.random((100000, 3))
        mass = np.ones(len(pos))
        sphere = EqualAreaSphere(12)
        sky = project_to_sky(pos, mass, sphere, r_min=0.1, r_max=0.45)
        assert abs(sky.mean()) < 1e-10  # contrast map
        assert sky.std() < 0.3  # shot noise only

    def test_anisotropic_cluster_shows_up(self):
        rng = np.random.default_rng(3)
        pos = rng.random((20000, 3))
        blob = 0.3 * np.ones((5000, 3)) + 0.01 * rng.standard_normal((5000, 3))
        pos = np.concatenate([pos, blob]) % 1.0
        mass = np.ones(len(pos))
        sphere = EqualAreaSphere(12)
        sky = project_to_sky(pos, mass, sphere, r_min=0.1, r_max=0.45)
        u = (np.array([0.3, 0.3, 0.3]) - 0.5)
        u /= np.linalg.norm(u)
        hot = sphere.pixel_of(u[None, :])[0]
        assert sky[hot] > 5 * sky.std()

    def test_empty_shell(self):
        sphere = EqualAreaSphere(8)
        sky = project_to_sky(
            np.array([[0.5, 0.5, 0.5]]), np.array([1.0]), sphere, r_min=0.2, r_max=0.4,
        )
        assert np.all(sky == 0)


class TestMollweide:
    def test_range(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((1000, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        xy = mollweide_xy(v)
        assert np.abs(xy[:, 0]).max() <= 2 * np.sqrt(2) + 1e-9
        assert np.abs(xy[:, 1]).max() <= np.sqrt(2) + 1e-9

    def test_poles(self):
        xy = mollweide_xy(np.array([[0, 0, 1.0], [0, 0, -1.0]]))
        assert xy[0, 1] == pytest.approx(np.sqrt(2), abs=1e-6)
        assert xy[1, 1] == pytest.approx(-np.sqrt(2), abs=1e-6)

    def test_equator(self):
        xy = mollweide_xy(np.array([[1.0, 0, 0]]))
        assert xy[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert xy[0, 1] == pytest.approx(0.0, abs=1e-9)
