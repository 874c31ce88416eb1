"""Light-cone sky projections (paper Fig. 1).

Figure 1 shows 2HOT light-cone output as HEALPix Mollweide maps of
projected dark-matter density, compared against Planck.  Without the
HEALPix library this module provides the same two ingredients:

* an equal-area spherical pixelization (latitude rings with
  longitude counts proportional to cos(latitude) — not HEALPix's
  scheme, but equal-area and sufficient for density statistics),
* projection of a particle snapshot onto the sphere around an
  observer at the centre of the unit box, weighting each particle into
  its pixel, plus Mollweide (x, y) coordinates for plotting.

The quantitative check mirrors the paper's caption: "the statistical
measurements of the smaller details match" — tests compare the
variance of the projected map against expectations rather than pixel
values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EqualAreaSphere", "project_to_sky", "mollweide_xy"]


class EqualAreaSphere:
    """Equal-area ring pixelization of the unit sphere.

    ``n_rings`` latitude rings equally spaced in z = sin(latitude) —
    which makes every ring's solid angle exactly 2 pi dz — each divided
    into the same number (2 n_rings) of longitude pixels, so every
    pixel subtends *exactly* the same solid angle.  (Pixels become
    elongated near the poles, which is irrelevant for the density
    statistics Fig. 1 compares; HEALPix fixes the aspect ratio at the
    cost of a much more intricate index scheme.)
    """

    def __init__(self, n_rings: int = 32):
        self.n_rings = int(n_rings)
        z_edges = np.linspace(-1.0, 1.0, self.n_rings + 1)
        self.z_edges = z_edges
        self.ring_npix = np.full(self.n_rings, 2 * self.n_rings, dtype=int)
        self.ring_start = np.concatenate([[0], np.cumsum(self.ring_npix)[:-1]])
        self.n_pixels = int(self.ring_npix.sum())

    def pixel_of(self, unit_vec: np.ndarray) -> np.ndarray:
        """Pixel index of unit vectors (N, 3)."""
        v = np.asarray(unit_vec, dtype=np.float64)
        z = np.clip(v[:, 2], -1.0, 1.0 - 1e-15)
        ring = np.clip(
            np.searchsorted(self.z_edges, z, side="right") - 1, 0, self.n_rings - 1
        )
        phi = np.arctan2(v[:, 1], v[:, 0]) % (2 * np.pi)
        npix = self.ring_npix[ring]
        j = np.minimum((phi / (2 * np.pi) * npix).astype(int), npix - 1)
        return self.ring_start[ring] + j

    def pixel_centers(self) -> np.ndarray:
        """Unit vectors of all pixel centers, (n_pixels, 3)."""
        out = np.empty((self.n_pixels, 3))
        z_mid = 0.5 * (self.z_edges[:-1] + self.z_edges[1:])
        for i in range(self.n_rings):
            npix = self.ring_npix[i]
            s = self.ring_start[i]
            phi = (np.arange(npix) + 0.5) / npix * 2 * np.pi
            st = np.sqrt(1 - z_mid[i] ** 2)
            out[s : s + npix, 0] = st * np.cos(phi)
            out[s : s + npix, 1] = st * np.sin(phi)
            out[s : s + npix, 2] = z_mid[i]
        return out


def project_to_sky(
    pos: np.ndarray,
    mass: np.ndarray,
    sphere: EqualAreaSphere,
    r_min: float = 0.05,
    r_max: float = 0.5,
) -> np.ndarray:
    """Project particles in a radial shell onto sky pixels.

    Returns the density-contrast map (mass per pixel / mean - 1).  The
    observer sits at the centre (0.5, 0.5, 0.5) of the unit box, and
    each particle is seen at its periodic minimum image.
    """
    pos = np.asarray(pos, dtype=np.float64)
    d = pos - 0.5
    d -= np.round(d)
    r = np.linalg.norm(d, axis=1)
    sel = (r >= r_min) & (r <= r_max)
    if not np.any(sel):
        return np.zeros(sphere.n_pixels)
    u = d[sel] / r[sel][:, None]
    pix = sphere.pixel_of(u)
    m = np.asarray(mass, dtype=np.float64)[sel]
    sky = np.bincount(pix, weights=m, minlength=sphere.n_pixels)
    mean = sky.sum() / sphere.n_pixels
    return sky / mean - 1.0


def mollweide_xy(unit_vec: np.ndarray) -> np.ndarray:
    """Mollweide projection coordinates of unit vectors (for plotting).

    Solves 2 theta + sin(2 theta) = pi sin(lat) by 20 Newton steps;
    returns (N, 2) with x in [-2 sqrt2, 2 sqrt2], y in [-sqrt2, sqrt2].
    """
    v = np.asarray(unit_vec, dtype=np.float64)
    lat = np.arcsin(np.clip(v[:, 2], -1, 1))
    lon = np.arctan2(v[:, 1], v[:, 0])
    theta = lat.copy()
    target = np.pi * np.sin(lat)
    for _ in range(20):
        f = 2 * theta + np.sin(2 * theta) - target
        fp = 2 + 2 * np.cos(2 * theta)
        step = np.where(np.abs(fp) > 1e-12, f / np.maximum(fp, 1e-12), 0.0)
        theta -= step
    x = 2 * np.sqrt(2) / np.pi * lon * np.cos(theta)
    y = np.sqrt(2) * np.sin(theta)
    return np.stack([x, y], axis=1)
