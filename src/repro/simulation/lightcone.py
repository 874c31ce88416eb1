"""Light-cone output (paper Fig. 1).

The paper's Fig. 1 maps come from "light-cone output from 2HOT": as
the simulation runs, particles are recorded at the moment the
(backward) light cone of a z=0 observer sweeps past them, i.e. when
their comoving distance from the observer equals chi(a) of the current
epoch.  This module implements that as a step callback: between
consecutive steps the cone shrinks from chi(a_prev) to chi(a), and
every particle in that comoving shell is appended to the cone with its
epoch — replicating the box periodically to fill the cone out to a
chosen depth.  The observer sits at the centre (0.5, 0.5, 0.5) of the
unit box.

The accumulated cone feeds :mod:`repro.analysis.skymap` for the
Mollweide density maps the figure shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cosmology import Background, CosmologyParams

__all__ = ["LightConeRecorder"]


@dataclass
class LightConeRecorder:
    """Accumulates light-cone crossings during a simulation run.

    Parameters
    ----------
    params, box_mpc_h:
        Cosmology and physical box size (to convert chi(a) to box units).
    depth_boxes:
        Record out to this many box lengths (periodic replication).

    Use as ``sim.run(callback=recorder)``; afterwards ``positions``,
    ``redshifts`` and ``distances`` hold the cone.
    """

    params: CosmologyParams
    box_mpc_h: float
    depth_boxes: float = 1.0
    # accumulated cone
    chunks: list = field(init=False, default_factory=list)
    z_chunks: list = field(init=False, default_factory=list)
    r_chunks: list = field(init=False, default_factory=list)
    _last_a: float | None = field(init=False, default=None)

    def __post_init__(self):
        self.bg = Background(self.params)
        r = int(np.ceil(self.depth_boxes))
        g = np.arange(-r, r + 1)
        gx, gy, gz = np.meshgrid(g, g, g, indexing="ij")
        self._reps = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1).astype(
            np.float64
        )

    def chi_box(self, a: float) -> float:
        """Comoving distance to epoch ``a`` in box units."""
        return self.bg.comoving_distance(a) / self.box_mpc_h

    def __call__(self, sim, rec) -> None:
        a = rec.a
        if self._last_a is None:
            self._last_a = a
            return
        chi_hi = min(self.chi_box(self._last_a), self.depth_boxes)
        chi_lo = self.chi_box(a)
        self._last_a = a
        if chi_hi <= chi_lo:
            return
        pos = sim.particles.pos
        for rep in self._reps:
            d = pos + rep - 0.5
            r = np.sqrt(np.einsum("ij,ij->i", d, d))
            sel = (r > chi_lo) & (r <= chi_hi)
            if not np.any(sel):
                continue
            self.chunks.append(pos[sel] + rep)
            self.r_chunks.append(r[sel])
            self.z_chunks.append(np.full(int(sel.sum()), 1.0 / a - 1.0))

    @property
    def positions(self) -> np.ndarray:
        if not self.chunks:
            return np.empty((0, 3))
        return np.concatenate(self.chunks)

    @property
    def distances(self) -> np.ndarray:
        if not self.r_chunks:
            return np.empty(0)
        return np.concatenate(self.r_chunks)

    @property
    def redshifts(self) -> np.ndarray:
        if not self.z_chunks:
            return np.empty(0)
        return np.concatenate(self.z_chunks)

    @property
    def n_recorded(self) -> int:
        return sum(len(c) for c in self.chunks)

    def sky_map(self, sphere):
        """Project the whole accumulated cone onto sky pixels (contrast map)."""
        pos = self.positions
        if len(pos) == 0:
            return np.zeros(sphere.n_pixels)
        d = pos - 0.5
        u = d / np.maximum(np.linalg.norm(d, axis=1), 1e-12)[:, None]
        pix = sphere.pixel_of(u)
        sky = np.bincount(pix, minlength=sphere.n_pixels).astype(float)
        mean = sky.sum() / sphere.n_pixels
        return sky / max(mean, 1e-300) - 1.0
