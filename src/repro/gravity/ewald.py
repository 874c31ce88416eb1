"""Ewald summation — the exact periodic reference force (paper §2.4, §5).

The classic Ewald (1921) split of the periodic 1/r sum into a
short-range erfc part (summed over near lattice images in real space)
and a smooth long-range part (summed in Fourier space), with the
neutralizing uniform background included — which makes it the exact
solution of the same delta-rho problem the background-subtracted
treecode solves.

The paper uses Ewald summation as the top rung of its verification
"distance ladder" (§5): too slow for production (1e14 flops for a
single particle of a 4096^3 run), but exact, so it validates the
lattice local-expansion method, which validates the treecode.

Conventions match :mod:`repro.gravity`: psi is the positive potential
kernel (periodic analogue of 1/r), acc = grad psi (attractive).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = ["EwaldSummation"]


class EwaldSummation:
    """Pairwise periodic kernel by Ewald summation in a cubic box.

    Parameters
    ----------
    box:
        Box side L.
    alpha:
        Splitting parameter (default 2/L, a standard balance).
    rmax:
        Real-space images summed over |n|_inf <= rmax.
    kmax:
        Fourier modes summed over |k_i| <= kmax (in units 2 pi / L).

    Defaults give ~1e-12 absolute kernel accuracy for alpha*L = 2.
    """

    def __init__(self, box: float = 1.0, alpha: float | None = None, rmax: int = 4, kmax: int = 6):
        self.box = float(box)
        self.alpha = 2.0 / box if alpha is None else float(alpha)
        self.rmax = int(rmax)
        self.kmax = int(kmax)
        r = np.arange(-rmax, rmax + 1)
        gx, gy, gz = np.meshgrid(r, r, r, indexing="ij")
        self._nvec = (
            np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1).astype(np.float64)
            * self.box
        )
        k = np.arange(-kmax, kmax + 1)
        gx, gy, gz = np.meshgrid(k, k, k, indexing="ij")
        kvec = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1).astype(np.float64)
        kvec = kvec[np.any(kvec != 0, axis=1)] * (2.0 * np.pi / self.box)
        k2 = np.einsum("ij,ij->i", kvec, kvec)
        self._kvec = kvec
        self._kcoef = (
            4.0 * np.pi / self.box**3 * np.exp(-k2 / (4.0 * self.alpha**2)) / k2
        )

    # ----- pair kernel -----------------------------------------------------------
    def potential_pair(self, dx: np.ndarray) -> np.ndarray:
        """psi_E(dx): periodic potential kernel for displacements (N, 3).

        Valid for dx != 0 (self-images of a particle are handled by
        :meth:`self_potential`).
        """
        dx = np.atleast_2d(np.asarray(dx, dtype=np.float64))
        a = self.alpha
        # real-space sum over images
        r = np.linalg.norm(dx[:, None, :] + self._nvec[None, :, :], axis=2)
        real = (special.erfc(a * r) / r).sum(axis=1)
        # k-space sum
        phase = dx @ self._kvec.T
        four = (self._kcoef[None, :] * np.cos(phase)).sum(axis=1)
        return real + four - np.pi / (a * a * self.box**3)

    def acceleration_pair(self, dx: np.ndarray) -> np.ndarray:
        """grad psi_E at displacements (N, 3) (force per unit source mass)."""
        dx = np.atleast_2d(np.asarray(dx, dtype=np.float64))
        a = self.alpha
        rvec = dx[:, None, :] + self._nvec[None, :, :]
        r = np.linalg.norm(rvec, axis=2)
        fac = -(
            special.erfc(a * r) / r
            + 2.0 * a / math.sqrt(math.pi) * np.exp(-(a * r) ** 2)
        ) / (r * r)
        real = (fac[:, :, None] * rvec).sum(axis=1)
        phase = dx @ self._kvec.T
        four = -(self._kcoef[None, :] * np.sin(phase)) @ self._kvec
        return real + four

    def self_potential(self) -> float:
        """Interaction of a particle with its own periodic images.

        psi_self = lim_{x->0} [psi_E(x) - 1/|x|]; multiply by m_i for
        the energy contribution (and by 1/2 in the total energy sum).
        """
        a = self.alpha
        real = 0.0
        n = self._nvec[np.any(self._nvec != 0, axis=1)]
        r = np.linalg.norm(n, axis=1)
        real = (special.erfc(a * r) / r).sum()
        four = self._kcoef.sum()
        return float(
            real + four - np.pi / (a * a * self.box**3) - 2.0 * a / math.sqrt(math.pi)
        )

    # ----- N-body fields ------------------------------------------------------------
    def accelerations(self, pos: np.ndarray, mass: np.ndarray) -> np.ndarray:
        """Exact periodic accelerations of the particles (O(N^2 * images),
        use small N)."""
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        out = np.zeros((len(pos), 3), dtype=np.float64)
        for i in range(len(pos)):
            dx = pos[i][None, :] - pos
            keep = np.ones(len(pos), dtype=bool)
            # its own periodic images are antisymmetric: zero net force
            keep[i] = False
            acc = self.acceleration_pair(dx[keep]) * mass[keep][:, None]
            out[i] = acc.sum(axis=0)
        return out

