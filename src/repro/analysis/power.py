"""Matter power spectrum estimation (the diagnostic of paper Fig. 7).

CIC density estimation on a mesh, FFT, window deconvolution, shot-noise
subtraction and spherical binning.  "The power spectrum is a sensitive
diagnostic of errors at all spatial scales, and can detect deficiencies
in both the time integration and force accuracy" (§5) — every Fig. 7
curve is a ratio of outputs of this estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gravity.pm import ParticleMesh

__all__ = ["PowerSpectrumResult", "measure_power"]


@dataclass
class PowerSpectrumResult:
    """Binned P(k) estimate."""

    k: np.ndarray  # bin-mean wavenumber [h/Mpc]
    power: np.ndarray  # P(k) [(Mpc/h)^3]
    n_modes: np.ndarray  # modes per bin
    shot_noise: float  # subtracted white-noise level [(Mpc/h)^3]

    def ratio_to(self, other: "PowerSpectrumResult") -> np.ndarray:
        """P/P_ref on the shared bins (Fig. 7's y-axis)."""
        if len(self.k) != len(other.k):
            raise ValueError("binning mismatch")
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.power / other.power


def measure_power(
    pos: np.ndarray,
    box_mpc_h: float,
    ngrid: int = 128,
    subtract_shot_noise: bool = True,
) -> PowerSpectrumResult:
    """Estimate P(k) of equal-mass particles.

    Parameters
    ----------
    pos:
        (N, 3) positions in [0, 1)^3 (unit box; ``box_mpc_h`` supplies
        the physical scale).
    ngrid:
        FFT mesh size (Nyquist k = pi ngrid / box), binned in
        ``ngrid // 2`` linear k bins up to Nyquist.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n_part = len(pos)
    pm = ParticleMesh(ngrid, 1.0)
    grid = pm.deposit(pos % 1.0, np.full(n_part, 1.0 / n_part))  # normalized mass
    mean = grid.mean()
    delta = grid / mean - 1.0
    dk = np.fft.rfftn(delta)

    n = ngrid
    kx = np.fft.fftfreq(n, d=1.0 / n) * 2.0 * np.pi / box_mpc_h
    kz = np.fft.rfftfreq(n, d=1.0 / n) * 2.0 * np.pi / box_mpc_h
    KX = kx[:, None, None]
    KY = kx[None, :, None]
    KZ = kz[None, None, :]
    kmag = np.sqrt(KX**2 + KY**2 + KZ**2)

    # deconvolve the CIC window (one deposit)
    def sinc(kk):
        return np.sinc(kk * box_mpc_h / (2.0 * np.pi * n))

    w = sinc(KX) * sinc(KY) * sinc(KZ)
    dk = dk / np.where(w == 0, 1.0, w) ** 2

    vol = box_mpc_h**3
    pk3d = np.abs(dk) ** 2 * vol / n**6

    # rfft stores half the modes: weight the interior kz planes twice
    weight = np.full(dk.shape, 2.0)
    weight[:, :, 0] = 1.0
    if n % 2 == 0:
        weight[:, :, -1] = 1.0

    knyq = np.pi * n / box_mpc_h
    nb = n // 2
    edges = np.linspace(0.0, knyq, nb + 1)
    flat_k = kmag.ravel()
    flat_p = pk3d.ravel()
    flat_w = weight.ravel()
    keep = flat_k > 0
    idx = np.digitize(flat_k[keep], edges) - 1
    good = (idx >= 0) & (idx < nb)
    idx = idx[good]
    pk_sum = np.bincount(idx, weights=(flat_p * flat_w)[keep][good], minlength=nb)
    k_sum = np.bincount(idx, weights=(flat_k * flat_w)[keep][good], minlength=nb)
    n_modes = np.bincount(idx, weights=flat_w[keep][good], minlength=nb)
    with np.errstate(invalid="ignore", divide="ignore"):
        pk = pk_sum / n_modes
        kmean = k_sum / n_modes
    shot = vol / n_part
    if subtract_shot_noise:
        pk = pk - shot
    sel = n_modes > 0
    return PowerSpectrumResult(
        k=kmean[sel], power=pk[sel], n_modes=n_modes[sel], shot_noise=shot
    )
