"""Direct O(N^2) summation — the verification baseline.

Paper §5 describes a "distance ladder" of cross-checks: Ewald
summation validates direct summation, which validates the treecode,
which (at high accuracy settings) validates itself at lower accuracy.
This module is the middle rung: blocked, vectorized pairwise
summation in float64 or float32 (Figure 6 compares a p=8 multipole
against *float32* direct summation), with optional periodic
minimum-image displacement and any softening kernel.
"""

from __future__ import annotations

import numpy as np

from .smoothing import NoSoftening, SofteningKernel

__all__ = ["direct_accelerations"]


#: targets per vectorized block (a (block, N, 3) temporary)
_BLOCK = 1024


def direct_accelerations(
    pos: np.ndarray,
    mass: np.ndarray,
    softening: SofteningKernel | None = None,
    box: float | None = None,
    dtype=np.float64,
    targets: np.ndarray | None = None,
    want_potential: bool = False,
):
    """All-pairs accelerations (and optionally potentials).

    Parameters
    ----------
    box:
        If given, displacements use the periodic minimum image in a
        cube of this side (note: minimum image is *not* the full Ewald
        sum; see :mod:`repro.gravity.ewald` for that).
    targets:
        Evaluate the field only at these positions (self-interactions
        are then not excluded — the targets are treated as massless
        test points).  Default: at the particles themselves, with
        self-interaction excluded.
    dtype:
        float32 or float64 accumulation (float32 reproduces the
        "direct sum (float32)" curve of Fig. 6).

    Returns
    -------
    acc (N, 3), or (acc, pot) when ``want_potential``.
    """
    softening = softening or NoSoftening()
    pos = np.ascontiguousarray(pos, dtype=dtype)
    mass = np.ascontiguousarray(mass, dtype=dtype)
    self_field = targets is None
    tgt = pos if self_field else np.ascontiguousarray(targets, dtype=dtype)
    n_t = len(tgt)
    acc = np.zeros((n_t, 3), dtype=dtype)
    pot = np.zeros(n_t, dtype=dtype) if want_potential else None
    for s in range(0, n_t, _BLOCK):
        e = min(s + _BLOCK, n_t)
        d = tgt[s:e, None, :] - pos[None, :, :]
        if box is not None:
            d -= (np.round(d / dtype(box)) * dtype(box)).astype(dtype)
        r2 = np.einsum("ijk,ijk->ij", d, d)
        r = np.sqrt(r2)
        f = softening.force_factor(r).astype(dtype)
        if self_field:
            idx = np.arange(s, e)
            f[np.arange(e - s), idx] = 0.0
        acc[s:e] = -np.einsum("ij,ijk->ik", mass[None, :] * f, d)
        if want_potential:
            psi = softening.potential(r).astype(dtype)
            if self_field:
                psi[np.arange(e - s), np.arange(s, e)] = 0.0
            pot[s:e] = psi @ mass
    return (acc, pot) if want_potential else acc
