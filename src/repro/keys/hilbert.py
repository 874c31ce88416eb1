"""Hilbert space-filling curve keys (Skilling's transpose algorithm).

WS93/2HOT decompose the domain along a one-dimensional ordering of the
particle keys (§3.1).  Morton order is what the hashed tree uses
internally, but a Hilbert ordering produces more compact processor
domains (better surface-to-volume, hence less traversal
communication); the domain decomposition accepts either.  This is a
vectorized implementation of John Skilling's "Programming the Hilbert
curve" (2004) transpose algorithm for 3 dimensions.
"""

from __future__ import annotations

import numpy as np

from .morton import KEY_BITS, spread_bits

__all__ = ["hilbert_keys_from_positions", "hilbert_from_coords"]


def hilbert_from_coords(coords: np.ndarray, bits: int = KEY_BITS) -> np.ndarray:
    """Hilbert index of integer lattice coordinates.

    Parameters
    ----------
    coords:
        (N, 3) integer array with entries in [0, 2^bits).

    Returns
    -------
    (N,) uint64 Hilbert indices in [0, 2^(3*bits)).
    """
    x = np.array(coords, dtype=np.uint64).T.copy()  # (3, N), working copy
    if x.shape[0] != 3:
        raise ValueError("coords must be (N, 3)")
    n = 3
    m = np.uint64(1) << np.uint64(bits - 1)

    # --- inverse undo excess work (Skilling, TransposetoAxes inverse) ---
    q = m
    while q > np.uint64(1):
        p = q - np.uint64(1)
        for i in range(n):
            has = (x[i] & q) != 0
            # invert low bits of x[0] where bit set
            x[0] = np.where(has, x[0] ^ p, x[0])
            # exchange low bits of x[i] and x[0] where bit unset
            t = (x[0] ^ x[i]) & p
            t = np.where(has, np.uint64(0), t)
            x[0] ^= t
            x[i] ^= t
        q >>= np.uint64(1)
    # --- gray encode ---
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = np.zeros_like(x[0])
    q = m
    while q > np.uint64(1):
        t = np.where((x[n - 1] & q) != 0, t ^ (q - np.uint64(1)), t)
        q >>= np.uint64(1)
    for i in range(n):
        x[i] ^= t

    # interleave the transposed bits into a single index: bit b of axis i
    # contributes to index bit (b*3 + (2 - i))
    ix = spread_bits(x[0])
    iy = spread_bits(x[1])
    iz = spread_bits(x[2])
    return (ix << np.uint64(2)) | (iy << np.uint64(1)) | iz


def hilbert_keys_from_positions(pos: np.ndarray, bits: int = KEY_BITS) -> np.ndarray:
    """Hilbert keys for positions in the unit box [0, 1)^3 (for domain decomposition)."""
    pos = np.asarray(pos, dtype=np.float64)
    scale = float(1 << bits)
    q = np.floor(pos * scale).astype(np.int64)
    np.clip(q, 0, (1 << bits) - 1, out=q)
    return hilbert_from_coords(q.astype(np.uint64), bits)
