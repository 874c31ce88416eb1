"""WS93 hashed oct-tree keys (Morton / Z-order with a placeholder bit).

The Warren-Salmon key construction maps a position in the unit cube to
a 64-bit integer: each coordinate is quantised to ``KEY_BITS`` (21)
bits, the bits of (z, y, x) are interleaved most-significant first,
and a single *placeholder* 1-bit is prepended.  The placeholder makes
every tree level addressable: the root key is 1, the key of a cell's
parent is ``key >> 3``, its children are ``key*8 + 0..7``, and the
level of a key is (bit_length - 1) / 3.  Sorting particles by key is
simultaneously a depth-first tree order and a 1-d space-filling-curve
order — the basis of both the tree build (§3.2) and the domain
decomposition (§3.1).

All routines are vectorized bit manipulations on ``uint64`` arrays
(the magic-number spread used in HOT's C implementation).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KEY_BITS",
    "ROOT_KEY",
    "spread_bits",
    "compact_bits",
    "keys_from_positions",
    "positions_from_keys",
    "key_level",
    "parent_key",
    "ancestor_key",
    "cell_coordinates",
    "cell_geometry",
]

#: quantisation bits per dimension (3 * 21 = 63 key bits + placeholder)
KEY_BITS = 21
ROOT_KEY = np.uint64(1)

_M = [
    np.uint64(0x1FFFFF),
    np.uint64(0x1F00000000FFFF),
    np.uint64(0x1F0000FF0000FF),
    np.uint64(0x100F00F00F00F00F),
    np.uint64(0x10C30C30C30C30C3),
    np.uint64(0x1249249249249249),
]


def spread_bits(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each value so they occupy every 3rd bit."""
    x = np.asarray(v, dtype=np.uint64) & _M[0]
    x = (x | (x << np.uint64(32))) & _M[1]
    x = (x | (x << np.uint64(16))) & _M[2]
    x = (x | (x << np.uint64(8))) & _M[3]
    x = (x | (x << np.uint64(4))) & _M[4]
    x = (x | (x << np.uint64(2))) & _M[5]
    return x


def compact_bits(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`spread_bits`."""
    x = np.asarray(v, dtype=np.uint64) & _M[5]
    x = (x | (x >> np.uint64(2))) & _M[4]
    x = (x | (x >> np.uint64(4))) & _M[3]
    x = (x | (x >> np.uint64(8))) & _M[2]
    x = (x | (x >> np.uint64(16))) & _M[1]
    x = (x | (x >> np.uint64(32))) & _M[0]
    return x


def keys_from_positions(pos: np.ndarray, box: float = 1.0) -> np.ndarray:
    """Full-depth keys for positions in [0, box)^3.

    Positions exactly at the upper edge are clamped into the last cell
    rather than wrapped, so callers may pass values equal to ``box``
    produced by floating-point round-off.
    """
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("positions must be (N, 3)")
    scale = (1 << KEY_BITS) / box
    q = np.floor(pos * scale).astype(np.int64)
    np.clip(q, 0, (1 << KEY_BITS) - 1, out=q)
    ix = spread_bits(q[:, 0].astype(np.uint64))
    iy = spread_bits(q[:, 1].astype(np.uint64))
    iz = spread_bits(q[:, 2].astype(np.uint64))
    key = (iz << np.uint64(2)) | (iy << np.uint64(1)) | ix
    return key | (np.uint64(1) << np.uint64(3 * KEY_BITS))


def positions_from_keys(keys: np.ndarray) -> np.ndarray:
    """Centers of the full-depth cells addressed by ``keys``, in the unit box."""
    keys = np.asarray(keys, dtype=np.uint64)
    body = keys & ~(np.uint64(1) << np.uint64(3 * KEY_BITS))
    ix = compact_bits(body)
    iy = compact_bits(body >> np.uint64(1))
    iz = compact_bits(body >> np.uint64(2))
    cell = 1.0 / (1 << KEY_BITS)
    out = np.empty(keys.shape + (3,), dtype=np.float64)
    out[..., 0] = (ix.astype(np.float64) + 0.5) * cell
    out[..., 1] = (iy.astype(np.float64) + 0.5) * cell
    out[..., 2] = (iz.astype(np.float64) + 0.5) * cell
    return out


def key_level(keys: np.ndarray) -> np.ndarray:
    """Tree level of each key (root = 0, bodies = KEY_BITS)."""
    keys = np.asarray(keys, dtype=np.uint64)
    # bit_length - 1 must be divisible by 3 for valid keys
    nbits = np.zeros(keys.shape, dtype=np.int64)
    k = keys.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        s = np.uint64(shift)
        big = k >= (np.uint64(1) << s)
        nbits += np.where(big, shift, 0)
        k = np.where(big, k >> s, k)
    return nbits // 3


def parent_key(keys: np.ndarray) -> np.ndarray:
    """Key of the parent cell (root's parent is 0, an invalid key)."""
    return np.asarray(keys, dtype=np.uint64) >> np.uint64(3)


def ancestor_key(keys: np.ndarray, level: int) -> np.ndarray:
    """Key of the level-``level`` ancestor of (deeper) keys."""
    keys = np.asarray(keys, dtype=np.uint64)
    lv = key_level(keys)
    shift = (3 * (lv - level)).astype(np.uint64)
    return keys >> shift


def cell_coordinates(keys: np.ndarray):
    """Integer ``(ix, iy, iz)`` and level of the cells addressed by ``keys``.

    The coordinates count cells of the key's own level from the box
    origin: cell ``(ix, iy, iz)`` at level ``lv`` spans
    ``[ix, ix + 1) * box / 2**lv`` along x.  Returns an int64 array of
    shape ``keys.shape + (3,)`` and the levels.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    lv = key_level(keys)
    body = keys ^ (np.uint64(1) << (np.uint64(3) * lv.astype(np.uint64)))
    idx = np.empty(keys.shape + (3,), dtype=np.int64)
    for axis in range(3):
        idx[..., axis] = compact_bits(body >> np.uint64(axis))
    return idx, lv


def cell_geometry(keys: np.ndarray, box: float = 1.0):
    """Geometric (center, side) of the cells addressed by ``keys``.

    Keys may be at any level; the level is inferred from the
    placeholder bit.
    """
    idx, lv = cell_coordinates(keys)
    side = box / (1 << lv).astype(np.float64)
    center = (idx.astype(np.float64) + 0.5) * side[..., None]
    return center, side
