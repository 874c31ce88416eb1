"""Small shared vectorization helpers."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expand_ranges", "scratch", "release_scratch"]

#: reusable per-process scratch, keyed by (tag, dtype)
_BUF_POOL: dict[tuple, np.ndarray] = {}


def scratch(tag: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """A C-contiguous ``shape`` view of pooled scratch, reused across calls.

    The evaluation blocks of the force kernels write every intermediate
    with ``out=`` into these buffers; a view is valid until the next
    request for the same ``(tag, dtype)``.
    """
    key = (tag, np.dtype(dtype).str)
    size = math.prod(shape)
    buf = _BUF_POOL.get(key)
    if buf is None or buf.size < size:
        buf = np.empty(max(size, 1), dtype=dtype)
        _BUF_POOL[key] = buf
    return buf[:size].reshape(shape)


def release_scratch() -> None:
    """Drop the pooled buffers, so they do not sit under a later phase's peak."""
    _BUF_POOL.clear()


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each (s, c) pair, vectorized.

    The workhorse of turning per-cell particle ranges into flat index
    arrays without Python loops.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # offsets within each block: global arange minus block-start positions
    block_first = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - block_first
    return np.repeat(starts, counts) + within
