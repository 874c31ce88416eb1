"""Small shared vectorization helpers."""

from __future__ import annotations

import numpy as np

__all__ = ["expand_ranges"]


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
