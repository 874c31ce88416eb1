"""Vectorized open-addressing hash table for hcells (WS93 §"hashed" oct-tree).

HOT's defining data structure is a hash table mapping tree keys to
cell records ("hcells"), so that any cell — local or remote — can be
addressed by its key without pointer chasing.  This is a NumPy
implementation of the same idea: open addressing with linear probing,
the WS93 and-mask hash function ``h(k) = k & (2^b - 1)``, and fully
vectorized batch insert/lookup so millions of keys are hashed per
call.

The table is append-only (cells are never deleted during a tree's
lifetime), which keeps probing correct without tombstones.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HashTable"]

_EMPTY = np.uint64(0)  # 0 is never a valid WS93 key (placeholder bit)


class HashTable:
    """uint64 -> int64 hash map with linear probing.

    Parameters
    ----------
    capacity:
        Initial number of slots (rounded up to a power of two).  The
        table grows automatically beyond 70% load.
    """

    def __init__(self, capacity: int = 1024):
        nbits = max(4, int(np.ceil(np.log2(max(capacity, 2)))))
        self._nbits = nbits
        self._keys = np.zeros(1 << nbits, dtype=np.uint64)
        self._vals = np.full(1 << nbits, -1, dtype=np.int64)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return len(self._keys)

    def _mask(self) -> np.uint64:
        return np.uint64(self.capacity - 1)

    def _grow(self) -> None:
        old_keys, old_vals = self._keys, self._vals
        self._nbits += 1
        self._keys = np.zeros(1 << self._nbits, dtype=np.uint64)
        self._vals = np.full(1 << self._nbits, -1, dtype=np.int64)
        self._count = 0
        live = old_keys != _EMPTY
        if np.any(live):
            self.insert(old_keys[live], old_vals[live])

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert key->value pairs (duplicate keys overwrite).

        Keys must be non-zero (zero is the empty-slot sentinel, and no
        valid WS93 key is zero thanks to the placeholder bit).
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64).ravel()
        values = np.ascontiguousarray(values, dtype=np.int64).ravel()
        if keys.shape != values.shape:
            raise ValueError("keys and values must have the same length")
        if np.any(keys == _EMPTY):
            raise ValueError("key 0 is reserved for empty slots")
        while (self._count + len(keys)) > 0.7 * self.capacity:
            self._grow()
        # de-duplicate within the batch (keep last occurrence)
        _, last = np.unique(keys[::-1], return_index=True)
        sel = len(keys) - 1 - last
        keys = keys[sel]
        values = values[sel]
        slots = keys & self._mask()
        pending = np.arange(len(keys))
        while len(pending):
            s = slots[pending]
            occupant = self._keys[s]
            free = occupant == _EMPTY
            match = occupant == keys[pending]
            place = free | match
            if np.any(place):
                idx = pending[place]
                tgt = slots[idx]
                # collisions *within* the batch: two distinct new keys
                # mapping to the same free slot — keep the first, retry rest
                order = np.argsort(tgt, kind="stable")
                tgt_sorted = tgt[order]
                first = np.ones(len(tgt_sorted), dtype=bool)
                first[1:] = tgt_sorted[1:] != tgt_sorted[:-1]
                winners = idx[order[first]]
                was_new = self._keys[slots[winners]] == _EMPTY
                self._keys[slots[winners]] = keys[winners]
                self._vals[slots[winners]] = values[winners]
                self._count += int(np.count_nonzero(was_new))
                placed = np.zeros(len(keys), dtype=bool)
                placed[winners] = True
                pending = pending[~placed[pending]]
                if len(pending) == 0:
                    break
            # everyone still pending saw a slot holding a different key
            # (either a pre-existing entry or an in-batch race winner):
            # probe linearly onward
            slots[pending] = (slots[pending] + np.uint64(1)) & self._mask()

    def lookup(self, keys: np.ndarray, default: int = -1) -> np.ndarray:
        """Vectorized lookup; returns ``default`` for missing keys."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64).ravel()
        out = np.full(len(keys), default, dtype=np.int64)
        slots = keys & self._mask()
        pending = np.arange(len(keys))
        for _ in range(self.capacity):
            if len(pending) == 0:
                break
            s = slots[pending]
            occupant = self._keys[s]
            hit = occupant == keys[pending]
            miss = occupant == _EMPTY
            out[pending[hit]] = self._vals[s[hit]]
            done = hit | miss
            pending = pending[~done]
            slots[pending] = (slots[pending] + np.uint64(1)) & self._mask()
        return out

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test."""
        return self.lookup(keys, default=-1) >= 0
