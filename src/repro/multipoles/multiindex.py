"""Multi-index bookkeeping for Cartesian multipole expansions.

2HOT's Cartesian expansions (paper §2.2.2) work with symmetric rank-n
tensors.  A symmetric tensor of rank n in three dimensions has
C(n+2, 2) independent components, one per multi-index
alpha = (t, u, v) with t+u+v = n; an expansion through order p packs
all of them into a flat coefficient vector of length C(p+3, 3)
(165 for the paper's p = 8).

This module owns the enumeration order (by total order, then
lexicographic), the factorials/binomials over multi-indices, and the
precomputed index tables used by the moment translation (M2M) and
evaluation (M2P/M2L) routines.  Everything is cached per order because
the tables are pure functions of p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "n_coeffs",
    "MultiIndexSet",
    "multi_index_set",
]


def n_coeffs(p: int) -> int:
    """Number of multi-indices with |alpha| <= p (packed expansion length)."""
    return (p + 1) * (p + 2) * (p + 3) // 6


@dataclass(frozen=True)
class MultiIndexSet:
    """Precomputed tables for all multi-indices with |alpha| <= p.

    Attributes
    ----------
    p:
        Maximum expansion order.
    alphas:
        (ncoef, 3) int array; row i is the multi-index (t, u, v).
    order:
        (ncoef,) total order |alpha| of each row.
    factorial:
        (ncoef,) alpha! = t! u! v! as float.
    index:
        dict mapping (t, u, v) -> row position.
    multinomial:
        (ncoef,) n!/alpha! — the symmetric-tensor contraction weight.
    """

    p: int
    alphas: np.ndarray
    order: np.ndarray
    factorial: np.ndarray
    index: dict
    multinomial: np.ndarray

    def __len__(self) -> int:
        return len(self.alphas)

    def slice_of_order(self, n: int) -> slice:
        """Contiguous slice of the packed vector holding the rank-n terms."""
        if not 0 <= n <= self.p:
            raise ValueError(f"order {n} outside [0, {self.p}]")
        start = n_coeffs(n - 1) if n > 0 else 0
        return slice(start, n_coeffs(n))

    def packed_index(self, alphas) -> np.ndarray:
        """Packed positions of multi-indices: any (..., 3) int array -> (...).

        The closed form of the enumeration order — all lower orders,
        then the rows of this order with a larger t, then those with a
        larger u — so that index tables need no loop of :attr:`index`
        look-ups.  A negative component or |alpha| > p raises: the
        formula would otherwise name some other coefficient's slot.
        """
        a = np.asarray(alphas)
        if a.shape[-1:] != (3,) or a.dtype.kind not in "iu":
            raise ValueError("alphas must be an integer array of shape (..., 3)")
        a = a.astype(np.int64, copy=False)
        n = a.sum(axis=-1)
        if a.size and (a.min() < 0 or n.max() > self.p):
            raise ValueError(f"multi-index outside the set |alpha| <= {self.p}")
        w = n - a[..., 0]  # u + v
        return n * (n + 1) * (n + 2) // 6 + w * (w + 1) // 2 + w - a[..., 1]

    @functools.cached_property
    def translation_table(self):
        """Index triples for the M2M / L2L translation.

        M2M: translating moments from center z to z' with d = z - z',

            M'_alpha = sum_{beta <= alpha} C(alpha, beta) d^(alpha-beta) M_beta

        Returns (target, source, shift, binom): int arrays plus float
        weights, one entry per (alpha, beta) pair with beta <= alpha
        componentwise; ``shift`` indexes the packed powers d^(alpha-beta).
        """
        targets, sources, shifts, binoms = [], [], [], []
        for i, a in enumerate(self.alphas):
            t, u, v = (int(x) for x in a)
            for bt in range(t + 1):
                for bu in range(u + 1):
                    for bv in range(v + 1):
                        j = self.index[(bt, bu, bv)]
                        k = self.index[(t - bt, u - bu, v - bv)]
                        w = (
                            math.comb(t, bt)
                            * math.comb(u, bu)
                            * math.comb(v, bv)
                        )
                        targets.append(i)
                        sources.append(j)
                        shifts.append(k)
                        binoms.append(float(w))
        return (
            np.asarray(targets, dtype=np.intp),
            np.asarray(sources, dtype=np.intp),
            np.asarray(shifts, dtype=np.intp),
            np.asarray(binoms, dtype=np.float64),
        )

    @functools.cached_property
    def up(self) -> np.ndarray:
        """(3, ncoef) int64: ``up[i, b]`` is the packed index of b + e_i,
        or -1 where |b| = p — the L2P acceleration's table."""
        out = np.full((3, len(self)), -1, dtype=np.int64)
        inside = self.order < self.p
        out[:, inside] = self.packed_index(self.alphas[inside] + np.eye(3, dtype=np.int64)[:, None])
        return out

    def powers(self, d: np.ndarray) -> np.ndarray:
        """Packed monomials d^alpha for displacement vectors.

        Parameters
        ----------
        d:
            (..., 3) array of displacement vectors.

        Returns
        -------
        (..., ncoef) array with column i equal to
        d_x^t d_y^u d_z^v for alpha_i = (t, u, v).
        """
        d = np.asarray(d, dtype=np.float64)
        base = d.shape[:-1]
        out = np.empty(base + (len(self),), dtype=np.float64)
        # build monomials incrementally: x^t y^u z^v from lower powers
        px = [np.ones(base)]
        py = [np.ones(base)]
        pz = [np.ones(base)]
        for k in range(1, self.p + 1):
            px.append(px[-1] * d[..., 0])
            py.append(py[-1] * d[..., 1])
            pz.append(pz[-1] * d[..., 2])
        for i, (t, u, v) in enumerate(self.alphas):
            out[..., i] = px[t] * py[u] * pz[v]
        return out


@functools.lru_cache(maxsize=32)
def multi_index_set(p: int) -> MultiIndexSet:
    """Build (and cache) the :class:`MultiIndexSet` for order ``p``."""
    if p < 0:
        raise ValueError("expansion order must be >= 0")
    alphas = []
    for n in range(p + 1):
        for t in range(n, -1, -1):
            for u in range(n - t, -1, -1):
                alphas.append((t, u, n - t - u))
    alphas_arr = np.asarray(alphas, dtype=np.int64)
    order = alphas_arr.sum(axis=1)
    fact = np.array(
        [math.factorial(t) * math.factorial(u) * math.factorial(v) for t, u, v in alphas],
        dtype=np.float64,
    )
    index = {tuple(int(x) for x in a): i for i, a in enumerate(alphas)}
    multinom = np.array(
        [math.factorial(int(n)) for n in order], dtype=np.float64
    ) / fact
    return MultiIndexSet(
        p=p,
        alphas=alphas_arr,
        order=order,
        factorial=fact,
        index=index,
        multinomial=multinom,
    )
