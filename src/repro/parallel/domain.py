"""Space-filling-curve domain decomposition (paper §3.1, Fig. 4).

Positions map to SFC keys (Morton, as the hashed tree uses, or Hilbert
for more compact domains); splitting the sorted key line into P
work-balanced segments assigns each rank a contiguous curve interval —
spatially compact, cache-friendly, and incrementally updatable because
particles move only a short distance along the curve per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..keys import hilbert_keys_from_positions, keys_from_positions

__all__ = ["Decomposition", "decompose", "domain_surface_stats", "sfc_cut"]

_ENCODE = {"morton": keys_from_positions, "hilbert": hilbert_keys_from_positions}


def sfc_cut(weights: np.ndarray, n_pieces: int) -> np.ndarray:
    """Bounds of ``min(n_pieces, len(weights))`` contiguous, non-empty,
    equal-weight pieces of a curve-ordered sequence: piece ``k`` is items
    ``[bounds[k], bounds[k+1])``, and cut ``k`` follows the first item
    whose cumulative weight reaches ``k / n_pieces`` of the total (or moves just
    far enough that no piece is empty).  Ranks (:func:`decompose`) and
    the worker pool's shards are both cut here.
    """
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    n = len(cum)
    pieces = max(1, min(int(n_pieces), n))
    k = np.arange(1, pieces)
    cuts = np.searchsorted(cum, k * cum[-1] / pieces, side="left") + 1
    # cut k lies in [k, n - pieces + k]; cuts - k non-decreasing keeps
    # every piece non-empty
    cuts = np.maximum.accumulate(np.clip(cuts - k, 0, n - pieces)) + k
    return np.concatenate([[0], cuts, [n]])


@dataclass
class Decomposition:
    """Assignment of particles to ranks along the space-filling curve."""

    rank_of: np.ndarray  # (N,) owning rank per particle
    splitters: np.ndarray  # (P-1,) key splitters
    keys: np.ndarray  # (N,) SFC key per particle
    curve: str

    @property
    def n_ranks(self) -> int:
        return len(self.splitters) + 1

    def counts(self) -> np.ndarray:
        return np.bincount(self.rank_of, minlength=self.n_ranks)

    def load_imbalance(self, weights: np.ndarray | None = None) -> float:
        """max(work) / mean(work) - 1 over ranks."""
        work = np.bincount(self.rank_of, weights=weights, minlength=self.n_ranks)
        return float(work.max() / work.mean() - 1.0)


def decompose(
    pos: np.ndarray,
    n_ranks: int,
    weights: np.ndarray | None = None,
    curve: str = "morton",
) -> Decomposition:
    """Split particles in the unit box into ``n_ranks`` SFC-contiguous,
    work-balanced domains.

    ``weights`` are per-particle work estimates (interaction counts
    from the previous step in HOT); :func:`sfc_cut` equalizes their
    cumulative sum along the curve.
    """
    if curve not in _ENCODE:
        raise ValueError(f"unknown curve {curve!r}")
    if not 1 <= n_ranks <= len(pos):
        raise ValueError(f"n_ranks must be in [1, {len(pos)}], got {n_ranks}")
    pos = np.asarray(pos, dtype=np.float64)
    keys = _ENCODE[curve](pos % 1.0)
    order = np.argsort(keys, kind="stable")
    w = np.ones(len(pos)) if weights is None else np.asarray(weights, dtype=np.float64)
    # each rank's first key splits it from the rank before
    splitters = keys[order][sfc_cut(w[order], n_ranks)[1:-1]]
    rank_of = np.searchsorted(splitters, keys, side="right")
    return Decomposition(rank_of=rank_of, splitters=splitters, keys=keys, curve=curve)


_SURFACE_PROBES = 4000


def domain_surface_stats(
    pos: np.ndarray, decomp: Decomposition, probe: float = 0.02
) -> dict:
    """Compactness diagnostics of a decomposition (Fig. 4's point).

    Estimates the fraction of particles within ``probe`` of a domain
    boundary (a proxy for the communication surface) by sampling
    particle pairs at separation ~probe and counting cross-domain
    pairs, plus the mean spatial extent of each domain.  At most
    :data:`_SURFACE_PROBES` particles are sampled, with a fixed seed.
    """
    rng = np.random.default_rng(0)
    pos = np.asarray(pos, dtype=np.float64)
    n = len(pos)
    take = min(_SURFACE_PROBES, n)
    idx = rng.choice(n, take, replace=False)
    u = rng.standard_normal((take, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    partner = (pos[idx] + probe * u) % 1.0
    pk = _ENCODE[decomp.curve](partner)
    partner_rank = np.searchsorted(decomp.splitters, pk, side="right")
    cross = partner_rank != decomp.rank_of[idx]
    # domain extents
    p = decomp.n_ranks
    extent = np.zeros(p)
    for r in range(p):
        sel = decomp.rank_of == r
        if np.any(sel):
            extent[r] = (pos[sel].max(axis=0) - pos[sel].min(axis=0)).max()
    return {
        "boundary_fraction": float(cross.mean()),
        "mean_extent": float(extent.mean()),
        "max_extent": float(extent.max()),
        "counts": decomp.counts(),
    }
