"""Halo finding: friends-of-friends and spherical overdensity (paper §3.4.5).

The paper's pipeline identifies halos with ``vfind`` (FOF and
isodensity) and later ROCKSTAR, and reports the Fig. 8 mass function
with spherical-overdensity (SO) masses M200 (Delta = 200 x mean
density) because "a more observationally relevant spherical
overdensity mass definition" is what Tinker08 calibrates.

* :func:`fof_halos` — friends-of-friends with linking length
  b x (mean interparticle separation), periodic, built on a
  cKDTree pair query plus sparse connected components.
* :func:`so_masses` — spherical overdensity mass about each halo's
  densest region: grow a sphere until the enclosed mean density falls
  below Delta x rho_mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

__all__ = ["FOFResult", "fof_halos", "so_masses", "HaloCatalog"]


@dataclass
class FOFResult:
    """Friends-of-friends output.

    ``labels`` maps each particle to a group id (-1 for isolated
    particles below ``min_members``); groups are ordered by decreasing
    membership.
    """

    labels: np.ndarray
    n_groups: int
    sizes: np.ndarray  # per-group member counts
    centers: np.ndarray  # per-group center of mass (periodic-aware), (G, 3)
    masses: np.ndarray  # per-group total FOF mass


@dataclass
class HaloCatalog:
    """SO catalog: centers, M_Delta masses and radii (box units)."""

    centers: np.ndarray
    m_delta: np.ndarray
    r_delta: np.ndarray
    n_members: np.ndarray
    delta: float


def fof_halos(
    pos: np.ndarray,
    mass: np.ndarray,
    linking_length: float = 0.2,
    min_members: int = 20,
) -> FOFResult:
    """Periodic friends-of-friends groups of positions in the unit box.

    Parameters
    ----------
    linking_length:
        In units of the mean interparticle separation n^{-1/3}
        (b = 0.2 is the standard choice).
    min_members:
        Groups below this size get label -1 (field particles).
    """
    pos = np.asarray(pos, dtype=np.float64) % 1.0
    n = len(pos)
    ll = linking_length / n ** (1.0 / 3.0)
    tree = cKDTree(pos, boxsize=1.0)
    pairs = tree.query_pairs(ll, output_type="ndarray")
    graph = sparse.coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    n_comp, raw = sparse.csgraph.connected_components(graph, directed=False)
    counts = np.bincount(raw, minlength=n_comp)
    # keep groups with enough members, order by decreasing size
    keep = np.flatnonzero(counts >= min_members)
    order = keep[np.argsort(counts[keep])[::-1]]
    remap = np.full(n_comp, -1, dtype=np.int64)
    remap[order] = np.arange(len(order))
    labels = remap[raw]

    n_groups = len(order)
    sizes = counts[order]
    centers = np.zeros((n_groups, 3))
    masses = np.zeros(n_groups)
    m = np.asarray(mass, dtype=np.float64)
    if n_groups:
        masses = np.bincount(
            labels[labels >= 0], weights=m[labels >= 0], minlength=n_groups
        )
        # periodic-aware center of mass: average unit-circle phases
        for ax in range(3):
            theta = pos[:, ax] * 2 * np.pi
            grouped = labels >= 0
            c = np.bincount(
                labels[grouped], weights=(m * np.cos(theta))[grouped], minlength=n_groups
            )
            s = np.bincount(
                labels[grouped], weights=(m * np.sin(theta))[grouped], minlength=n_groups
            )
            centers[:, ax] = (np.arctan2(s, c) % (2 * np.pi)) / (2 * np.pi)
    return FOFResult(
        labels=labels, n_groups=n_groups, sizes=sizes, centers=centers, masses=masses
    )


def so_masses(
    pos: np.ndarray,
    mass: np.ndarray,
    seeds: np.ndarray,
    delta: float = 200.0,
) -> HaloCatalog:
    """Spherical-overdensity masses about seed centers in the unit box.

    For each seed, particles are sorted by (periodic) radius and the
    enclosed density profile rho(<r) = M(<r) / (4/3 pi r^3) is scanned
    outward; R_Delta is the largest radius where it still exceeds
    Delta x rho_mean, and M_Delta the mass inside.

    Seeds whose central density never reaches the threshold are
    dropped.  The center is refined once by recentering on the
    center of mass of the inner third of the initial sphere (a cheap
    stand-in for ROCKSTAR's density maximum).  The profile is scanned
    out to a quarter of the box.  In the unit box rho_mean is the
    total mass.
    """
    pos = np.asarray(pos, dtype=np.float64) % 1.0
    m = np.asarray(mass, dtype=np.float64)
    tree = cKDTree(pos, boxsize=1.0)
    thresh = delta * m.sum()

    centers, m_out, r_out, n_out = [], [], [], []
    r_max = 0.25
    for seed in np.atleast_2d(seeds):
        center = np.asarray(seed, dtype=np.float64) % 1.0
        for _pass in range(2):
            idx = tree.query_ball_point(center, r_max)
            if not idx:
                break
            idx = np.asarray(idx)
            d = pos[idx] - center
            d -= np.round(d)
            r = np.sqrt(np.einsum("ij,ij->i", d, d))
            order = np.argsort(r)
            r_sorted = r[order]
            csum = np.cumsum(m[idx][order])
            if _pass == 0:
                # recenter on the inner particles
                inner = order[: max(8, len(order) // 10)]
                w = m[idx][inner]
                center = (center + (d[inner] * w[:, None]).sum(0) / w.sum()) % 1.0
        else:
            pass
        if not len(idx):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            rho_enc = csum / (4.0 / 3.0 * np.pi * np.maximum(r_sorted, 1e-12) ** 3)
        above = np.flatnonzero(rho_enc[5:] > thresh) + 5  # skip tiny-r noise
        if len(above) == 0:
            continue
        i = above[-1]
        centers.append(center)
        m_out.append(csum[i])
        r_out.append(r_sorted[i])
        n_out.append(i + 1)
    return HaloCatalog(
        centers=np.array(centers).reshape(-1, 3),
        m_delta=np.asarray(m_out),
        r_delta=np.asarray(r_out),
        n_members=np.asarray(n_out, dtype=np.int64),
        delta=delta,
    )
