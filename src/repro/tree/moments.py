"""Upward pass: cell moments, absolute moments, and MAC radii.

Computes, for every cell of a :class:`~repro.tree.structure.Tree`:

* packed Cartesian moments about the *geometric* cell center (paper
  §2.2.1 — geometric centers make the uniform-background subtraction a
  few operations, at the cost of carrying dipoles),
* the absolute moments B_0..B_{p+1} and the bounding radius b_max that
  feed the Salmon-Warren error bound,
* the critical MAC radius r_crit at the requested force tolerance.

Background subtraction is applied at the leaf level only (real leaves:
particle moments minus the mean-density cube; ghost leaves: minus the
cube alone); because the eight child cubes tile the parent cube
exactly, the ordinary M2M upward pass then produces
background-subtracted moments at *every* level automatically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..multipoles import critical_radius, cube_moments, m2m, multi_index_set
from ..multipoles.bounds import critical_radius_moment
from ..multipoles.multiindex import n_coeffs
from ..util import expand_ranges
from .structure import Tree

__all__ = ["TreeMoments", "compute_moments", "unit_cube_abs_moment"]


@functools.lru_cache(maxsize=64)
def unit_cube_abs_moment(n: int) -> float:
    """I_n = integral over the unit cube (about its center) of |x|^n.

    Used to bound the absolute moments contributed by the subtracted
    uniform background: B_n(background) = rho * s^{3+n} * I_n for a
    cube of side s.  A 32-node Gauss-Legendre product rule on one
    octant (the integrand is smooth there but for the corner at the
    origin): <= 1.2e-12 relative against adaptive quadrature for
    n = 0..5, in a millisecond; cached.
    """
    t, w = np.polynomial.legendre.leggauss(32)
    x = 0.25 * (t + 1.0)  # nodes on [0, 1/2]
    r2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
    w3 = w[:, None, None] * w[None, :, None] * w[None, None, :]
    return float(8.0 * 0.25**3 * np.sum(w3 * r2 ** (n / 2.0)))


@dataclass
class TreeMoments:
    """Per-cell expansion data produced by :func:`compute_moments`.

    ``moments`` is stored through order p+2 (packed prefix layout):
    the interaction routines consume the first n_coeffs(p) columns,
    while the order-(p+1) and (p+2) blocks feed the moment-norm MAC,
    which — unlike the rigorous absolute-moment bound — sees the
    cancellation created by background subtraction.
    """

    p: int
    tol: float
    background: bool
    mean_density: float
    mac: str
    moments: np.ndarray  # (C, n_coeffs(p+2))
    babs: np.ndarray  # (C, p+2) absolute moments B_0..B_{p+1}
    bmax: np.ndarray  # (C,)
    mnorm: np.ndarray  # (C,) Frobenius norm of the order-(p+1) block
    mnorm2: np.ndarray  # (C,) Frobenius norm of the order-(p+2) block
    r_crit: np.ndarray  # (C,)

    @property
    def ncoef(self) -> int:
        """Number of coefficients used by interactions (order <= p)."""
        return n_coeffs(self.p)


def compute_moments(
    tree: Tree,
    p: int,
    tol: float,
    background: bool = False,
    mean_density: float | None = None,
    mac: str = "moment",
) -> TreeMoments:
    """Run the upward pass over ``tree``.

    Parameters
    ----------
    p:
        Expansion order used by the interactions (moments are carried
        one order higher for the MAC).
    tol:
        Absolute acceleration tolerance for the MAC (the paper's
        "errtol"; its scientific runs use 1e-5 in code units).
    background:
        Subtract the uniform background (requires the tree to have
        been built ``with_ghosts=True`` and a ``mean_density``).
    mac:
        "moment" — first-neglected-term estimate from the order-(p+1)
        moment norm (default; benefits from background subtraction), or
        "absolute" — rigorous Salmon-Warren absolute-moment bound.
    """
    if mac not in ("moment", "absolute"):
        raise ValueError(f"unknown MAC kind {mac!r}")
    if background:
        if mean_density is None:
            raise ValueError("background subtraction requires mean_density")
        internal = tree.cell_first_child >= 0
        if np.any(tree.cell_nchildren[internal] != 8):
            raise ValueError(
                "background subtraction requires a tree built with_ghosts=True "
                "(every split cell must have all 8 octants materialized)"
            )
    p_store = p + 2
    mis = multi_index_set(p_store)
    ncoef = len(mis)
    n_cells = tree.n_cells
    moments = np.zeros((n_cells, ncoef), dtype=np.float64)
    babs = np.zeros((n_cells, p + 2), dtype=np.float64)
    bmax = np.zeros(n_cells, dtype=np.float64)

    # ----- leaves: particle moments ------------------------------------------
    leaves = tree.leaf_indices
    lorder = np.argsort(tree.cell_start[leaves])
    leaves = leaves[lorder]
    starts = tree.cell_start[leaves]
    counts = tree.cell_count[leaves]
    centers = np.repeat(tree.cell_center[leaves], counts, axis=0)
    dd = tree.pos - centers
    mono = mis.powers(dd) * tree.mass[:, None]
    moments[leaves] = np.add.reduceat(mono, starts, axis=0)
    r = np.sqrt(np.einsum("ij,ij->i", dd, dd))
    rp = r[None, :] ** np.arange(p + 2)[:, None] * tree.mass[None, :]
    babs[leaves] = np.add.reduceat(rp, starts, axis=1).T
    bmax[leaves] = np.maximum.reduceat(r, starts)

    # ----- background at the leaf level ---------------------------------------
    if background:
        rho = float(mean_density)
        all_leaf = np.flatnonzero(tree.is_leaf)
        side = tree.cell_side[all_leaf]
        moments[all_leaf] -= cube_moments(p_store, side, rho)
        icoef = np.array([unit_cube_abs_moment(k) for k in range(p + 2)])
        babs[all_leaf] += rho * side[:, None] ** (3 + np.arange(p + 2))[None, :] * icoef
        # a leaf's background fills its whole cube, so bmax is the corner
        # distance (which also bounds any particle radius inside the cube)
        bmax[all_leaf] = side * np.sqrt(3.0) / 2.0

    # ----- upward M2M by level --------------------------------------------------
    binom = np.array(
        [[_comb(nn, kk) for kk in range(p + 2)] for nn in range(p + 2)],
        dtype=np.float64,
    )
    for level in range(tree.max_level - 1, -1, -1):
        cells = tree.cells_at_level(level)
        internal = cells[tree.cell_first_child[cells] >= 0]
        if len(internal) == 0:
            continue
        kids = expand_ranges(
            tree.cell_first_child[internal], tree.cell_nchildren[internal]
        )
        kid_parent = np.repeat(internal, tree.cell_nchildren[internal])
        d = tree.cell_center[kids] - tree.cell_center[kid_parent]
        translated = m2m(moments[kids], d, p_store)
        np.add.at(moments, kid_parent, translated)
        # absolute moments: B_n(parent) <= sum_child sum_k C(n,k) |d|^{n-k} B_k
        dn = np.linalg.norm(d, axis=1)
        dpow = dn[:, None] ** np.arange(p + 2)[None, :]
        bk = babs[kids]
        bup = np.zeros_like(bk)
        for nn in range(p + 2):
            # sum_k C(nn,k) dpow[:, nn-k] * bk[:, k]
            ks = np.arange(nn + 1)
            bup[:, nn] = (binom[nn, ks] * dpow[:, nn - ks] * bk[:, ks]).sum(axis=1)
        np.add.at(babs, kid_parent, bup)
        reach = dn + bmax[kids]
        np.maximum.at(bmax, kid_parent, reach)
        corner = tree.cell_side[internal] * np.sqrt(3.0) / 2.0
        bmax[internal] = np.minimum(bmax[internal], corner)

    # Frobenius norms (with multinomial weights) of the two top blocks
    sl1 = mis.slice_of_order(p + 1)
    sl2 = mis.slice_of_order(p + 2)
    mnorm = np.sqrt(
        (mis.multinomial[sl1][None, :] * moments[:, sl1] ** 2).sum(axis=1)
    )
    mnorm2 = np.sqrt(
        (mis.multinomial[sl2][None, :] * moments[:, sl2] ** 2).sum(axis=1)
    )
    if mac == "moment":
        r_crit = critical_radius_moment(p, bmax, mnorm, tol, mnorm_p2=mnorm2)
    else:
        r_crit = critical_radius(p, bmax, babs[:, p + 1], tol)
    return TreeMoments(
        p=p,
        tol=tol,
        background=background,
        mean_density=float(mean_density or 0.0),
        mac=mac,
        moments=moments,
        babs=babs,
        bmax=bmax,
        mnorm=mnorm,
        mnorm2=mnorm2,
        r_crit=r_crit,
    )


def _comb(n: int, k: int) -> float:
    import math

    return float(math.comb(n, k)) if 0 <= k <= n else 0.0
