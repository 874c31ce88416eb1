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

The leaf P2M and the M2M pass (with the absolute moments and b_max) are
two calls into the compiled upward unit (:func:`repro.gravity.native.upward`),
which sums in numpy's order so that its moments, b_max and r_crit are
those of the numpy pass it replaced, bit for bit; the background cube
between the two calls, the norms and r_crit stay numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..multipoles import critical_radius, cube_moments, multi_index_set
from ..multipoles.bounds import critical_radius_moment
from ..multipoles.multiindex import n_coeffs
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
    from ..gravity import native  # (repro.gravity imports this module)

    p_store = p + 2
    mis = multi_index_set(p_store)
    ncoef = len(mis)
    n_cells = tree.n_cells
    moments = np.zeros((n_cells, ncoef), dtype=np.float64)
    babs = np.zeros((n_cells, p + 2), dtype=np.float64)
    bmax = np.zeros(n_cells, dtype=np.float64)
    lib = native.upward()

    # ----- leaves: particle moments (compiled P2M) -----------------------------
    lib.p2m_leaves(
        n_leaves=len(tree.leaf_indices), leaves=tree.leaf_indices, cell_start=tree.cell_start,
        cell_count=tree.cell_count, cell_center=tree.cell_center, pos=tree.pos, mass=tree.mass,
        pmax=p_store, ncoef=ncoef, alphas=mis.alphas, nb=p + 2, xz_first=_einsum_xz_first(),
        moments=moments, babs=babs, bmax=bmax,
    )

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

    # ----- upward M2M, absolute moments and bmax (compiled) --------------------
    tgt, src, shift, binom = mis.translation_table
    lib.m2m_upward(
        n_cells=n_cells, cell_level=tree.cell_level, first_child=tree.cell_first_child,
        nchildren=tree.cell_nchildren, cell_center=tree.cell_center, cell_side=tree.cell_side,
        pmax=p_store, ncoef=ncoef, alphas=mis.alphas, n_terms=len(tgt), tgt=tgt, src=src,
        shift=shift, binom=binom, nb=p + 2, moments=moments, babs=babs, bmax=bmax,
    )

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


@functools.lru_cache(maxsize=1)
def _einsum_xz_first() -> bool:
    """Whether numpy's ``einsum("ij,ij->i")`` sums a 3-vector's squares
    as (x^2 + z^2) + y^2 rather than (x^2 + y^2) + z^2.

    Its SIMD dot product folds the lanes of one vector, and the order
    follows the vector width of the host's numpy build (2 or 8 lanes:
    x^2 + z^2 first; 4 lanes: x^2 + y^2 first).  The leaf radius ``r``
    behind ``bmax`` has always been that einsum's, so the compiled P2M
    asks which order this host's einsum takes.
    """
    d = np.random.default_rng(0).standard_normal((256, 3))
    sq = d * d
    e = np.einsum("ij,ij->i", d, d)
    if np.array_equal(e, (sq[:, 0] + sq[:, 2]) + sq[:, 1]):
        return True
    if np.array_equal(e, (sq[:, 0] + sq[:, 1]) + sq[:, 2]):
        return False
    raise RuntimeError("numpy's einsum sums three squares in an order the P2M does not know")
