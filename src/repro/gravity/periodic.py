"""Periodic boundary conditions by lattice-summed local expansions (§2.4).

2HOT adopts the method of Challacombe, White & Head-Gordon (1997),
rooted in Nijboer & De Wette (1957) and first used cosmologically by
Metchnik (2009): the force from all periodic images beyond the
explicitly-traversed near images (|n|_inf <= ws) is expressed as a
local (Taylor) expansion about the box center whose coefficients are
*lattice sums* — precomputed once per geometry, independent of the
particle distribution:

    L_beta = sum_alpha ((-1)^{|a|}/a!) M_alpha T_{alpha+beta}
    T_gamma = sum_{|n|_inf > ws} d^gamma (1/|x - n L|) |_{x=0}

The conditionally/slowly convergent T_gamma are evaluated by Ewald
decomposition: an absolutely convergent erfc-kernel real-space sum
over all n != 0, plus a Gaussian-damped k-space sum, plus the analytic
x -> 0 self term, minus the explicitly-traversed near images with the
bare Newtonian kernel.  The paper uses p = 8 and ws = 2 and reaches
~1e-7 of the force, with the local expansion costing ~1% and the 124
boundary images 5-10% of the force calculation — ratios the
benchmarks reproduce.

The cube of lattice (or wave) vectors maps onto itself under the 48
signed axis permutations of the cubic group, and each summand f_gamma —
a derivative tensor of a radial function, or a monomial times one —
picks up (-1)^gamma_i under a flip of axis i and a permuted gamma under
a permutation.  Summed over the orbit of one vector n,

    sum_{n' in orbit(n)} f_gamma(n') = (|orbit| / 6) sum_{sigma in S_3} f_{sigma gamma}(n)

when every gamma_i is even, and exactly 0 otherwise.  The three sums
are therefore taken over the fundamental wedge n_x >= n_y >= n_z >= 0
with weights |orbit| = 48 / |Stab n| and symmetrised in the packed
index (:func:`_orbit_sum`): 83 + 9 lattice vectors instead of 2,196 +
124 for rmax = 6, ws = 2, and 164 wave vectors instead of 4,912 for
kmax = 8.  The sums over the full cubes are kept in ``tests/oracle.py``;
each agrees with its wedge sum to 1e-13 per order.  (The *total* is less
well conditioned than its pieces: at orders 12-14 the erfc and k-space
sums cancel 7-8 digits, so T depends on the Ewald alpha — and on the
order of summation — at the 1e-6 level there.)

The box's own moments must be background-subtracted (zero monopole);
the surviving fluctuation moments feed M2L against the lattice sums.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ..multipoles import multi_index_set
from ..multipoles.dtensors import derivative_tensors
from ..multipoles.radial import ErfcKernel, NewtonianKernel
from . import native

__all__ = ["lattice_sums", "PeriodicLocalExpansion"]


def _wedge(nmax: int):
    """The cube 0 < |n|_inf <= nmax modulo the cubic group.

    Returns (reps, size): one representative n_x >= n_y >= n_z >= 0 per
    orbit, and the orbit's size 48 / |Stab n| — the distinct
    arrangements of the three components times a sign per nonzero one.
    """
    reps = np.array(
        [(a, b, c) for a in range(1, nmax + 1) for b in range(a + 1) for c in range(b + 1)],
        dtype=np.int64,
    ).reshape(-1, 3)
    a, b, c = reps.T
    arrangements = np.where((a == b) & (b == c), 1, np.where((a == b) | (b == c), 3, 6))
    return reps, arrangements * 2 ** np.count_nonzero(reps, axis=1)


@functools.lru_cache(maxsize=8)
def _symmetriser(order: int):
    """(perms, even) for the packed multi-indices |gamma| <= order.

    ``perms[s, i]`` is the packed position of the s-th axis permutation
    of gamma_i *sorted descending*: every member of a permutation class
    reads the same six entries in the same order, so the symmetrised
    values are equal exactly, not to round-off.  ``even[i]`` is whether
    every component of gamma_i is even.
    """
    mis = multi_index_set(order)
    canon = -np.sort(-mis.alphas, axis=1)
    perms = np.stack(
        [mis.packed_index(canon[:, s]) for s in itertools.permutations(range(3))]
    )
    return perms, ~np.any(mis.alphas % 2, axis=1)


def _orbit_sum(nmax: int, order: int, terms) -> np.ndarray:
    """sum_{0 < |n|_inf <= nmax} f_gamma(n), packed, from the wedge alone.

    ``terms(reps)`` -> (len(reps), ncoef) holds f_gamma at the wedge
    vectors, for an f that transforms as the module docstring's orbit
    identity needs: (-1)^gamma_i under a flip of axis i, a permuted
    gamma under an axis permutation.
    """
    reps, size = _wedge(nmax)
    perms, even = _symmetriser(order)
    s = size.astype(np.float64) @ terms(reps.astype(np.float64))
    return np.where(even, s[perms].sum(axis=0) / 6.0, 0.0)


def _image_sum(order: int, nmax: int, box: float, kernel) -> np.ndarray:
    """sum over the images 0 < |n|_inf <= nmax of d^gamma kernel(x - nL) at x = 0."""
    # the displacement from image center (-nL) to 0 is +nL; summing over
    # the symmetric lattice makes the sign convention immaterial
    return _orbit_sum(nmax, order, lambda n: derivative_tensors(n * box, kernel, order))


def _wave_sum(order: int, kmax: int, box: float, alpha: float) -> np.ndarray:
    """The Gaussian-damped k-space half of the Ewald sum, 0 < |k|_inf <= kmax."""
    mis = multi_index_set(order)

    def terms(m):
        kvec = m * (2.0 * np.pi / box)
        k2 = np.einsum("ij,ij->i", kvec, kvec)
        kcoef = 4.0 * np.pi / box**3 * np.exp(-k2 / (4.0 * alpha * alpha)) / k2
        return kcoef[:, None] * mis.powers(kvec)  # k^gamma

    # d^gamma cos(k.x)|_0 = Re[(ik)^gamma]: nonzero for even |gamma| with
    # sign (-1)^{|gamma|/2}
    return np.where(mis.order % 4 == 0, 1.0, -1.0) * _orbit_sum(kmax, order, terms)


def _self_term(order: int, alpha: float) -> np.ndarray:
    """d^gamma [erf(alpha r)/r] at 0 (all-even gamma only)."""
    mis = multi_index_set(order)
    self_part = np.zeros(len(mis))
    for i, g in enumerate(mis.alphas):
        t, u, v = (int(x) for x in g)
        if t % 2 or u % 2 or v % 2:
            continue
        dt, du, dv = t // 2, u // 2, v // 2
        j = dt + du + dv
        cj = (
            2.0
            * alpha
            / math.sqrt(math.pi)
            * (-1.0) ** j
            * alpha ** (2 * j)
            / (math.factorial(j) * (2 * j + 1))
        )
        gamma_fact = (
            math.factorial(t) * math.factorial(u) * math.factorial(v)
        )
        multi = math.factorial(j) / (
            math.factorial(dt) * math.factorial(du) * math.factorial(dv)
        )
        self_part[i] = cj * multi * gamma_fact
    return self_part


@functools.lru_cache(maxsize=8)
def _lattice_sums_cached(order: int, ws: int, box: float, alpha: float,
                         rmax: int, kmax: int) -> np.ndarray:
    # Ewald: erfc real-space sum over all n != 0, k-space sum, minus the
    # analytic x -> 0 self term
    total = (
        _image_sum(order, rmax, box, ErfcKernel(alpha))
        + _wave_sum(order, kmax, box, alpha)
        - _self_term(order, alpha)
    )
    # gamma = 0 background term of the Ewald potential
    total[0] -= math.pi / (alpha * alpha * box**3)
    # subtract the explicitly-traversed near images (bare kernel)
    total -= _image_sum(order, ws, box, NewtonianKernel())
    return total


def lattice_sums(
    order: int,
    ws: int = 2,
    box: float = 1.0,
    alpha: float | None = None,
    rmax: int = 6,
    kmax: int = 8,
) -> np.ndarray:
    """Packed far-lattice derivative sums T_gamma, |gamma| <= order.

    ``order`` should be p_source + p_local (+1 if forces are evaluated
    from the local expansion).  Results are cached per geometry.
    """
    a = 2.0 / box if alpha is None else float(alpha)
    return _lattice_sums_cached(order, ws, float(box), a, rmax, kmax)


class PeriodicLocalExpansion:
    """Far-image correction: box multipoles -> local expansion -> particles.

    Parameters
    ----------
    p_source:
        Order of the box moments supplied (the tree's expansion order).
    p_local:
        Order of the local expansion about the box center (the paper
        uses 8).
    ws:
        Near-image window explicitly handled by the traversal.
    """

    def __init__(self, p_source: int, p_local: int = 8, ws: int = 2, box: float = 1.0):
        self.p_source = p_source
        self.p_local = p_local
        self.ws = ws
        self.box = float(box)
        self._tsum = lattice_sums(p_source + p_local + 1, ws=ws, box=box)
        self._mis_hi = multi_index_set(p_source + p_local + 1)
        self._mis_src = multi_index_set(p_source)
        self._mis_loc = multi_index_set(p_local + 1)
        # precolumns for the L_beta contraction
        self._cols = self._mis_hi.packed_index(
            self._mis_loc.alphas[:, None, :] + self._mis_src.alphas[None, :, :]
        )
        self._w = ((-1.0) ** self._mis_src.order) / self._mis_src.factorial
        self._inv_fact = 1.0 / self._mis_loc.factorial

    def local_coefficients(self, box_moments: np.ndarray) -> np.ndarray:
        """L_beta (packed, order p_local + 1) from packed box moments.

        ``box_moments`` must be about the box center and background-
        subtracted (vanishing monopole) — the delta-rho convention of
        the rest of the library.
        """
        m = np.asarray(box_moments, dtype=np.float64)[: len(self._mis_src)]
        wm = self._w * m
        return self._tsum[self._cols] @ wm

    def field(self, box_moments: np.ndarray, pos: np.ndarray):
        """(potential, acceleration) of the far images at positions.

        Positions are in [0, box)^3; the expansion center is the box
        center.  The L2P runs in the compiled upward unit
        (:func:`repro.gravity.native.upward`): the acceleration sums in
        the numpy order it replaced, bit for bit; the potential in table
        order, within 1e-14 of the former BLAS sum.
        """
        loc = self.local_coefficients(box_moments)
        pot = np.empty(len(pos))
        acc = np.empty((len(pos), 3))
        native.upward().l2p_field(
            n=len(pos), pos=pos, center=np.full(3, self.box / 2.0), pmax=self.p_local + 1,
            ncoef=len(loc), alphas=self._mis_loc.alphas, inv_fact=self._inv_fact, local=loc,
            up=self._mis_loc.up, pot=pot, acc=acc,
        )
        return pot, acc
