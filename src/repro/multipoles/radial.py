"""Radial kernels and their scaled derivative chains.

Every interaction in the Cartesian multipole machinery reduces to
derivative tensors of a radially symmetric Green's function
G(x) = g(|x|).  The McMurchie-Davidson-style recurrence used by
:mod:`repro.multipoles.dtensors` needs the scaled radial derivatives

    g_0(r) = g(r),      g_{m+1}(r) = (1/r) dg_m/dr

up to m = p + 1.  This module provides them for:

* :class:`NewtonianKernel` — g = 1/r (the gravitational kernel),
* :class:`PlummerKernel` — g = (r^2 + eps^2)^{-1/2} (smoothed),
* :class:`ErfcKernel` — g = erfc(a r)/r, the real-space Ewald term and
  equally the short-range part of a TreePM force split (§2.4, Fig. 7),
* :class:`ErfKernel` — g = erf(a r)/r, the complementary long-range
  (mesh) part of the split.

The erfc/erf chains are generated symbolically at construction: each
g_m is a small sum of terms c * r^p * erfc(a r) and d * r^q *
exp(-a^2 r^2), and the differentiation rules for those two families
close under (1/r) d/dr.  This keeps every order exact to machine
precision without hand-derived closed forms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = [
    "RadialKernel",
    "NewtonianKernel",
    "PlummerKernel",
    "ErfcKernel",
    "ErfKernel",
]


class RadialKernel:
    """Interface: scaled radial derivative chain of a radial Green's function."""

    def radial_derivs(self, r: np.ndarray, mmax: int) -> np.ndarray:
        """Return the float64 array of shape (mmax+1,) + r.shape with g_m(r)."""
        raise NotImplementedError


def _power_law_chain(r, inv_s2, g0, mmax):
    """g_m = -(2m-1) g_{m-1} / s^2 from g_0, each level a fresh row."""
    out = np.empty((mmax + 1,) + r.shape, dtype=np.float64)
    out[0] = g0
    for m in range(1, mmax + 1):
        np.multiply(out[m - 1], -(2 * m - 1), out=out[m])
        np.multiply(out[m], inv_s2, out=out[m])
    return out


class NewtonianKernel(RadialKernel):
    """g(r) = 1/r.  g_m = (-1)^m (2m-1)!! r^{-(2m+1)}."""

    def radial_derivs(self, r, mmax):
        r = np.asarray(r, dtype=np.float64)
        return _power_law_chain(r, 1.0 / (r * r), 1.0 / r, mmax)


class PlummerKernel(RadialKernel):
    """Plummer-smoothed kernel g(r) = (r^2 + eps^2)^{-1/2}.

    (1/r) d/dr (r^2+eps^2)^{-k/2} = -k (r^2+eps^2)^{-(k+2)/2}, so the
    chain is the Newtonian one with r^2 -> r^2 + eps^2.
    """

    def __init__(self, eps: float):
        self.eps = float(eps)

    def radial_derivs(self, r, mmax):
        r = np.asarray(r, dtype=np.float64)
        inv_s2 = 1.0 / (r * r + self.eps * self.eps)
        return _power_law_chain(r, inv_s2, np.sqrt(inv_s2), mmax)


class _ErfFamilyKernel(RadialKernel):
    """Common machinery for erf/erfc-over-r kernels.

    Terms are kept as two dictionaries per derivative level m:

    * ``e[p]``  — coefficient of r^p * F(a r)   (F = erfc or erf)
    * ``gse[q]`` — coefficient of r^q * exp(-a^2 r^2)

    with the derivative rules (sign = -1 for erfc, +1 for erf):

        d/dr [r^p F(ar)]        = p r^{p-1} F(ar) + sign*(2a/sqrt(pi)) r^p e^{-a^2 r^2}
        d/dr [r^q e^{-a^2 r^2}] = q r^{q-1} e^{..} - 2 a^2 r^{q+1} e^{..}

    followed by multiplication with 1/r (a shift of every power by -1).
    """

    _sign: int = -1  # erfc

    def __init__(self, alpha: float):
        self.alpha = float(alpha)
        self._chains: list[tuple[dict, dict]] = [({-1: 1.0}, {})]

    def _extend(self, mmax: int) -> None:
        a = self.alpha
        pref = self._sign * 2.0 * a / math.sqrt(math.pi)
        while len(self._chains) <= mmax:
            e, g = self._chains[-1]
            ne: dict = {}
            ng: dict = {}

            def add(d, k, v):
                if v != 0.0:
                    d[k] = d.get(k, 0.0) + v

            for p, c in e.items():
                # (1/r) * d/dr of c * r^p * F(ar)
                if p != 0:
                    add(ne, p - 2, c * p)
                add(ng, p - 1, c * pref)
            for q, c in g.items():
                if q != 0:
                    add(ng, q - 2, c * q)
                add(ng, q, -2.0 * a * a * c)
            self._chains.append((ne, ng))

    def _special(self, x):
        raise NotImplementedError

    def radial_derivs(self, r, mmax):
        self._extend(mmax)
        r = np.asarray(r, dtype=np.float64)
        a = self.alpha
        f = self._special(a * r)
        gauss = np.exp(-(a * a) * r * r)
        # precompute needed powers of r lazily
        powers: dict[int, np.ndarray] = {}

        def rpow(k: int) -> np.ndarray:
            if k not in powers:
                powers[k] = r**k
            return powers[k]

        out = np.empty((mmax + 1,) + r.shape, dtype=np.float64)
        for m in range(mmax + 1):
            e, g = self._chains[m]
            acc = np.zeros_like(r)
            for p, c in e.items():
                acc += c * rpow(p) * f
            for q, c in g.items():
                acc += c * rpow(q) * gauss
            out[m] = acc
        return out


class ErfcKernel(_ErfFamilyKernel):
    """g(r) = erfc(alpha r) / r — Ewald real-space / TreePM short-range."""

    _sign = -1

    def _special(self, x):
        return special.erfc(x)


class ErfKernel(_ErfFamilyKernel):
    """g(r) = erf(alpha r) / r — the long-range (mesh) part of a force split.

    Note erf(ar)/r is smooth at r=0 (limit 2a/sqrt(pi)); the derivative
    chain is evaluated away from r=0 as used in cell interactions.
    """

    _sign = +1

    def _special(self, x):
        return special.erf(x)
