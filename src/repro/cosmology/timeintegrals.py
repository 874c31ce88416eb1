"""Drift and kick integrals for symplectic comoving integration.

2HOT adopts the symplectic leapfrog of Quinn et al. (1997) (§2.3),
in which positions and canonical momenta are advanced with integrals
of the background expansion rather than naive dt increments.  With
comoving position x, canonical momentum p = a^2 dx/dt and time in
units of 1/H0, the equations of motion (paper eq. 2) become

    dx/dt = p / a^2            ->  drift:  x += p * ∫ dt / a^2
    dp/dt = -g(x) / a          ->  kick:   p += -g * ∫ dt / a

where g is the comoving-coordinate gravitational acceleration with the
uniform background subtracted.  Changing variables to the scale factor
(dt = da / (a E(a)) in 1/H0 units) gives the two quadratures evaluated
here.  The paper computes these with code added to CLASS; we integrate
the same expressions with :func:`gauss_kronrod`, QUADPACK's 21-point
Gauss-Kronrod rule (``qk21``) with the nodes, weights, summation order
and error estimate of QUADPACK itself.  Whenever ``scipy.integrate.quad``
(QAGS) accepts its first 21-point pass — every step interval of a run —
the factor is ``quad``'s to the last bit; on a wider interval the rule
bisects where the error is largest, agreeing with ``quad`` to the
tolerance.  Factors are Python floats: a ``np.float64`` factor would turn
``acc * kick`` with float32 ``acc`` into a float64 product.

Code units used by :mod:`repro.simulation`: box side = 1, time = 1/H0,
G = 1, so the comoving mean density is rho_bar = 3 Omega_m / (8 pi)
and each of N equal-mass particles has mass 3 Omega_m / (8 pi N).
"""

from __future__ import annotations

import math
import sys
import warnings

from .background import Background
from .params import CosmologyParams

__all__ = [
    "DriftKickIntegrals",
    "code_mean_density",
    "code_particle_mass",
    "gauss_kronrod",
]

#: drift/kick tolerance (absolute, relative) and subinterval cap
EPSABS, EPSREL, LIMIT = 1e-14, 1e-12, 200

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

# QUADPACK dqk21: Kronrod abscissae (descending; the Gauss-Legendre ones at
# odd positions here, even in Fortran's 1-based count), their weights, and
# the 10-point Gauss weights.  The centre node 0 carries _WGK[10].
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525603755, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _qk21(f, a: float, b: float):
    """One 21-point pass over [a, b]: (result, abserr, resabs, resasc).

    A line-for-line transcription of QUADPACK's ``dqk21``: the Gauss
    nodes are summed first, then the remaining Kronrod nodes, in the same
    order, so every rounding matches.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (*range(1, 10, 2), *range(0, 10, 2)):
        absc = hlgth * _XGK[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def gauss_kronrod(f, a: float, b: float) -> float:
    """∫_a^b f by the 21-point Gauss-Kronrod rule, as a Python float.

    The first pass is accepted exactly when QAGS (``scipy.integrate.quad``
    with ``limit=LIMIT, epsabs=EPSABS, epsrel=EPSREL``) accepts it, so the
    result is then ``quad``'s bit for bit.  Otherwise the subinterval with
    the largest error estimate is bisected until the summed estimate meets
    ``max(EPSABS, EPSREL * |result|)`` — QAG's loop, without QAGS's epsilon
    extrapolation.  ``f`` receives Python floats.
    """
    a, b = float(a), float(b)
    if b < a:
        return -gauss_kronrod(f, b, a)
    result, abserr, resabs, resasc = _qk21(f, a, b)
    errbnd = max(EPSABS, EPSREL * abs(result))
    roundoff = abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd
    if roundoff or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return float(result)
    pieces = [(a, b, result, abserr)]
    for _ in range(LIMIT - 1):
        worst = max(range(len(pieces)), key=lambda i: pieces[i][3])
        lo, hi, _, _ = pieces[worst]
        mid = 0.5 * (lo + hi)
        left, left_err, _, _ = _qk21(f, lo, mid)
        right, right_err, _, _ = _qk21(f, mid, hi)
        pieces[worst] = (lo, mid, left, left_err)
        pieces.append((mid, hi, right, right_err))
        result = sum(p[2] for p in pieces)
        if sum(p[3] for p in pieces) <= max(EPSABS, EPSREL * abs(result)):
            return float(result)
    warnings.warn(f"gauss_kronrod: {LIMIT} subintervals did not reach the "
                  f"tolerance on [{a}, {b}]", RuntimeWarning, stacklevel=2)
    return float(result)


def scale_factor_integral(efunc, power: int, a0: float, a1: float) -> float:
    """∫_{a0}^{a1} da / (a^power E(a)) at the drift/kick tolerance."""
    if a1 == a0:
        return 0.0
    return gauss_kronrod(lambda a: 1.0 / (a**power * float(efunc(a))), a0, a1)


def code_mean_density(params: CosmologyParams) -> float:
    """Comoving mean matter density in code units (G = 1, t = 1/H0, L = box)."""
    return 3.0 * params.omega_m / (8.0 * math.pi)


def code_particle_mass(params: CosmologyParams, n_particles: int) -> float:
    """Equal particle mass in code units for a unit box."""
    return code_mean_density(params) / n_particles


class DriftKickIntegrals:
    """Evaluates the Quinn et al. (1997) drift/kick factors.

    Both factors are returned in 1/H0 time units and reduce to the
    plain interval Δt in the static (a ≡ 1) limit, which is used as a
    unit test.
    """

    def __init__(self, params: CosmologyParams):
        self.params = params
        self.bg = Background(params)

    def drift_factor(self, a0: float, a1: float) -> float:
        """∫_{a0}^{a1} da / (a^3 E(a)) — multiplies the momentum in a drift."""
        return scale_factor_integral(self.bg.efunc, 3, a0, a1)

    def kick_factor(self, a0: float, a1: float) -> float:
        """∫_{a0}^{a1} da / (a^2 E(a)) — multiplies the acceleration in a kick."""
        return scale_factor_integral(self.bg.efunc, 2, a0, a1)

