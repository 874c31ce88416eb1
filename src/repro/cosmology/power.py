"""Linear matter power spectrum (CLASS substitute).

The paper computes P(k) with the CLASS Boltzmann code (§3.4.4).  Here
the transfer function is the Eisenstein & Hu (1998) fitting formula —
both the full form with baryon acoustic oscillations and the smooth
"no-wiggle" variant — normalised to sigma8.  This reproduces every
P(k)-derived quantity the paper needs (IC realisations, sigma(M) for
the Tinker08 mass function, the top-hat variance of eq. 3) at the
percent level in shape, which is sufficient because all of the paper's
P(k) figures are *ratios* between runs sharing the same input
spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from .growth import GrowthCalculator
from .params import CosmologyParams

__all__ = ["LinearPower", "tophat_window"]


def tophat_window(x):
    """Fourier transform of a real-space spherical top hat, W(kR).

    W(x) = 3 (sin x - x cos x) / x^3, with the x->0 limit of 1 handled
    via a Taylor series to stay accurate for small arguments.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-3
    xs = x[small]
    out[small] = 1.0 - xs**2 / 10.0 + xs**4 / 280.0
    xl = x[~small]
    out[~small] = 3.0 * (np.sin(xl) - xl * np.cos(xl)) / xl**3
    return out


class LinearPower:
    """Eisenstein-Hu linear power spectrum, sigma8-normalised.

    Parameters
    ----------
    params:
        The cosmology.
    kind:
        "eh" (full EH98 with BAO) or "eh_nowiggle" (smooth).

    Wavenumbers are in h/Mpc and P(k) in (Mpc/h)^3 throughout.
    """

    def __init__(self, params: CosmologyParams, kind: str = "eh",
                 kmin: float = 0.0, kmax: float = np.inf):
        if kind not in ("eh", "eh_nowiggle"):
            raise ValueError(f"unknown transfer kind {kind!r}")
        self.params = params
        self.kind = kind
        self.growth = GrowthCalculator(params)
        self._setup_eh()
        # mode-range truncation: a finite simulation box only contains
        # k in [2 pi / L, pi n / L]; sigma(M) computed with these limits
        # is what the simulation's halo statistics actually respond to
        # (the §6 near-Nyquist discreteness systematic).  Normalisation
        # to sigma8 always uses the full integral.
        self.kmin = float(kmin)
        self.kmax = float(kmax)
        self._norm = 1.0
        save = self.kmin, self.kmax
        self.kmin, self.kmax = 0.0, np.inf
        self._norm = (params.sigma8 / self.sigma_r(8.0)) ** 2
        self.kmin, self.kmax = save

    # ----- EH98 machinery ------------------------------------------------------
    def _setup_eh(self):
        p = self.params
        h = p.h
        self.om0h2 = p.omega_m * h * h
        self.ob0h2 = p.omega_b * h * h
        self.f_baryon = p.omega_b / p.omega_m
        self.theta = p.t_cmb / 2.7 if p.t_cmb > 0 else 2.7255 / 2.7

        om0h2, ob0h2, theta = self.om0h2, self.ob0h2, self.theta
        # redshift of matter-radiation equality and the sound horizon,
        # EH98 eqs. (2)-(6)
        self.z_eq = 2.50e4 * om0h2 / theta**4
        self.k_eq = 7.46e-2 * om0h2 / theta**2  # 1/Mpc (no h)
        b1 = 0.313 * om0h2**-0.419 * (1.0 + 0.607 * om0h2**0.674)
        b2 = 0.238 * om0h2**0.223
        self.z_drag = (
            1291.0
            * om0h2**0.251
            / (1.0 + 0.659 * om0h2**0.828)
            * (1.0 + b1 * ob0h2**b2)
        )
        self.r_drag = 31.5 * ob0h2 / theta**4 * (1e3 / self.z_drag)
        self.r_eq = 31.5 * ob0h2 / theta**4 * (1e3 / self.z_eq)
        self.sound_horizon = (
            2.0
            / (3.0 * self.k_eq)
            * math.sqrt(6.0 / self.r_eq)
            * math.log(
                (math.sqrt(1.0 + self.r_drag) + math.sqrt(self.r_drag + self.r_eq))
                / (1.0 + math.sqrt(self.r_eq))
            )
        )
        self.k_silk = (
            1.6 * ob0h2**0.52 * om0h2**0.73 * (1.0 + (10.4 * om0h2) ** -0.95)
        )
        # CDM suppression, EH98 eqs. (11)-(12)
        a1 = (46.9 * om0h2) ** 0.670 * (1.0 + (32.1 * om0h2) ** -0.532)
        a2 = (12.0 * om0h2) ** 0.424 * (1.0 + (45.0 * om0h2) ** -0.582)
        fb = self.f_baryon
        self.alpha_c = a1 ** (-fb) * a2 ** (-(fb**3))
        bb1 = 0.944 / (1.0 + (458.0 * om0h2) ** -0.708)
        bb2 = (0.395 * om0h2) ** -0.0266
        self.beta_c = 1.0 / (1.0 + bb1 * ((1.0 - fb) ** bb2 - 1.0))
        # baryon amplitudes, EH98 eqs. (14)-(24)
        y = (1.0 + self.z_eq) / (1.0 + self.z_drag)
        gy = y * (
            -6.0 * math.sqrt(1.0 + y)
            + (2.0 + 3.0 * y)
            * math.log((math.sqrt(1.0 + y) + 1.0) / (math.sqrt(1.0 + y) - 1.0))
        )
        self.alpha_b = 2.07 * self.k_eq * self.sound_horizon * (1.0 + self.r_drag) ** -0.75 * gy
        self.beta_b = (
            0.5
            + fb
            + (3.0 - 2.0 * fb) * math.sqrt((17.2 * om0h2) ** 2 + 1.0)
        )
        self.beta_node = 8.41 * om0h2**0.435
        # no-wiggle shape parameters, EH98 eqs. (26), (28)-(31)
        self.alpha_gamma = (
            1.0
            - 0.328 * math.log(431.0 * om0h2) * fb
            + 0.38 * math.log(22.3 * om0h2) * fb**2
        )
        self.s_approx = (
            44.5 * math.log(9.83 / om0h2) / math.sqrt(1.0 + 10.0 * ob0h2**0.75)
        )

    @staticmethod
    def _t0(q, alpha_c, beta_c):
        """EH98 eq. (19-20) pressureless transfer shape."""
        c = 14.2 / alpha_c + 386.0 / (1.0 + 69.9 * q**1.08)
        ln_arg = np.log(np.e + 1.8 * beta_c * q)
        return ln_arg / (ln_arg + c * q * q)

    def transfer(self, k):
        """Matter transfer function T(k), k in h/Mpc."""
        k = np.asarray(k, dtype=float)
        if self.kind == "eh_nowiggle":
            return self._transfer_nowiggle(k)
        kmpc = k * self.params.h  # 1/Mpc
        q = kmpc / (13.41 * self.k_eq)
        s = self.sound_horizon
        fb = self.f_baryon
        # CDM part, EH98 eq. (17-18)
        f = 1.0 / (1.0 + (kmpc * s / 5.4) ** 4)
        tc = f * self._t0(q, 1.0, self.beta_c) + (1.0 - f) * self._t0(
            q, self.alpha_c, self.beta_c
        )
        # baryon part, EH98 eq. (21-24)
        ks = kmpc * s
        s_tilde = s / (1.0 + (self.beta_node / ks) ** 3) ** (1.0 / 3.0)
        x = kmpc * s_tilde
        j0 = np.sinc(x / np.pi)  # spherical Bessel j0(x) = sin(x)/x
        tb = (
            self._t0(q, 1.0, 1.0) / (1.0 + (ks / 5.2) ** 2)
            + self.alpha_b
            / (1.0 + (self.beta_b / ks) ** 3)
            * np.exp(-((kmpc / self.k_silk) ** 1.4))
        ) * j0
        return fb * tb + (1.0 - fb) * tc

    def _transfer_nowiggle(self, k):
        """EH98 §4.2 zero-baryon-oscillation ("no-wiggle") form."""
        kmpc = k * self.params.h
        s = self.s_approx
        gamma_eff = self.om0h2 / self.params.h * (
            self.alpha_gamma
            + (1.0 - self.alpha_gamma) / (1.0 + (0.43 * kmpc * s) ** 4)
        )
        q = k * self.theta**2 / gamma_eff
        l0 = np.log(2.0 * np.e + 1.8 * q)
        c0 = 14.2 + 731.0 / (1.0 + 62.5 * q)
        return l0 / (l0 + c0 * q * q)

    # ----- spectra ----------------------------------------------------------------
    def power(self, k, a: float = 1.0):
        """Linear P(k, a) in (Mpc/h)^3.

        P ∝ k^{n_s} T^2(k) D^2(a), normalised so sigma(8 Mpc/h, a=1) =
        sigma8.
        """
        k = np.asarray(k, dtype=float)
        d = 1.0 if a == 1.0 else float(self.growth.growth_ode(a))
        t = self.transfer(k)
        return self._norm * k**self.params.n_s * t * t * d * d

    def delta2(self, k):
        """Dimensionless power Δ²(k) = k³ P(k) / (2π²) at z = 0 (paper eq. 3
        uses δ_k² with the dk/k measure, i.e. this quantity)."""
        k = np.asarray(k, dtype=float)
        return k**3 * self.power(k) / (2.0 * np.pi**2)

    # ----- variances -----------------------------------------------------------------
    def sigma_r(self, r_mpc_h: float) -> float:
        """RMS linear fluctuation at z = 0 in top-hat spheres of radius r [Mpc/h].

        sigma^2(r) = ∫ (dk/k) Δ²(k) W(kr)^2 — the integral of paper
        eq. (3).  For r = 100 Mpc/h in the standard model the paper
        quotes sigma ≈ 0.068, driving the background-subtraction
        argument of §2.2.1.
        """

        def integrand(lnk):
            k = math.exp(lnk)
            return float(self.delta2(k) * tophat_window(k * r_mpc_h) ** 2)

        lo = max(1e-5, self.kmin)
        hi = min(1e3 / r_mpc_h * 50.0, self.kmax)
        if hi <= lo:
            return 0.0
        from scipy import integrate

        val, _ = integrate.quad(
            integrand, math.log(lo), math.log(hi), limit=400
        )
        return math.sqrt(val)

    def sigma_m(self, m_msun_h):
        """sigma(M) at z = 0: RMS fluctuation in spheres enclosing mean mass M [Msun/h]."""
        m = np.asarray(m_msun_h, dtype=float)
        rho = self.params.rho_mean0
        r = (3.0 * m / (4.0 * np.pi * rho)) ** (1.0 / 3.0)
        scalar = r.ndim == 0
        out = np.array([self.sigma_r(float(rv)) for rv in np.atleast_1d(r)])
        return float(out[0]) if scalar else out

    def dlnsigma_dlnm(self, m_msun_h):
        """d ln sigma / d ln M by centred finite difference (mass function)."""
        h = 1e-3  # relative step in M
        m = np.asarray(m_msun_h, dtype=float)
        hi = self.sigma_m(m * (1.0 + h))
        lo = self.sigma_m(m * (1.0 - h))
        return (np.log(hi) - np.log(lo)) / (2.0 * np.log1p(h))

