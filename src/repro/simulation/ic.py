"""Initial conditions: Zel'dovich and 2LPT realisations (paper §3.4.4).

Replaces the modified 2LPTIC (Crocce, Pueblas & Scoccimarro 2006) the
paper uses.  A Gaussian random realisation of the linear power
spectrum is built on the particle grid, converted to first-order
(Zel'dovich) and optionally second-order displacement fields with
FFTs, and applied to a uniform Lagrangian lattice with the growth
factors and rates of the target cosmology.

Every switch Figure 7 ablates is implemented:

* ``use_2lpt``      — 2LPT vs plain Zel'dovich ("no 2LPTIC" curve: the
  paper finds >2% less power at k = 1 h/Mpc without 2LPT),
* ``dec``           — discreteness-error correction, "of the same form
  as a cloud-in-cell deconvolution": divides the mode amplitudes by
  the aliased particle-lattice window,
* ``sphere_mode``   — zero modes outside the Nyquist sphere (2LPTIC's
  SphereMode), instead of keeping the full Fourier cube,
* the §6 systematic: "improper growth of modes near the Nyquist
  frequency, due to the discrete representation of the continuous
  Fourier modes" — the thing DEC corrects and convergence tests must
  control for.

Conventions: box is mapped to [0,1)^3 code units; P(k) is evaluated in
(Mpc/h)^3 at z=0 and scaled back with the ODE growth factor, momenta
are canonical (a^2 dx/dt, t in 1/H0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cosmology import (
    CosmologyParams,
    GrowthCalculator,
    LinearPower,
    code_particle_mass,
)
from .particles import ParticleSet

__all__ = ["ICConfig", "generate_ic", "gaussian_field"]


@dataclass
class ICConfig:
    """Initial-condition generation parameters."""

    n_per_dim: int = 32
    box_mpc_h: float = 100.0
    a_init: float = 0.02  # z = 49, the paper's fiducial start
    seed: int = 1234
    use_2lpt: bool = True
    dec: bool = False
    sphere_mode: bool = False


def _kgrids(n: int, box: float):
    kx = np.fft.fftfreq(n, d=box / n) * 2.0 * np.pi
    kz = np.fft.rfftfreq(n, d=box / n) * 2.0 * np.pi
    KX = kx[:, None, None]
    KY = kx[None, :, None]
    KZ = kz[None, None, :]
    K2 = KX**2 + KY**2 + KZ**2
    return KX, KY, KZ, K2


def gaussian_field(power: LinearPower, cfg: ICConfig, rng: np.random.Generator):
    """Hermitian Fourier modes delta(k) of a Gaussian realisation.

    Built by transforming white noise, which enforces the reality
    condition automatically and makes the *phases* independent of every
    ablation switch — so Fig. 7-style ratio comparisons between runs
    sharing a seed cancel the sample variance.
    """
    n = cfg.n_per_dim
    box = cfg.box_mpc_h
    white = rng.standard_normal((n, n, n))
    wk = np.fft.rfftn(white)
    KX, KY, KZ, K2 = _kgrids(n, box)
    k = np.sqrt(K2)
    k[0, 0, 0] = 1.0
    pk = power.power(k.ravel()).reshape(k.shape)
    pk[0, 0, 0] = 0.0
    # white noise has <|w_k|^2> = n^3; delta_k needs <|d_k|^2> = P(k) n^6/V
    amp = np.sqrt(pk * n**3 / box**3)
    dk = wk * amp
    if cfg.dec:
        # deconvolve the particle-lattice (CIC-form) assignment window so
        # near-Nyquist modes start with the right amplitude
        def sinc(kk):
            return np.sinc(kk * box / (2.0 * np.pi * n))

        w = (sinc(KX) * sinc(KY) * sinc(KZ)) ** 2
        dk = dk / w
    if cfg.sphere_mode:
        knyq = np.pi * n / box
        dk = np.where(K2 <= knyq**2, dk, 0.0)
    return dk


def generate_ic(
    params: CosmologyParams,
    cfg: ICConfig,
) -> ParticleSet:
    """Generate a particle realisation at ``cfg.a_init``.

    Returns a :class:`ParticleSet` in code units on the unit box with
    synchronised positions and momenta (a = a_mom; the integrator
    introduces the leapfrog offset itself).
    """
    n = cfg.n_per_dim
    box = cfg.box_mpc_h
    power = LinearPower(params)
    growth = GrowthCalculator(params)
    rng = np.random.default_rng(cfg.seed)
    dk = gaussian_field(power, cfg, rng)

    KX, KY, KZ, K2 = _kgrids(n, box)
    K2s = K2.copy()
    K2s[0, 0, 0] = 1.0

    # first-order displacement field psi = -grad(phi1), phi1_k = -d_k/k^2
    psi = np.empty((n, n, n, 3))
    for ax, K in enumerate((KX, KY, KZ)):
        psik = 1j * K / K2s * dk
        psik[0, 0, 0] = 0.0
        psi[..., ax] = np.fft.irfftn(psik, s=(n, n, n), axes=(0, 1, 2))

    psi2 = None
    if cfg.use_2lpt:
        # second-order source: sum_{i<j} [phi,ii phi,jj - phi,ij^2]
        phik = -dk / K2s
        phik[0, 0, 0] = 0.0
        ks = (KX, KY, KZ)
        d2 = {}
        for i in range(3):
            for j in range(i, 3):
                fij = np.fft.irfftn(
                    -ks[i] * ks[j] * phik, s=(n, n, n), axes=(0, 1, 2)
                )
                d2[(i, j)] = fij
        src = (
            d2[(0, 0)] * d2[(1, 1)]
            - d2[(0, 1)] ** 2
            + d2[(0, 0)] * d2[(2, 2)]
            - d2[(0, 2)] ** 2
            + d2[(1, 1)] * d2[(2, 2)]
            - d2[(1, 2)] ** 2
        )
        srck = np.fft.rfftn(src)
        psi2 = np.empty((n, n, n, 3))
        for ax, K in enumerate(ks):
            p2k = 1j * K / K2s * srck
            p2k[0, 0, 0] = 0.0
            psi2[..., ax] = np.fft.irfftn(p2k, s=(n, n, n), axes=(0, 1, 2))

    # growth factors at the starting epoch (P(k) is normalised at z=0)
    a = cfg.a_init
    d1 = float(growth.growth_ode(a))  # normalised D(a=1)=1
    f1 = float(growth.growth_rate(a))
    from ..cosmology import Background

    e_a = float(Background(params).efunc(a))

    # 2LPT factors (Bouchet et al. 1995 conventions)
    d2fac = float(growth.growth_2lpt(a) / growth.growth_ode(a, normalize=False) ** 2)
    # growth_2lpt returns -3/7 D1_raw^2 Om^-1/143; express relative to the
    # normalised D1: D2_norm = d2fac * d1^2 (dimensionless, ~ -3/7 d1^2)
    d2_norm = d2fac * d1 * d1
    om_a = float(Background(params).omega_m_a(a))
    f2 = 2.0 * om_a ** (6.0 / 11.0)

    # Lagrangian lattice
    q = (np.arange(n) + 0.5) / n
    qx, qy, qz = np.meshgrid(q, q, q, indexing="ij")
    lattice = np.stack([qx.ravel(), qy.ravel(), qz.ravel()], axis=1)

    psi_flat = psi.reshape(-1, 3) / box  # displacements in box units
    pos = lattice + d1 * psi_flat
    vel = d1 * f1 * psi_flat  # dx/dlna
    if psi2 is not None:
        psi2_flat = psi2.reshape(-1, 3) / box
        pos = pos + d2_norm * psi2_flat
        vel = vel + d2_norm * f2 * psi2_flat
    pos = np.mod(pos, 1.0)
    # canonical momentum p = a^2 dx/dt = a^2 * (dx/dlna) * H = a E(a) * a * ...
    # dx/dt = (dx/dlna) * dlna/dt = vel * H(a) = vel * E(a) (1/H0 units)
    mom = vel * e_a * a * a

    npart = n**3
    mass = np.full(npart, code_particle_mass(params, npart))
    return ParticleSet(
        pos=pos,
        mom=mom,
        mass=mass,
        ids=np.arange(npart, dtype=np.int64),
        a=a,
        a_mom=a,
    )
