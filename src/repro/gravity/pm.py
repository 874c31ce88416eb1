"""Particle-mesh and TreePM gravity — the GADGET-2-style comparator.

Figure 7 of the paper compares 2HOT against GADGET-2, a hybrid TreePM
code, and attributes a ~1% power deficit at k ~ 1 h/Mpc to GADGET-2's
tree <-> particle-mesh transition region.  To regenerate that
comparison this module implements the same force split:

    1/r = erf(r / 2 r_s)/r  +  erfc(r / 2 r_s)/r
           [ mesh (PM) ]         [ short-range tree ]

* :class:`ParticleMesh` solves the long-range part on a grid: CIC
  deposit, FFT, Green's function -4 pi / k^2 damped by the Gaussian
  split exp(-k^2 r_s^2) and deconvolved for the CIC window, spectral
  gradient, CIC interpolation back to the particles.
* :class:`TreePMGravity` adds the short-range part with the treecode
  machinery using the :class:`~repro.multipoles.radial.ErfcKernel` for
  cell interactions and an erfc-filtered pairwise force (GADGET-2's
  shortrange_table) for particle-particle interactions, truncated at
  :data:`RCUT` times the split scale.

The transition-region force error — the artifact Fig. 7 shows — comes
out of this construction for free; tests measure it against the pure
treecode + Ewald reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from ..observe import get_tracer
from ..multipoles.radial import ErfcKernel
from ..tree import build_tree, compute_moments
from .smoothing import SofteningKernel, make_softening
from .solver import ForceSpec, _ForceSolver, check_choices
from .treeforce import ForceResult

__all__ = ["ParticleMesh", "TreePMConfig", "TreePMGravity", "ShortRangeSoftening"]


class ParticleMesh:
    """FFT Poisson solver on a cubic mesh with CIC deposit/interpolation."""

    def __init__(self, ngrid: int, box: float = 1.0, r_split: float | None = None):
        self.ngrid = int(ngrid)
        self.box = float(box)
        #: Gaussian split scale; None means a plain PM solver (full 1/r)
        self.r_split = r_split
        n = self.ngrid
        kx = np.fft.fftfreq(n, d=self.box / n) * 2.0 * np.pi
        kz = np.fft.rfftfreq(n, d=self.box / n) * 2.0 * np.pi
        self._k = (kx[:, None, None], kx[None, :, None], kz[None, None, :])
        self._k2 = self._k[0] ** 2 + self._k[1] ** 2 + self._k[2] ** 2
        self._k2[0, 0, 0] = 1.0  # avoid div by zero; the DC mode is zeroed
        # CIC deconvolution: the deposit and the interpolation each
        # convolve with the CIC window, so divide twice
        def sinc(kk):
            return np.sinc(kk * self.box / (2.0 * np.pi * n))

        w = sinc(self._k[0]) * sinc(self._k[1]) * sinc(self._k[2])
        self._cic_w2 = w**2

    def deposit(self, pos: np.ndarray, mass: np.ndarray) -> np.ndarray:
        """CIC mass deposit onto the mesh (periodic)."""
        n = self.ngrid
        x = np.asarray(pos, dtype=np.float64) / self.box * n
        i0 = np.floor(x - 0.5).astype(np.int64)  # cell centers at (i+0.5)
        f = x - 0.5 - i0
        rho = np.zeros((n, n, n), dtype=np.float64)
        m = np.asarray(mass, dtype=np.float64)
        for dx in (0, 1):
            wx = (1.0 - f[:, 0]) if dx == 0 else f[:, 0]
            ix = (i0[:, 0] + dx) % n
            for dy in (0, 1):
                wy = (1.0 - f[:, 1]) if dy == 0 else f[:, 1]
                iy = (i0[:, 1] + dy) % n
                for dz in (0, 1):
                    wz = (1.0 - f[:, 2]) if dz == 0 else f[:, 2]
                    iz = (i0[:, 2] + dz) % n
                    np.add.at(rho, (ix, iy, iz), m * wx * wy * wz)
        return rho

    def interpolate(self, grid: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """CIC interpolation of a mesh field to particle positions."""
        n = self.ngrid
        x = np.asarray(pos, dtype=np.float64) / self.box * n
        i0 = np.floor(x - 0.5).astype(np.int64)
        f = x - 0.5 - i0
        out = np.zeros(len(x), dtype=np.float64)
        for dx in (0, 1):
            wx = (1.0 - f[:, 0]) if dx == 0 else f[:, 0]
            ix = (i0[:, 0] + dx) % n
            for dy in (0, 1):
                wy = (1.0 - f[:, 1]) if dy == 0 else f[:, 1]
                iy = (i0[:, 1] + dy) % n
                for dz in (0, 1):
                    wz = (1.0 - f[:, 2]) if dz == 0 else f[:, 2]
                    iz = (i0[:, 2] + dz) % n
                    out += grid[ix, iy, iz] * wx * wy * wz
        return out

    def accelerations(
        self, pos: np.ndarray, mass: np.ndarray, G: float = 1.0,
        want_potential: bool = False,
    ):
        """Long-range (or full, if r_split is None) PM accelerations.

        The DC (k=0) mode is removed — the mesh force is intrinsically
        background-subtracted, which is why Fourier codes get §2.2.1's
        subtraction "automatically".
        """
        # With mass deposited per cell, the continuum Fourier density is
        # simply rho(k) ~ sum_j m_j exp(-i k x_j) = FFT of the mass grid,
        # so phi(k) = -4 pi G rho(k) / k^2 with no extra volume factors;
        # real space then needs the (n^3 / V) inverse-transform scale.
        mgrid = self.deposit(pos, mass)
        mk = np.fft.rfftn(mgrid)
        phik = -4.0 * np.pi * G * mk / self._k2
        if self.r_split is not None:
            phik = phik * np.exp(-self._k2 * self.r_split**2)
        phik = phik / self._cic_w2
        phik[0, 0, 0] = 0.0  # DC mode: automatic background subtraction
        scale = self.ngrid**3 / self.box**3
        acc = np.empty((len(pos), 3), dtype=np.float64)
        for ax in range(3):
            gk = 1j * self._k[ax] * phik
            g = np.fft.irfftn(gk, s=(self.ngrid,) * 3, axes=(0, 1, 2)) * scale
            acc[:, ax] = -self.interpolate(g, pos)  # acc = -grad(phi)
        if want_potential:
            phi = np.fft.irfftn(phik, s=(self.ngrid,) * 3, axes=(0, 1, 2)) * scale
            # library convention: pot is the positive sum(m/r) kernel
            pot = -self.interpolate(phi, pos)
            return acc, pot
        return acc


class ShortRangeSoftening(SofteningKernel):
    """Softened pairwise force times GADGET-2's short-range filter.

    F(r) = F_soft(r) * [erfc(u) + (2u/sqrt(pi)) exp(-u^2)], u = r/(2 r_s)
    psi(r) = psi_soft(r) * erfc(u)
    """

    def __init__(self, base: SofteningKernel, r_split: float):
        self.base = base
        self.r_split = float(r_split)
        self.eps = base.eps

    def force_factor(self, r):
        r = np.asarray(r, dtype=np.float64)
        u = r / (2.0 * self.r_split)
        filt = special.erfc(u) + 2.0 * u / math.sqrt(math.pi) * np.exp(-u * u)
        return self.base.force_factor(r) * filt

    def potential(self, r):
        r = np.asarray(r, dtype=np.float64)
        u = r / (2.0 * self.r_split)
        return self.base.potential(r) * special.erfc(u)


#: split scale in units of the mesh cell (GADGET-2's ASMTH)
ASMTH = 1.25
#: short-range cutoff in units of r_split (GADGET-2's RCUT)
RCUT = 4.5


@dataclass
class TreePMConfig:
    """Knobs of the TreePM force split (GADGET-2-flavoured defaults;
    the split scale and cutoff are :data:`ASMTH` and :data:`RCUT`)."""

    ngrid: int = 64
    p: int = 4
    errtol: float = 1e-5
    nleaf: int = 16
    softening: str = "spline"
    eps: float = 0.01
    #: dual-tree walk flavour for the short-range half ("hierarchical"
    #: or "fmm-hybrid"; see :class:`~repro.gravity.solver.TreecodeConfig`)
    traversal: str = "hierarchical"
    G: float = 1.0
    #: worker processes for the short-range tree half (0 = serial)
    workers: int = 0

    def __post_init__(self):
        check_choices(self, "traversal", "softening")


class TreePMGravity(_ForceSolver):
    """Hybrid tree + particle-mesh force, the paper's comparator class."""

    _label = "treepm"

    def __init__(self, config: TreePMConfig | None = None):
        self.config = config or TreePMConfig()
        self.last_stats: dict = {}

    def compute(
        self, pos: np.ndarray, mass: np.ndarray, box: float = 1.0, tracer=None
    ) -> ForceResult:
        cfg = self.config
        tr = tracer if tracer is not None else get_tracer()
        r_split = ASMTH * box / cfg.ngrid
        with tr.span("force") as sp_force:
            with tr.span("pm") as sp_pm:
                pm = ParticleMesh(cfg.ngrid, box, r_split=r_split)
                acc_long, pot_long = pm.accelerations(
                    pos, mass, G=cfg.G, want_potential=True
                )
            with tr.span("build") as sp_build:
                tree = build_tree(pos, mass, box=box, nleaf=cfg.nleaf)
            with tr.span("moments") as sp_moments:
                moms = compute_moments(tree, p=cfg.p, tol=cfg.errtol)
            # the split scale follows the box, so the spec is per call
            spec = ForceSpec(
                traversal=cfg.traversal,
                periodic=True,
                ws=1,
                softening=ShortRangeSoftening(
                    make_softening(cfg.softening, cfg.eps), r_split
                ),
                kernel=ErfcKernel(1.0 / (2.0 * r_split)),
                rcut=RCUT * r_split,
                G=cfg.G,
            )
            stage = {
                "pm": sp_pm.seconds,
                "build": sp_build.seconds,
                "moments": sp_moments.seconds,
            }
            res = self._solve(tree, moms, spec, tr, stage)
            res.acc += acc_long
            if res.pot is not None:
                res.pot += pot_long
        res.stats["r_split"] = r_split
        self.last_stats = res.stats
        return self._finish(res, tr, stage, sp_force.seconds)


def _prune_far(tree, moms, inter, rcut):
    """Drop interactions entirely beyond the short-range cutoff.

    CSR lists keep their grouping: the row pointers are rebuilt from
    the kept-entry mask, so the evaluator still sees valid per-sink
    segments.  Cell-keyed families (cell accepts, M2L pairs) are tested
    against the recording sink cell's ``bmax`` — every particle under
    it is at least that far from the source, so the kept set is a
    superset of what a per-leaf test would keep.
    """
    import dataclasses

    from ..tree.traversal import filter_csr_indptr

    def keep(sink, src, off):
        if len(sink) == 0:
            return np.zeros(0, dtype=bool)
        d = tree.cell_center[sink] - (tree.cell_center[src] + inter.offsets[off])
        dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        return dist - moms.bmax[sink] - moms.bmax[src] < rcut

    def keep_by_cell(cells, indptr, src, off):
        return keep(np.repeat(cells, np.diff(indptr)), src, off)

    kc = keep_by_cell(inter.cell_cells, inter.cell_indptr, inter.cell_src, inter.cell_off)
    kl = keep(inter.leaf_sink, inter.leaf_src, inter.leaf_off)
    csr = {
        "cell_indptr": filter_csr_indptr(inter.cell_indptr, kc),
        "leaf_indptr": filter_csr_indptr(inter.leaf_indptr, kl),
    }
    if inter.m2l_cells is not None and inter.m2l_src is not None:
        km = keep_by_cell(inter.m2l_cells, inter.m2l_indptr, inter.m2l_src, inter.m2l_off)
        csr["m2l_src"] = inter.m2l_src[km]
        csr["m2l_off"] = inter.m2l_off[km]
        csr["m2l_indptr"] = filter_csr_indptr(inter.m2l_indptr, km)
    return dataclasses.replace(
        inter,
        cell_src=inter.cell_src[kc],
        cell_off=inter.cell_off[kc],
        leaf_sink=inter.leaf_sink[kl],
        leaf_src=inter.leaf_src[kl],
        leaf_off=inter.leaf_off[kl],
        **csr,
    )
