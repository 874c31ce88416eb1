"""Tabulated background input — the CLASS coupling mode of §2.1.

"2HOT integrates directly with the computation of the background
quantities and growth function provided by CLASS, either in tabular
form or by linking directly with the CLASS library."  The analogue
here: a :class:`TabulatedBackground` built from arrays of
(a, E(a) = H/H0) — e.g. exported from a Boltzmann code — that is a
drop-in replacement for the analytic :class:`repro.cosmology.Background`
wherever expansion rates or drift/kick integrals are needed, plus
round-trip helpers to write/read the table as a small text file.

Interpolation is log-log cubic (the background quantities are smooth
power laws per epoch), and the drift/kick quadratures integrate the
interpolant with the analytic path's own rule and tolerance
(:func:`repro.cosmology.timeintegrals.scale_factor_integral`), so a
simulation driven by a table reproduces one driven by the analytic
Friedmann solution to interpolation accuracy — which is
exactly how the paper cross-checks its CLASS coupling against the
analytic scale factor.
"""

from __future__ import annotations

import numpy as np

from .background import Background
from .params import CosmologyParams
from .timeintegrals import scale_factor_integral

__all__ = ["TabulatedBackground", "write_background_table", "read_background_table"]


class TabulatedBackground:
    """E(a) from a table; mirrors the Background API surface it replaces."""

    def __init__(self, a: np.ndarray, efunc: np.ndarray):
        a = np.asarray(a, dtype=np.float64)
        e = np.asarray(efunc, dtype=np.float64)
        if len(a) != len(e) or len(a) < 4:
            raise ValueError("need >= 4 matching (a, E) samples")
        if np.any(np.diff(a) <= 0):
            raise ValueError("scale factors must be strictly increasing")
        if np.any(e <= 0):
            raise ValueError("E(a) must be positive")
        self.a_min = float(a[0])
        self.a_max = float(a[-1])
        from scipy import interpolate

        self._spline = interpolate.CubicSpline(np.log(a), np.log(e))

    @classmethod
    def from_params(
        cls, params: CosmologyParams, a_min: float = 1e-4, a_max: float = 1.0,
        n: int = 256,
    ) -> "TabulatedBackground":
        """Sample an analytic background into a table (for tests and as
        the exporter a Boltzmann code would stand behind)."""
        a = np.geomspace(a_min, a_max, n)
        return cls(a, Background(params).efunc(a))

    # ----- Background-compatible surface --------------------------------------
    def efunc(self, a):
        a = np.asarray(a, dtype=np.float64)
        if np.any(a < self.a_min * (1 - 1e-9)) or np.any(a > self.a_max * (1 + 1e-9)):
            raise ValueError(
                f"a outside tabulated range [{self.a_min}, {self.a_max}]"
            )
        return np.exp(self._spline(np.log(np.clip(a, self.a_min, self.a_max))))

    def e2(self, a):
        return self.efunc(a) ** 2

    def hubble(self, a, h: float = 0.7):
        return 100.0 * h * self.efunc(a)

    # ----- drift/kick integrals -------------------------------------------------
    def drift_factor(self, a0: float, a1: float) -> float:
        return scale_factor_integral(self.efunc, 3, a0, a1)

    def kick_factor(self, a0: float, a1: float) -> float:
        return scale_factor_integral(self.efunc, 2, a0, a1)


def write_background_table(path, params: CosmologyParams, a_min: float = 1e-4,
                           a_max: float = 1.0, n: int = 256) -> None:
    """Export a background table as two-column ASCII (a, E)."""
    a = np.geomspace(a_min, a_max, n)
    e = Background(params).efunc(a)
    header = (
        f"# background table for {params.name}\n"
        f"# omega_m={params.omega_m} omega_de={params.omega_de} "
        f"omega_r={params.omega_r:.6e}\n# a  E(a)=H/H0\n"
    )
    with open(path, "w") as f:
        f.write(header)
        for av, ev in zip(a, e):
            f.write(f"{av:.12e} {ev:.12e}\n")


def read_background_table(path) -> TabulatedBackground:
    """Read a two-column (a, E) ASCII table."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("expected two-column (a, E) table")
    return TabulatedBackground(data[:, 0], data[:, 1])
