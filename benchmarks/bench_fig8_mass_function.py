"""Figure 8: the halo mass function against theory fits.

The paper's suite: 4096^3 particles in boxes of 1-8 Gpc/h (particle
mass changing 8x per step), SO masses, plotted as N(M)/Tinker08 for
Planck 2013 vs WMAP1 cosmologies.  At bench scale (default 16^3) the
mass function is dominated by exactly the systematic §6 diagnoses —
"improper growth of modes near the Nyquist frequency, due to the
discrete representation of the continuous Fourier modes" — plus
Poisson noise, so the asserted reproduction targets are the paper's
*structural* claims:

* halos form and their abundance tracks the theory fits within the
  (large) small-N window; the table reports N(M) against Warren et
  al. (2006) — the FOF-calibrated fit authored by the paper's author —
  and against Tinker08, with sigma(M) computed both from the full
  power spectrum and truncated to the modes the box actually contains,
* different box sizes are *internally consistent* where their mass
  ranges overlap (the paper's open-symbol check),
* the WMAP1 cosmology (sigma8 = 0.9) puts more mass into halos than
  Planck 2013 at shared phases.
"""

import dataclasses

import numpy as np
import pytest

from _simlib import BASE, BENCH_N, FULL, once, print_table, run_cached
from repro.analysis import (
    TinkerMassFunction,
    WarrenMassFunction,
    binned_mass_function,
    fof_halos,
    so_masses,
)
from repro.cosmology import PLANCK2013, WMAP1, LinearPower

N = max(BENCH_N, 18) if FULL else max(BENCH_N, 16)
BOXES = [30.0 * N / 16, 60.0 * N / 16] + ([120.0 * N / 16] if FULL else [])
MIN_MEMBERS = 16

BASE = dataclasses.replace(BASE, n_per_dim=N, seed=1234)


def _fof_masses(cfg):
    """Run (cached); FOF(0.2) masses in Msun/h plus the particle mass."""
    out = run_cached(cfg)
    pos, mass = out["pos"], out["mass"]
    fof = fof_halos(pos, mass, linking_length=0.2, min_members=MIN_MEMBERS)
    m_part_msun = cfg.cosmology.particle_mass(cfg.box_mpc_h, cfg.n_particles)
    if fof.n_groups == 0:
        return np.empty(0), m_part_msun, fof
    return fof.masses / mass[0] * m_part_msun, m_part_msun, fof


@pytest.fixture(scope="module")
def suite():
    out = {}
    for box in BOXES:
        cfg = dataclasses.replace(BASE, box_mpc_h=box)
        out[box] = _fof_masses(cfg)
    return out


def test_fig8_ratio_to_fits(benchmark, suite):
    def run():
        warren = WarrenMassFunction()
        tinker = TinkerMassFunction(200.0)
        rows = []
        for box, (masses, m_part, _fof) in suite.items():
            if len(masses) < 3 or masses.max() < 1.3 * MIN_MEMBERS * m_part:
                continue
            lp_full = LinearPower(PLANCK2013)
            lp_trunc = LinearPower(
                PLANCK2013, kmin=2 * np.pi / box, kmax=np.pi * N / box
            )
            res = binned_mass_function(
                masses, box, n_bins=3,
                m_range=(MIN_MEMBERS * m_part, masses.max() * 1.2),
            )
            for m, dn, cnt in zip(res.m_center, res.dn_dlnm, res.counts):
                if cnt < 2:
                    continue
                w_full = warren.dn_dlnm(PLANCK2013, m, power=lp_full)[0]
                w_tr = warren.dn_dlnm(PLANCK2013, m, power=lp_trunc)[0]
                t_full = tinker.dn_dlnm(PLANCK2013, m, power=lp_full)[0]
                rows.append(
                    (round(box, 1), f"{m:.2e}", int(cnt),
                     round(dn / w_full, 2), round(dn / w_tr, 2),
                     round(dn / t_full, 2))
                )
        return rows

    rows = once(benchmark, run)
    print_table(
        "Fig. 8: N(M) / fits (FOF b=0.2, >=16 particles)",
        ["box Mpc/h", "M [Msun/h]", "halos", "/Warren06", "/Warren06(trunc)",
         "/Tinker08"],
        rows,
    )
    print(
        "NOTE: bench-N abundances sit low — the §6 near-Nyquist growth "
        "suppression (see EXPERIMENTS.md); the paper needed 4096^3 to "
        "control this to 1%."
    )
    assert len(rows) >= 2
    ratios = np.array([r[3] for r in rows])
    # halos exist and track the fit within the small-N window
    assert np.all((ratios > 0.05) & (ratios < 10.0))
    assert 0.1 < np.median(ratios) < 4.0


def test_fig8_internal_consistency_across_boxes(benchmark, suite):
    """Paper: 'the simulations are internally consistent' — two boxes
    (8x particle mass apart) agree on the mass function where their
    ranges overlap, within Poisson errors."""

    def run():
        boxes = sorted(suite)
        small, m_small, _ = suite[boxes[0]]
        large, m_large, _ = suite[boxes[1]]
        if len(small) == 0 or len(large) == 0:
            return None
        lo = max(MIN_MEMBERS * m_small, MIN_MEMBERS * m_large)
        hi = min(small.max(), large.max()) * 1.01
        if hi <= lo * 1.1:
            return None
        r_s = binned_mass_function(small, boxes[0], n_bins=2, m_range=(lo, hi))
        r_l = binned_mass_function(large, boxes[1], n_bins=2, m_range=(lo, hi))
        return r_s, r_l

    out = once(benchmark, run)
    if out is None:
        pytest.skip("no overlapping mass range at this bench scale")
    r_s, r_l = out
    rows, ok, total = [], 0, 0
    for m, a, ca, b, cb in zip(
        r_s.m_center, r_s.dn_dlnm, r_s.counts, r_l.dn_dlnm, r_l.counts
    ):
        if ca >= 1 and cb >= 1:
            total += 1
            sigma = np.sqrt(1 / ca + 1 / cb)
            dev = abs(np.log(max(a, 1e-30) / max(b, 1e-30)))
            rows.append((f"{m:.2e}", int(ca), int(cb), round(dev / sigma, 2)))
            if dev < 3 * sigma:
                ok += 1
    print_table(
        "Fig. 8: cross-box consistency (overlapping masses)",
        ["M [Msun/h]", "halos (small box)", "halos (big box)", "deviation/sigma"],
        rows,
    )
    if total == 0:
        pytest.skip("overlap too thin at this scale")
    assert ok >= max(1, total - 1)


def test_fig8_wmap1_puts_more_mass_in_halos(benchmark):
    """sigma8 = 0.9 (WMAP1) vs 0.834 (Planck): with shared phases the
    same protohalos collapse earlier and heavier — total FOF-grouped
    mass and the largest halo both grow."""

    def run():
        box = BOXES[0]
        p_m, _, p_fof = _fof_masses(dataclasses.replace(BASE, box_mpc_h=box))
        w_m, _, w_fof = _fof_masses(
            dataclasses.replace(BASE, box_mpc_h=box, cosmology=WMAP1)
        )
        return p_fof, w_fof

    p_fof, w_fof = once(benchmark, run)
    grouped_p = int(p_fof.sizes.sum()) if p_fof.n_groups else 0
    grouped_w = int(w_fof.sizes.sum()) if w_fof.n_groups else 0
    top_p = int(p_fof.sizes[0]) if p_fof.n_groups else 0
    top_w = int(w_fof.sizes[0]) if w_fof.n_groups else 0
    print(
        f"\ngrouped particles: Planck {grouped_p} (largest halo {top_p}), "
        f"WMAP1 {grouped_w} (largest halo {top_w})"
    )
    assert grouped_w > grouped_p
    assert top_w >= top_p


def test_fig8_so_vs_fof_definitions(benchmark, suite):
    """The SO(200m) and FOF(0.2) mass definitions agree at the tens-of-
    percent level on the same halos — the definition systematics §6 and
    Tinker08 discuss."""

    def run():
        box = BOXES[0]
        out = run_cached(dataclasses.replace(BASE, box_mpc_h=box))
        pos, mass = out["pos"], out["mass"]
        fof = fof_halos(pos, mass, linking_length=0.2, min_members=30)
        if fof.n_groups == 0:
            return None
        cat = so_masses(pos, mass, fof.centers, delta=200.0)
        return fof, cat

    out = once(benchmark, run)
    if out is None or len(out[1].m_delta) == 0:
        pytest.skip("no halos big enough at this bench scale")
    fof, cat = out
    # compare total mass in the two definitions over matched objects
    total_fof = fof.masses[: len(cat.m_delta)].sum()
    total_so = cat.m_delta.sum()
    ratio = total_so / total_fof
    print(f"\nSO(200m)/FOF(0.2) total-mass ratio: {ratio:.2f}")
    # at bench N halos are puffy: rho_enc > 200 rho_mean holds only in
    # cores, so SO sits well below FOF (well-resolved halos converge to
    # ratios near 1; see EXPERIMENTS.md)
    assert 0.05 < ratio < 3.0
