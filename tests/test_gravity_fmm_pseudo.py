"""Tests for the §2.2.2 alternatives: cell-cell accepts and pseudo-particles'
flop cost."""

import numpy as np
import pytest

from repro.gravity import (
    TreecodeConfig,
    TreecodeGravity,
    direct_accelerations,
    make_softening,
)


def cloud(n=2048, seed=3, clustered=False):
    rng = np.random.default_rng(seed)
    if clustered:
        c = rng.random((5, 3))
        pos = (c[rng.integers(0, 5, n)] + 0.04 * rng.standard_normal((n, 3))) % 1.0
    else:
        pos = rng.random((n, 3))
    return pos, np.full(n, 1.0 / n)


def cell_cell_solver(theta, p=4, eps=1e-3):
    """Open-boundary solver driven by the geometric cell-cell MAC alone.

    ``errtol=1e30`` collapses ``r_crit``, so mutual accepts are decided
    by ``bmax_a + bmax_b < theta * dist`` — the classic Dehnen
    criterion the paper's §2.2.2 discussion is about.
    """
    return TreecodeGravity(TreecodeConfig(
        traversal="fmm-hybrid", errtol=1e30, cc_xmax=theta, p=p,
        background=False, softening="plummer", eps=eps,
    ))


class TestFMMAccuracy:
    @pytest.mark.parametrize("clustered", [False, True])
    def test_matches_direct(self, clustered):
        pos, mass = cloud(1500, seed=1, clustered=clustered)
        eps = 1e-3
        res = cell_cell_solver(0.45, eps=eps).compute(pos, mass)
        ref = direct_accelerations(pos, mass, softening=make_softening("plummer", eps))
        rel = np.linalg.norm(res.acc - ref, axis=1) / np.linalg.norm(ref, axis=1).mean()
        assert np.median(rel) < 1e-3
        assert rel.max() < 3e-2

    def test_potential_matches(self):
        pos, mass = cloud(1000, seed=2)
        res = cell_cell_solver(0.45).compute(pos, mass)
        _, pref = direct_accelerations(
            pos, mass, softening=make_softening("plummer", 1e-3), want_potential=True
        )
        assert np.abs(res.pot - pref).max() / np.abs(pref).mean() < 1e-2

    def test_theta_controls_error(self):
        pos, mass = cloud(1200, seed=7)
        ref = direct_accelerations(pos, mass, softening=make_softening("plummer", 1e-3))

        def err(theta):
            r = cell_cell_solver(theta).compute(pos, mass)
            return np.median(
                np.linalg.norm(r.acc - ref, axis=1) / np.linalg.norm(ref, axis=1).mean()
            )

        assert err(0.35) < err(0.65)

    def test_errors_grow_toward_local_expansion_edges(self):
        """The paper's §2.2.2 objection, measured directly: "the behavior
        of the errors near the outer regions of local expansions" —
        particles near the edge of their (leaf-level) local-expansion
        cell carry systematically larger errors than particles near the
        center, which is what forces either higher local order or
        smaller expansion cells."""
        pos, mass = cloud(2048, seed=4)
        ref = direct_accelerations(pos, mass, softening=make_softening("plummer", 1e-3))
        res = cell_cell_solver(0.6, p=3).compute(pos, mass)
        err = np.linalg.norm(res.acc - ref, axis=1)

        from repro.keys import ancestor_key, cell_geometry, keys_from_positions

        k = keys_from_positions(pos)
        anc = ancestor_key(k, 3)  # the leaf level of this configuration
        c, s = cell_geometry(anc)
        u = np.abs(pos - c).max(axis=1) / (s / 2)
        inner = np.median(err[u < 0.5])
        outer = np.median(err[u > 0.8])
        assert outer > 1.3 * inner


class TestPseudoParticles:
    def test_cost_comparison_paper_claim(self):
        """§2.2.2: pseudo-particles are *less efficient* than the coded
        Cartesian kernels — K monopoles cost more flops than one
        order-p interaction for every order tested up to 8."""
        from repro.perfmodel import flops_per_cell_interaction

        for p in (2, 4, 6, 8):
            k = 2 * (p + 1) ** 2
            pseudo_flops = 28 * k
            cartesian_flops = flops_per_cell_interaction(p)
            assert pseudo_flops > cartesian_flops
