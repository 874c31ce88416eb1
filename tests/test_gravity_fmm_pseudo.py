"""Tests for the §2.2.2 alternatives: cell-cell accepts and pseudo-particles."""

import numpy as np
import pytest

from repro.gravity import (
    TreecodeConfig,
    TreecodeGravity,
    direct_accelerations,
    make_softening,
)
from repro.multipoles import m2p, p2m
from repro.multipoles.pseudoparticle import (
    PseudoParticleCell,
    fit_pseudo_masses,
    sphere_nodes,
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
    def test_sphere_nodes_unit(self):
        nodes = sphere_nodes(64)
        np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-12)

    def test_sphere_nodes_spread(self):
        nodes = sphere_nodes(100)
        # center of mass near zero for a good spread
        assert np.abs(nodes.mean(axis=0)).max() < 0.05

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sphere_nodes(0)

    def test_fit_reproduces_monopole_and_harmonic_content(self):
        """Total mass (l=0) is matched essentially exactly; trace parts of
        the Cartesian moments are *not* (monopoles on a sphere cannot
        carry them) — but those are field-irrelevant for 1/r."""
        rng = np.random.default_rng(0)
        pos = rng.random((200, 3)) - 0.5
        mass = rng.random(200)
        p = 3
        m = p2m(pos, mass, np.zeros(3), p)
        nodes, masses = fit_pseudo_masses(m, p, radius=1.2)
        m_pseudo = p2m(nodes, masses, np.zeros(3), p)
        assert m_pseudo[0] == pytest.approx(m[0], rel=1e-4)  # total mass
        # dipole (pure l=1, trace-free) also matches
        np.testing.assert_allclose(m_pseudo[1:4], m[1:4], rtol=1e-3,
                                   atol=1e-4 * abs(m[0]))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_far_field_matches_multipole(self, p):
        """The pseudo set reproduces the order-p multipole field: both
        deviate from direct summation only at order p+1."""
        rng = np.random.default_rng(1)
        pos = rng.random((256, 3)) - 0.5
        mass = rng.random(256)
        m = p2m(pos, mass, np.zeros(3), p)
        cell = PseudoParticleCell(m, np.zeros(3), p, radius=1.2)
        t = np.array([[4.0, 1.0, -2.0], [-3.0, 2.5, 1.0]])
        pot_ps, acc_ps = cell.field(t)
        pot_mp, acc_mp = m2p(m, np.zeros(3), t, p)
        # agreement between the two representations is much tighter than
        # either's truncation error
        np.testing.assert_allclose(pot_ps, pot_mp, rtol=2e-4)
        np.testing.assert_allclose(acc_ps, acc_mp, rtol=2e-3, atol=1e-8)

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
