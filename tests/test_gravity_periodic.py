"""Tests for Ewald summation, lattice local expansions, and TreePM."""

import itertools
import math

import numpy as np
import pytest

from repro.gravity import TreecodeConfig, TreecodeGravity, periodic
from repro.gravity.ewald import EwaldSummation
from repro.gravity.periodic import (
    PeriodicLocalExpansion,
    _image_sum,
    _wave_sum,
    _wedge,
    lattice_sums,
)
from repro.gravity.pm import (
    ParticleMesh,
    ShortRangeSoftening,
    TreePMConfig,
    TreePMGravity,
)
from repro.gravity.smoothing import NoSoftening
from repro.gravity.solver import P_LATTICE
from repro.multipoles import multi_index_set, p2m, subtract_background
from repro.multipoles.multiindex import MultiIndexSet
from repro.multipoles.radial import ErfcKernel, NewtonianKernel
from repro.tree import build_tree, compute_moments

from .oracle import oracle_lattice_field, oracle_lattice_pieces, oracle_lattice_sums


@pytest.fixture(scope="module")
def small_system():
    rng = np.random.default_rng(4)
    n = 64
    pos = rng.random((n, 3))
    mass = rng.random(n) / n
    ew = EwaldSummation()
    return pos, mass, ew, ew.accelerations(pos, mass)


class TestEwald:
    def test_alpha_independence(self):
        """The Ewald split is exact: different alphas agree."""
        dx = np.array([[0.3, 0.1, -0.2], [0.45, 0.0, 0.05]])
        a1 = EwaldSummation(alpha=1.5, rmax=6, kmax=8).acceleration_pair(dx)
        a2 = EwaldSummation(alpha=3.0, rmax=6, kmax=10).acceleration_pair(dx)
        np.testing.assert_allclose(a1, a2, rtol=1e-9, atol=1e-10)

    def test_potential_alpha_independence(self):
        dx = np.array([[0.25, 0.35, 0.1]])
        p1 = EwaldSummation(alpha=1.5, rmax=6, kmax=8).potential_pair(dx)
        p2 = EwaldSummation(alpha=2.5, rmax=6, kmax=10).potential_pair(dx)
        assert p1[0] == pytest.approx(p2[0], rel=1e-9)

    def test_short_distance_is_newtonian(self):
        """At r << L the periodic kernel approaches bare 1/r^2."""
        dx = np.array([[0.01, 0.0, 0.0]])
        ew = EwaldSummation()
        a = ew.acceleration_pair(dx)
        assert a[0, 0] == pytest.approx(-1.0 / 0.01**2, rel=1e-3)

    def test_symmetry(self):
        ew = EwaldSummation()
        dx = np.array([[0.2, 0.15, -0.1]])
        a1 = ew.acceleration_pair(dx)
        a2 = ew.acceleration_pair(-dx)
        np.testing.assert_allclose(a1, -a2, atol=1e-14)

    def test_half_box_force_vanishes_on_axis(self):
        """By symmetry the force at (L/2, 0, 0) has no x-component."""
        ew = EwaldSummation()
        a = ew.acceleration_pair(np.array([[0.5, 0.0, 0.0]]))
        assert abs(a[0, 0]) < 1e-12

    def test_momentum_conservation(self, small_system):
        pos, mass, ew, acc = small_system
        net = (mass[:, None] * acc).sum(axis=0)
        assert np.all(np.abs(net) < 1e-12 * np.abs(mass[:, None] * acc).sum())


class TestLatticeSums:
    def test_odd_orders_vanish(self):
        """A sign flip of axis i maps the lattice onto itself and
        multiplies d^gamma by (-1)^gamma_i: every gamma with an odd
        component sums to zero, and summed over orbits it is zero
        exactly, not to round-off."""
        t = lattice_sums(15, ws=2)
        odd = np.any(multi_index_set(15).alphas % 2, axis=1)
        assert odd.sum() == 696 and np.all(t[odd] == 0.0)
        assert np.all(t[~odd] != 0.0)

    def test_cubic_symmetry(self):
        """T_gamma is the same number — every bit — for all axis
        permutations of gamma."""
        t = lattice_sums(8, ws=1)
        mis = multi_index_set(8)
        for g in mis.alphas[mis.slice_of_order(8)]:
            same = {t[mis.index[tuple(int(g[i]) for i in s)]] for s in itertools.permutations(range(3))}
            assert len(same) == 1, g

    def test_traceless_quadrupole_block(self):
        """sum_i T_(2 e_i) is the Laplacian at the center of the far
        potential.  The bare images are harmonic there, so what is left
        is the uniform neutralizing background of the Ewald sum, charge
        density -1/L^3, whose Laplacian is +4 pi / L^3 whatever ``ws``
        is.  (It multiplies the box monopole, which the
        background-subtracted moments do not have.)"""
        mis = multi_index_set(2)
        for ws in (1, 2):
            t = lattice_sums(2, ws=ws)
            tr = (
                t[mis.index[(2, 0, 0)]]
                + t[mis.index[(0, 2, 0)]]
                + t[mis.index[(0, 0, 2)]]
            )
            assert tr == pytest.approx(4 * np.pi, rel=1e-12)

    @pytest.mark.parametrize("nmax,n_orbits,n_vectors", [(6, 83, 2196), (2, 9, 124), (8, 164, 4912)])
    def test_wedge_by_hand(self, nmax, n_orbits, n_vectors):
        """One representative n_x >= n_y >= n_z >= 0 per orbit of the
        cubic group — C(nmax + 3, 3) - 1 of them — and orbit sizes that
        add up to the (2 nmax + 1)^3 - 1 vectors of the cube."""
        reps, size = _wedge(nmax)
        assert len(reps) == n_orbits == math.comb(nmax + 3, 3) - 1
        assert size.sum() == n_vectors == (2 * nmax + 1) ** 3 - 1
        assert np.all(np.diff(reps, axis=1) <= 0) and reps.min() == 0 and reps[:, 0].min() == 1
        by_rep = {tuple(r): s for r, s in zip(reps.tolist(), size.tolist())}
        # (1,0,0): 3 axes x 2 signs; (1,1,0): 3 planes x 4; (1,1,1): 8
        # corners; (2,1,0): 6 orders x 4; (2,1,1): 3 x 8
        by_hand = {(1, 0, 0): 6, (1, 1, 0): 12, (1, 1, 1): 8, (2, 1, 0): 24, (2, 1, 1): 24}
        assert {r: by_rep[r] for r in by_hand} == by_hand
        if nmax >= 3:
            assert by_rep[(3, 2, 1)] == 48
        # every orbit, spelled out: signed permutations of the representative
        for r, s in by_rep.items():
            orbit = {
                tuple(sg * r[i] for sg, i in zip(signs, perm))
                for perm in itertools.permutations(range(3))
                for signs in itertools.product((1, -1), repeat=3)
            }
            assert len(orbit) == s

    @pytest.mark.parametrize("box", [1.0, 2.5])
    @pytest.mark.parametrize("ws", [1, 2])
    @pytest.mark.parametrize("order", [4, 8, 15])
    def test_each_sum_matches_the_full_cube(self, order, ws, box):
        """The erfc, k-space and bare sums, each against the sum over
        every vector of its cube (tests/oracle.py), order by order, to
        1e-13 of the largest coefficient of that order.  Where the exact
        sum vanishes — odd orders, and order 2 of the bare kernel, which
        is harmonic — the oracle holds its own round-off, and the scale
        is the size of what it added up."""
        alpha = 2.0 / box
        mis = multi_index_set(order)
        got = {
            "real": _image_sum(order, 6, box, ErfcKernel(alpha)),
            "wave": _wave_sum(order, 8, box, alpha),
            "near": _image_sum(order, ws, box, NewtonianKernel()),
        }
        for name, (ref, added) in oracle_lattice_pieces(order, ws, box, alpha, 6, 8).items():
            for n in range(order + 1):
                sl = mis.slice_of_order(n)
                scale = np.abs(ref[sl]).max()
                if scale <= 1e-12 * added[sl].max():
                    assert n % 2 or (name, n) == ("near", 2)
                    scale = added[sl].max()
                assert np.abs(got[name][sl] - ref[sl]).max() <= 1e-13 * scale, (name, n)

    def test_default_geometry_evaluates_92_image_and_164_wave_vectors(self, monkeypatch):
        """``PeriodicLocalExpansion(6, 8, 2)``: 83 + 9 lattice vectors
        through ``derivative_tensors`` (2,196 + 124 over the full
        cubes) and 164 wave vectors through ``powers`` (4,912)."""
        rows = {"images": [], "waves": []}
        real_dt, real_powers = periodic.derivative_tensors, MultiIndexSet.powers

        def spy_dt(dx, kernel, p, **kw):
            rows["images"].append(len(dx))
            return real_dt(dx, kernel, p, **kw)

        def spy_powers(self, d):
            rows["waves"].append(len(d))
            return real_powers(self, d)

        monkeypatch.setattr(periodic, "derivative_tensors", spy_dt)
        monkeypatch.setattr(MultiIndexSet, "powers", spy_powers)
        periodic._lattice_sums_cached.cache_clear()
        PeriodicLocalExpansion(6, 8, 2)
        assert rows == {"images": [83, 9], "waves": [164]}

    def test_alpha_independence(self):
        """The Ewald split is exact, the floating-point sum is not: T
        at alpha = 1.5 and 2.5 against alpha = 2 (rmax / kmax wide
        enough for each), relative to the largest coefficient of the
        order.  The tolerances are 3-5x the measured differences where
        those are above round-off
        (ws = 2: 0, 4e-16, 1e-13, 4e-11, 2e-9, 5e-6, 2e-6, 4e-3 at
        orders 0, 2, ..., 14): the erfc and k-space sums are 1e3-1e10
        times larger than their difference at the high orders, which
        is also why the full-cube comparison above is made piece by
        piece and not on the total."""
        order = 15
        mis = multi_index_set(order)
        ref = lattice_sums(order, ws=2, alpha=2.0, rmax=6, kmax=8)
        tol = {0: 1e-14, 2: 1e-14, 4: 5e-13, 6: 2e-10, 8: 1e-8, 10: 2e-5, 12: 1e-5, 14: 2e-2}
        for alpha, rmax, kmax in ((1.5, 8, 8), (2.5, 6, 10)):
            t = lattice_sums(order, ws=2, alpha=alpha, rmax=rmax, kmax=kmax)
            for n, rel in tol.items():
                sl = mis.slice_of_order(n)
                assert np.abs(t[sl] - ref[sl]).max() <= rel * np.abs(ref[sl]).max(), (alpha, n)

    def test_ws_consistency(self):
        """T(ws=1) - T(ws=2) equals the bare sums over the shell
        1 < |n|_inf <= 2."""
        from repro.multipoles.dtensors import derivative_tensors
        from repro.multipoles.radial import NewtonianKernel

        t1 = lattice_sums(4, ws=1)
        t2 = lattice_sums(4, ws=2)
        r = np.arange(-2, 3)
        gx, gy, gz = np.meshgrid(r, r, r, indexing="ij")
        n = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1).astype(float)
        shell = n[(np.abs(n).max(axis=1) > 1) & (np.abs(n).max(axis=1) <= 2)]
        direct = derivative_tensors(shell, NewtonianKernel(), 4).sum(axis=0)
        np.testing.assert_allclose(t1 - t2, direct, rtol=1e-8, atol=1e-9)


class TestPeriodicLocalExpansion:
    def test_brute_force_plus_far_matches_ewald(self, small_system):
        pos, mass, ew, ref = small_system
        rho = mass.sum()
        ws = 2
        acc = np.zeros_like(pos)
        from repro.multipoles.prism import prism_acceleration

        offs = [
            np.array([i, j, k], dtype=float)
            for i in range(-ws, ws + 1)
            for j in range(-ws, ws + 1)
            for k in range(-ws, ws + 1)
        ]
        for off in offs:
            d = pos[:, None, :] - (pos[None, :, :] + off)
            r2 = np.einsum("ijk,ijk->ij", d, d)
            if np.all(off == 0):
                np.fill_diagonal(r2, np.inf)
            acc -= np.einsum("j,ijk->ik", mass, d / r2[:, :, None] ** 1.5)
            acc += prism_acceleration(pos, off, off + 1.0, -rho)
        m = subtract_background(p2m(pos, mass, np.full(3, 0.5), 8), 1.0, rho, 8)
        ple = PeriodicLocalExpansion(p_source=8, p_local=8, ws=ws)
        _, far = ple.field(m, pos)
        err = np.linalg.norm(acc + far - ref, axis=1)
        scale = np.linalg.norm(ref, axis=1).mean()
        # the paper's §2.4 claim: ~1e-7 of the force for p=8, ws=2
        assert err.max() / scale < 5e-7

    def test_field_matches_the_full_cube_expansion(self, small_system):
        """The default geometry's far field with the coefficients
        summed over the wedge, against the same expansion fed the
        full-cube coefficients: 1e-12 of the largest acceleration."""
        pos, mass, ew, ref = small_system
        m = subtract_background(p2m(pos, mass, np.full(3, 0.5), 6), 1.0, mass.sum(), 6)
        ple = PeriodicLocalExpansion(p_source=6, p_local=8, ws=2)
        pot, acc = ple.field(m, pos)
        ple._tsum = oracle_lattice_sums(15, ws=2)
        pot_ref, acc_ref = ple.field(m, pos)
        assert np.abs(acc - acc_ref).max() <= 1e-12 * np.abs(acc_ref).max()
        assert np.abs(pot - pot_ref).max() <= 1e-12 * np.abs(pot_ref).max()

    def test_far_field_magnitude(self, small_system):
        """The |n| > 2 tail is a genuine ~10% of the force (it matters)."""
        pos, mass, ew, ref = small_system
        rho = mass.sum()
        m = subtract_background(p2m(pos, mass, np.full(3, 0.5), 6), 1.0, rho, 6)
        ple = PeriodicLocalExpansion(p_source=6, p_local=6, ws=2)
        _, far = ple.field(m, pos)
        scale = np.linalg.norm(ref, axis=1).mean()
        assert 1e-4 < np.abs(far).max() / scale

    def test_treecode_end_to_end_vs_ewald(self, small_system):
        pos, mass, ew, ref = small_system
        cfg = TreecodeConfig(
            p=6, errtol=1e-8, background=True, periodic=True, ws=2,
            softening="none", nleaf=8,
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        err = np.linalg.norm(res.acc - ref, axis=1)
        assert err.max() / np.linalg.norm(ref, axis=1).mean() < 1e-5

    def test_treecode_potential_matches_ewald_convention(self, small_system):
        """The full periodic treecode potential (near images + prisms +
        lattice local expansion) equals the Ewald-convention potential
        including each particle's own periodic images — the zero-point
        the Layzer-Irvine energy bookkeeping relies on."""
        pos, mass, ew, _ = small_system
        n = len(pos)
        pot_ref = np.zeros(n)
        for i in range(n):
            dx = pos[i][None, :] - pos
            keep = np.arange(n) != i
            pot_ref[i] = (mass[keep] * ew.potential_pair(dx[keep])).sum()
            pot_ref[i] += mass[i] * ew.self_potential()
        cfg = TreecodeConfig(
            p=6, errtol=1e-8, background=True, periodic=True, ws=2,
            softening="none", nleaf=8,
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        assert np.abs(res.pot - pot_ref).max() < 1e-6 * np.abs(pot_ref).mean()

    def test_zero_moments_zero_field(self):
        ple = PeriodicLocalExpansion(p_source=4, p_local=4, ws=1)
        pot, acc = ple.field(np.zeros(ple._mis_src.__len__()), np.random.rand(5, 3))
        assert np.all(acc == 0)


class TestCompiledLatticeField:
    """The compiled lattice L2P against the numpy one it replaced
    (``tests/oracle.py``): the acceleration bit for bit, the potential —
    which numpy summed through a BLAS dot product — within 1e-14 of its
    largest value.  A tree's root moments, and O(1) random ones that
    give every order of the expansion a say in the last bit."""

    @pytest.mark.parametrize("p_local", [P_LATTICE, 5])
    def test_field_matches_numpy(self, p_local):
        rng = np.random.default_rng(12)
        box = 2.0
        pos = rng.random((1001, 3)) * box  # not a multiple of the lane count
        mass = rng.random(1001) / 1001
        tree = build_tree(pos, mass, box=box, nleaf=8, with_ghosts=True)
        moms = compute_moments(tree, p=4, tol=1e-4, background=True,
                               mean_density=mass.sum() / box**3)
        ple = PeriodicLocalExpansion(p_source=6, p_local=p_local, ws=2, box=box)
        for m in (moms.moments[0], rng.standard_normal(moms.moments.shape[1])):
            pot, acc = ple.field(m, pos)
            pot_ref, acc_ref = oracle_lattice_field(ple, m, pos)
            assert np.abs(acc_ref).max() > 0
            np.testing.assert_array_equal(acc, acc_ref)
            assert np.abs(pot - pot_ref).max() <= 1e-14 * np.abs(pot_ref).max()


class TestParticleMesh:
    def test_deposit_conserves_mass(self):
        pm = ParticleMesh(16)
        rng = np.random.default_rng(0)
        pos = rng.random((500, 3))
        mass = rng.random(500)
        rho = pm.deposit(pos, mass)
        assert rho.sum() == pytest.approx(mass.sum())

    def test_interpolate_constant_field(self):
        pm = ParticleMesh(16)
        grid = np.full((16, 16, 16), 3.5)
        got = pm.interpolate(grid, np.random.default_rng(1).random((40, 3)))
        np.testing.assert_allclose(got, 3.5)

    def test_pair_force_matches_ewald_at_large_separation(self):
        """The Gaussian-split mesh force (how the PM is actually used:
        TreePM long range) is sub-percent accurate above the split
        scale; at this separation the split filter is ~1 so the full
        Ewald force is the reference.  (An *unsplit* point-source PM
        response carries the classic CIC-deconvolution anisotropy noise
        and is only good to tens of percent — that error is exactly
        what the short-range tree half of TreePM replaces.)"""
        pm = ParticleMesh(64, r_split=1.25 / 64)
        ew = EwaldSummation()
        pos = np.array([[0.25, 0.5, 0.5], [0.65, 0.5, 0.5]])
        mass = np.array([1.0, 0.0])  # massless test particle avoids self-force
        acc = pm.accelerations(pos, mass)
        ref = ew.acceleration_pair(np.array([pos[1] - pos[0]]))
        np.testing.assert_allclose(acc[1], ref[0], rtol=0.01, atol=1e-4)

    def test_momentum_conservation(self):
        pm = ParticleMesh(32)
        rng = np.random.default_rng(2)
        pos = rng.random((200, 3))
        mass = rng.random(200)
        acc = pm.accelerations(pos, mass)
        net = (mass[:, None] * acc).sum(axis=0)
        typ = np.abs(mass[:, None] * acc).sum(axis=0)
        assert np.all(np.abs(net) < 1e-8 * typ)


class TestTreePM:
    def test_split_filter_limits(self):
        s = ShortRangeSoftening(NoSoftening(), 0.1)
        # r << r_s: full Newtonian
        assert s.force_factor(np.array([1e-3]))[0] == pytest.approx(1e9, rel=1e-3)
        # r >> r_s: suppressed
        assert s.force_factor(np.array([1.0]))[0] < 1e-8

    def test_treepm_vs_ewald(self, small_system):
        pos, mass, ew, ref = small_system
        cfg = TreePMConfig(ngrid=32, errtol=1e-6, softening="plummer", eps=1e-4)
        res = TreePMGravity(cfg).compute(pos, mass)
        rel = np.linalg.norm(res.acc - ref, axis=1) / np.linalg.norm(ref, axis=1).mean()
        # the split is approximate at the transition scale — percent-level
        # errors are expected (that's the Fig. 7 artifact), not 1e-7
        assert np.median(rel) < 0.03
        assert rel.max() < 0.25

    def test_treepm_worse_than_pure_tree(self, small_system):
        """The pure treecode at production settings beats TreePM's
        transition-region accuracy — the paper's concluding argument."""
        pos, mass, ew, ref = small_system
        tree_res = TreecodeGravity(
            TreecodeConfig(p=6, errtol=1e-7, background=True, periodic=True, ws=2,
                           softening="none", nleaf=8)
        ).compute(pos, mass)
        tp_res = TreePMGravity(
            TreePMConfig(ngrid=32, errtol=1e-6, softening="plummer", eps=1e-4)
        ).compute(pos, mass)
        scale = np.linalg.norm(ref, axis=1).mean()
        e_tree = np.linalg.norm(tree_res.acc - ref, axis=1).max() / scale
        e_tp = np.linalg.norm(tp_res.acc - ref, axis=1).max() / scale
        assert e_tree < 0.01 * e_tp

    def test_pruning_at_the_recording_cell_drops_nothing_that_matters(self):
        """Cell accepts are pruned where they were recorded, with the
        sink *cell's* b_max: whatever goes is beyond the cutoff for
        every particle under that cell.  With the cutoff at 11 split
        scales (erfc(5.5) = 7e-15) the pruned short-range force is the
        unpruned one to 1e-12 — while a third of the entries are gone."""
        from repro.gravity.pm import _prune_far
        from repro.gravity.smoothing import make_softening
        from repro.gravity.treeforce import evaluate_forces
        from repro.multipoles import ErfcKernel
        from repro.tree import build_tree, compute_moments, traverse_lists

        from .oracle import oracle_forces

        rng = np.random.default_rng(11)
        centres = rng.random((4, 3))
        pos = (centres[rng.integers(0, 4, 600)] + 0.05 * rng.standard_normal((600, 3))) % 1.0
        mass = np.full(600, 1.0 / 600)
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-4)
        r_split = 0.03
        how = dict(
            kernel=ErfcKernel(1.0 / (2.0 * r_split)),
            softening=ShortRangeSoftening(make_softening("spline", 0.01), r_split),
        )
        inter = traverse_lists(tree, moms, periodic=True, ws=1)
        pruned = _prune_far(tree, moms, inter, 11.0 * r_split)
        assert len(pruned.cell_src) < 0.7 * len(inter.cell_src)
        assert np.array_equal(pruned.cell_cells, inter.cell_cells)
        assert pruned.cell_indptr[-1] == len(pruned.cell_src) == len(pruned.cell_off)
        interior = ~tree.is_leaf[inter.cell_cells]
        gone = np.diff(inter.cell_indptr) - np.diff(pruned.cell_indptr)
        assert gone[interior].sum() > 0 and gone[~interior].sum() > 0
        # superset: every dropped entry is out of range of every
        # particle under its sink cell
        sink = np.repeat(inter.cell_cells, np.diff(inter.cell_indptr))
        kept = set(zip(
            np.repeat(pruned.cell_cells, np.diff(pruned.cell_indptr)).tolist(),
            pruned.cell_src.tolist(), pruned.cell_off.tolist(),
        ))
        dropped = np.array([
            t not in kept for t in zip(sink.tolist(), inter.cell_src.tolist(), inter.cell_off.tolist())
        ])
        assert dropped.sum() == len(inter.cell_src) - len(pruned.cell_src)
        for e in np.flatnonzero(dropped)[:: max(1, dropped.sum() // 200)]:
            c, s = sink[e], inter.cell_src[e]
            own = tree.pos[tree.cell_start[c] : tree.cell_start[c] + tree.cell_count[c]]
            centre = tree.cell_center[s] + inter.offsets[inter.cell_off[e]]
            assert np.linalg.norm(own - centre, axis=1).min() - moms.bmax[s] >= 11.0 * r_split
        full = evaluate_forces(tree, moms, inter, **how)
        short = evaluate_forces(tree, moms, pruned, **how)
        assert short.stats["cell_interactions"] < full.stats["cell_interactions"]
        assert np.abs(short.acc - full.acc).max() <= 1e-12 * np.abs(full.acc).max()
        assert np.abs(short.pot - full.pot).max() <= 1e-12 * np.abs(full.pot).max()
        # the derived per-leaf view of a pruned list feeds the
        # term-by-term kernel the same interactions
        flat = oracle_forces(tree, moms, pruned, **how)
        assert flat.stats["cell_interactions"] == short.stats["cell_interactions"]
        assert np.abs(short.acc - flat.acc).max() <= 1e-12 * np.abs(flat.acc).max()
