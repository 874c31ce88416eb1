"""Failure-injection and adversarial-input tests across the stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gravity import TreecodeConfig, TreecodeGravity, make_softening
from repro.io import read_sdf, write_sdf
from repro.simulation import ParticleSet
from repro.tree import build_tree, compute_moments, traverse_hierarchical


class TestAdversarialParticleSets:
    def test_coincident_particles_softened_force_finite(self):
        """Duplicate positions: softened forces stay finite and the
        self-interaction exclusion still works."""
        pos = np.concatenate([
            np.full((10, 3), 0.25),
            np.random.default_rng(0).random((100, 3)),
        ])
        mass = np.full(len(pos), 1.0 / len(pos))
        cfg = TreecodeConfig(
            p=2, errtol=1e-3, background=False, softening="plummer", eps=1e-2
        )
        res = TreecodeGravity(cfg).compute(pos, mass)
        assert np.all(np.isfinite(res.acc))
        assert np.all(np.isfinite(res.pot))

    def test_single_particle(self):
        cfg = TreecodeConfig(p=2, errtol=1e-3, background=False)
        res = TreecodeGravity(cfg).compute(
            np.array([[0.5, 0.5, 0.5]]), np.array([1.0])
        )
        np.testing.assert_array_equal(res.acc, 0.0)

    def test_two_particles_exact(self):
        cfg = TreecodeConfig(
            p=2, errtol=1e-3, background=False, softening="none", nleaf=1
        )
        pos = np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
        mass = np.array([2.0, 3.0])
        res = TreecodeGravity(cfg).compute(pos, mass)
        # direct pair: |a1| = m2/r^2 = 3/0.25
        assert res.acc[0, 0] == pytest.approx(3.0 / 0.25)
        assert res.acc[1, 0] == pytest.approx(-2.0 / 0.25)

    def test_extreme_mass_ratio(self):
        rng = np.random.default_rng(1)
        pos = rng.random((200, 3))
        mass = np.full(200, 1e-12)
        mass[0] = 1.0
        cfg = TreecodeConfig(p=2, errtol=1e-6, background=False,
                             softening="plummer", eps=1e-3)
        res = TreecodeGravity(cfg).compute(pos, mass)
        assert np.all(np.isfinite(res.acc))
        # everything accelerates roughly toward particle 0
        d = pos[0] - pos[1:]
        cosang = np.einsum("ij,ij->i", res.acc[1:], d) / (
            np.linalg.norm(res.acc[1:], axis=1) * np.linalg.norm(d, axis=1)
        )
        assert np.median(cosang) > 0.9

    def test_highly_anisotropic_distribution(self):
        """All particles on a line — degenerate tree shapes still work."""
        t = np.linspace(0.1, 0.9, 300)
        pos = np.stack([t, np.full_like(t, 0.5), np.full_like(t, 0.5)], axis=1)
        mass = np.full(300, 1.0 / 300)
        tree = build_tree(pos, mass, nleaf=8)
        tree.validate()
        moms = compute_moments(tree, p=2, tol=1e-4)
        inter = traverse_hierarchical(tree, moms)
        assert inter.rounds > 0


class TestSDFFuzz:
    @given(
        st.dictionaries(
            st.text(alphabet="abcdefghij_", min_size=1, max_size=8),
            st.one_of(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.text(alphabet="abc XYZ0123.,-", max_size=20),
            ),
            max_size=6,
        ),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_metadata_roundtrip(self, metadata, n):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "fuzz.sdf"
            self._roundtrip(path, metadata, n)

    def _roundtrip(self, path, metadata, n):
        cols = {"x": np.arange(float(n))}
        write_sdf(path, cols, metadata=metadata)
        back = read_sdf(path)
        for k, v in metadata.items():
            got = back.metadata[k]
            if isinstance(v, float):
                assert got == pytest.approx(v, rel=1e-6)
            else:
                assert str(got) == str(v) or got == v

    def test_header_corruption_detected(self, tmp_path):
        path = tmp_path / "c.sdf"
        write_sdf(path, {"x": np.arange(10.0)})
        raw = bytearray(path.read_bytes())
        # chop the struct declaration
        idx = raw.find(b"struct")
        del raw[idx : idx + 30]
        path.write_bytes(bytes(raw))
        with pytest.raises(Exception):
            read_sdf(path)


class TestParticleSetValidation:
    def test_nan_positions_caught_by_tree(self):
        pos = np.random.default_rng(0).random((50, 3))
        pos[3] = np.nan
        with pytest.raises(ValueError):
            build_tree(pos, np.ones(50))

    def test_negative_mass_allowed_but_finite(self):
        """delta-rho formulations legitimately use negative masses; the
        machinery must not choke on them."""
        rng = np.random.default_rng(2)
        pos = rng.random((100, 3))
        mass = rng.standard_normal(100)
        tree = build_tree(pos, mass, nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-4)
        assert np.all(np.isfinite(moms.moments))
        assert np.all(np.isfinite(moms.r_crit))
