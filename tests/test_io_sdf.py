"""Tests for SDF files and leapfrog-preserving checkpoints."""

import numpy as np
import pytest

from repro.cosmology import EDS, PLANCK2013, WMAP7
from repro.io import load_checkpoint, read_sdf, save_checkpoint, write_sdf
from repro.io.checkpoint import cosmology_from_metadata
from repro.simulation import ParticleSet


class TestSDF:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "test.sdf"
        cols = {
            "x": np.linspace(0, 1, 10),
            "ident": np.arange(10, dtype=np.int64),
            "f": np.arange(10, dtype=np.float32),
        }
        write_sdf(path, cols, metadata={"a": 0.5, "note": "hello world"})
        sdf = read_sdf(path)
        assert sdf.metadata["a"] == 0.5
        assert sdf.metadata["note"] == "hello world"
        np.testing.assert_array_equal(sdf.columns["x"], cols["x"])
        np.testing.assert_array_equal(sdf.columns["ident"], cols["ident"])
        assert sdf.columns["f"].dtype == np.float32

    def test_vector_columns_split(self, tmp_path):
        path = tmp_path / "vec.sdf"
        write_sdf(path, {"pos": np.random.rand(5, 3)})
        sdf = read_sdf(path)
        assert set(sdf.columns) == {"pos_x", "pos_y", "pos_z"}
        assert sdf.n_rows == 5

    def test_header_is_ascii(self, tmp_path):
        path = tmp_path / "h.sdf"
        write_sdf(path, {"x": np.zeros(3)}, metadata={"box": 100.0})
        raw = path.read_bytes()
        header = raw.split(b"\x0c")[0]
        header.decode("ascii")  # must not raise
        assert b"box = 100.0;" in header
        assert b"struct {" in header

    def test_git_tag_provenance(self, tmp_path):
        path = tmp_path / "g.sdf"
        write_sdf(path, {"x": np.zeros(2)}, git_tag="v1.2.3-abcdef")
        sdf = read_sdf(path)
        assert sdf.metadata["code_version"] == "v1.2.3-abcdef"

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_sdf(tmp_path / "bad.sdf", {"x": np.zeros(3), "y": np.zeros(4)})

    def test_truncated_body_detected(self, tmp_path):
        path = tmp_path / "t.sdf"
        write_sdf(path, {"x": np.arange(100.0)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])
        with pytest.raises(ValueError, match="truncated"):
            read_sdf(path)

    def test_not_sdf_rejected(self, tmp_path):
        path = tmp_path / "no.sdf"
        path.write_bytes(b"just some bytes")
        with pytest.raises(ValueError):
            read_sdf(path)

    def test_empty_table(self, tmp_path):
        path = tmp_path / "e.sdf"
        write_sdf(path, {"x": np.zeros(0)})
        sdf = read_sdf(path)
        assert sdf.n_rows == 0


class TestCheckpoint:
    def make_particles(self, offset=False):
        rng = np.random.default_rng(0)
        n = 64
        return ParticleSet(
            pos=rng.random((n, 3)),
            mom=rng.standard_normal((n, 3)) * 1e-3,
            mass=np.full(n, 1.0 / n),
            ids=np.arange(n),
            a=0.5,
            a_mom=0.48 if offset else 0.5,
        )

    @pytest.mark.parametrize("params", [
        PLANCK2013, WMAP7, EDS,
        PLANCK2013.with_(include_radiation=False, w0=-0.9, t_cmb=2.5),
    ], ids=["PLANCK2013", "WMAP7", "EDS", "custom"])
    def test_roundtrip(self, tmp_path, params):
        ps = self.make_particles()
        path = tmp_path / "chk.sdf"
        save_checkpoint(path, ps, params=params, box_mpc_h=100.0)
        ps2, md = load_checkpoint(path)
        np.testing.assert_array_equal(ps2.pos, ps.pos)
        np.testing.assert_array_equal(ps2.mom, ps.mom)
        np.testing.assert_array_equal(ps2.ids, ps.ids)
        assert cosmology_from_metadata(md) == params
        assert md["box_mpc_h"] == 100.0

    def test_leapfrog_offset_preserved(self, tmp_path):
        """The §2.3 requirement: restart keeps the position/momentum
        epoch offset rather than resynchronizing."""
        ps = self.make_particles(offset=True)
        path = tmp_path / "off.sdf"
        save_checkpoint(path, ps)
        ps2, _ = load_checkpoint(path)
        assert ps2.a == 0.5
        assert ps2.a_mom == 0.48
        assert ps2.a != ps2.a_mom

    def test_restart_continues_exactly(self, tmp_path):
        """Evolving A->B->C equals evolving A->B, checkpointing, loading
        and evolving B->C."""
        from repro.cosmology import EDS
        from repro.simulation import LeapfrogIntegrator

        def force(ps):
            d = ps.pos[:, None, :] - ps.pos[None, :, :]
            r = np.linalg.norm(d, axis=2)
            np.fill_diagonal(r, np.inf)
            return -np.einsum("j,ijk->ik", ps.mass, d / r[:, :, None] ** 3)

        ps = self.make_particles()
        integ = LeapfrogIntegrator(EDS, force)
        integ.step_kdk(ps, 0.55)
        save_checkpoint(tmp_path / "mid.sdf", ps)
        integ.step_kdk(ps, 0.6)
        direct = ps.copy()

        ps2, _ = load_checkpoint(tmp_path / "mid.sdf")
        integ2 = LeapfrogIntegrator(EDS, force)
        integ2.step_kdk(ps2, 0.6)
        np.testing.assert_allclose(ps2.pos, direct.pos, atol=1e-15)
        np.testing.assert_allclose(ps2.mom, direct.mom, atol=1e-15)
