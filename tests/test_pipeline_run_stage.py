"""End-to-end test of the generated pipeline: spec -> configs -> stages."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.pipeline import PipelineSpec
from repro.pipeline.run_stage import EXIT_PREEMPTED, run_stage

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def tiny_spec():
    return PipelineSpec(
        name="tiny",
        n_per_dim=6,
        box_mpc_h=30.0,
        z_init=9.0,
        z_final=4.0,  # a 0.1 -> 0.2: quick
        errtol=1e-3,
        p_order=2,
        snapshots_z=(4.0,),
        analysis=("power", "fof"),
        git_tag="test-tag",
    )


class TestRunStage:
    def test_full_pipeline_executes(self, tiny_spec, tmp_path):
        """The §3.4 promise: the generated artifacts are sufficient to
        run the whole pipeline end to end."""
        tiny_spec.write(tmp_path)
        ic = run_stage(tmp_path / "tiny_ic.json")
        assert ic["particles"] == 6**3
        ev = run_stage(tmp_path / "tiny_evolve.json")
        assert ev["steps"] > 0
        assert len(ev["snapshots"]) == 1
        an = run_stage(tmp_path / "tiny_analysis.json")
        assert an["snapshots"] == 1
        results = json.loads((tmp_path / "analysis_results.json").read_text())
        (snap_result,) = results.values()
        assert "power" in snap_result
        assert "n_halos" in snap_result

    def test_provenance_in_outputs(self, tiny_spec, tmp_path):
        """§3.4.3: the git tag propagates into the SDF headers of every
        data product."""
        from repro.io import read_sdf

        tiny_spec.write(tmp_path)
        run_stage(tmp_path / "tiny_ic.json")
        sdf = read_sdf(tmp_path / "tiny_ic.sdf")
        assert sdf.metadata["code_version"] == "test-tag"

    def test_unknown_stage_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"stage": "transmogrify"}))
        with pytest.raises(ValueError):
            run_stage(p)

    def test_ic_is_deterministic_given_config(self, tiny_spec, tmp_path):
        """Re-running a stage from the same config reproduces the output
        bit for bit — the reproducibility §3.4 is about."""
        from repro.io import read_sdf

        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        for d in (d1, d2):
            tiny_spec.write(d)
            run_stage(d / "tiny_ic.json")
        s1 = read_sdf(d1 / "tiny_ic.sdf")
        s2 = read_sdf(d2 / "tiny_ic.sdf")
        np.testing.assert_array_equal(s1.columns["pos_x"], s2.columns["pos_x"])
        np.testing.assert_array_equal(s1.columns["mom_z"], s2.columns["mom_z"])

    def test_cold_start_keeps_the_input_cosmology(self, tmp_path):
        """The evolve stage takes every cosmology key from its input,
        not only the six a probe needs."""
        from repro.cosmology import PLANCK2013
        from repro.io import read_sdf, save_checkpoint
        from repro.simulation import ParticleSet

        n = 4
        grid = (np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), -1)
                .reshape(-1, 3) + 0.5) / n
        rng = np.random.default_rng(3)
        ps = ParticleSet(
            pos=grid + rng.normal(0.0, 0.01, grid.shape), mom=np.zeros_like(grid),
            mass=np.full(n**3, 1.0 / n**3), ids=np.arange(n**3), a=0.1, a_mom=0.1,
        )
        params = PLANCK2013.with_(include_radiation=False, w0=-0.9, t_cmb=2.5)
        save_checkpoint(tmp_path / "in.sdf", ps, params=params, box_mpc_h=50.0)
        (tmp_path / "evolve.json").write_text(json.dumps({
            "stage": "evolve", "input": "in.sdf", "a_final": 0.11,
            "errtol": 0.1, "p_order": 2, "snapshot_base": "snap",
            "snapshots_a": [0.11],
        }))
        (out,) = run_stage(tmp_path / "evolve.json")["snapshots"]
        md = read_sdf(out).metadata
        assert md["include_radiation"] == 0
        assert md["w0"] == -0.9
        assert md["t_cmb"] == 2.5


def _write_restart_configs(d):
    """A 6^3 box evolved a = 0.02 -> 0.05: eight steps, about a second."""
    (d / "ic.json").write_text(json.dumps({
        "stage": "ic", "n_per_dim": 6, "box_mpc_h": 100.0, "a_init": 0.02,
        "seed": 7, "omega_m": 0.3, "omega_b": 0.05, "h": 0.7,
        "sigma8": 0.8, "n_s": 0.96, "output": "ic.sdf",
    }))
    (d / "evolve.json").write_text(json.dumps({
        "stage": "evolve", "input": "ic.sdf", "a_final": 0.05,
        "errtol": 0.1, "snapshot_base": "snap", "snapshots_a": [0.05],
    }))
    run_stage(d / "ic.json")


class TestPreemptAndResume:
    def test_sigterm_exits_75_and_resume_ends_bit_identical(self, tmp_path):
        """The §3.4.1 courtesy through the CLI: SIGTERM after the first
        checkpoint stops the stage at a step boundary with a final
        checkpoint and exit status 75; ``resume`` then finishes it, and
        the snapshot equals an uninterrupted run's bit for bit."""
        from repro.io import load_checkpoint

        ref, cut = tmp_path / "ref", tmp_path / "cut"
        for d in (ref, cut):
            d.mkdir()
            _write_restart_configs(d)
        run_stage(ref / "evolve.json", checkpoint_every=1)

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.pipeline.run_stage",
             str(cut / "evolve.json"), "--checkpoint-every", "1"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not list((cut / "checkpoints").glob("ckpt_*.sdf")):
                assert proc.poll() is None, "stage ended before its first checkpoint"
                assert time.monotonic() < deadline, "no checkpoint within 60 s"
                time.sleep(0.005)
            os.kill(proc.pid, signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == EXIT_PREEMPTED == 75, err.decode()
        assert json.loads(err.decode().splitlines()[-1])["preempted"] is True
        assert not list(cut.glob("snap_*.sdf"))

        summary = run_stage(cut / "evolve.json", resume=True)
        assert summary["resumed_from"]
        got, _ = load_checkpoint(cut / "snap_a0.0500.sdf")
        want, _ = load_checkpoint(ref / "snap_a0.0500.sdf")
        np.testing.assert_array_equal(got.pos, want.pos)
        np.testing.assert_array_equal(got.mom, want.mom)


class TestProvenanceKey:
    def test_monitored_resumed_and_plain_runs_share_one_key(self, tmp_path):
        """Health monitoring is not physics: a monitored cold start, its
        resumed leg and an unmonitored run of the same stage file one
        ``simulation_run`` key, the ``config_sha256`` of the checkpoint."""
        from repro.observe import Tracer
        from repro.io import load_checkpoint
        from repro.observe import RunRegistry

        _write_restart_configs(tmp_path)
        obs = tmp_path / "obs"
        stage = tmp_path / "evolve.json"

        def run(**kw):
            tr = Tracer(registry=obs)
            try:
                return run_stage(stage, tracer=tr, **kw)
            finally:
                tr.close()

        run(health=True, checkpoint_every=1)
        # drop the final checkpoint so the resumed leg has a step to run
        *_, resume_from, final = sorted((tmp_path / "checkpoints").glob("ckpt_*.sdf"))
        final.unlink()
        resumed = run(health=True, resume=True)
        assert resumed["resumed_from"] == str(resume_from)
        assert resumed["steps"] == 1
        run()

        runs = RunRegistry(obs).records(kind="simulation_run")
        assert len(runs) == 3
        _, md = load_checkpoint(resume_from)
        assert {r["key"] for r in runs} == {md["config_sha256"]}
        assert [bool(r["data"].get("health_events")) for r in runs] == [True, True, False]
