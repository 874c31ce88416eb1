"""``tools/check_fault_trace.py``, ``check_checkpoint_fallback.py``,
``check_resume_summary.py`` and ``check_obs_registry.py``: the checks the
CI fault-injection and observatory jobs run on what their pipelines
wrote."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.observe import JsonlAppender, RunRegistry

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


fault_trace = _load("check_fault_trace")
checkpoint_fallback = _load("check_checkpoint_fallback")
resume_summary = _load("check_resume_summary")
obs_registry = _load("check_obs_registry")


def _trace(path, records):
    with JsonlAppender(path) as log:
        for rec in records:
            log.append(rec)
    return path


class TestFaultTrace:
    RECOVERED = [
        {"type": "step", "step": 1},
        {"type": "executor_recovery", "kind": "worker_death", "shard": 0},
        {"type": "pipeline_stage", "stage": "evolve"},
    ]

    def test_recovered_stage_passes(self, tmp_path, capsys):
        trace = _trace(tmp_path / "trace.jsonl", self.RECOVERED)
        assert fault_trace.main([str(trace)]) == 0
        assert capsys.readouterr().out == "recovered: ['worker_death']\n"

    @pytest.mark.parametrize("drop, message", [
        (1, "no worker_death recovery in []"),
        (2, "evolve stage did not complete"),
    ])
    def test_missing_record_fails(self, tmp_path, capsys, drop, message):
        records = [r for i, r in enumerate(self.RECOVERED) if i != drop]
        trace = _trace(tmp_path / "trace.jsonl", records)
        assert fault_trace.main([str(trace)]) == 1
        assert capsys.readouterr().err == message + "\n"


def _store(directory, n_checkpoints, monkeypatch):
    from repro.resilience import CheckpointStore
    from repro.simulation import ParticleSet

    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    store = CheckpointStore(directory)
    rng = np.random.default_rng(3)
    for step in range(1, n_checkpoints + 1):
        store.save(step, ParticleSet(
            pos=rng.random((16, 3)), mom=np.zeros((16, 3)), mass=np.full(16, 1 / 16),
            ids=np.arange(16), a=0.1, a_mom=0.1,
        ))
    return store


class TestCheckpointFallback:
    def test_corrupted_newest_falls_back(self, tmp_path, capsys, monkeypatch):
        store = _store(tmp_path / "ck", 3, monkeypatch)
        assert checkpoint_fallback.main([str(store.directory)]) == 0
        assert capsys.readouterr().out == "fell back: ckpt_000003.sdf -> ckpt_000002.sdf\n"
        # the corruption stays for the resume that follows
        path, _, _ = store.latest_valid()
        assert path.name == "ckpt_000002.sdf"

    def test_one_checkpoint_is_not_enough(self, tmp_path, capsys, monkeypatch):
        store = _store(tmp_path / "ck", 1, monkeypatch)
        assert checkpoint_fallback.main([str(store.directory)]) == 1
        assert capsys.readouterr().err.startswith("need >= 2 checkpoints, have [")


class TestResumeSummary:
    def _output(self, path, summary):
        path.write_text("progress line\n" + json.dumps(summary) + "\n")
        return str(path)

    def test_resumed_stage_passes(self, tmp_path, capsys):
        out = self._output(tmp_path / "resume.json",
                           {"stage": "evolve", "snapshots": ["a.sdf"], "resumed_from": "ck/c2"})
        assert resume_summary.main([out]) == 0
        assert capsys.readouterr().out == "resumed from ck/c2\n"

    @pytest.mark.parametrize("summary, message", [
        ({"stage": "evolve", "snapshots": ["a.sdf"]},
         "did not resume: {'stage': 'evolve', 'snapshots': ['a.sdf']}"),
        ({"stage": "evolve", "snapshots": [], "resumed_from": "ck/c2"},
         "no snapshot rewritten after resume"),
    ])
    def test_missing_resume_fails(self, tmp_path, capsys, summary, message):
        assert resume_summary.main([self._output(tmp_path / "resume.json", summary)]) == 1
        assert capsys.readouterr().err == message + "\n"


def _observed_registry(root, profiled=True, timeline=True, key2="k"):
    reg = RunRegistry(root)
    reg.record("pipeline_stage", {"stage": "ic"}, key="ic")
    run = {"stage_seconds": {"evaluate": 0.5}, "top_spans": [{"path": "step"}]}
    reg.record("simulation_run", run, key="k")
    reg.record("pipeline_stage", {"stage": "evolve"}, key="ev")
    second = dict(run)
    if timeline:
        second["timeline"] = [[{"shard": 0, "worker": 0, "t0": 0.0, "t1": 1.0}]]
    if profiled:
        second["profile"] = {"stages": {"step": {"hot": []}}}
    reg.record("simulation_run", second, key=key2)
    reg.record("pipeline_stage", {"stage": "evolve"}, key="ev")
    return reg


class TestObsRegistry:
    def test_two_observed_runs_pass(self, tmp_path, capsys):
        reg = _observed_registry(tmp_path / "obs")
        assert obs_registry.main([str(reg.root)]) == 0
        assert capsys.readouterr().out == "registry ok: 5 records\n"

    def test_each_failed_check_is_named(self, tmp_path, capsys):
        reg = _observed_registry(tmp_path / "obs", profiled=False, timeline=False, key2="j")
        assert obs_registry.main([str(reg.root)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "runs of one configuration must share the registry key",
            "workers=2 run carries no timeline",
            "profiled run has no profile",
        ]

    def test_empty_registry_fails(self, tmp_path, capsys):
        assert obs_registry.main([str(tmp_path / "none")]) == 1
        assert "expected 2 recorded runs, got 0" in capsys.readouterr().err
