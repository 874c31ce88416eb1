"""``tools/tiny_pipeline.py``: the one spec behind the CI pipeline jobs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "tiny_pipeline.py"
spec = importlib.util.spec_from_file_location("tiny_pipeline", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def test_writes_the_named_stage_configs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert tool.main(["healthrun"]) == 0
    d = tmp_path / "healthrun"
    names = sorted(p.name for p in d.iterdir())
    assert names == ["healthrun.sh", "healthrun_analysis.json",
                     "healthrun_evolve.json", "healthrun_ic.json"]
    assert capsys.readouterr().out.split() == [
        str(Path("healthrun") / n) for n in
        ("healthrun_ic.json", "healthrun_evolve.json", "healthrun_analysis.json",
         "healthrun.sh")
    ]
    ic = json.loads((d / "healthrun_ic.json").read_text())
    assert ic["n_per_dim"] == 8 and ic["box_mpc_h"] == 40.0
    assert abs(ic["a_init"] - 0.1) < 1e-12
    evolve = json.loads((d / "healthrun_evolve.json").read_text())
    assert evolve["errtol"] == 1e-3 and evolve["p_order"] == 2
    assert evolve["snapshots_a"] == [1 / 7]

