"""The dead-name guard of ``tools/check_retired_names.py`` as a tier-1 test."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_retired_names.py"
spec = importlib.util.spec_from_file_location("check_retired_names", TOOL)
guard = importlib.util.module_from_spec(spec)
spec.loader.exec_module(guard)


def test_no_retired_name_is_back():
    assert guard.find_retired() == []


def test_guard_reports_a_hit_and_spares_the_one_allowed_line(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "NUMBA_AVAILABLE = False  # the numba backend is retired\n"
        "from .kernels import resolve_backend\n"
    )
    hits = guard.find_retired(tmp_path)
    assert len(hits) == 1 and hits[0].startswith("src/repro/__init__.py:2: ")
    assert "PR 23" in hits[0]


def test_a_row_spares_the_one_file_it_names(tmp_path):
    """Raw pointers are the binding's own business: ``native.py`` may
    take them, any other file may not."""
    gravity = tmp_path / "src" / "repro" / "gravity"
    gravity.mkdir(parents=True)
    for name in ("native.py", "treeforce.py"):
        (gravity / name).write_text("address = array.ctypes" + ".data\n")  # (not a hit here)
    hits = guard.find_retired(tmp_path)
    assert [hit.split(":")[0] for hit in hits] == ["src/repro/gravity/treeforce.py"]


def test_the_numpy_walk_and_the_walk_replay_stay_retired(tmp_path):
    """The numpy walk's geometry and decision live on only in
    ``tests/oracle.py``; the replay's record, plan, solver field and
    keyword are gone everywhere."""
    names = ("_pair_" + "geometry", "_de" + "cide", "Walk" + "Record", "_replay" + "_plan",
             "last_" + "interactions")  # (not hits in this file)
    traversal = tmp_path / "src" / "repro" / "tree" / "traversal.py"
    traversal.parent.mkdir(parents=True)
    traversal.write_text("".join(f"x = {name}(a)\n" for name in names)
                         + "solve_forces(tree, moms, spec, prev" + "ious=lists)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "oracle.py").write_text(f"def {names[0]}(a):\n    return {names[1]}(a)\n")
    hits = guard.find_retired(tmp_path)
    assert [hit.split(": ")[0] for hit in hits] == [
        f"src/repro/tree/traversal.py:{n}" for n in range(1, 7)]
    assert "test reference" in hits[0] and "replaying" in hits[-1]


def test_the_numpy_box_merge_stays_retired(tmp_path):
    """The numpy merge of the background's cubes lives on only in
    ``tests/oracle.py``: either name in ``src/`` fires, its oracle
    namesakes there do not."""
    names = ("_coalesce" + "_boxes", "_background" + "_boxes")  # (not hits in this file)
    treeforce = tmp_path / "src" / "repro" / "gravity" / "treeforce.py"
    treeforce.parent.mkdir(parents=True)
    treeforce.write_text(f"boxes = {names[1]}(tree, inter)\ndef {names[0]}(row, lo, hi, n):\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "oracle.py").write_text(
        f"def oracle{names[0]}(row, lo, hi, n):\n    return {names[0]}(row, lo, hi, n)\n")
    hits = guard.find_retired(tmp_path)
    assert [hit.split(": ")[0] for hit in hits] == [
        "src/repro/gravity/treeforce.py:1", "src/repro/gravity/treeforce.py:2"]
    assert "compiled box merge" in hits[0]


def test_a_retired_setting_in_the_docs_fires(tmp_path):
    """DESIGN.md and README.md are callers too: a retired setting written
    in either is reported like one in code."""
    ws, iterations = "ws", "iterations"  # (not hits in this file)
    (tmp_path / "DESIGN.md").write_text(f"The default walk:\n`SimulationConfig(n_per_dim=8, {ws}=2)`\n")
    (tmp_path / "README.md").write_text(f"`mollweide_xy(lon, lat, {iterations}=40)`\n")
    hits = guard.find_retired(tmp_path)
    assert [hit.split(": ")[0] for hit in hits] == ["DESIGN.md:2", "README.md:1"]
    assert "near images" in hits[0] and "the cone is projected whole" in hits[1]


def test_the_literal_sift_misses_no_line_a_full_scan_hits(tmp_path):
    """On a planted tree the guard reports what searching every line reports."""
    keys = tmp_path / "src" / "repro" / "keys"
    keys.mkdir(parents=True)
    numba, ws = "numba", "ws"  # (not hits in this file)
    (keys / "morton.py").write_text(f"def f(box: float = 1.0,\r\n  x = SimulationConfig(a=1,\n"
                                    f"  {ws}=2)\nimport {numba}\x0c{numba} = 1\n")
    (tmp_path / "README.md").write_text(f"SimulationConfig(n=8, {ws}=2)\n")
    full = [f"{path.relative_to(tmp_path)}:{n}: {line.strip()}  [{what}]"
            for pattern, roots, what in guard.RETIRED
            for root in (tmp_path / r for r in roots if not r.startswith("!"))
            for path in ([root] if root.is_file() else sorted(root.rglob("*")))
            for n, line in enumerate(path.read_text().splitlines() if path.is_file() else [], 1)
            if re.search(pattern, line)]
    assert guard.find_retired(tmp_path) == full and len(full) == 4
