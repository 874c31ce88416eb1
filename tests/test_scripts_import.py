"""Every benchmark and example script imports.

Tier-1 runs none of ``benchmarks/bench_*.py`` or ``examples/*.py``, so a
script that still names a deleted setting or function at module level —
``bench_fig7_power_accuracy`` builds its variants there — would only
fail when someone runs it.  Importing each one (``main()`` stays
unreached behind its ``__name__`` guard) catches that here.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("benchmarks/bench_*.py")) + sorted(ROOT.glob("examples/*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports(path, monkeypatch):
    # the benchmarks import their shared helpers (_simlib) by bare name
    monkeypatch.syspath_prepend(str(path.parent))
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
