"""Building and loading the compiled force evaluator (``repro.gravity.native``).

The unit is compiled once per host into a cache and loaded by every
process after that; a host without the compiler fails when a solver is
constructed, and a kernel type the C does not implement is refused.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.gravity import TreecodeConfig, TreecodeGravity, native
from repro.gravity.pm import TreePMConfig, TreePMGravity
from repro.gravity.smoothing import NoSoftening
from repro.gravity.treeforce import evaluate_forces
from repro.multipoles import PlummerKernel
from repro.tree import build_tree, compute_moments, traverse_hierarchical

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty cache directory, and no unit loaded in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    native._load.cache_clear()
    native._host_key.cache_clear()
    yield tmp_path / "cache" / "repro"
    native._load.cache_clear()
    native._host_key.cache_clear()


def run_python(code: str, cache_home) -> subprocess.CompletedProcess:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home), PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


class TestBuild:
    def test_missing_compiler_raises_at_construction(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(native, "CC", "no-such-compiler-here")
        for make in (lambda: TreecodeGravity(TreecodeConfig(p=2)),
                     lambda: TreePMGravity(TreePMConfig(p=2))):
            with pytest.raises(RuntimeError, match="no-such-compiler-here"):
                make()
        assert not fresh_cache.exists()

    def test_second_process_loads_from_the_cache(self, tmp_path):
        """The first process compiles; the second finds the library and
        never calls the compiler (its build step is made to fail)."""
        first = run_python(
            "from repro.gravity import native; native.evaluator(1, 'float32')", tmp_path
        )
        assert first.returncode == 0, first.stderr
        built = sorted((tmp_path / "repro").iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"  # no temporary left over
        second = run_python(
            "from repro.gravity import native\n"
            "def refuse(*a): raise AssertionError('compiled again')\n"
            "native._compile = refuse\n"
            "lib = native.evaluator(1, 'float32')\n"
            "print(lib._name)",
            tmp_path,
        )
        assert second.returncode == 0, second.stderr
        assert second.stdout.strip() == str(built[0])

    def test_unwritable_cache_builds_in_a_private_directory(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        native._load.cache_clear()
        try:
            lib = native.evaluator(1, np.float64)
            assert Path(lib._name).parent == native._private_dir()
        finally:
            native._load.cache_clear()

    def test_other_precisions_are_refused_at_construction(self):
        with pytest.raises(ValueError, match="float16"):
            TreecodeGravity(TreecodeConfig(p=2, dtype=np.float16))

    def test_source_names_its_order_and_precision(self):
        from repro.multipoles.codegen import generate_evaluator_source

        for p, dtype, real in ((0, "float32", "float"), (4, "float64", "double")):
            src = generate_evaluator_source(p, dtype)
            assert f"typedef {real} real;" in src and f"order {p} in {real}" in src
            assert "#ifndef BLK" in src


class TestKernelTypes:
    def lists(self):
        rng = np.random.default_rng(1)
        pos = rng.random((64, 3))
        tree = build_tree(pos, np.full(64, 1 / 64), nleaf=8)
        moms = compute_moments(tree, p=2, tol=1e-2)
        return tree, moms, traverse_hierarchical(tree, moms)

    def test_subclass_is_refused(self):
        """Exact types: a subclass might override the math."""

        class OddSoftening(NoSoftening):
            pass

        tree, moms, inter = self.lists()
        with pytest.raises(TypeError, match="OddSoftening"):
            evaluate_forces(tree, moms, inter, softening=OddSoftening())
        with pytest.raises(TypeError, match="PlummerKernel"):
            evaluate_forces(tree, moms, inter, kernel=PlummerKernel(0.1))
