"""Building and loading the compiled force evaluator (``repro.gravity.native``).

The unit is compiled once per host into a cache and loaded by every
process after that, pool workers included; a host without the compiler
or glibc's libmvec fails when a solver is constructed, and a kernel type
the C does not implement is refused.
"""

import os
import re
import shutil
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


def run_python(code: str, cache_home, **env) -> subprocess.CompletedProcess:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home), PYTHONPATH=SRC, **env)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def cc_wrapper(where: Path, body: str) -> Path:
    """An executable ``cc`` in ``where`` that runs the shell ``body``
    (with ``$REAL`` the host's compiler) in place of the compiler."""
    where.mkdir(parents=True, exist_ok=True)
    path = where / "cc"
    path.write_text(f"#!/bin/sh\nREAL={shutil.which(native.CC)}\n{body}\n")
    path.chmod(0o755)
    return path


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

    def test_missing_libmvec_raises_at_construction(self, fresh_cache, tmp_path, monkeypatch):
        """A linker without glibc's vector math library: the error names it."""
        cc = cc_wrapper(tmp_path / "bin", "\n".join([
            'case "$*" in',
            '  *-lmvec*) echo "ld: cannot find -lmvec: No such file" >&2; exit 1 ;;',
            "esac",
            'exec "$REAL" "$@"',
        ]))
        monkeypatch.setattr(native, "CC", str(cc))
        with pytest.raises(RuntimeError, match="libmvec"):
            TreecodeGravity(TreecodeConfig(p=2))

    def test_unit_calls_the_vector_log_and_atan(self):
        """The prism loop is vectorized with libmvec's variants, and no
        scalar log or atan is left for a remainder loop to call."""
        lib = native.evaluator(2, np.float64)
        nm = subprocess.run(
            ["nm", "-D", "--undefined-only", lib._name], capture_output=True, text=True, check=True
        ).stdout
        names = {line.split()[-1].split("@")[0] for line in nm.splitlines() if line.strip()}
        for fn in ("log", "atan"):
            assert any(re.fullmatch(rf"_ZGV\w+_{fn}", n) for n in names), (fn, names)
            assert fn not in names

    def test_spawned_workers_load_the_parents_library(self, tmp_path):
        """A cache that cannot be written (``XDG_CACHE_HOME`` is a file):
        the parent builds in its private directory and the two spawned
        workers load that file, so the compiler runs once."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        log = tmp_path / "cc.log"
        bin_dir = tmp_path / "bin"
        cc_wrapper(bin_dir, f'echo "$*" >> {log}\nexec "$REAL" "$@"')
        run = run_python(
            "import numpy as np\n"
            "from repro.gravity import TreecodeConfig, TreecodeGravity\n"
            "pos = np.random.default_rng(0).random((400, 3))\n"
            "cfg = TreecodeConfig(p=1, periodic=True, errtol=1e-3, workers=2)\n"
            "with TreecodeGravity(cfg) as solver:\n"
            "    ex = solver.compute(pos, np.full(400, 1 / 400)).stats['executor']\n"
            "print(ex['n_shards'], sum(e['local'] for e in ex['shard_events']), 'recoveries' in ex)",
            blocker,
            REPRO_START_METHOD="spawn",
            PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
        )
        assert run.returncode == 0, run.stderr
        # both shards ran in the workers, none fell back to the parent
        assert run.stdout.split() == ["2", "0", "False"]
        compiles = [ln for ln in log.read_text().splitlines() if "-shared" in ln]
        assert len(compiles) == 1, log.read_text()

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
