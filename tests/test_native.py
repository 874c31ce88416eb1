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
from unittest import mock

import numpy as np
import pytest

from repro.gravity import TreecodeConfig, TreecodeGravity, native
from repro.gravity.pm import TreePMConfig, TreePMGravity
from repro.gravity.smoothing import DehnenK1Softening, NoSoftening
from repro.gravity.treeforce import evaluate_forces
from repro.multipoles import PlummerKernel
from repro.multipoles.codegen import generate_evaluator_source
from repro.tree import build_tree, compute_moments, traverse_hierarchical

SRC = str(Path(__file__).resolve().parent.parent / "src")
MISSING = object()


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


def undefined_symbols(path) -> set[str]:
    """The dynamic symbols the library ``path`` imports, unversioned."""
    nm = subprocess.run(
        ["nm", "-D", "--undefined-only", str(path)], capture_output=True, text=True, check=True
    ).stdout
    return {line.split()[-1].split("@")[0] for line in nm.splitlines() if line.strip()}


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
            "print(lib.path)",
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
            assert Path(lib.path).parent == native._private_dir()
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
        names = undefined_symbols(native.evaluator(2, np.float64).path)
        for fn in ("log", "atan"):
            assert any(re.fullmatch(rf"_ZGV\w+_{fn}", n) for n in names), (fn, names)
            assert fn not in names

    def test_vector_width_flag_keeps_the_bits(self, fresh_cache):
        """The units built with ``FLAGS`` as shipped and without
        ``-mprefer-vector-width=512``: a periodic, clustered, softened
        solve (cell, pp and prism families) gives the same bits, and
        both import the same libmvec variants — the width changes how
        many independent rows one instruction computes, never a sum's
        order, and the prism keeps its four-lane ``log`` and ``atan``."""
        wide = "-mprefer-vector-width=512"
        assert wide in native.FLAGS
        narrow = tuple(f for f in native.FLAGS if f != wide)
        rng = np.random.default_rng(3)
        centres = rng.random((5, 3))
        pos = (centres[rng.integers(0, 5, 1500)] + 0.04 * rng.standard_normal((1500, 3))) % 1.0
        tree = build_tree(pos, np.full(1500, 1 / 1500), nleaf=8, with_ghosts=True)
        soft = DehnenK1Softening(0.01)
        for p, dtype in ((2, np.float64), (4, np.float32)):
            moms = compute_moments(tree, p=p, tol=1e-3, background=True, mean_density=1.0)
            inter = traverse_hierarchical(tree, moms, periodic=True, ws=1)
            source = generate_evaluator_source(p, np.dtype(dtype).name)
            paths, results, vector_math = [], [], []
            for flags in (native.FLAGS, narrow):
                with mock.patch.object(native, "FLAGS", flags):
                    native._host_key.cache_clear()
                    paths.append(native.library_path(source))
                native._host_key.cache_clear()
                lib = native.Unit(paths[-1], "evaluator", dtype)
                with mock.patch.object(native, "evaluator", lambda *key: lib):
                    results.append(evaluate_forces(tree, moms, inter, softening=soft, dtype=dtype))
                imports = undefined_symbols(paths[-1])
                vector_math.append({n for n in imports if n.startswith("_ZGV")})
            assert paths[0] != paths[1] and paths[0].parent == fresh_cache
            a, b = results
            assert a.stats["pp_interactions"] and a.stats["prism_interactions"]
            assert np.array_equal(a.acc, b.acc) and np.array_equal(a.pot, b.pot), (p, dtype)
            assert vector_math[0] == vector_math[1] and vector_math[0], vector_math

    def test_spawned_workers_load_the_parents_library(self, tmp_path):
        """A cache that cannot be written (``XDG_CACHE_HOME`` is a file):
        the parent builds each unit once in its private directory and the
        two spawned workers load those files, so they compile nothing."""
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
        built = sorted(re.search(r"/(evaluator|upward)-", ln).group(1) for ln in compiles)
        assert built == ["evaluator", "upward"], log.read_text()

    def test_construction_loads_the_upward_unit(self, fresh_cache):
        """Both solvers build the upward / lattice unit when constructed,
        so their first solve compiles nothing."""
        run = run_python(
            "import numpy as np\n"
            "from repro.gravity import TreecodeConfig, TreecodeGravity, native\n"
            "from repro.gravity.pm import TreePMConfig, TreePMGravity\n"
            "solvers = [TreecodeGravity(TreecodeConfig(p=2, periodic=True)),\n"
            "           TreePMGravity(TreePMConfig(p=2, ngrid=8))]\n"
            "assert ('upward',) in native.library_paths(), native.library_paths()\n"
            "def refuse(*a): raise AssertionError('compiled in a solve')\n"
            "native._compile = refuse\n"
            "pos = np.random.default_rng(0).random((300, 3))\n"
            "for solver in solvers:\n"
            "    solver.compute(pos, np.full(300, 1 / 300))\n",
            fresh_cache.parent,
        )
        assert run.returncode == 0, run.stderr

    def test_other_precisions_are_refused_at_construction(self):
        with pytest.raises(ValueError, match="float16"):
            TreecodeGravity(TreecodeConfig(p=2, dtype=np.float16))

    def test_source_names_its_order_and_precision(self):
        from repro.multipoles.codegen import generate_evaluator_source

        for p, dtype, real in ((0, "float32", "float"), (4, "float64", "double")):
            src = generate_evaluator_source(p, dtype)
            assert f"typedef {real} real;" in src and f"order {p} in {real}" in src
            assert "#ifndef BLK" in src



class TestBoundary:
    """The one declared boundary of the compiled units: signatures read
    from the C text, keyword calls, inputs converted, outputs refused
    unless they are what the C writes, and every check before the C."""

    def pp_keywords(self, dtype=np.float32, n=40):
        """``pp_field``'s keywords, correctly typed for the unit of
        ``dtype``: a sink leaf of ``n`` particles against itself and a
        second leaf of ``n``, unsoftened, with the potential."""
        rng = np.random.default_rng(4)
        kind, h, eps, r_split = native.softening_spec(NoSoftening())
        return dict(
            pos=rng.random((2 * n, 3)), mass=rng.random(2 * n).astype(dtype),
            cell_start=np.array([0, n]), cell_count=np.array([n, n]), n_rows=1,
            sink_leaves=np.array([0]), indptr=np.array([0, 2]), src=np.array([0, 1]),
            off=np.array([0, 0]), offsets=np.zeros((1, 3)), home_off=0, soft=kind, hthr_in=h,
            soft_h=h, soft_eps=eps, r_split=r_split, want_pot=1, s0=0,
            acc=np.zeros((n, 3)), pot=np.zeros(n),
        )

    def test_table_is_every_entry_point_of_the_c(self):
        arity = {kind: {name: len(params) for name, (_, params) in table.items()}
                 for kind, table in native.ENTRY_POINTS.items()}
        assert arity == {
            "evaluator": {"cell_field": 25, "pp_field": 20, "prism_field": 14},
            "upward": {"p2m_leaves": 15, "m2m_upward": 18, "l2p_field": 11, "dual_walk": 27,
                       "merge_boxes": 15},
        }
        ret, params = native.ENTRY_POINTS["upward"]["merge_boxes"]
        assert ret == "int" and params == [
            ("n_rows", "int64_t", "scalar"),
            *[(f"{fam}_{field}", "int64_t", "in") for fam in ("ghost", "leaf")
              for field in ("indptr", "src", "off")],
            ("cell_lo", "int64_t", "in"), ("cell_hi", "int64_t", "in"), ("image", "int64_t", "in"),
            ("h", "double", "scalar"), ("stride", "int64_t", "scalar"),
            ("box_lo", "double", "out"), ("box_hi", "double", "out"), ("indptr", "int64_t", "out"),
        ]
        for kind, lib in (("evaluator", native.evaluator(0, np.float32)),
                          ("upward", native.upward())):
            for name in native.ENTRY_POINTS[kind]:
                assert getattr(lib, name).__name__ == name

    @pytest.mark.parametrize("bad", [
        {"acc": np.zeros((40, 3), dtype=np.float32)},
        {"acc": np.zeros((40, 6))[:, ::2]},
        {"acc": [[0.0] * 3] * 40},
        {"pos": None},
        {"spare": 1},
        {"s0": MISSING},
    ], ids=["wrong-dtype-output", "strided-output", "list-output", "null-input", "unknown",
            "missing"])
    def test_bad_call_raises_before_the_c_runs(self, bad):
        kw = {k: v for k, v in {**self.pp_keywords(), **bad}.items() if v is not MISSING}
        with pytest.raises(TypeError, match="pp_field"):
            native.evaluator(0, np.float32).pp_field(**kw)
        assert not kw["pot"].any()  # the C would have written every sink's potential

    def test_inputs_are_converted_to_the_units_types(self):
        """An int32 ``cell_start`` and a float64 ``mass`` handed to the
        float32 unit: the same bits as the correctly typed call."""
        lib = native.evaluator(0, np.float32)
        want = self.pp_keywords()
        lib.pp_field(**want)
        got = self.pp_keywords()
        got.update(cell_start=got["cell_start"].astype(np.int32),
                   mass=got["mass"].astype(np.float64))
        lib.pp_field(**got)
        assert want["pot"].any() and want["acc"].any()
        assert np.array_equal(got["acc"], want["acc"]) and np.array_equal(got["pot"], want["pot"])

    def test_failed_allocation_is_a_memory_error_naming_the_entry_point(self):
        """A sink leaf of 2^55 particles: ``prism_field`` cannot allocate
        its per-particle sums and returns before reading a position."""
        acc = np.zeros((1, 3))
        with pytest.raises(MemoryError, match="prism_field"):
            native.evaluator(0, np.float64).prism_field(
                pos=np.zeros((1, 3)), cell_start=[0], cell_count=[2**55], n_rows=1,
                sink_leaves=[0], box_lo=np.zeros((3, 1)), box_hi=np.ones((3, 1)), n_boxes=1,
                indptr=[0, 1], rho=1.0, want_pot=0, s0=0, acc=acc, pot=None,
            )

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
