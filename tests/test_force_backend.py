"""Backend dispatch + numpy-vs-compiled agreement for the CSR force kernel.

The container running tier-1 has no numba, so the "compiled" backend is
exercised through the ``REPRO_FORCE_PYKERNEL=1`` hook: the dispatcher
then runs the *interpreted* kernel body — the exact code numba would
compile — which proves the kernel logic and the agreement contract on a
numba-free install.  The CI ``compiled-kernel`` job reruns this module
with numba installed, where the same tests cover the jitted path.
"""

import importlib
import sys

import numpy as np
import pytest

from repro.gravity import (
    TreecodeConfig,
    TreecodeGravity,
    kernel_available,
    resolve_backend,
)
from repro.gravity import kernels as _kernels
from repro.gravity import treeforce

# agreement gate: fastmath is off and the kernel repeats the numpy
# arithmetic per sink in the same family order, so only reduction
# internals differ (ISSUE 7 contract: <= 1e-12 relative on acc)
REL_TOL = 1e-12


@pytest.fixture
def pykernel(monkeypatch):
    """Force the interpreted kernel to stand in for the compiled one."""
    monkeypatch.setenv("REPRO_FORCE_PYKERNEL", "1")


def _cloud(n=120, seed=11):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), rng.random(n) / n


def _solve(backend, *, periodic=False, background=False, softening="dehnen_k1",
           n=120, p=2, workers=0, dtype=np.float64, want_potential=True):
    cfg = TreecodeConfig(
        p=p, errtol=2e-2, nleaf=8, periodic=periodic, background=background,
        lattice_correction=False, softening=softening, backend=backend,
        dtype=dtype, want_potential=want_potential, workers=workers,
    )
    pos, mass = _cloud(n)
    with TreecodeGravity(cfg) as solver:
        return solver.compute(pos, mass, box=1.0)


def _rel_acc_diff(a, b):
    scale = np.abs(b.acc).max()
    return np.abs(a.acc - b.acc).max() / scale


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------


def test_resolve_backend_explicit_numpy():
    assert resolve_backend("numpy") == "numpy"


def test_resolve_backend_env(monkeypatch, pykernel):
    monkeypatch.setenv("REPRO_FORCE_BACKEND", "numpy")
    assert resolve_backend("auto") == "numpy"
    assert resolve_backend(None) == "numpy"
    # explicit config wins over the env
    assert resolve_backend("compiled") == "compiled"
    monkeypatch.setenv("REPRO_FORCE_BACKEND", "compiled")
    assert resolve_backend("auto") == "compiled"


def test_resolve_backend_auto_prefers_compiled_when_available(
    monkeypatch, pykernel
):
    monkeypatch.delenv("REPRO_FORCE_BACKEND", raising=False)
    assert kernel_available()
    assert resolve_backend("auto") == "compiled"


def test_resolve_backend_invalid():
    with pytest.raises(ValueError, match="unknown force backend"):
        resolve_backend("cuda")


def test_compiled_request_without_kernel_falls_back(monkeypatch):
    monkeypatch.delenv("REPRO_FORCE_PYKERNEL", raising=False)
    if _kernels.NUMBA_AVAILABLE:
        pytest.skip("numba installed: no fallback to exercise")
    backend, reason = _kernels.resolve_backend_ex("compiled")
    assert backend == "numpy"
    assert "numba" in reason
    res = _solve("compiled", n=64)
    assert res.stats["backend"] == "numpy"
    assert "numba" in res.stats["backend_fallback"]


def test_import_survives_missing_numba(monkeypatch):
    """Reloading the kernel module with numba hidden must not break."""
    monkeypatch.setitem(sys.modules, "numba", None)  # import -> ImportError
    try:
        importlib.reload(_kernels)
        assert _kernels.NUMBA_AVAILABLE is False
        assert _kernels.resolve_backend_ex("compiled")[0] in ("numpy", "compiled")
        _kernels.set_kernel_threads(4)  # no-op, must not raise
    finally:
        monkeypatch.delitem(sys.modules, "numba")
        importlib.reload(_kernels)


def test_unsupported_kernel_type_falls_back(pykernel):
    class OddSoftening(treeforce.NoSoftening):
        pass

    pos, mass = _cloud(48)
    from repro.tree import build_tree, compute_moments, traverse_lists

    tree = build_tree(pos, mass, box=1.0, nleaf=8)
    moms = compute_moments(tree, p=2, tol=1e-2)
    inter = traverse_lists(tree, moms, traversal="hierarchical")
    res = treeforce.evaluate_forces(
        tree, moms, inter, softening=OddSoftening(), backend="compiled"
    )
    assert res.stats["backend"] == "numpy"
    assert "does not implement" in res.stats["backend_fallback"]


# ---------------------------------------------------------------------------
# numpy-vs-compiled agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "periodic,background",
    [(False, False), (True, False), (True, True)],
)
def test_backend_agreement_boundaries(pykernel, periodic, background):
    ref = _solve("numpy", periodic=periodic, background=background)
    com = _solve("compiled", periodic=periodic, background=background)
    assert ref.stats["backend"] == "numpy"
    assert com.stats["backend"] == "compiled"
    assert _rel_acc_diff(com, ref) <= REL_TOL
    assert np.abs(com.pot - ref.pot).max() <= REL_TOL * np.abs(ref.pot).max()


@pytest.mark.parametrize("softening", ["none", "plummer", "spline", "dehnen_k1"])
def test_backend_agreement_softenings(pykernel, softening):
    ref = _solve("numpy", softening=softening, n=96)
    com = _solve("compiled", softening=softening, n=96)
    assert _rel_acc_diff(com, ref) <= REL_TOL


def test_backend_agreement_order4(pykernel):
    ref = _solve("numpy", periodic=True, background=True, p=4, n=80)
    com = _solve("compiled", periodic=True, background=True, p=4, n=80)
    assert com.stats["order"] == 4
    assert _rel_acc_diff(com, ref) <= REL_TOL


def test_backend_agreement_treepm_erfc(pykernel):
    """ErfcKernel radial chain + GADGET-2 short-range filter."""
    from dataclasses import replace

    from repro.gravity.pm import TreePMConfig, TreePMGravity

    pos, mass = _cloud(96, seed=5)
    base = TreePMConfig(ngrid=16, p=2, errtol=2e-2, nleaf=8)
    out = {}
    for be in ("numpy", "compiled"):
        out[be] = TreePMGravity(replace(base, backend=be)).compute(
            pos, mass, box=1.0
        )
    assert out["compiled"].stats["backend"] == "compiled"
    assert _rel_acc_diff(out["compiled"], out["numpy"]) <= REL_TOL


def test_ghost_images(pykernel):
    """Periodic cluster hugging the box corner: image offsets must act."""
    rng = np.random.default_rng(2)
    pos = np.mod(rng.normal(0.0, 0.04, (90, 3)), 1.0)  # wraps across faces
    mass = np.full(90, 1.0 / 90)
    cfg = TreecodeConfig(
        p=2, errtol=2e-2, nleaf=8, periodic=True, background=False,
        lattice_correction=False,
    )
    out = {}
    for be in ("numpy", "compiled"):
        from dataclasses import replace

        out[be] = TreecodeGravity(replace(cfg, backend=be)).compute(
            pos, mass, box=1.0
        )
    assert _rel_acc_diff(out["compiled"], out["numpy"]) <= REL_TOL


def test_float32_dtype(pykernel):
    """float32 config: compiled accumulates in f64 then casts — stays
    within the float32 budget of the numpy reference."""
    ref = _solve("numpy", n=80, dtype=np.float32)
    com = _solve("compiled", n=80, dtype=np.float32)
    assert com.acc.dtype == np.float32
    scale = np.abs(ref.acc).max()
    assert np.abs(com.acc - ref.acc).max() / scale < 1e-4


def test_no_potential_path(pykernel):
    ref = _solve("numpy", periodic=True, background=True, want_potential=False)
    com = _solve("compiled", periodic=True, background=True, want_potential=False)
    assert com.pot is None
    assert _rel_acc_diff(com, ref) <= REL_TOL


# ---------------------------------------------------------------------------
# workers / determinism / instrumentation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_workers_bit_identical(pykernel, backend):
    serial = _solve(backend, periodic=True, background=True, n=100)
    sharded = _solve(backend, periodic=True, background=True, n=100, workers=2)
    assert sharded.stats["backend"] == backend
    np.testing.assert_array_equal(serial.acc, sharded.acc)
    np.testing.assert_array_equal(serial.pot, sharded.pot)


def test_autotune_skipped_when_compiled(pykernel, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("autotune_chunks must not run for compiled")

    monkeypatch.setattr(treeforce, "autotune_chunks", boom)
    res = _solve("compiled", n=64)
    assert res.stats["backend"] == "compiled"


def test_autotune_chunks_fixed_pair():
    """The row budgets are constants: same pair for every order and
    dtype, in every process (no timing-based pick)."""
    pair = treeforce.autotune_chunks(2, "<f8")
    assert pair == (treeforce._CELL_CHUNK, treeforce._PP_CHUNK)
    assert treeforce.autotune_chunks(4, "<f4") == pair
    assert not hasattr(treeforce, "_autotune_pp")


def test_backend_counter_and_stats(pykernel):
    from repro.instrument import Tracer

    cfg = TreecodeConfig(
        p=2, errtol=2e-2, nleaf=8, periodic=False, background=False,
        backend="compiled",
    )
    pos, mass = _cloud(64)
    tr = Tracer()
    res = TreecodeGravity(cfg).compute(pos, mass, box=1.0, tracer=tr)
    assert res.stats["backend"] == "compiled"
    assert tr.counters.get("evaluate.backend.compiled", 0) >= 1
