"""The blocked evaluator against the term-by-term kernel of ``tests/oracle.py``.

Every case solves through the public solver, then hands the tree,
moments and lists of that solve to :func:`tests.oracle.oracle_forces`,
which walks them one (sink, source) term at a time in float64.  The two
share no arithmetic, so they differ in summation order only.
"""

import numpy as np
import pytest

from repro.gravity import TreecodeConfig, TreecodeGravity
from repro.gravity.smoothing import NoSoftening
from repro.gravity.solver import solve_forces

from .oracle import last_lists, oracle_forces

# agreement gate: the kernel repeats the evaluator's physics per term in
# float64, so only the order of the sums differs (ISSUE 7 contract:
# <= 1e-12 relative on acc)
REL_TOL = 1e-12


def _cloud(n=120, seed=11):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), rng.random(n) / n


def _solve(*, periodic=False, background=False, softening="dehnen_k1",
           n=120, p=2, workers=0, dtype=np.float64, want_potential=True):
    """(evaluator result, oracle result) of one solve."""
    cfg = TreecodeConfig(
        p=p, errtol=2e-2, nleaf=8, periodic=periodic, background=background,
        lattice_correction=False, softening=softening,
        dtype=dtype, want_potential=want_potential, workers=workers,
    )
    pos, mass = _cloud(n)
    with TreecodeGravity(cfg) as solver:
        res = solver.compute(pos, mass, box=1.0)
        if workers:
            return res, None
        return res, _oracle_of(solver)


def _oracle_of(solver):
    spec = solver.spec
    return oracle_forces(
        solver.last_tree, solver.last_moments, last_lists(solver),
        softening=spec.softening, want_potential=spec.want_potential,
    )


def _rel_acc_diff(a, b):
    scale = np.abs(b.acc).max()
    return np.abs(a.acc - b.acc).max() / scale


@pytest.mark.parametrize(
    "periodic,background",
    [(False, False), (True, False), (True, True)],
)
def test_oracle_agreement_boundaries(periodic, background):
    ref, ora = _solve(periodic=periodic, background=background)
    assert _rel_acc_diff(ora, ref) <= REL_TOL
    assert np.abs(ora.pot - ref.pot).max() <= REL_TOL * np.abs(ref.pot).max()


@pytest.mark.parametrize("softening", ["none", "plummer", "spline", "dehnen_k1"])
def test_oracle_agreement_softenings(softening):
    ref, ora = _solve(softening=softening, n=96)
    assert _rel_acc_diff(ora, ref) <= REL_TOL


def test_oracle_agreement_order4():
    ref, ora = _solve(periodic=True, background=True, p=4, n=80)
    assert ref.stats["order"] == 4
    assert _rel_acc_diff(ora, ref) <= REL_TOL


def test_oracle_agreement_treepm_erfc(monkeypatch):
    """ErfcKernel radial chain + GADGET-2 short-range filter."""
    from repro.gravity import pm, solver

    seen = {}

    def recording(tree, moms, spec, **kw):
        out = solve_forces(tree, moms, spec, **kw)
        # (the solver adds the mesh force to out[0].acc in place)
        seen.update(tree=tree, moms=moms, spec=spec, inter=out[1], short=out[0].acc.copy())
        return out

    # both solvers dispatch through the solver module's namespace
    monkeypatch.setattr(solver, "solve_forces", recording)
    pos, mass = _cloud(96, seed=5)
    cfg = pm.TreePMConfig(ngrid=16, p=2, errtol=2e-2, nleaf=8)
    total = pm.TreePMGravity(cfg).compute(pos, mass, box=1.0)
    spec = seen["spec"]
    ora = oracle_forces(
        seen["tree"], seen["moms"], seen["inter"],
        softening=spec.softening, kernel=spec.kernel,
    )
    # the mesh half is common to both: the tree halves, on the scale of
    # the total force
    assert np.abs(ora.acc - seen["short"]).max() <= REL_TOL * np.abs(total.acc).max()


def test_ghost_images():
    """Periodic cluster hugging the box corner: image offsets must act."""
    rng = np.random.default_rng(2)
    pos = np.mod(rng.normal(0.0, 0.04, (90, 3)), 1.0)  # wraps across faces
    mass = np.full(90, 1.0 / 90)
    cfg = TreecodeConfig(
        p=2, errtol=2e-2, nleaf=8, periodic=True, background=False,
        lattice_correction=False,
    )
    solver = TreecodeGravity(cfg)
    ref = solver.compute(pos, mass, box=1.0)
    assert _rel_acc_diff(_oracle_of(solver), ref) <= REL_TOL


def test_float32_dtype():
    """float32 config: the float64 kernel bounds the float32 rows."""
    ref, ora = _solve(n=80, dtype=np.float32)
    assert ref.acc.dtype == np.float32
    scale = np.abs(ref.acc).max()
    assert np.abs(ora.acc - ref.acc).max() / scale < 1e-4


def test_no_potential_path():
    ref, ora = _solve(periodic=True, background=True, want_potential=False)
    assert ref.pot is None and ora.pot is None
    assert _rel_acc_diff(ora, ref) <= REL_TOL


def test_workers_bit_identical():
    serial, _ = _solve(periodic=True, background=True, n=100)
    sharded, _ = _solve(periodic=True, background=True, n=100, workers=2)
    np.testing.assert_array_equal(serial.acc, sharded.acc)
    np.testing.assert_array_equal(serial.pot, sharded.pot)


def test_oracle_refuses_unknown_kernel_types():
    """Exact-type checks: a subclass that might override the math is
    not silently walked with the base-class formulas."""

    class OddSoftening(NoSoftening):
        pass

    pos, mass = _cloud(48)
    solver = TreecodeGravity(TreecodeConfig(p=2, errtol=1e-2, nleaf=8, background=False))
    solver.compute(pos, mass, box=1.0)
    with pytest.raises(TypeError, match="OddSoftening"):
        oracle_forces(
            solver.last_tree, solver.last_moments, last_lists(solver),
            softening=OddSoftening(),
        )


@pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
@pytest.mark.parametrize("p", [0, 2, 4])
@pytest.mark.parametrize("softening", ["none", "plummer", "spline", "dehnen_k1"])
def test_compiled_evaluator_every_production_kernel(softening, p, periodic):
    """The generated C of every order production compiles against the
    kernel in float64, for each softening under the 1/r cell kernel and
    under TreePM's erfc kernel with the short-range filter; float32
    tracks float64 to 1e-6 of the largest acceleration."""
    from repro.gravity import native
    from repro.gravity.pm import ShortRangeSoftening
    from repro.gravity.smoothing import make_softening
    from repro.gravity.treeforce import evaluate_forces
    from repro.multipoles.radial import ErfcKernel

    pos, mass = _cloud(64 if p < 4 else 40, seed=p + 3)
    cfg = TreecodeConfig(
        p=p, errtol=2e-2, nleaf=8, periodic=periodic, background=periodic,
        lattice_correction=False, softening=softening, eps=0.03,
    )
    solver = TreecodeGravity(cfg)
    solver.compute(pos, mass, box=1.0)
    tree, moms, inter = solver.last_tree, solver.last_moments, last_lists(solver)
    base = make_softening(softening, 0.03)
    for soft, kernel in ((base, None), (ShortRangeSoftening(base, 0.1), ErfcKernel(2.5))):
        native.softening_spec(soft)  # a production pair, by construction
        kw = dict(softening=soft, kernel=kernel)
        got = evaluate_forces(tree, moms, inter, **kw)
        ora = oracle_forces(tree, moms, inter, **kw)
        assert _rel_acc_diff(got, ora) <= REL_TOL
        assert np.abs(got.pot - ora.pot).max() <= REL_TOL * np.abs(ora.pot).max()
        f32 = evaluate_forces(tree, moms, inter, dtype=np.float32, **kw)
        assert np.abs(f32.acc - got.acc).max() <= 1e-6 * np.abs(got.acc).max()
