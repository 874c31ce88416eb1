"""``ForceSpec`` and construction-time validation of the force configs.

A bad enum-like string must fail where the config is written — not
after the tree is built, shared memory is published and a pool worker
has been re-dispatched ``ForceExecutor.MAX_RETRIES`` times.
"""

import dataclasses
import multiprocessing as mp
import pickle

import numpy as np
import pytest

from repro.gravity import TreecodeConfig, make_softening
from repro.gravity.pm import TreePMConfig
from repro.gravity.solver import _CHOICES, ForceSpec, solve_forces
from repro.simulation import SimulationConfig
from repro.tree import build_tree, compute_moments

VALIDATED = {
    ForceSpec: ("traversal",),
    TreecodeConfig: ("traversal", "mac", "softening"),
    TreePMConfig: ("softening",),
    SimulationConfig: ("engine", "traversal", "softening"),
}
CASES = [(cls, name) for cls, names in VALIDATED.items() for name in names]


@pytest.mark.parametrize("cls,name", CASES, ids=lambda v: getattr(v, "__name__", v))
def test_unknown_choice_fails_at_construction(cls, name):
    with pytest.raises(ValueError) as err:
        cls(**{name: "bogus"})
    # the message names the field and every allowed value
    assert f"{cls.__name__}.{name}='bogus'" in str(err.value)
    assert "|".join(_CHOICES[name]) in str(err.value)


@pytest.mark.parametrize("cls,name", CASES, ids=lambda v: getattr(v, "__name__", v))
def test_every_allowed_choice_constructs(cls, name):
    for value in _CHOICES[name]:
        assert getattr(cls(**{name: value}), name) == value


@pytest.mark.parametrize("cls", VALIDATED, ids=lambda c: c.__name__)
def test_retired_backend_option_is_not_a_field(cls):
    """One evaluator: the option that selected the other one is gone,
    not ignored — a config written for it fails where it is written."""
    with pytest.raises(TypeError, match="backend"):
        cls(backend="numpy")


@pytest.mark.parametrize("cls", [TreecodeConfig, TreePMConfig, ForceSpec], ids=lambda c: c.__name__)
def test_g_is_not_a_setting(cls):
    """Code units fix G = 1: a config that sets it fails where it is written."""
    with pytest.raises(TypeError, match="'G'"):
        cls(**{"G": 1.0})


def test_treepm_has_no_traversal_setting():
    """TreePM's short-range walk is hierarchical; there is nothing to choose."""
    with pytest.raises(TypeError, match="traversal"):
        TreePMConfig(**{"traversal": "hierarchical"})


def test_treepm_with_fmm_hybrid_fails_at_construction():
    with pytest.raises(ValueError, match="treepm"):
        SimulationConfig(engine="treepm", traversal="fmm-hybrid")
    assert SimulationConfig(engine="treepm").traversal == "hierarchical"


@pytest.mark.parametrize("kind", _CHOICES["softening"])
def test_allowed_softenings_are_the_ones_the_factory_builds(kind):
    make_softening(kind, 0.01)
    make_softening(kind.upper(), 0.01)  # the factory ignores case ...
    TreecodeConfig(softening=kind.upper())  # ... so validation does too


def test_bad_config_with_workers_starts_no_pool():
    before = set(mp.active_children())
    with pytest.raises(ValueError, match="traversal"):
        SimulationConfig(traversal="bogus", workers=2)
    assert set(mp.active_children()) == before


def test_replace_revalidates_and_keeps_working():
    cfg = SimulationConfig(workers=2, traversal="fmm-hybrid")
    serial = dataclasses.replace(cfg, workers=0)
    assert serial.workers == 0 and serial.traversal == "fmm-hybrid"
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, engine="cuda")


def test_spec_is_frozen_and_survives_pickling():
    spec = ForceSpec(
        traversal="fmm-hybrid", periodic=True, cc_xmax=0.4, rcut=0.1,
        softening=make_softening("plummer", 0.01), dtype=np.float32,
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.periodic = False
    back = pickle.loads(pickle.dumps(spec))
    # the evaluator tests ``dtype is np.float64``: identity must survive
    assert back.dtype is np.float32
    assert type(back.softening) is type(spec.softening)
    assert dataclasses.replace(back, softening=None) == dataclasses.replace(
        spec, softening=None
    )


def test_solve_forces_reports_the_traversal_counters():
    rng = np.random.default_rng(4)
    pos, mass = rng.random((300, 3)), np.full(300, 1.0 / 300)
    tree = build_tree(pos, mass, nleaf=8)
    moms = compute_moments(tree, p=2, tol=1e-3)
    res, inter, traverse_s, evaluate_s = solve_forces(tree, moms, ForceSpec())
    assert traverse_s > 0 and evaluate_s > 0
    assert res.stats["mac_tests"] == inter.mac_tests > 0
    assert res.stats["inherited_accepts"] == inter.inherited_accepts > 0
    assert res.stats["leaf_accepts"] == inter.leaf_accepts > 0
    fam = res.stats["interactions_by_family"]
    assert res.stats["traversal_interactions"] == sum(fam.values())
    assert sum(fam.values()) / 300 == inter.interactions_per_particle(tree)
