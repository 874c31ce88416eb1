"""``SofteningKernel.force_and_potential``: the pair force in the
evaluator's working precision against the float64 definitions."""

import warnings

import numpy as np
import pytest

from repro.gravity import make_softening
from repro.gravity.pm import ShortRangeSoftening

EPS = 0.01
SOFTENINGS = {
    "none": make_softening("none", 0.0),
    "plummer": make_softening("plummer", EPS),
    "spline": make_softening("spline", EPS),
    "k1": make_softening("dehnen_k1", EPS),
    "short_range_k1": ShortRangeSoftening(make_softening("dehnen_k1", EPS), r_split=0.05),
}
#: the support radius each kernel must declare
SUPPORT = {"none": 0.0, "plummer": np.inf, "spline": 2.8 * EPS, "k1": EPS,
           "short_range_k1": np.inf}


def separations(dtype):
    """Six decades across every kernel's support edge, one row at r = 0."""
    r = np.concatenate(([0.0], np.geomspace(1e-5, 10.0, 2001), [EPS, 2.8 * EPS]))
    return r.astype(dtype)


def evaluated(softening, r, want_potential=True):
    out = np.full((2, len(r)), np.nan, dtype=r.dtype)
    # numpy's default error state warns on divide / overflow / invalid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        softening.force_and_potential(r, out, want_potential)
    return out


@pytest.mark.parametrize("name", sorted(SOFTENINGS))
def test_support_radius(name):
    assert SOFTENINGS[name].h == SUPPORT[name]


@pytest.mark.parametrize("name", sorted(SOFTENINGS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matches_the_definitions(name, dtype):
    """Inside the support the float64 definitions, rounded; outside it
    1/r^3 and 1/r formed in the working precision (three roundings)."""
    softening = SOFTENINGS[name]
    r = separations(dtype)
    f, psi = evaluated(softening, r)
    with np.errstate(divide="ignore"):
        ref = softening.force_factor(r), softening.potential(r)
    inside = r < softening.h
    # (r = 0 outside every support is 1/0 on both sides)
    outside = ~inside & (r > 0.0)
    for got, want in zip((f, psi), ref):
        assert np.array_equal(got[~outside], want[~outside].astype(dtype))
        ulp = np.spacing(np.abs(want[outside]).astype(dtype)).astype(np.float64)
        assert np.all(np.abs(got[outside] - want[outside]) <= 4 * ulp)


@pytest.mark.parametrize("name", sorted(SOFTENINGS))
def test_self_pair_row_is_finite_once_masked(name):
    """r = 0 is the self-pair the evaluator masks: whatever the helper
    left there (1/0 without softening), zeroing the row leaves nothing
    non-finite behind, and no warning was raised on the way."""
    r = separations(np.float32)
    out = evaluated(SOFTENINGS[name], r)
    np.copyto(out, 0.0, where=(r == 0.0))
    assert np.isfinite(out).all()


@pytest.mark.parametrize("name", sorted(SOFTENINGS))
def test_without_potential_same_force_bits(name):
    r = separations(np.float32)
    both = evaluated(SOFTENINGS[name], r)[0]
    only = evaluated(SOFTENINGS[name], r, want_potential=False)[0]
    assert np.array_equal(both, only)
