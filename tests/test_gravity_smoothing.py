"""The compiled pp loop's pair force, in the evaluator's working
precision, against the float64 definitions of ``repro.gravity.smoothing``."""

import numpy as np
import pytest

from repro.gravity import make_softening, native
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
    """``(x-acceleration, potential)`` of ``pp_field`` on one pair per
    separation: row i is a one-particle sink leaf at the origin whose
    one entry is a unit mass at (r_i, 0, 0) — or, where r_i = 0, the sink
    leaf itself, the self-pair the loop masks.  With m = 1 and dx = -r
    the row's terms are fl(F r) and psi in the working dtype."""
    dtype = r.dtype
    n = len(r)
    pos = np.zeros((2 * n, 3))
    pos[n:, 0] = r
    start, count = np.arange(2 * n), np.ones(2 * n, dtype=np.int64)
    src = np.where(r == 0.0, np.arange(n), np.arange(n, 2 * n))
    kind, h, eps, r_split = native.softening_spec(softening)
    hthr = dtype.type(softening.h)
    if hthr < softening.h:
        hthr = np.nextafter(hthr, dtype.type(np.inf))
    acc, pot = np.zeros((n, 3)), np.zeros(n)
    native.evaluator(0, dtype).pp_field(
        pos=pos, mass=np.ones(2 * n, dtype=dtype), cell_start=start, cell_count=count, n_rows=n,
        sink_leaves=np.arange(n), indptr=np.arange(n + 1), src=src, off=np.zeros(n, np.int64),
        offsets=np.zeros((1, 3)), home_off=0, soft=kind, hthr_in=hthr, soft_h=h, soft_eps=eps,
        r_split=r_split, want_pot=want_potential, s0=0, acc=acc, pot=pot,
    )
    return acc[:, 0], pot


@pytest.mark.parametrize("name", sorted(SOFTENINGS))
def test_support_radius(name):
    assert SOFTENINGS[name].h == SUPPORT[name]


@pytest.mark.parametrize("name", sorted(SOFTENINGS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matches_the_definitions(name, dtype):
    """Inside the support the float64 definitions, rounded (libm's pow,
    erfc and exp against numpy's and scipy's: 7 float64 ulp apart, 455
    in erfc's tail at 1e-265, so 1e-12 relative before the rounding);
    outside it 1/r^3 and 1/r formed in the working precision (three
    roundings)."""
    softening = SOFTENINGS[name]
    r = separations(dtype)
    fr, psi = evaluated(softening, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_def, psi_def = softening.force_factor(r), softening.potential(r)
        want_fr = f_def * r
    inside = r < softening.h
    # the self-pair row (r = 0) is masked
    pair = r > 0.0
    assert fr[0] == psi[0] == 0.0
    for got, want in ((fr, want_fr), (psi, psi_def)):
        ulp = np.spacing(np.abs(want).astype(dtype)).astype(np.float64)
        # (the filter's erfc underflows far out: subnormal either way)
        err = np.abs(got - want) - np.finfo(np.float64).tiny
        libm = 1e-12 * np.abs(want)
        assert np.all(err[inside & pair] <= (2 * ulp + libm)[inside & pair])
        assert np.all(err[~inside & pair] <= 5 * ulp[~inside & pair])


@pytest.mark.parametrize("name", sorted(SOFTENINGS))
def test_self_pair_row_is_finite_once_masked(name):
    """r = 0 is the self-pair the loop masks: whatever 1/r made of it
    (1/0 without softening), nothing non-finite is left behind."""
    r = separations(np.float32)
    fr, psi = evaluated(SOFTENINGS[name], r)
    assert np.isfinite(fr).all() and np.isfinite(psi).all()


@pytest.mark.parametrize("name", sorted(SOFTENINGS))
def test_without_potential_same_force_bits(name):
    r = separations(np.float32)
    both = evaluated(SOFTENINGS[name], r)[0]
    only = evaluated(SOFTENINGS[name], r, want_potential=False)[0]
    assert np.array_equal(both, only)
