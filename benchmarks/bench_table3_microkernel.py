"""Table 3: the gravitational micro-kernel benchmark.

The paper reports single-precision Gflop/s of the monopole inner loop
(28 flops/interaction) across ten processors.  Here the same
micro-kernel — softened pairwise monopole interactions in float32 —
is *actually executed and timed* on the host CPU via the library's
blocked evaluator, reported in the paper's Gflop/s currency, alongside
the catalog model that regenerates the published rows for the historic
hardware.
"""

import time

import numpy as np
import pytest

from _simlib import print_table
from repro.gravity import direct_accelerations, make_softening
from repro.perfmodel import FLOPS_PER_MONOPOLE_PP, TABLE3_PROCESSORS


def timed(benchmark, kernel):
    """``(result, mean seconds a call)`` of ``kernel`` under
    ``benchmark``; with ``--benchmark-disable`` it runs once, timed here."""
    t0 = time.perf_counter()
    result = benchmark(kernel)
    elapsed = time.perf_counter() - t0
    return result, benchmark.stats["mean"] if benchmark.stats else elapsed


def test_table3_catalog_rows(benchmark):
    rows = benchmark.pedantic(
        lambda: [
            (p.name, round(p.measured_gflops, 2), round(p.modeled_gflops, 2))
            for p in TABLE3_PROCESSORS
        ],
        iterations=1,
        rounds=1,
    )
    print_table(
        "Table 3: monopole micro-kernel Gflop/s (paper vs catalog model)",
        ["Processor", "paper", "model"],
        rows,
    )
    for p in TABLE3_PROCESSORS:
        assert p.modeled_gflops == pytest.approx(p.measured_gflops, rel=0.05)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_table3_measured_host_kernel(benchmark, dtype):
    """Time the actual pairwise monopole kernel on this host.

    The number of interactions is fixed; pytest-benchmark provides the
    wall time, converted at 28 flops/interaction.  A NumPy kernel won't
    reach hand-tuned SSE rates, but the measurement methodology is the
    paper's.
    """
    rng = np.random.default_rng(0)
    n_src = 4096
    n_tgt = 2048
    pos = rng.random((n_src, 3)).astype(dtype)
    mass = rng.random(n_src).astype(dtype)
    targets = rng.random((n_tgt, 3)).astype(dtype)
    soft = make_softening("plummer", 1e-3)

    def kernel():
        return direct_accelerations(
            pos, mass, softening=soft, targets=targets, dtype=dtype,
            want_potential=False,
        )

    _, seconds = timed(benchmark, kernel)
    n_inter = n_src * n_tgt
    gflops = FLOPS_PER_MONOPOLE_PP * n_inter / seconds / 1e9
    print(
        f"\nHost monopole kernel ({np.dtype(dtype).name}): "
        f"{n_inter} interactions, {gflops:.2f} Gflop/s at 28 flops/interaction"
    )
    assert gflops > 0.05  # sanity: the kernel actually ran at speed


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_table3_measured_compiled_pp_kernel(benchmark, dtype):
    """The same 2,048 x 4,096 monopole interactions through the force
    evaluator's own pp loop: the generated C of
    :mod:`repro.gravity.native`, one sink leaf against one source leaf,
    Dehnen K1 softening (the production kernel; its float64 definitions
    run only for the pairs inside eps), forces and no potential."""
    from repro.gravity import native

    rng = np.random.default_rng(0)
    n_src, n_tgt = 4096, 2048
    pos = np.ascontiguousarray(rng.random((n_tgt + n_src, 3)))
    mass = rng.random(n_tgt + n_src).astype(dtype)
    soft = make_softening("dehnen_k1", 1e-3)
    kind, h, eps, r_split = native.softening_spec(soft)
    hthr = np.nextafter(np.dtype(dtype).type(h), np.dtype(dtype).type(np.inf))
    lists = dict(
        cell_start=[0, n_tgt], cell_count=[n_tgt, n_src], n_rows=1, sink_leaves=[0],
        indptr=[0, 1], src=[1], off=[0], offsets=np.zeros((1, 3)),
    )
    acc = np.zeros((n_tgt, 3))
    lib = native.evaluator(0, dtype)

    def kernel():
        acc[...] = 0.0
        lib.pp_field(pos=pos, mass=mass, **lists, home_off=0, soft=kind, hthr_in=hthr, soft_h=h,
                     soft_eps=eps, r_split=r_split, want_pot=0, s0=0, acc=acc, pot=None)

    _, seconds = timed(benchmark, kernel)
    n_inter = n_src * n_tgt
    gflops = FLOPS_PER_MONOPOLE_PP * n_inter / seconds / 1e9
    print(
        f"\nCompiled pp kernel ({np.dtype(dtype).name}): "
        f"{n_inter} interactions, {gflops:.2f} Gflop/s at 28 flops/interaction"
    )
    ref = direct_accelerations(pos[n_tgt:], mass[n_tgt:].astype(np.float64), softening=soft,
                               targets=pos[:n_tgt])
    assert np.abs(acc - ref).max() <= 1e-4 * np.abs(ref).max()
    assert gflops > 0.05


def pp_rows_case(n_sinks=400, n_sources=2000, row_len=150, seed=0):
    """The workloads' leaf shape: ``n_sinks`` sink leaves of 3-7
    particles, each against a row of ``row_len`` distinct source leaves
    of 4-8 particles (means 5 and 6), the leaves small cubes scattered
    over the unit box.  Returns ``(pos, lists, interactions)``, where
    ``lists`` are ``pp_field``'s keywords for the cell start and count,
    the sink leaves and their number, row indptr, sources, offset
    indices and the one (home) image offset; cells ``0 .. n_sinks - 1``
    are the sink leaves, and no row lists its own leaf."""
    rng = np.random.default_rng(seed)
    count = np.concatenate([rng.integers(3, 8, n_sinks), rng.integers(4, 9, n_sources)])
    start = np.concatenate([[0], np.cumsum(count)[:-1]])
    corner = np.repeat(0.98 * rng.random((len(count), 3)), count, axis=0)
    pos = np.ascontiguousarray(corner + 0.02 * rng.random((count.sum(), 3)))
    src = np.concatenate([
        n_sinks + rng.choice(n_sources, row_len, replace=False) for _ in range(n_sinks)
    ])
    indptr = np.arange(0, n_sinks * row_len + 1, row_len)
    run = count[src].reshape(n_sinks, row_len).sum(axis=1)
    lists = dict(cell_start=start, cell_count=count, n_rows=n_sinks, sink_leaves=np.arange(n_sinks),
                 indptr=indptr, src=src, off=np.zeros(len(src), dtype=np.int64),
                 offsets=np.zeros((1, 3)))
    return pos, lists, int((count[:n_sinks] * run).sum())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_table3_measured_compiled_pp_rows(benchmark, dtype):
    """The pp loop at the workloads' shape (:func:`pp_rows_case`: sink
    leaves of ~5 particles, rows of 150 source leaves of ~6), where a
    source leaf is shorter than one vector of lanes and the loop's cost
    is set by how it walks a row rather than by its arithmetic; Dehnen K1
    softening, forces and potential, against float64 direct sums per
    row."""
    from repro.gravity import native

    pos, lists, n_inter = pp_rows_case()
    mass = np.random.default_rng(1).random(len(pos)).astype(dtype)
    soft = make_softening("dehnen_k1", 1e-3)
    kind, h, eps, r_split = native.softening_spec(soft)
    hthr = np.nextafter(np.dtype(dtype).type(h), np.dtype(dtype).type(np.inf))
    start, count, n_rows = lists["cell_start"], lists["cell_count"], lists["n_rows"]
    n_tgt = int(count[:n_rows].sum())
    acc, pot = np.zeros((n_tgt, 3)), np.zeros(n_tgt)
    lib = native.evaluator(0, dtype)

    def kernel():
        acc[...] = 0.0
        pot[...] = 0.0
        lib.pp_field(pos=pos, mass=mass, **lists, home_off=0, soft=kind, hthr_in=hthr, soft_h=h,
                     soft_eps=eps, r_split=r_split, want_pot=1, s0=0, acc=acc, pot=pot)

    _, seconds = timed(benchmark, kernel)
    gflops = FLOPS_PER_MONOPOLE_PP * n_inter / seconds / 1e9
    print(
        f"\nCompiled pp rows ({np.dtype(dtype).name}): {n_rows} sink leaves, "
        f"{n_inter} interactions, {gflops:.2f} Gflop/s at 28 flops/interaction"
    )
    indptr, src = lists["indptr"], lists["src"]
    for row in range(n_rows):
        cells = src[indptr[row]: indptr[row + 1]]
        idx = np.concatenate([np.arange(start[c], start[c] + count[c]) for c in cells])
        sink = slice(start[row], start[row] + count[row])
        ref_acc, ref_pot = direct_accelerations(
            pos[idx], mass[idx].astype(np.float64), softening=soft, targets=pos[sink],
            want_potential=True,
        )
        scale = np.abs(ref_acc).max()
        assert np.abs(acc[sink] - ref_acc).max() <= 1e-4 * scale
        assert np.abs(pot[sink] - ref_pot).max() <= 1e-4 * np.abs(ref_pot).max()
    assert gflops > 0.05


def test_table3_measured_compiled_prism_row(benchmark):
    """The background subtraction's particle x box row (paper §2.2.1)
    through the force evaluator's ``prism_field``: one sink leaf of 512
    particles against 64 boxes around it, float64, acceleration and
    potential, reported in ns per interaction row beside the numpy
    reference kernel (:func:`repro.multipoles.prism.prism_acceleration`)
    on the same rows."""
    from repro.gravity import native
    from repro.multipoles.prism import prism_acceleration

    rng = np.random.default_rng(0)
    n, n_boxes = 512, 64
    pos = np.ascontiguousarray(0.4 + 0.2 * rng.random((n, 3)))
    lo = rng.random((n_boxes, 3))
    hi = lo + 0.05 + 0.2 * rng.random((n_boxes, 3))
    acc, pot = np.zeros((n, 3)), np.zeros(n)
    lib = native.evaluator(0, np.float64)

    def kernel():
        acc[...] = 0.0
        pot[...] = 0.0
        lib.prism_field(pos=pos, cell_start=[0], cell_count=[n], n_rows=1, sink_leaves=[0],
                        box_lo=lo.T, box_hi=hi.T, n_boxes=n_boxes, indptr=[0, n_boxes], rho=1.0,
                        want_pot=1, s0=0, acc=acc, pot=pot)

    _, seconds = timed(benchmark, kernel)
    rows = n * n_boxes
    ns_c = seconds / rows * 1e9
    pts, blo, bhi = np.repeat(pos, n_boxes, axis=0), np.tile(lo, (n, 1)), np.tile(hi, (n, 1))
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        ref_acc, ref_pot = prism_acceleration(pts, blo, bhi, 1.0, want_potential=True)
        best = min(best, time.perf_counter() - t0)
    print(
        f"\nCompiled prism row: {rows} particle x box rows, {ns_c:.1f} ns a row "
        f"(numpy reference kernel {best / rows * 1e9:.1f} ns)"
    )
    ref_acc = ref_acc.reshape(n, n_boxes, 3).sum(axis=1)
    assert np.abs(acc - ref_acc).max() <= 1e-12 * np.abs(ref_acc).max()
    assert ns_c > 0
