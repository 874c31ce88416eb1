"""Table 3: the gravitational micro-kernel benchmark.

The paper reports single-precision Gflop/s of the monopole inner loop
(28 flops/interaction) across ten processors.  Here the same
micro-kernel — softened pairwise monopole interactions in float32 —
is *actually executed and timed* on the host CPU via the library's
blocked evaluator, reported in the paper's Gflop/s currency, alongside
the catalog model that regenerates the published rows for the historic
hardware.
"""

import numpy as np
import pytest

from _simlib import print_table
from repro.gravity import direct_accelerations, make_softening
from repro.perfmodel import FLOPS_PER_MONOPOLE_PP, TABLE3_PROCESSORS


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

    benchmark(kernel)
    n_inter = n_src * n_tgt
    gflops = FLOPS_PER_MONOPOLE_PP * n_inter / benchmark.stats["mean"] / 1e9
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
    lists = [
        np.array([0, n_tgt]), np.array([n_tgt, n_src]),  # cell start, count
        np.array([0]), np.array([0, 1]), np.array([1]), np.array([0]),
        np.zeros((1, 3)),
    ]
    acc = np.zeros((n_tgt, 3))
    lib = native.evaluator(0, dtype)

    def kernel():
        acc[...] = 0.0
        lib.pp_field(pos.ctypes.data, mass.ctypes.data, lists[0].ctypes.data,
                     lists[1].ctypes.data, 1, *(a.ctypes.data for a in lists[2:]),
                     0, kind, float(hthr), h, eps, r_split, 0, 0, acc.ctypes.data, None)
        return acc

    benchmark(kernel)
    n_inter = n_src * n_tgt
    gflops = FLOPS_PER_MONOPOLE_PP * n_inter / benchmark.stats["mean"] / 1e9
    print(
        f"\nCompiled pp kernel ({np.dtype(dtype).name}): "
        f"{n_inter} interactions, {gflops:.2f} Gflop/s at 28 flops/interaction"
    )
    ref = direct_accelerations(pos[n_tgt:], mass[n_tgt:].astype(np.float64), softening=soft,
                               targets=pos[:n_tgt])
    assert np.abs(acc - ref).max() <= 1e-4 * np.abs(ref).max()
    assert gflops > 0.05


def test_table3_measured_compiled_prism_row(benchmark):
    """The background subtraction's particle x box row (paper §2.2.1)
    through the force evaluator's ``prism_field``: one sink leaf of 512
    particles against 64 boxes around it, float64, acceleration and
    potential, reported in ns per interaction row beside the numpy
    reference kernel (:func:`repro.multipoles.prism.prism_acceleration`)
    on the same rows."""
    import time

    from repro.gravity import native
    from repro.multipoles.prism import prism_acceleration

    rng = np.random.default_rng(0)
    n, n_boxes = 512, 64
    pos = np.ascontiguousarray(0.4 + 0.2 * rng.random((n, 3)))
    lo = rng.random((n_boxes, 3))
    hi = lo + 0.05 + 0.2 * rng.random((n_boxes, 3))
    box_lo, box_hi = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)
    one, count = np.zeros(1, dtype=np.int64), np.array([n])
    indptr = np.array([0, n_boxes])
    acc, pot = np.zeros((n, 3)), np.zeros(n)
    lib = native.evaluator(0, np.float64)

    def kernel():
        acc[...] = 0.0
        pot[...] = 0.0
        lib.prism_field(pos.ctypes.data, one.ctypes.data, count.ctypes.data, 1,
                        one.ctypes.data, box_lo.ctypes.data, box_hi.ctypes.data, n_boxes,
                        indptr.ctypes.data, 1.0, 1, 0, acc.ctypes.data, pot.ctypes.data)
        return acc

    benchmark(kernel)
    rows = n * n_boxes
    ns_c = benchmark.stats["mean"] / rows * 1e9
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
