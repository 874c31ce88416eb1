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
