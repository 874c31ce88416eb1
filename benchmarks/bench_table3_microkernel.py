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
