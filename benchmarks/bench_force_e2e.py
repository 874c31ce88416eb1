"""End-to-end force benchmark: hierarchical vs fmm-hybrid.

Times one full periodic background-subtracted treecode force solve at
each size for the two modes of the dual-tree walk — the
sink-hierarchical mutual walk with CSR interaction lists and
segment-reduce evaluation, and the fmm-hybrid mode (mutual cell-cell
accepts into sink-side local expansions, run at its production nleaf=8
operating point) — and writes the receipt to ``BENCH_force.json`` next
to this file.  (The committed full-mode receipt predates the removal
of the per-sink-leaf walk and the bincount segment reducer; its
``leaf`` columns and ``segment_sum`` block are the record of why they
went.)

* force wall and its traverse/evaluate split (steady-state: second
  solve, so moment/autotune caches are warm),
* MAC tests (geometric acceptance evaluations), interactions per
  particle and the per-family breakdown (cell/pp/ghost/m2l) for each
  walk,
* fmm-hybrid promotion gates: >= 3x fewer interactions per particle
  and (full mode) >= 2x lower force wall than hierarchical, probe error
  inside the errtol budget, and bitwise serial-vs-sharded agreement,
* a force-error probe against the Ewald direct reference, graded
  against the errtol budget,
* the evaluator's roofline counters (``stats["kernel"]``) for the
  hierarchical solve, with wall/ipp-normalized throughput columns (the
  committed receipt also carries the ``backends`` / ``numba_available``
  fields of the compiled-backend A/B that no host ever ran),
* embedded ``gates`` so ``repro-obs gate BENCH_force.json`` judges
  the run self-contained (the CI perf-smoke tripwire).

Sizes::

    REPRO_BENCH_N       particles per dimension — sets smoke mode with
                        one size N^3 and relaxed gates (CI uses 12)
    (default)           full mode: 16384 and 32768 particles, with the
                        full-size fmm-hybrid promotion gates

Run directly (``PYTHONPATH=src python benchmarks/bench_force_e2e.py``)
or via pytest.
"""

import os
import time
from pathlib import Path

import numpy as np

from repro.diagnose.probe import reference_accelerations
from repro.gravity import TreecodeConfig, TreecodeGravity, make_softening
from repro.instrument import Tracer

OUT_PATH = Path(__file__).parent / "BENCH_force.json"

SMOKE_N = os.environ.get("REPRO_BENCH_N")
ERRTOL = float(os.environ.get("REPRO_BENCH_FORCE_ERRTOL", "1e-4"))
SIZES = [int(SMOKE_N) ** 3] if SMOKE_N else [16384, 32768]
MODE = "smoke" if SMOKE_N else "full"


def _particles(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), np.full(n, 1.0 / n)


def _solve(traversal: str, pos, mass, workers: int = 0, nleaf: int = 16) -> dict:
    cfg = TreecodeConfig(
        p=4, errtol=ERRTOL, nleaf=nleaf, periodic=True, background=True,
        traversal=traversal, want_potential=False, workers=workers,
    )
    tr = Tracer()
    with TreecodeGravity(cfg) as solver:
        # warm the N-independent caches (lattice expansion, generated
        # routines) on a small subset so the timed solve is
        # steady-state without paying a second full-size solve
        nw = min(len(pos), 4096)
        solver.compute(pos[:nw], mass[:nw], box=1.0)
        t0 = time.perf_counter()
        res = solver.compute(pos, mass, box=1.0, tracer=tr)
        wall = time.perf_counter() - t0
    stage = res.stats.get("stage_seconds", {})
    ipp = float(res.stats["interactions_per_particle"])
    return {
        "force_wall_s": wall,
        "traverse_s": stage.get("traverse", 0.0),
        "evaluate_s": stage.get("evaluate", stage.get("execute", 0.0)),
        "mac_tests": int(res.stats["mac_tests"]),
        "frontier_peak": int(res.stats["frontier_peak"]),
        "interactions_per_particle": ipp,
        # ipp-normalized throughput: traversal-level interactions per
        # second of force wall, comparable across walks
        "interactions_per_second": ipp * len(pos) / max(wall, 1e-12),
        # per-family interaction breakdown (cell/pp/ghost/m2l): the
        # hybrid column's win is the cell family collapsing into m2l
        "interactions_by_family": res.stats.get("interactions_by_family"),
        "nleaf": nleaf,
        # in-kernel roofline counters: interactions/s, effective
        # GFLOP/s, m x n tile shape (ISSUE 8)
        "kernel": res.stats.get("kernel"),
        "workers": workers,
        "acc": res.acc,  # stripped before serialization
        "eps": cfg.eps,
        "softening": cfg.softening,
    }


def _probe_error(pos, mass, rec, n_samples: int = 8) -> dict:
    rng = np.random.default_rng(0)
    idx = rng.choice(len(pos), size=n_samples, replace=False)
    kern = make_softening(rec["softening"], rec["eps"])
    ref = reference_accelerations(
        pos, mass, idx, softening=kern, periodic=True
    )
    err = np.linalg.norm(rec["acc"][idx] - ref, axis=1)
    return {
        "n_samples": int(n_samples),
        "max_abs_err": float(err.max()),
        "rms_abs_err": float(np.sqrt((err**2).mean())),
        "budget": ERRTOL,
        "err_over_budget": float(err.max() / ERRTOL),
    }


def run() -> dict:
    workers_mt = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
    sizes = []
    for n in SIZES:
        pos, mass = _particles(n)
        hier = _solve("hierarchical", pos, mass)  # serial
        probe = _probe_error(pos, mass, hier)
        # fmm-hybrid column at its production configuration (nleaf=8:
        # smaller leaves push work from the pp floor into m2l pairs);
        # the A/B against `hier` is honest end-to-end — each mode at
        # its own best operating point
        hybrid = _solve("fmm-hybrid", pos, mass, nleaf=8)
        hybrid_mt = _solve("fmm-hybrid", pos, mass, nleaf=8,
                           workers=workers_mt)
        hybrid_bitident = bool(
            np.array_equal(hybrid["acc"], hybrid_mt["acc"])
        )
        hybrid_probe = _probe_error(pos, mass, hybrid)
        row = {
            "n": n,
            "hierarchical": {k: v for k, v in hier.items() if k != "acc"},
            "fmm_hybrid": {k: v for k, v in hybrid.items() if k != "acc"},
            "fmm_hybrid_mt": {
                k: v for k, v in hybrid_mt.items() if k != "acc"
            },
            "probe": probe,
            "hybrid_probe": hybrid_probe,
            # the fmm-hybrid promotion gates: interaction-count ratio,
            # end-to-end wall ratio, serial-vs-sharded bitwise
            # reproducibility
            "hybrid_ipp_ratio": (
                hier["interactions_per_particle"]
                / max(hybrid["interactions_per_particle"], 1e-12)
            ),
            "hybrid_force_speedup": (
                hier["force_wall_s"] / max(hybrid["force_wall_s"], 1e-12)
            ),
            "hybrid_workers_bitident": 1.0 if hybrid_bitident else 0.0,
        }
        sizes.append(row)
        print(
            f"n={n}: hierarchical: mac {hier['mac_tests']}, traverse "
            f"{hier['traverse_s']:.3f}s, force {hier['force_wall_s']:.3f}s, "
            f"ipp {hier['interactions_per_particle']:.0f}, probe err/budget "
            f"{probe['err_over_budget']:.3f}"
        )
        fam = hybrid["interactions_by_family"]
        print(
            f"      fmm-hybrid: ipp "
            f"{hybrid['interactions_per_particle']:.0f} "
            f"({row['hybrid_ipp_ratio']:.2f}x fewer), force "
            f"{hybrid['force_wall_s']:.3f}s "
            f"({row['hybrid_force_speedup']:.2f}x), err/budget "
            f"{hybrid_probe['err_over_budget']:.3f}, families "
            f"cell={fam['cell']} pp={fam['pp']} ghost={fam['ghost']} "
            f"m2l={fam['m2l']}, workers bit-identical: {hybrid_bitident}"
        )
        kern = hier["kernel"]
        print(
            f"      kernel: {kern['interactions_per_s']:.3g} inter/s, "
            f"{kern['gflops']:.3f} GFLOP/s "
            f"({kern['model_fraction']:.1%} of model), "
            f"tile m {kern['m_mean']:.1f}/{kern['m_max']}, "
            f"occupancy {kern['tile_occupancy']:.2f}"
        )
    last = sizes[-1]
    summary = {
        "n_max": last["n"],
        "probe_err_over_budget": last["probe"]["err_over_budget"],
        "hybrid_ipp_ratio": last["hybrid_ipp_ratio"],
        "hybrid_force_speedup": last["hybrid_force_speedup"],
        "hybrid_err_over_budget": last["hybrid_probe"]["err_over_budget"],
        "hybrid_workers_bitident": min(
            r["hybrid_workers_bitident"] for r in sizes
        ),
        "hybrid_interactions_per_particle": last["fmm_hybrid"][
            "interactions_per_particle"
        ],
        # trend-gateable kernel throughput (the key keeps the column
        # name of the committed receipt)
        "kernel_gflops_numpy_1t": last["hierarchical"]["kernel"]["gflops"],
    }
    # smoke mode (tiny N) only checks direction + error budget
    gates = {
        "probe_err_over_budget": {"max": 1.0},
        # fmm-hybrid promotion acceptance: >= 3x fewer interactions per
        # particle than hierarchical at full size, error still inside
        # the MAC budget, serial == sharded to the last bit
        "hybrid_ipp_ratio": {"min": 1.0 if MODE == "smoke" else 3.0},
        "hybrid_err_over_budget": {"max": 1.0},
        "hybrid_workers_bitident": {"min": 1.0},
    }
    if MODE == "full":
        # >= 2x lower end-to-end force wall
        gates["hybrid_force_speedup"] = {"min": 2.0}
        # absolute interaction-count tripwire: measured ~950/particle at
        # 32k (4x under hierarchical's ~3800) + regression headroom
        gates["hybrid_interactions_per_particle"] = {"max": 1300.0}
    return {
        "type": "bench_force_e2e",
        "mode": MODE,
        "errtol": ERRTOL,
        "sizes": sizes,
        "summary": summary,
        "gates": gates,
    }


def test_force_e2e_receipt():
    from _simlib import emit_bench

    doc = emit_bench("force_e2e", run(), OUT_PATH)
    print(f"wrote {OUT_PATH}")
    s = doc["summary"]
    assert s["probe_err_over_budget"] <= 1.0
    assert s["hybrid_ipp_ratio"] >= doc["gates"]["hybrid_ipp_ratio"]["min"]
    assert s["hybrid_err_over_budget"] <= 1.0
    assert s["hybrid_workers_bitident"] >= 1.0


if __name__ == "__main__":
    test_force_e2e_receipt()
