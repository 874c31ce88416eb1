"""Gate on a ``benchmarks/step/run.py --out`` report and on the runs' own records.

    python3 benchmarks/check_step_record.py step_quick.json

Exits non-zero when a workload of the report has a non-empty
``trace_missing`` (a layer entry point the tracer could not resolve), or
when one step of a workload, run here at the report's size, leaves no
per-family split of the force evaluation in ``Simulation.last_stats``
(``family_seconds``: cell / pp / m2l / prism, and beside it
``prism_seconds``: coalesce / rows, the two parts of the prism
family), or when the prism pass did not evaluate fewer rows
(``prism_interactions``) than there are particle x cube pairs
(``prism_cubes``), or when a fmm-hybrid step does not count its M2L
tensors (``m2l_classes``) and padded product rows (``m2l_tile_rows``,
which cannot be fewer than the ``m2l_pairs`` they hold), or when the
default float32 path returns a
non-finite force on a tree 15 levels deep (a cell accept 1e-4 box
lengths away: the radial chain leaves float32's range unless the cell
family measures lengths in units of the sink cell).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT.parent / "src"), str(ROOT / "step")]

FAMILIES = {"cell", "pp", "m2l", "prism"}
PRISM_PARTS = {"coalesce", "rows"}


def deep_clump_failure() -> str | None:
    """One float32 solve of 3,000 particles, half of them a Gaussian
    clump of width 1e-4; the reason it fails, or None."""
    import numpy as np

    from repro.gravity import TreecodeConfig, TreecodeGravity

    rng = np.random.default_rng(5)
    n = 3000
    pos = rng.uniform(0.0, 1.0, (n, 3))
    pos[: n // 2] = np.mod(0.5 + 1e-4 * rng.standard_normal((n // 2, 3)), 1.0)
    with TreecodeGravity(TreecodeConfig(periodic=True, dtype=np.float32, eps=2e-6)) as solver:
        res = solver.compute(pos, np.full(n, 1.0 / n))
        depth = int(solver.last_tree.max_level)
    bad = int(np.count_nonzero(~np.isfinite(res.acc)))
    if depth < 15 or bad:
        return f"deep clump: tree depth {depth}, {bad} non-finite float32 acceleration components"
    print(f"deep clump: depth {depth}, float32 forces finite, max |a| {np.abs(res.acc).max():.4g}")
    return None


def main(report_path: str) -> int:
    import workloads as W
    from repro.simulation import Simulation

    report = json.loads(Path(report_path).read_text())
    quick = report["mode"] == "quick"
    failures = []
    clump = deep_clump_failure()
    if clump:
        failures.append(clump)
    for name, doc in report["workloads"].items():
        if doc["trace_missing"]:
            failures.append(f"{name}: trace_missing {doc['trace_missing']}")
        workload = W.WORKLOADS[name]
        config = W.make_config(workload, quick=quick)
        particles = W.make_inputs(workload.inputs, config.n_per_dim, report["seed"])
        with Simulation(config, particles) as sim:
            sim.run(max_steps=1)
            stats = sim.last_stats
        family = stats.get("family_seconds")
        prism = stats.get("prism_seconds")
        rows, cubes = stats.get("prism_interactions"), stats.get("prism_cubes")
        m2l = {k: stats.get(k) for k in ("m2l_pairs", "m2l_classes", "m2l_tile_rows")}
        hybrid = config.traversal == "fmm-hybrid"
        if not family or set(family) != FAMILIES or not family["prism"] > 0:
            failures.append(f"{name}: family_seconds {family}")
        elif not prism or set(prism) != PRISM_PARTS:
            failures.append(f"{name}: prism_seconds {prism}")
        elif rows is None or cubes is None or rows >= cubes:
            failures.append(f"{name}: prism_interactions {rows} >= prism_cubes {cubes}")
        elif hybrid and not (
            m2l["m2l_pairs"] and m2l["m2l_classes"]
            and (m2l["m2l_tile_rows"] or 0) >= m2l["m2l_pairs"]
        ):
            failures.append(f"{name}: m2l counts {m2l}")
        else:
            print(name, {k: round(v, 4) for k, v in family.items()},
                  {f"prism {k}": round(v, 4) for k, v in prism.items()},
                  f"prism rows {rows} of {cubes} cubes",
                  *([m2l] if hybrid else []))
    for line in failures:
        print("FAIL", line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
