"""One gate over evolved runs: force error, P(k), mass function, budgets.

Paper §2.2.2 bounds each particle's force error by ``errtol``; §5 calls
0.1-2 % in P(k) tolerable.  Each seed evolves ``_simlib.BASE`` (Fig. 7's
run) once per configuration of :data:`RUNS`, energies tracked and health
monitors on, in legs to a = 0.3 and 1 as ``pipeline/run_stage.py`` takes
snapshots.  The receipt gates the worst seed's force error on the default
run's snapshots (p50 / p90 / p99 of |a - a_Ewald| / errtol over 256
particles) and every band of :data:`BANDS` with a bound (:data:`BOUNDS`,
1.25 x its worst of four seeds); a looser solve or run must break each
bound (``force_loose_fails``, ``<band>_loose_fails`` read 1), and the
receipt's ``ungated`` says why a band has no bound.  Run::

    PYTHONPATH=src python benchmarks/bench_evolve_gate.py [--quick] [--out PATH]
    python -m repro.observe gate PATH

``--quick`` (8^3, CI perf-smoke) writes ``evolve_gate_quick.json`` by
default, the full run ``BENCH_evolve.json`` next to this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from _simlib import BASE, emit_bench, k_bands
from repro.analysis import binned_mass_function, fof_halos
from repro.analysis.power import measure_power
from repro.diagnose import HealthConfig
from repro.diagnose.probe import reference_accelerations
from repro.gravity import TreecodeGravity, make_softening
from repro.observe.cli import judge_gates
from repro.simulation import Simulation

OUT_PATH = Path(__file__).parent / "BENCH_evolve.json"
SEEDS = (1, 13, 42, 77)
SCALE_FACTORS = (0.3, 1.0)
LOOSE = 10.0
SAMPLES = 256  # force-error particles a snapshot, the same for both solves
PERCENTILES = ("p50", "p90", "p99")
MIN_MEMBERS = 4  # smaller FOF groups are not halos
MASS_BINS = 2

RUNS = {
    "default": {},
    "errtol_ref": {"errtol": BASE.errtol / 4},  # the force path's reference at the same step
    "errtol_loose": {"errtol": BASE.errtol * LOOSE},
    "dlna_ref": {"dlna_max": BASE.dlna_max / 2},  # the step's convergence reference
    "dlna_loose": {"dlna_max": BASE.dlna_max * 2},
}
LOOSE_RUNS = ("errtol_loose", "dlna_loose")

#: band: (what it reads, reference run, loose run, scale factor).  ``pk_*``
#: (Fig. 7's k-bands) and ``mf`` read a run's snapshot against the
#: reference's; ``li`` is the run's Layzer-Irvine drift less the
#: reference's; ``momentum`` the run's own drift (from each leg's start).
#: At 12^3 a 10 x errtol run stays inside the default path's spread of
#: the P(k) bands, so their loose run is the 2 x dlna_max one
BANDS = {
    **{f"pk_{path}_{band}_a{a:g}": (f"pk_{band}", f"{path}_ref", "dlna_loose", a)
       for path in ("errtol", "dlna") for a in SCALE_FACTORS for band in ("large", "small")},
    **{f"mf_{path}_a{a:g}": ("mf", f"{path}_ref", "dlna_loose", a)
       for path in ("errtol", "dlna") for a in SCALE_FACTORS},
    "li_excess": ("li", "dlna_ref", "dlna_loose", None),
    "momentum": ("momentum", None, "errtol_loose", None),
}

MODES = ("full", "quick")
#: the worst force percentile over errtol, (full, quick): the numpy
#: evaluator's worst of seeds 1 and 13 rounded up by a quarter, measured
#: 0.042 / 0.071 / 0.102 (a = 0.3 and 1) and 0.043 / 0.070 / 0.088 (8^3, a = 0.3)
FORCE_BOUNDS = {"err_p50_over_errtol": (0.053, 0.054), "err_p90_over_errtol": (0.089, 0.088),
                "err_p99_over_errtol": (0.13, 0.11)}
#: the snapshots whose force error is measured: the quick bounds' own
FORCE_AT = {"full": SCALE_FACTORS, "quick": (0.3,)}
#: band bounds, (full, quick): 1.25 x the worst seed, up to two figures
BAND_BOUNDS = {
    "pk_errtol_large_a0.3": (0.0011, 0.00013),  # worst 0.00085, 0.000101
    "pk_errtol_small_a0.3": (0.0014, 9.5e-5),  # 0.00112, 7.55e-5
    "pk_dlna_large_a0.3": (0.0068, 0.0066),  # 0.00536, 0.00526
    "pk_dlna_small_a0.3": (0.0083, 0.0082),  # 0.00664, 0.00654
    "li_excess": (0.76, 0.79),  # 0.604, 0.626
    "momentum": (4.3e-5, 2.2e-5),  # 3.40e-5, 1.75e-5
}
BOUNDS = {mode: {band: pair[i] for band, pair in BAND_BOUNDS.items()}
          for i, mode in enumerate(MODES)}
#: why a band has no bound (numbers of the full run, 12^3)
UNGATED = {
    **dict.fromkeys(("pk_errtol_large_a1", "pk_errtol_small_a1"), "chaotic at a = 1: one seed's "
                    "errtol and errtol / 4 runs differ by up to 8.5 % in a band, as much as 10 x "
                    "errtol moves it (8.4 %); a bound from four seeds fails on any bit change"),
    **dict.fromkeys(("pk_dlna_large_a1", "pk_dlna_small_a1"), "the step has not converged at "
                    "a = 1: 5.4-16 % off dlna_max / 2 (the paper tolerates 2 %; 33-36 of 59-61 "
                    "steps capped at max_refine 2), and a 2 x dlna_max run stays in that spread"),
    **dict.fromkeys((f"mf_{path}_a{a:g}" for path in ("errtol", "dlna") for a in SCALE_FACTORS),
                    "no FOF group of 4 members by a = 0.3; at a = 1, 6-17 a run, and one seed's "
                    "errtol and errtol / 4 runs differ by up to 100 % in a bin"),
}


def config(quick: bool, seed: int, run: str):
    cfg = dataclasses.replace(BASE, seed=seed, track_energy=True, **RUNS[run])
    if quick:
        return dataclasses.replace(cfg, n_per_dim=8, box_mpc_h=BASE.box_mpc_h * 8 / BASE.n_per_dim)
    return cfg


def force_errors(sim, seed: int) -> dict:
    """Error percentiles over errtol of the run's solver and of a 10 x
    errtol one, at the same particles against one Ewald reference."""
    ps, cfg = sim.particles, sim._solver.config
    idx = np.random.default_rng(seed).choice(len(ps), size=min(SAMPLES, len(ps)), replace=False)
    ref = reference_accelerations(ps.pos, ps.mass, idx, periodic=True,
                                  softening=make_softening(cfg.softening, cfg.eps))
    loose = TreecodeGravity(dataclasses.replace(cfg, errtol=LOOSE * cfg.errtol))
    out = {}
    for name, engine in (("", sim._solver), ("loose_", loose)):
        acc = np.asarray(engine.compute(ps.pos, ps.mass).acc, dtype=np.float64)
        err = np.linalg.norm(acc[idx] - ref, axis=1)
        for q, v in zip(PERCENTILES, np.percentile(err, (50, 90, 99)) / cfg.errtol):
            out[f"{name}err_{q}_over_errtol"] = float(v)
    return out


def evolve(cfg, force_at=()) -> dict:
    """One run in legs: P(k) and FOF halo sizes at each snapshot, the
    health monitors' drifts, and the force error at ``force_at``."""
    t0, probe_s, snaps, forces = time.perf_counter(), 0.0, {}, []
    with Simulation(cfg, health=HealthConfig()) as sim:
        for a in SCALE_FACTORS:
            sim.config = dataclasses.replace(sim.config, a_final=a)
            ps = sim.run()
            snaps[f"{a:g}"] = {
                "steps": len(sim.history),
                "power": measure_power(ps.pos, cfg.box_mpc_h, ngrid=2 * cfg.n_per_dim,
                                       subtract_shot_noise=False),
                "halo_sizes": fof_halos(ps.pos, ps.mass, min_members=MIN_MEMBERS).sizes,
            }
            if a in force_at:
                t = time.perf_counter()
                forces.append({"a": a, **force_errors(sim, cfg.seed)})
                probe_s += time.perf_counter() - t
        monitors = sim.health.summary()["monitors"]
    return {"snapshots": snaps, "forces": forces,
            "li_drift": monitors["layzer_irvine"]["max_drift"],
            "momentum_drift": monitors["momentum"]["max_drift"],
            "capped_steps": sim.controller.capped_steps,
            "evolve_s": time.perf_counter() - t0 - probe_s, "probe_s": probe_s}


def power_dev(run, ref, bands: dict) -> dict:
    """``{band: |mean of P_run / P_ref over the band's bins - 1|}``."""
    ratio = run.ratio_to(ref)
    return {name: float(abs(ratio[(run.k >= lo) & (run.k <= hi)].mean() - 1.0))
            for name, (lo, hi) in bands.items()}


def mass_function_dev(sizes, ref_sizes, box: float) -> float:
    """Worst |dn/dlnM of the run / of the reference - 1| over
    :data:`MASS_BINS` bins spanning both runs' halos (in members); a bin
    the reference leaves empty counts as one halo."""
    sizes, ref_sizes = np.asarray(sizes, float), np.asarray(ref_sizes, float)
    if len(sizes) == len(ref_sizes) == 0:
        return 0.0
    top = max(sizes.max(initial=0), ref_sizes.max(initial=0)) * 1.01
    run, ref = (binned_mass_function(s, box, n_bins=MASS_BINS, m_range=(MIN_MEMBERS * 0.99, top))
                for s in (sizes, ref_sizes))
    # the same bins, so the ratio of dn/dlnM is the ratio of the counts
    return float((np.abs(run.counts - ref.counts) / np.maximum(ref.counts, 1)).max())


def band_values(runs: dict, cfg) -> dict:
    """``{band: {run: value}}`` for one seed, on the default and loose runs."""
    def read(run: dict, kind: str, ref: dict, a) -> float:
        if kind == "momentum":
            return run["momentum_drift"]
        if kind == "li":
            return run["li_drift"] - ref["li_drift"]
        snap, ref_snap = run["snapshots"][f"{a:g}"], ref["snapshots"][f"{a:g}"]
        if kind == "mf":
            return mass_function_dev(snap["halo_sizes"], ref_snap["halo_sizes"], cfg.box_mpc_h)
        return power_dev(snap["power"], ref_snap["power"], k_bands(cfg))[kind[3:]]

    return {band: {name: read(runs[name], kind, runs.get(ref), a)
                   for name in ("default", *LOOSE_RUNS)}
            for band, (kind, ref, _loose, a) in BANDS.items()}


def summarize(per_seed: list[dict], force_rows: list[dict], bounds: dict,
              force_bounds: dict) -> tuple:
    """The summary (each reading's worst seed) and its gates: a bound on
    the default run's reading, and ``<band>_loose_fails`` = 1 when the
    loose run's reading breaks it."""
    summary, gates = {}, {}

    def loose_fails(key: str, readings: dict, rules: dict) -> None:
        summary[key] = 1.0 if judge_gates(readings, rules)[0] else 0.0
        gates.update(rules, **{key: {"min": 1.0}})

    summary.update({k: max(r[k] for r in force_rows) for k in force_rows[0] if "err_" in k})
    loose_fails("force_loose_fails", {k: summary[f"loose_{k}"] for k in force_bounds},
                {k: {"max": v} for k, v in force_bounds.items()})
    for band, (_kind, _ref, loose, _a) in BANDS.items():
        summary[band] = max(values[band]["default"] for values in per_seed)
        summary[f"{band}_loose"] = max(values[band][loose] for values in per_seed)
        if band in bounds:
            loose_fails(f"{band}_loose_fails", {band: summary[f"{band}_loose"]},
                        {band: {"max": bounds[band]}})
    return summary, gates


def run(quick: bool) -> dict:
    mode = "quick" if quick else "full"
    per_seed, force_rows, seeds = [], [], []
    for seed in SEEDS:
        runs = {name: evolve(config(quick, seed, name),
                             FORCE_AT[mode] if name == "default" else ()) for name in RUNS}
        per_seed.append(band_values(runs, config(quick, seed, "default")))
        force_rows += [{"seed": seed, **row} for row in runs["default"]["forces"]]
        seeds.append({"seed": seed, "bands": per_seed[-1], "runs": {name: {
            "steps": r["snapshots"]["1"]["steps"],
            "halos": {a: len(s["halo_sizes"]) for a, s in r["snapshots"].items()},
            **{k: v for k, v in r.items() if k not in ("snapshots", "forces")}}
            for name, r in runs.items()}})
        print(f"seed {seed:>2}: " + " ".join(f"{band}={v['default']:.3g}/{v[BANDS[band][2]]:.3g}"
                                              for band, v in per_seed[-1].items()), flush=True)
    force_bounds = {k: pair[MODES.index(mode)] for k, pair in FORCE_BOUNDS.items()}
    summary, gates = summarize(per_seed, force_rows, BOUNDS[mode], force_bounds)
    return {
        "bench": "evolve_gate", "mode": mode, "errtol": BASE.errtol,
        "n_per_dim": config(quick, 0, "default").n_per_dim, "loose_factor": LOOSE,
        "samples_per_snapshot": SAMPLES, "seeds": list(SEEDS), "runs": RUNS,
        "bands": {band: dict(zip(("reads", "reference", "loose", "a"), spec))
                  for band, spec in BANDS.items()},
        "bound_rule": f"1.25 x the worst of seeds {', '.join(map(str, SEEDS))} on the default "
                      "path, measured when the gate was set",
        "ungated": UNGATED, "force_snapshots": force_rows, "per_seed": seeds,
        "summary": summary, "gates": gates,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="8^3 particles")
    ap.add_argument("--out", help="receipt (BENCH_evolve.json; --quick: evolve_gate_quick.json)")
    args = ap.parse_args(argv)
    out = args.out or (Path("evolve_gate_quick.json") if args.quick else OUT_PATH)
    t0 = time.perf_counter()
    doc = run(args.quick)
    doc = emit_bench("evolve_gate", {**doc, "wall_s": time.perf_counter() - t0}, out)
    failed, _ = judge_gates(doc["summary"], doc["gates"])
    print(f"wrote {out} ({doc['wall_s']:.0f} s): "
          + ("failed " + ", ".join(failed) if failed else "every gate holds"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
