"""Shared helpers for the table/figure benchmarks.

Simulation-backed benchmarks (Figs. 7 and 8) are expensive, so results
are cached on disk keyed by the configuration; re-running the bench
suite reuses them.  Sizes default to laptop scale and grow with::

    REPRO_BENCH_N      particles per dimension (default 12)
    REPRO_BENCH_FULL   set to 1 for the larger, slower configuration

Every benchmark prints the rows/series it regenerates so the tee'd
bench log doubles as the measured side of EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.observe import Tracer, get_tracer
from repro.observe.report import force_stage_totals
from repro.simulation import Simulation, SimulationConfig

CACHE_DIR = Path(__file__).parent / "_cache"

BENCH_N = int(os.environ.get("REPRO_BENCH_N", "12"))
FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: version of the shared receipt envelope written by :func:`emit_bench`
BENCH_SCHEMA_VERSION = 1

#: receipt fields that identify a bench configuration (the registry key)
_BENCH_IDENT_FIELDS = ("bench", "type", "mode", "n_particles", "n_max", "errtol")


def emit_bench(name: str, doc: dict, path) -> dict:
    """Stamp and write one benchmark receipt; register the emission.

    The single exit point for ``BENCH_*.json``: adds the schema version
    and the one provenance stamp (:func:`repro.observe.manifest.provenance`:
    host info, cpu count, git commit, timestamp) to ``doc``, writes it to
    ``path``, and — when the process-wide tracer has a run registry
    (``REPRO_OBS_DIR``) — appends the emission to it keyed by a hash of
    the receipt's identifying fields, so overwritten snapshots still
    accumulate a trajectory.
    Returns the stamped document.
    """
    from repro.observe.manifest import config_hash, provenance
    from repro.observe.registry import KIND_BENCH

    stamp = provenance()
    doc = dict(doc)
    doc.setdefault("bench", name)
    doc["bench_schema"] = BENCH_SCHEMA_VERSION
    doc["host"] = {
        "hostname": stamp["hostname"],
        "platform": stamp["platform"],
        "machine": stamp["machine"],
        "python": stamp["python"].split()[0],
    }
    for field in ("cpu_count", "git_commit", "created_unix", "created"):
        doc[field] = stamp[field]
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n")
    ident = {k: doc[k] for k in _BENCH_IDENT_FIELDS if k in doc}
    get_tracer().record(KIND_BENCH, doc, key=config_hash(ident))
    return doc


def config_key(cfg: SimulationConfig) -> str:
    payload = {
        k: (v.name if hasattr(v, "name") and k == "cosmology" else v)
        for k, v in cfg.__dict__.items()
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_cached(cfg: SimulationConfig) -> dict:
    """Run (or load) a simulation; returns dict with pos, history summary.

    Fresh runs execute under their own :class:`repro.observe.Tracer`,
    so the cache carries the per-stage force breakdown (``stage_seconds``)
    and run totals alongside the particle data; the tracer files the run
    in the registry ``REPRO_OBS_DIR`` names, as the default tracer would.
    """
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"sim_{config_key(cfg)}.npz"
    if path.exists():
        data = np.load(path, allow_pickle=False)
        out = {
            "pos": data["pos"],
            "mass": data["mass"],
            "a_final": float(data["a_final"]),
            "steps": int(data["steps"]),
            "interactions_per_particle": float(data["ipp"]),
        }
        if "metrics_json" in data.files:
            meta = json.loads(str(data["metrics_json"]))
            out.update(meta)
        return out
    env = get_tracer()
    tracer = Tracer(registry=env.registry, profile=env.profile)
    sim = Simulation(cfg, tracer=tracer)
    ps = sim.run()
    ipp = float(
        np.mean([r.interactions_per_particle for r in sim.history])
        if sim.history
        else 0.0
    )
    stage = force_stage_totals(tracer.stage_times())
    meta = {
        "stage_seconds": stage,
        "run_totals": sim.run_totals,
        "counters": tracer.counters,
    }
    np.savez_compressed(
        path,
        pos=ps.pos,
        mass=ps.mass,
        a_final=ps.a,
        steps=len(sim.history),
        ipp=ipp,
        metrics_json=json.dumps(meta),
    )
    return {
        "pos": ps.pos,
        "mass": ps.mass,
        "a_final": ps.a,
        "steps": len(sim.history),
        "interactions_per_particle": ipp,
        **meta,
    }


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))


def _fmt(v) -> str:
    if isinstance(v, float):
        if v != 0 and (abs(v) < 1e-3 or abs(v) >= 1e5):
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)
