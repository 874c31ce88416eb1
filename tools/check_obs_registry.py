#!/usr/bin/env python3
"""Check the run registry of two observed evolve runs of one pipeline::

    REPRO_OBS_DIR=NAME/obs python -m repro.pipeline.run_stage NAME/NAME_ic.json
    REPRO_OBS_DIR=NAME/obs python -m repro.pipeline.run_stage NAME/NAME_evolve.json --workers 2
    REPRO_OBS_DIR=NAME/obs REPRO_OBS_PROFILE=1 python -m repro.pipeline.run_stage \\
        NAME/NAME_evolve.json --workers 2
    PYTHONPATH=src python tools/check_obs_registry.py NAME/obs

Exits 1, naming each failed check, unless the registry holds the two
``simulation_run`` records under one key and the three
``pipeline_stage`` records, the second run carries its worker timeline
and its profile, and each run its stage seconds and hottest spans.
"""

from __future__ import annotations

import argparse
import sys

from repro.observe import RunRegistry


def problems(reg: RunRegistry) -> list[str]:
    """Every failed check of the registry; empty when it holds the two runs."""
    runs = reg.records(kind="simulation_run")
    if len(runs) != 2:
        return [f"expected 2 recorded runs, got {len(runs)}"]
    out = []
    if not (runs[0]["key"] and runs[0]["key"] == runs[1]["key"]):
        out.append("runs of one configuration must share the registry key")
    stages = reg.records(kind="pipeline_stage")
    if len(stages) != 3:
        out.append(f"expected 3 stage records, got {len(stages)}")
    if not runs[1]["data"].get("timeline"):
        out.append("workers=2 run carries no timeline")
    for run in runs:
        if not sum(run["data"]["stage_seconds"].values()) > 0:
            out.append("no stage seconds")
        if not run["data"].get("top_spans"):
            out.append("no top spans")
    if "step" not in (runs[1]["data"].get("profile") or {}).get("stages", {}):
        out.append("profiled run has no profile")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", help="the run registry's directory (REPRO_OBS_DIR)")
    args = ap.parse_args(argv)
    reg = RunRegistry(args.dir)
    found = problems(reg)
    for problem in found:
        print(problem, file=sys.stderr)
    if found:
        return 1
    print("registry ok:", len(reg.records()), "records")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
