#!/usr/bin/env python3
"""Check the trace of a fault-injected evolve stage: the killed worker
was recovered and the stage still finished::

    REPRO_FAULTS=kill:shard=0,epoch=2 python -m repro.pipeline.run_stage \\
        NAME/NAME_evolve.json --workers 2 --trace NAME/trace.jsonl
    PYTHONPATH=src python tools/check_fault_trace.py NAME/trace.jsonl

Exits 1, naming what is missing, unless the trace holds an
``executor_recovery`` record of kind ``worker_death`` and the evolve
stage's ``pipeline_stage`` record.
"""

from __future__ import annotations

import argparse
import sys

from repro.observe import read_jsonl


def problems(records: list[dict]) -> list[str]:
    """What the trace lacks; empty when the recovery and the stage are there."""
    kinds = [r["kind"] for r in records if r["type"] == "executor_recovery"]
    out = []
    if "worker_death" not in kinds:
        out.append(f"no worker_death recovery in {kinds}")
    if not any(r["type"] == "pipeline_stage" and r["stage"] == "evolve" for r in records):
        out.append("evolve stage did not complete")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="JSONL trace of the fault-injected evolve stage")
    args = ap.parse_args(argv)
    records = read_jsonl(args.trace)
    found = problems(records)
    for problem in found:
        print(problem, file=sys.stderr)
    if found:
        return 1
    print("recovered:", [r["kind"] for r in records if r["type"] == "executor_recovery"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
