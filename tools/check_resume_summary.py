#!/usr/bin/env python3
"""Check the summary line of a resumed evolve stage::

    python -m repro.pipeline.run_stage NAME/NAME_evolve.json --resume \\
        --checkpoint-every 1 > NAME/resume.json
    PYTHONPATH=src python tools/check_resume_summary.py NAME/resume.json

Exits 1, naming what is missing, unless the stage's last output line is
a summary that says where it resumed from and lists the snapshots it
wrote after resuming.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def problems(summary: dict) -> list[str]:
    """What the summary lacks; empty for a resumed stage that wrote snapshots."""
    if not summary.get("resumed_from"):
        return [f"did not resume: {summary}"]
    if not summary.get("snapshots"):
        return ["no snapshot rewritten after resume"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("output", help="stdout of the resumed evolve stage")
    args = ap.parse_args(argv)
    summary = json.loads(Path(args.output).read_text().splitlines()[-1])
    found = problems(summary)
    for problem in found:
        print(problem, file=sys.stderr)
    if found:
        return 1
    print("resumed from", summary["resumed_from"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
