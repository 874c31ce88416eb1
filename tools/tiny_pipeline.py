#!/usr/bin/env python3
"""Write the stage configs of the tiny pipeline the CI end-to-end jobs run::

    PYTHONPATH=src python tools/tiny_pipeline.py NAME

writes ``NAME/NAME_{ic,evolve,analysis}.json`` and ``NAME/NAME.sh``: an
8^3 box of 40 Mpc/h evolved z = 9 -> 6 at errtol 1e-3 and order 2, with
one snapshot at z = 6 and no analysis tasks.  Run the stages with
``python -m repro.pipeline.run_stage NAME/NAME_ic.json`` and then
``NAME/NAME_evolve.json``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.pipeline import PipelineSpec


def tiny_spec(name: str) -> PipelineSpec:
    return PipelineSpec(
        name=name, n_per_dim=8, box_mpc_h=40.0,
        z_init=9.0, z_final=6.0, errtol=1e-3, p_order=2,
        snapshots_z=(6.0,), analysis=(),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("name", help="pipeline name, also the directory written")
    args = ap.parse_args(argv)
    for path in tiny_spec(args.name).write(Path(args.name)):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
