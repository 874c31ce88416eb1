#!/usr/bin/env python3
"""Corrupt the newest checkpoint of a store and check that restoring falls
back to the one before it::

    PYTHONPATH=src python tools/check_checkpoint_fallback.py NAME/checkpoints

Flips one byte deep in the newest checkpoint's column data, then exits
1, naming what failed, unless the store holds at least two checkpoints,
``latest_valid`` returns the second newest and records the newest as
skipped.  The corruption is left in place for the resume that follows.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.resilience import CheckpointStore


def corrupt_newest(store: CheckpointStore) -> list[str]:
    """Flip a byte of the newest checkpoint; the failed checks after it."""
    cks = store.list()
    if len(cks) < 2:
        return [f"need >= 2 checkpoints, have {cks}"]
    with open(cks[-1], "r+b") as f:
        f.seek(-10, os.SEEK_END)
        b = f.read(1)
        f.seek(-10, os.SEEK_END)
        f.write(bytes([b[0] ^ 0xFF]))
    path, _, _ = store.latest_valid()
    out = []
    if path != cks[-2]:
        out.append(f"expected fallback to {cks[-2]}, got {path}")
    if not (store.skipped and store.skipped[0][0] == cks[-1]):
        out.append(f"newest checkpoint {cks[-1]} not recorded as skipped: {store.skipped}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", help="the checkpoint store of a finished evolve stage")
    args = ap.parse_args(argv)
    store = CheckpointStore(args.directory)
    cks = store.list()
    found = corrupt_newest(store)
    for problem in found:
        print(problem, file=sys.stderr)
    if found:
        return 1
    print("fell back:", cks[-1].name, "->", cks[-2].name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
