"""The host's pace: how long a fixed numpy kernel mix takes right now.

The benchmark's host is a few cores of a shared machine whose speed
moves by 30-40% in episodes of seconds to minutes (a neighbour on the
core's caches: all user time, no steal, no page faults), which is wider
than any bound a step time could be held to.  The kernels below are the
benchmark's own and never change with the program, so the time they
take, sampled between the program's steps, says how fast the host was
while the steps ran.  ``run.py`` reports its times at the reference
pace, ``wall * REFERENCE_S / pace``, and keeps the raw walls and every
pace sample in the record.
"""

from __future__ import annotations

import os
import struct
import time

import numpy as np

#: what :func:`sample` takes on the reference host in a quiet spell; times
#: "at the reference pace" are in seconds of that host
REFERENCE_S = 0.125

_ROWS, _SOURCES, _SINKS = 131072, 4096, 2744
_state: dict = {}


def _arrays() -> dict:
    if not _state:
        rng = np.random.default_rng(0)
        _state.update(
            idx=rng.integers(0, _SOURCES, _ROWS),
            src=rng.random((_SOURCES, 3), dtype=np.float32),
            snk=rng.random((_ROWS, 3), dtype=np.float32),
            seg=np.sort(rng.integers(0, _SINKS, _ROWS)),
            tile=rng.random((8192, 8), dtype=np.float32) + 1.0,
        )
    return _state


def sample(samplers: int = 1) -> float:
    """Seconds the fixed mix takes, as the mean over ``samplers`` running at once.

    A workload that keeps two cores busy is paced by two samplers, one of
    them a forked child that is waited for before this returns: the cores'
    speeds move separately, and one sampler sees only the core it lands on.
    """
    a = _arrays()
    children = []
    for _ in range(samplers - 1):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.write(w, struct.pack("d", _mix(a)))
            finally:
                os._exit(0)
        os.close(w)
        children.append((pid, r))
    times = [_mix(a)]
    for pid, r in children:
        data = os.read(r, 8)
        os.close(r)
        os.waitpid(pid, 0)
        times.append(struct.unpack("d", data)[0])
    return sum(times) / len(times)


def _mix(a: dict) -> float:
    _passes(a, 1, 15)  # untimed: a fresh or forked process faults its pages in
    t0 = time.perf_counter()
    _passes(a, 16, 240)
    return time.perf_counter() - t0


def _passes(a: dict, rows: int, tiles: int) -> None:
    """A gather / inverse-cube / segment-sum pass over memory-sized rows (what
    the pp and prism evaluators do) and a polynomial pass over a cache-sized
    tile (what the cell recurrence does)."""
    for _ in range(rows):
        d = a["snk"] - a["src"][a["idx"]]
        inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", d, d) + np.float32(1e-4))
        f = d * (inv * inv * inv)[:, None]
        for k in range(3):
            np.bincount(a["seg"], weights=f[:, k], minlength=_SINKS)
    x = a["tile"]
    for _ in range(tiles):
        y = x * x
        y += x
        y *= x
        np.sqrt(y, out=y)
        y /= x
        y.sum(axis=1)
