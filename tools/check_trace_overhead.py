#!/usr/bin/env python3
"""Hold what the tracer costs a simulation step under 1%, off and on.

One traced 8^3 run says how many spans a step closes (the tracer's own
timers) and how long a step takes; a timing loop says what one span
plus one counter update costs on :data:`~repro.observe.NULL_TRACER`
(the off-switch every untraced run pays) and on a recording
:class:`~repro.observe.Tracer` that streams its spans to a sink (a
``run_stage --trace`` run, the dearest enabled path).  Each cost times
the spans per step, over the mean step wall, must stay under 1%.  Run
by the CI observatory job and by ``tests/test_observe.py``::

    PYTHONPATH=src python tools/check_trace_overhead.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.observe import NULL_TRACER, Tracer
from repro.simulation import Simulation, SimulationConfig

#: share of a step the tracer may cost, on either path
BOUND = 0.01

#: span + count pairs per timing loop
ITERS = 20_000


def traced_steps() -> tuple[float, float]:
    """Spans closed per step and mean step seconds of a traced 8^3 run."""
    cfg = SimulationConfig(n_per_dim=8, box_mpc_h=50.0, a_init=0.1, a_final=0.14,
                           errtol=1e-3, p=2, max_refine=1, seed=2)
    tr = Tracer()
    with Simulation(cfg, tracer=tr) as sim:
        sim.run()
    steps = len(sim.history)
    spans = sum(calls for path, (_, calls) in tr.timers.items()
                if path == "step" or path.startswith("step/"))
    return spans / steps, sim.run_totals["step_wall_s"] / steps


def op_seconds(tracer) -> float:
    """Seconds of one span closure plus one counter update on ``tracer``."""
    t0 = time.perf_counter()
    for _ in range(ITERS):
        with tracer.span("op"):
            tracer.count("op")
    return (time.perf_counter() - t0) / ITERS


def measure() -> dict:
    spans, step_s = traced_steps()
    with tempfile.TemporaryDirectory() as tmp:
        tr = Tracer(sink=Path(tmp) / "trace.jsonl")
        enabled = op_seconds(tr)
        tr.close()
    disabled = op_seconds(NULL_TRACER)
    return {
        "spans_per_step": spans,
        "step_s": step_s,
        "disabled_op_s": disabled,
        "enabled_op_s": enabled,
        "disabled_frac": disabled * spans / step_s,
        "enabled_frac": enabled * spans / step_s,
    }


def main() -> int:
    m = measure()
    print(f"{m['spans_per_step']:.1f} spans a step of {m['step_s'] * 1e3:.1f} ms")
    failed = []
    for path in ("disabled", "enabled"):
        frac = m[f"{path}_frac"]
        print(f"{path:>8}: {m[f'{path}_op_s'] * 1e6:.2f} us a span, "
              f"{frac:.2e} of a step (bound {BOUND:.0e})")
        if frac >= BOUND:
            failed.append(path)
    for path in failed:
        print(f"{path}-path tracer overhead is over {BOUND:.0%} of a step",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
