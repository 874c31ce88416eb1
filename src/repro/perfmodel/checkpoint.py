"""Checkpoint-interval optimization (paper §3.4.2).

"For the production simulations described here, we experience a
hardware failure which ends the job about every million CPU hours (80
wallclock hours on 12288 CPUs).  Writing a 69 billion particle file
takes about 6 minutes, so checkpointing every 4 hours with an expected
failure every 80 hours costs 2 hours in I/O and saves 4-8 hours of
re-computation."

This module implements the expected-waste model behind that paragraph
(the classic Young/Daly first-order analysis) and an exact-ish
discrete-event simulation of a failing run, used to verify the
analytic optimum and regenerate the paper's numbers.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["optimal_interval", "expected_overhead", "simulate_run"]


def expected_overhead(interval_h: float, write_h: float, mtbf_h: float) -> float:
    """Fractional time lost to checkpoint writes + re-computation.

    First-order model: writes cost write/interval of the time; a
    failure (rate 1/MTBF) loses on average half an interval plus the
    restart; total waste fraction ~ write/interval + (interval/2 +
    write)/MTBF.
    """
    if interval_h <= 0:
        raise ValueError("interval must be positive")
    return write_h / interval_h + (interval_h / 2.0 + write_h) / mtbf_h


def optimal_interval(write_h: float, mtbf_h: float) -> float:
    """Young's formula: tau* = sqrt(2 * write * MTBF)."""
    return math.sqrt(2.0 * write_h * mtbf_h)


#: wall-hour cap of :func:`simulate_run`, in case failures outpace progress
_MAX_WALL_H = 1e5


def simulate_run(
    work_h: float,
    interval_h: float,
    write_h: float,
    mtbf_h: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Simulate a run with exponential failures; returns total wall hours.

    Progress is only durable at checkpoints; a failure rolls back to
    the last one.  Used to validate :func:`expected_overhead` and the
    paper's 'checkpoint every 4 hours' choice.
    """
    rng = rng or np.random.default_rng(0)
    done = 0.0  # durable progress
    wall = 0.0
    since_ckpt = 0.0
    next_failure = rng.exponential(mtbf_h)
    while done < work_h and wall < _MAX_WALL_H:
        # next event: finish segment, checkpoint, or failure
        seg_end = min(interval_h - since_ckpt, work_h - done - since_ckpt + 1e-12)
        # time until either the segment ends (then we checkpoint) or failure
        if wall + seg_end <= next_failure:
            wall += seg_end
            since_ckpt += seg_end
            # checkpoint (also covers the final segment's save)
            if wall + write_h <= next_failure:
                wall += write_h
                done += since_ckpt
                since_ckpt = 0.0
            else:
                # failure during the write: lose the segment
                wall = next_failure
                since_ckpt = 0.0
                next_failure = wall + rng.exponential(mtbf_h)
        else:
            # failure mid-segment: lose progress since last checkpoint
            wall = next_failure
            since_ckpt = 0.0
            next_failure = wall + rng.exponential(mtbf_h)
    return wall
