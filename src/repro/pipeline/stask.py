"""stask — the in-allocation task queue (paper §3.4.1).

"We have developed an additional Python tool called stask.  It allows
us to maintain a queue inside a larger PBS or Moab allocation which
can perform multiple smaller simulations or data analysis tasks ...
tens of thousands of independent tasks for MapReduce style jobs."

This is a functioning simulation-time scheduler: tasks declare core
counts and durations, the allocation has a fixed width and walltime,
tasks are packed greedily (largest-first by default) with optional
dependencies, and preemption honours the paper's requested courtesy —
a signal at least ``preempt_notice_s`` before eviction so the task can
checkpoint.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

__all__ = ["Task", "Allocation", "STaskQueue", "map_reduce"]


@dataclass
class Task:
    """One unit of work inside the allocation."""

    name: str
    cores: int
    duration_s: float
    depends_on: tuple = ()
    #: wall seconds of warning required before preemption (§3.4.1: "at
    #: least 600 seconds in advance")
    preempt_notice_s: float = 0.0
    # filled by the scheduler
    start_s: float | None = field(init=False, default=None)
    end_s: float | None = field(init=False, default=None)
    preempted: bool = field(init=False, default=False)

    @property
    def done(self) -> bool:
        return self.end_s is not None and not self.preempted


@dataclass
class Allocation:
    """A PBS/Moab-style reservation: fixed cores for a fixed walltime."""

    cores: int
    walltime_s: float


class STaskQueue:
    """Greedy backfilling scheduler over one allocation."""

    def __init__(self, allocation: Allocation):
        self.allocation = allocation
        self.tasks: list[Task] = []
        self.events: list[tuple[float, str, str]] = []  # (time, kind, task)

    def submit(self, task: Task) -> None:
        if task.cores > self.allocation.cores:
            raise ValueError(
                f"task {task.name!r} needs {task.cores} cores, allocation has "
                f"{self.allocation.cores}"
            )
        self.tasks.append(task)

    def run(self) -> dict:
        """Schedule everything; returns utilization statistics.

        Event-driven simulation: at each completion, start every
        pending task whose dependencies are met and whose cores fit,
        largest-core first (reduces fragmentation).  Tasks that cannot
        finish before the walltime are started only if they can absorb
        a preemption signal (their notice window fits); they end
        preempted at walltime.
        """
        alloc = self.allocation
        free = alloc.cores
        now = 0.0
        running: list[tuple[float, int, Task]] = []  # (end, seq, task)
        seq = itertools.count()
        done_names: set[str] = set()
        pending = list(self.tasks)

        def try_start():
            nonlocal free
            started = True
            while started:
                started = False
                ready = [
                    t
                    for t in pending
                    if all(d in done_names for d in t.depends_on) and t.cores <= free
                ]
                ready.sort(key=lambda t: (-t.cores, t.duration_s))
                for t in ready:
                    end = now + t.duration_s
                    if end > alloc.walltime_s:
                        # would be preempted: only run if the notice window
                        # fits before the walltime
                        if now + t.preempt_notice_s >= alloc.walltime_s:
                            continue
                        t.preempted = True
                        end = alloc.walltime_s
                    t.start_s = now
                    t.end_s = end
                    free -= t.cores
                    heapq.heappush(running, (end, next(seq), t))
                    pending.remove(t)
                    self.events.append((now, "start", t.name))
                    started = True
                    break

        try_start()
        while running:
            end, _, t = heapq.heappop(running)
            now = end
            free += t.cores
            if not t.preempted:
                done_names.add(t.name)
            self.events.append((now, "end", t.name))
            try_start()

        # tasks that never started split into two very different stories:
        # *unstarted* (resources/walltime ran out — rerunnable as-is) vs
        # *blocked* (a dependency was preempted or itself never ran, so
        # no amount of walltime would have helped).  Folding both into
        # one count hid dependency deadlocks; report them separately and
        # emit a "blocked" event per task so the timeline shows why.
        blocked: set[str] = set()
        changed = True
        while changed:
            changed = False
            for t in self.tasks:
                if t.start_s is not None or t.name in blocked:
                    continue
                for d in t.depends_on:
                    dep = next((x for x in self.tasks if x.name == d), None)
                    if (
                        dep is None
                        or dep.preempted
                        or dep.start_s is None
                        or d in blocked
                    ):
                        blocked.add(t.name)
                        changed = True
                        break
        for name in sorted(blocked):
            self.events.append((now, "blocked", name))

        used_core_s = sum(
            (t.end_s - t.start_s) * t.cores for t in self.tasks if t.start_s is not None
        )
        span = max((t.end_s for t in self.tasks if t.end_s is not None), default=0.0)
        return {
            "utilization": used_core_s / (alloc.cores * max(span, 1e-12)),
            "makespan_s": span,
            "completed": sum(t.done for t in self.tasks),
            "preempted": sum(t.preempted for t in self.tasks),
            "blocked": len(blocked),
            "unstarted": sum(
                t.start_s is None and t.name not in blocked for t in self.tasks
            ),
        }


def map_reduce(
    queue: STaskQueue,
    n_map: int,
    map_cores: int,
    map_duration_s: float,
    reduce_cores: int,
    reduce_duration_s: float,
) -> list[Task]:
    """Submit a MapReduce-style fan-out/fan-in (the paper's power-spectrum
    grids and MCMC analyses): n_map independent maps, one reduce
    depending on all of them."""
    maps = [
        Task(name=f"map{i}", cores=map_cores, duration_s=map_duration_s)
        for i in range(n_map)
    ]
    for t in maps:
        queue.submit(t)
    red = Task(
        name="reduce",
        cores=reduce_cores,
        duration_s=reduce_duration_s,
        depends_on=tuple(t.name for t in maps),
    )
    queue.submit(red)
    return maps + [red]
