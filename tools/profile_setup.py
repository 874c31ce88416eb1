#!/usr/bin/env python3
"""Where the whole-step benchmark's registered set-up (``setup_s``) goes.

    python3 tools/profile_setup.py --workload early_hier [--seed 1]

Runs ``benchmarks/step/run.py``'s own ``set_up`` — imported, not copied —
in this one fresh process and prints its wall as rows of self time:

    interpreter + numpy   the harness's standard-library imports, numpy
    scipy / repro         imports, by the package that owns the module
    input generation      ``workloads.make_inputs`` (full size and 8^3 clone)
    Simulation(...)       the two constructors
    lattice expansion     ``PeriodicLocalExpansion(...)``: the lattice sums
    first solve, rest     the clone's ``run(max_steps=0)`` without the above
    worker pool           ``ForceExecutor``: spawn and close

Every span sits on one stack and a span's self time is its duration
minus its children's, so an import that runs inside a stage (a
function-level ``from ..perfmodel import``) counts as import, not as the
stage.  Modules are imported in ``set_up``'s order (``pace``,
``workloads``, ``repro.simulation``) just before it runs, so that their
entry points can be wrapped; the process pays for each import once either
way.  The pace samples are outside ``set_up``'s wall and outside the rows.

The last two lines say whether the set-up loaded ``repro.parallel`` and
``scipy.integrate``.  Only a workload with a worker pool needs the first,
and this tool imports the pool's module only for such a workload.  Only
2LPT initial conditions (``generate_ic``: the growth ODE and the σ8
normalisation) need the second; the drift and kick factors do not.

Exits non-zero when more than 5% of the wall is in no row, when the
lattice expansion evaluated more than 92 lattice vectors
(``derivative_tensors`` rows) or 164 wave vectors (``powers`` rows): the
cubic group's fundamental wedge for the default geometry, or when the
set-up loaded ``scipy.integrate`` without calling ``generate_ic``.
Counts and imports only; there is no gate on the times.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import functools
import importlib.util
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEP = ROOT / "benchmarks" / "step"

IMPORT_ROWS = {"numpy": "interpreter + numpy", "scipy": "scipy import", "repro": "repro import"}
ROWS = (
    "interpreter + numpy", "scipy import", "repro import", "input generation",
    "Simulation(...)", "lattice expansion", "first solve, rest", "worker pool",
)
EXCLUDED = "pace sample"  # run.py keeps these out of the set-up's wall

MAX_UNATTRIBUTED = 0.05
MAX_LATTICE_VECTORS = 92
MAX_WAVE_VECTORS = 164


class SelfTimes:
    """Named spans on one stack; ``seconds[name]`` sums the spans' self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.seconds: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, seconds spent in children]

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            took = self.clock() - frame[1]
            self.seconds[name] = self.seconds.get(name, 0.0) + took - frame[2]
            if self._stack:
                self._stack[-1][2] += took

    @property
    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by itself inside a span called ``name``."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, attr, spanned)


def time_imports(times: SelfTimes):
    """Span every ``import`` by the package that owns the module; returns the undo.

    A module of numpy, scipy or repro opens that package's row; anything
    else (the standard library) stays with whatever imported it, or with
    ``interpreter + numpy`` at the top level.
    """
    plain = builtins.__import__

    def spanned(name, globals=None, locals=None, fromlist=(), level=0):
        owner = ((globals or {}).get("__package__") or "") if level else name
        row = IMPORT_ROWS.get(owner.split(".")[0]) or times.current or ROWS[0]
        with times.span(row):
            return plain(name, globals, locals, fromlist, level)

    builtins.__import__ = spanned
    return lambda: setattr(builtins, "__import__", plain)


def failures(rows: dict[str, float], wall: float, lattice_vectors: int, wave_vectors: int,
             integrate_loaded: bool = False, generated_ic: bool = False) -> list[str]:
    """What the gate objects to; empty when the profile passes."""
    out = []
    unattributed = wall - sum(rows.values())
    if unattributed > MAX_UNATTRIBUTED * wall:
        out.append(f"{unattributed:.3f} s of the {wall:.3f} s set-up "
                   f"({unattributed / wall:.1%}) is in no row (limit {MAX_UNATTRIBUTED:.0%})")
    if lattice_vectors > MAX_LATTICE_VECTORS:
        out.append(f"{lattice_vectors} lattice vectors through derivative_tensors "
                   f"(limit {MAX_LATTICE_VECTORS})")
    if wave_vectors > MAX_WAVE_VECTORS:
        out.append(f"{wave_vectors} wave vectors through powers (limit {MAX_WAVE_VECTORS})")
    if integrate_loaded and not generated_ic:
        out.append("scipy.integrate loaded by a set-up that generated no initial conditions")
    return out


def profile(workload: str, seed: int) -> dict:
    """Run the registered set-up of ``workload`` once, spanned; the rows and counts."""
    times = SelfTimes()
    undo = time_imports(times)
    try:
        # run.py stamps its _PROCESS_START as it starts executing: the wall
        # starts there, after the compilation a script's start does not time
        spec = importlib.util.spec_from_file_location("step_run", STEP / "run.py")
        run = importlib.util.module_from_spec(spec)
        code = spec.loader.get_code(spec.name)
        with times.span(ROWS[0]):
            exec(code, run.__dict__)
        run._enter_checkout()

        import pace
        import workloads as W
        import repro.simulation
        from repro.gravity import periodic
        from repro.multipoles.multiindex import MultiIndexSet
        from repro.simulation import Simulation

        if workload not in W.WORKLOADS:
            sys.exit(f"profile_setup.py: unknown workload {workload!r}; choose from {list(W.WORKLOADS)}")
        times.wrap(pace, "sample", EXCLUDED)
        times.wrap(W, "make_inputs", "input generation")
        times.wrap(Simulation, "__init__", "Simulation(...)")
        times.wrap(Simulation, "run", "first solve, rest")
        times.wrap(periodic.PeriodicLocalExpansion, "__init__", "lattice expansion")
        if W.WORKLOADS[workload].overrides.get("workers"):
            from repro.parallel.executor import ForceExecutor

            times.wrap(ForceExecutor, "__init__", "worker pool")
            times.wrap(ForceExecutor, "close", "worker pool")

        counts = {"lattice_vectors": 0, "wave_vectors": 0}

        def counted(owner, attr, key, rows_of):
            inner = getattr(owner, attr)

            @functools.wraps(inner)
            def counting(*args, **kwargs):
                if times.current == "lattice expansion":
                    counts[key] += len(rows_of(args))
                return inner(*args, **kwargs)

            setattr(owner, attr, counting)

        counted(periodic, "derivative_tensors", "lattice_vectors", lambda a: a[0])
        counted(MultiIndexSet, "powers", "wave_vectors", lambda a: a[1])

        generated = []  # workloads.make_inputs reads generate_ic off the package
        plain_ic = repro.simulation.generate_ic

        @functools.wraps(plain_ic)
        def generate_ic(*args, **kwargs):
            generated.append(True)
            return plain_ic(*args, **kwargs)

        repro.simulation.generate_ic = generate_ic

        try:
            sim, setup = run.set_up(W.WORKLOADS[workload], seed, quick=False)
            sim.close()
        finally:
            run.stop_children()  # pool workers, the pace sampler, the resource tracker
    finally:
        undo()
    rows = {name: times.seconds.get(name, 0.0) for name in ROWS}
    return {
        "workload": workload,
        "seed": seed,
        "wall": setup["wall"],
        "setup_s": run.at_reference_pace(**setup),
        "rows": rows,
        "parallel_loaded": "repro.parallel" in sys.modules,
        "integrate_loaded": "scipy.integrate" in sys.modules,
        "generated_ic": bool(generated),
        **counts,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    doc = profile(args.workload, args.seed)
    wall = doc["wall"]
    print(f"{doc['workload']}  seed {doc['seed']}  set-up wall {wall:.3f} s "
          f"({doc['setup_s']:.3f} s at the reference pace)")
    for name, seconds in doc["rows"].items():
        print(f"  {name:<22} {seconds:8.3f} s  {seconds / wall:6.1%}")
    unattributed = wall - sum(doc["rows"].values())
    print(f"  {'(in no row)':<22} {unattributed:8.3f} s  {unattributed / wall:6.1%}")
    print(f"  lattice vectors {doc['lattice_vectors']}  wave vectors {doc['wave_vectors']}")
    print(f"  repro.parallel loaded: {'yes' if doc['parallel_loaded'] else 'no'}")
    print(f"  scipy.integrate loaded: {'yes' if doc['integrate_loaded'] else 'no'}")
    bad = failures(doc["rows"], wall, doc["lattice_vectors"], doc["wave_vectors"],
                   doc["integrate_loaded"], doc["generated_ic"])
    for line in bad:
        print(f"profile_setup.py: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
