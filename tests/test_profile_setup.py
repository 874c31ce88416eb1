"""``tools/profile_setup.py``: the self-time arithmetic, the gate, and one real set-up."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "profile_setup.py"
spec = importlib.util.spec_from_file_location("profile_setup", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def test_self_times_sum_to_the_outermost_spans():
    now = [0.0]
    times = tool.SelfTimes(clock=lambda: now[0])

    def spend(seconds):
        now[0] += seconds

    with times.span("solve"):
        spend(1.0)
        with times.span("lattice"):
            spend(0.25)
            with times.span("import"):
                spend(0.5)
        assert times.current == "solve"
        with times.span("import"):
            spend(0.125)
        spend(2.0)
    assert times.current is None
    assert times.seconds == {"solve": 3.0, "lattice": 0.25, "import": 0.625}
    assert sum(times.seconds.values()) == now[0]


def test_wrap_spans_the_call_and_passes_everything_through():
    now = [0.0]
    times = tool.SelfTimes(clock=lambda: now[0])

    class Stage:
        def work(self, x, scale=1):
            now[0] += 2.0
            return x * scale

    times.wrap(Stage, "work", "stage")
    assert Stage().work(3, scale=2) == 6 and Stage.work.__name__ == "work"
    assert times.seconds == {"stage": 2.0}


def test_gate_is_on_unattributed_time_and_on_the_two_counts():
    rows = {"a": 0.6, "b": 0.36}
    assert tool.failures(rows, 1.0, 92, 164) == []
    assert tool.failures(rows, 0.9, 86, 164) == []  # rows may overlap the wall's edge
    assert len(tool.failures(rows, 1.02, 92, 164)) == 1
    assert "2320 lattice vectors" in tool.failures(rows, 1.0, 2320, 164)[0]
    assert "4912 wave vectors" in tool.failures(rows, 1.0, 92, 4912)[0]
    assert len(tool.failures(rows, 1.2, 93, 165)) == 3
    assert tool.failures(rows, 1.0, 92, 164, integrate_loaded=True, generated_ic=True) == []
    stray = tool.failures(rows, 1.0, 92, 164, integrate_loaded=True, generated_ic=False)
    assert stray == ["scipy.integrate loaded by a set-up that generated no initial conditions"]


def _passes_the_gate(workload: str) -> str:
    """Run the tool on one registered set-up; its stdout, once it exits 0."""
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    for row in tool.ROWS:
        assert f"  {row} " in done.stdout
    assert "lattice vectors 86  wave vectors 164" in done.stdout
    assert "repro.parallel loaded: no" in done.stdout
    return done.stdout


def test_the_registered_set_up_of_early_hier_passes_the_gate():
    """One real run, in a fresh process as the benchmark's set-ups are:
    every row printed, at most 5% of the wall outside them, and the
    lattice sums over the wedge (83 + 3 lattice vectors for the default
    config's ws = 1, 164 wave vectors); a serial set-up never loads the
    worker pool's package.  The early inputs' 2LPT initial conditions
    load scipy.integrate."""
    assert "scipy.integrate loaded: yes" in _passes_the_gate("early_hier")


def test_the_registered_set_up_of_clustered_hier_loads_no_scipy_integrate():
    """Inputs that are not generated leave scipy.integrate unloaded: the
    drift and kick factors do not need it."""
    assert "scipy.integrate loaded: no" in _passes_the_gate("clustered_hier")
