"""``benchmarks/bench_evolve_gate.py``'s band arithmetic on synthetic
snapshots: no run evolves."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.power import PowerSpectrumResult

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
K = np.linspace(0.06, 0.52, 24)  # h/Mpc: both of the 12^3 box's k-bands
HALOS = [5] * 20 + [40] * 20  # members: 20 halos in each of the two mass bins


@pytest.fixture(scope="module")
def gate():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # for its shared helpers (_simlib)
        path = BENCH / "bench_evolve_gate.py"
        spec = importlib.util.spec_from_file_location("_evolve_gate", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def snapshot(scale=1.0, band=(0.0, 0.0), halos=HALOS):
    power = np.where((K >= band[0]) & (K <= band[1]), scale, 1.0)
    return {"power": PowerSpectrumResult(K, power, np.ones_like(K), 0.0), "halo_sizes": halos}


def readings(gate, default=None):
    """Every band on one seed whose runs are all ``evolved()`` but ``default``."""
    def evolved(snaps=None):
        return {"snapshots": {"0.3": snapshot(), "1": snapshot(), **(snaps or {})},
                "li_drift": 0.5, "momentum_drift": 1e-6}

    runs = {name: evolved(default if name == "default" else None) for name in gate.RUNS}
    return gate.band_values(runs, gate.config(False, 1, "default"))


def judge(gate, values, bounds):
    """The summary of four equal seeds and the gates its receipt fails."""
    forces = [{f"{pre}err_{q}_over_errtol": 0.0
               for pre in ("", "loose_") for q in gate.PERCENTILES}]
    summary, gates = gate.summarize([values] * 4, forces, bounds, {"err_p50_over_errtol": 0.053})
    return summary, gate.judge_gates(summary, gates)[0]


def test_identical_snapshots_read_a_ratio_of_one_and_pass(gate):
    assert np.all(snapshot()["power"].ratio_to(snapshot()["power"]) == 1.0)
    for band, reading in readings(gate).items():
        expected = 1e-6 if band == "momentum" else 0.0
        assert reading == dict.fromkeys(("default", *gate.LOOSE_RUNS), expected), band
    _, failed = judge(gate, readings(gate), gate.BOUNDS["full"])
    # only the loose flags fail: the loose runs equal the default one here
    assert failed and all(f.endswith("_loose_fails") for f in failed)


def test_five_percent_in_one_k_band_fails(gate):
    small = gate.k_bands(gate.config(False, 1, "default"))["small"]
    values = readings(gate, {"0.3": snapshot(1.05, small)})
    assert values["pk_errtol_small_a0.3"]["default"] == pytest.approx(0.05)
    assert values["pk_errtol_large_a0.3"]["default"] == 0.0
    failed = set(judge(gate, values, gate.BOUNDS["full"])[1])
    assert {"pk_errtol_small_a0.3", "pk_dlna_small_a0.3"} <= failed
    assert "pk_errtol_large_a0.3" not in failed


def test_five_percent_in_one_mass_bin_fails(gate):
    values = readings(gate, {"1": snapshot(halos=HALOS + [5])})
    assert values["mf_errtol_a1"]["default"] == pytest.approx(0.05)
    # the mass-function bands are ungated (the receipt says why): a
    # stand-in bound under 5 % shows the arithmetic
    _, failed = judge(gate, values, {"mf_errtol_a1": 0.04, "mf_errtol_a0.3": 0.04})
    assert "mf_errtol_a1" in failed and "mf_errtol_a0.3" not in failed


@pytest.mark.parametrize("over", [1.0, 1.01])
def test_loose_flag_reads_one_only_when_the_loose_summary_breaks_a_bound(gate, over):
    bounds = gate.BOUNDS["full"]
    values = {b: dict.fromkeys(("default", *gate.LOOSE_RUNS), 0.0) for b in gate.BANDS}
    values["li_excess"]["dlna_loose"] = bounds["li_excess"] * over
    summary, _ = judge(gate, values, bounds)
    assert [b for b in bounds if summary[f"{b}_loose_fails"]] == (["li_excess"] if over > 1 else [])
