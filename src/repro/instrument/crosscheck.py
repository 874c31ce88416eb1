"""Measured-vs-modeled cross-check against :mod:`repro.perfmodel`.

The perfmodel package predicts stage costs from first principles (flop
counts from the generated kernels, machine rates from the catalog); the
tracer measures what actually happened.  This module closes the loop:
given a solver's measured stats it computes the flop count the
interaction mix implies, the force-evaluation time the machine model
predicts, and the achieved flop rate — the validation the ROADMAP's
perf work needs before any speedup claim.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CrossCheck", "perfmodel_crosscheck"]


@dataclass
class CrossCheck:
    """One measured-vs-modeled comparison of a force evaluation."""

    flops: float
    measured_evaluate_s: float
    predicted_evaluate_s: float
    achieved_gflops: float
    model_gflops: float

    @property
    def ratio(self) -> float:
        """measured / predicted evaluation time (>1 = slower than model)."""
        return self.measured_evaluate_s / max(self.predicted_evaluate_s, 1e-300)

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("flops", self.flops),
            ("measured evaluate (s)", self.measured_evaluate_s),
            ("model evaluate (s)", self.predicted_evaluate_s),
            ("achieved Gflop/s", self.achieved_gflops),
            ("model Gflop/s", self.model_gflops),
            ("measured/model ratio", self.ratio),
        ]

    def render(self, title: str = "perfmodel cross-check") -> str:
        lines = [f"=== {title} ==="]
        for name, v in self.rows():
            lines.append(f"{name:>24}: {v:.6g}")
        return "\n".join(lines)


def perfmodel_crosscheck(
    stats: dict,
    machine=None,
    want_potential: bool = True,
) -> CrossCheck:
    """Compare a measured force evaluation against the machine model.

    ``stats`` is a ``ForceResult.stats`` produced under an enabled
    tracer (so it carries ``stage_seconds``); ``machine`` is a
    :class:`~repro.perfmodel.machines.MachineModel` (default: the generic
    one).  A NumPy interpreter won't hit modeled hardware rates — the
    point is that the *flop accounting* and the *measured time* are now
    both real numbers that future perf PRs can move toward each other.
    """
    from ..perfmodel.flops import flops_from_stats
    from ..perfmodel.machines import MachineModel

    machine = machine or MachineModel()
    stage = stats.get("stage_seconds") or {}
    measured = float(stage.get("evaluate", 0.0))
    flops = float(stats.get("flops", 0.0)) or flops_from_stats(stats, want_potential)
    predicted = flops / machine.flops_per_core
    achieved = flops / max(measured, 1e-300) / 1e9 if measured > 0 else 0.0
    return CrossCheck(
        flops=flops,
        measured_evaluate_s=measured,
        predicted_evaluate_s=predicted,
        achieved_gflops=achieved,
        model_gflops=machine.flops_per_core / 1e9,
    )
