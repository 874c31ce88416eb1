"""In-situ health monitoring: physics diagnostics and anomaly detection.

The correctness counterpart of :mod:`repro.observe` (which watches
*performance*): monitors observe conserved quantities (Layzer-Irvine
energy, total momentum), audit the MAC's absolute-error budget with a
sampled direct/Ewald force probe, watch the machinery (tree shape,
executor balance, interaction drift), guard against non-finite state
(fail fast with a diagnostic snapshot), and stream classified
``health`` events into the run's one trace, the tracer's sink.  A run
is monitored only when built with ``Simulation(config,
health=HealthConfig(...))``; the default ``health=None`` builds no
monitor, and the non-finite force guard runs on every solve either way
(:func:`repro.gravity.solver.raise_if_nonfinite`).
Run provenance is :mod:`repro.observe.manifest`'s; ``repro-obs
report`` / ``repro-obs gate`` (:mod:`repro.observe.cli`) render a
trace's health timeline and fail CI on a health event at or above a
severity.
"""

from .health import HealthConfig, HealthMonitor
from .monitors import (
    SEVERITIES,
    HealthContext,
    HealthError,
    HealthEvent,
    LayzerIrvineMonitor,
    Monitor,
    MomentumMonitor,
    StateGuard,
    classify,
)
from .probe import ForceErrorProbe, probe_force_error, reference_accelerations
from .structural import (
    ExecutorBalanceMonitor,
    InteractionDriftMonitor,
    RecoveryMonitor,
    TreeShapeMonitor,
    tree_shape_stats,
)

__all__ = [
    "SEVERITIES",
    "ExecutorBalanceMonitor",
    "ForceErrorProbe",
    "HealthConfig",
    "HealthContext",
    "HealthError",
    "HealthEvent",
    "HealthMonitor",
    "InteractionDriftMonitor",
    "LayzerIrvineMonitor",
    "Monitor",
    "MomentumMonitor",
    "RecoveryMonitor",
    "StateGuard",
    "TreeShapeMonitor",
    "classify",
    "probe_force_error",
    "reference_accelerations",
    "tree_shape_stats",
]
