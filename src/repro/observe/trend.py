"""Perf-trend fitting and regression detection over the run registry.

The judgment layer: given the metric series a registry accumulates
(wall per step, force wall, interactions per particle, ...), fit the
last-N baseline as a **median with a MAD noise band** and flag the
newest value when it leaves the band by more than the relative floor.
Robust statistics matter here — one flaky CI run must not poison the
baseline the way it would poison a mean, and the relative floor keeps
a near-noiseless history (MAD ~ 0) from flagging 2% jitter.

``repro-obs trend`` renders the verdict and exits 2 on a regression,
so CI perf gating judges against the *trajectory* instead of a single
frozen baseline file.
"""

from __future__ import annotations

from .registry import RunRegistry, metric_value

__all__ = [
    "robust_baseline",
    "detect_regression",
    "trend_report",
]

#: default baseline window (last N runs before the judged one)
DEFAULT_WINDOW = 5
#: band half-width in robust sigmas
DEFAULT_SIGMAS = 4.0
#: relative floor on the band (2% jitter never flags at 10%)
DEFAULT_MIN_REL = 0.10


def _median(values) -> float:
    vs = sorted(values)
    n = len(vs)
    mid = n // 2
    return float(vs[mid]) if n % 2 else float(vs[mid - 1] + vs[mid]) / 2.0


def robust_baseline(values) -> tuple[float, float]:
    """``(center, scale)``: median and MAD-derived robust sigma."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values to fit a baseline from")
    center = _median(values)
    mad = _median(abs(v - center) for v in values)
    return center, 1.4826 * mad


def detect_regression(
    history,
    current: float,
    sigmas: float = DEFAULT_SIGMAS,
    min_rel: float = DEFAULT_MIN_REL,
    direction: str = "max",
) -> dict:
    """Judge ``current`` against a fitted ``history`` baseline.

    ``direction="max"`` treats larger as worse (wall time); ``"min"``
    treats smaller as worse (throughput).  The flag bound is
    ``center ± max(sigmas * scale, min_rel * |center|)`` — the noise
    band of the history, floored at a relative change small jitter
    cannot cross.  With under two history points there is no noise
    estimate, so the verdict is "insufficient history" and nothing
    flags.
    """
    history = [float(v) for v in history]
    if len(history) < 2:
        return {
            "regression": False,
            "status": "insufficient-history",
            "n_history": len(history),
            "value": float(current),
        }
    center, scale = robust_baseline(history)
    band = max(sigmas * scale, min_rel * abs(center))
    if direction == "min":
        threshold = center - band
        regression = float(current) < threshold
    else:
        threshold = center + band
        regression = float(current) > threshold
    return {
        "regression": bool(regression),
        "status": "regression" if regression else "ok",
        "value": float(current),
        "center": center,
        "scale": scale,
        "band": band,
        "threshold": threshold,
        "ratio": float(current) / center if center else float("inf"),
        "n_history": len(history),
    }


def trend_report(
    registry: RunRegistry,
    metric: str,
    kind: str | None = None,
    key: str | None = None,
    window: int = DEFAULT_WINDOW,
    sigmas: float = DEFAULT_SIGMAS,
    min_rel: float = DEFAULT_MIN_REL,
    direction: str = "max",
) -> dict:
    """Fit the last-``window`` baseline and judge the newest record.

    Returns ``{"metric", "series": [(id, t, value), ...], "verdict"}``;
    ``verdict["status"]`` is ``"no-data"`` / ``"insufficient-history"``
    / ``"ok"`` / ``"regression"``.
    """
    series = registry.series(metric, kind=kind, key=key)
    points = [
        {"id": rec.get("id"), "t": rec.get("t"), "value": v,
         "git_commit": (rec.get("git_commit") or "")[:12] or None}
        for rec, v in series
    ]
    if not points:
        verdict = {"regression": False, "status": "no-data", "n_history": 0}
    else:
        history = [p["value"] for p in points[:-1]][-window:]
        verdict = detect_regression(
            history, points[-1]["value"],
            sigmas=sigmas, min_rel=min_rel, direction=direction,
        )
    return {"metric": metric, "kind": kind, "key": key,
            "series": points, "verdict": verdict}
