"""Hot-function extraction from a stage's ``cProfile`` data.

The layer below the tracer's stage timings: when the Table-2-style
breakdown says *evaluation dominates*, this says *which functions*.  A
``profile=True`` :class:`~repro.observe.Tracer` runs each of its
stages under ``cProfile``; :func:`top_functions` is the top-N by self
time that the run's registry record keeps.
"""

from __future__ import annotations

__all__ = ["top_functions"]


def top_functions(prof) -> list[dict]:
    """The 15 hottest functions of a ``cProfile.Profile`` by self time.

    Each entry carries function, trimmed file:line, call count, self
    seconds and cumulative seconds — the attribution the registry keeps
    so ``repro-obs top`` can answer "what was hot" long after the run.
    """
    import pstats

    st = pstats.Stats(prof)
    rows = []
    for (file, line, func), (cc, nc, tt, ct, callers) in st.stats.items():
        rows.append({
            "function": func,
            "where": f"{_trim_path(file)}:{line}",
            "calls": int(nc),
            "self_s": round(tt, 6),
            "cum_s": round(ct, 6),
        })
    rows.sort(key=lambda r: r["self_s"], reverse=True)
    return rows[:15]


def _trim_path(path: str) -> str:
    if not path or path.startswith("<"):
        return path or "<unknown>"
    parts = path.replace("\\", "/").split("/")
    return "/".join(parts[-2:])
