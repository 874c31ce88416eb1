"""Persistent run registry: an append-only JSONL store of run history.

Every ``BENCH_*.json`` the repo wrote before this module was an
overwritten snapshot — the registry is what turns those snapshots into
a *trajectory*.  One :class:`RunRegistry` owns a directory holding
``registry.jsonl``; each :meth:`record` appends one envelope-stamped
line (schema version, id, kind, key, timestamp, git commit, host,
cpu_count) wrapping the caller's payload.  Records are keyed by the
PR 3 provenance-manifest hash (``config_sha256``) so runs of the same
configuration form a comparable series across commits.

Appends and reads follow :mod:`repro.observe.jsonl`, the repo's one
JSONL contract: concurrent stages interleave whole lines and a crashed
writer's torn line is skipped rather than poisoning the store.  The
envelope's time, commit, host and cpu count are the one provenance
stamp (:func:`repro.observe.manifest.provenance`).
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path

from .jsonl import JsonlAppender, read_records
from .manifest import provenance

__all__ = ["OBS_SCHEMA_VERSION", "RunRegistry", "metric_value", "registry_dir"]

OBS_SCHEMA_VERSION = 1

#: registry root when neither a caller nor ``REPRO_OBS_DIR`` names one
DEFAULT_DIR = ".repro_obs"

#: record kinds the stack emits (callers may add their own)
KIND_RUN = "simulation_run"
KIND_STAGE = "pipeline_stage"
KIND_BENCH = "bench"


def registry_dir(explicit=None, default=DEFAULT_DIR):
    """The registry root: ``explicit`` (``--dir``), else ``REPRO_OBS_DIR``,
    else ``default``."""
    return explicit or os.environ.get("REPRO_OBS_DIR", "").strip() or default


def metric_value(record: dict, metric: str):
    """Resolve a (possibly dotted) metric name against a registry record.

    Looks in the payload (``record["data"]``) first, then the envelope:
    ``"wall_s"`` finds ``data["wall_s"]``, ``"run_totals.wall_s"``
    descends into nested dicts.  Returns ``None`` when absent or not a
    number (bools are not numbers here).
    """
    for root in (record.get("data") or {}, record):
        node = root
        for part in metric.split("."):
            if not isinstance(node, dict) or part not in node:
                node = None
                break
            node = node[part]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            return float(node)
    return None


class RunRegistry:
    """Append-only JSONL store under ``root`` with a small query API."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "registry.jsonl"

    # ----- writing -------------------------------------------------------------
    def record(self, kind: str, payload: dict, key: str | None = None) -> dict:
        """Append one envelope-stamped record; returns what was written."""
        stamp = provenance()
        now = stamp["created_unix"]
        rec = {
            "obs_schema": OBS_SCHEMA_VERSION,
            "id": f"{int(now * 1000):013d}-{secrets.token_hex(3)}",
            "kind": str(kind),
            "key": key,
            "t_unix": now,
            "t": stamp["created"],
            "git_commit": stamp["git_commit"],
            "hostname": stamp["hostname"],
            "cpu_count": stamp["cpu_count"],
            "pid": os.getpid(),
            "data": payload,
        }
        with JsonlAppender(self.path) as log:
            log.append(rec)
        return rec

    # ----- reading -------------------------------------------------------------
    def records(self, kind: str | None = None, key: str | None = None,
                limit: int | None = None) -> list[dict]:
        """All records oldest-first, optionally filtered; ``limit`` keeps
        only the newest N *after* filtering."""
        out = [
            rec for rec in read_records(self.path)[0]
            if (kind is None or rec.get("kind") == kind)
            and (key is None or rec.get("key") == key)
        ]
        if limit is not None and limit >= 0:
            out = out[len(out) - min(limit, len(out)):]
        return out

    def last(self, kind: str | None = None, key: str | None = None) -> dict | None:
        recs = self.records(kind=kind, key=key, limit=1)
        return recs[-1] if recs else None

    def get(self, ref) -> dict:
        """Resolve a record reference: an id prefix, or an integer index
        into the full oldest-first listing (1-based; negative counts
        from the end, so ``-1`` is the newest record)."""
        recs = self.records()
        if not recs:
            raise LookupError("registry is empty")
        sref = str(ref).strip()
        try:
            idx = int(sref)
        except ValueError:
            matches = [r for r in recs if str(r.get("id", "")).startswith(sref)]
            if len(matches) == 1:
                return matches[0]
            if not matches:
                raise LookupError(f"no record with id prefix {sref!r}") from None
            raise LookupError(
                f"id prefix {sref!r} is ambiguous ({len(matches)} matches)"
            ) from None
        if idx == 0:
            raise LookupError("record indices are 1-based (negative from the end)")
        pos = idx - 1 if idx > 0 else len(recs) + idx
        if not 0 <= pos < len(recs):
            raise LookupError(f"record index {idx} out of range (1..{len(recs)})")
        return recs[pos]

    def series(self, metric: str, kind: str | None = None,
               key: str | None = None, limit: int | None = None):
        """``(record, value)`` pairs, oldest-first, for records where
        ``metric`` resolves to a number."""
        out = []
        for rec in self.records(kind=kind, key=key):
            v = metric_value(rec, metric)
            if v is not None:
                out.append((rec, v))
        if limit is not None:
            out = out[len(out) - min(limit, len(out)):]
        return out

