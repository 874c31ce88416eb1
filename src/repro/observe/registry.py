"""Persistent run registry: an append-only JSONL store of run history.

Every ``BENCH_*.json`` the repo wrote before this module was an
overwritten snapshot — the registry is what turns those snapshots into
a *trajectory*.  One :class:`RunRegistry` owns a directory holding
``registry.jsonl``; each :meth:`record` appends one envelope-stamped
line (schema version, id, kind, key, timestamp, git commit, host,
cpu_count) wrapping the caller's payload.  Records are keyed by the
PR 3 provenance-manifest hash (``config_sha256``) so runs of the same
configuration form a comparable series across commits.

Appends are single ``write()`` calls on an ``O_APPEND`` handle, so
concurrent stages interleave whole lines; a truncated final line (a
crashed writer) is skipped on read rather than poisoning the store.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from pathlib import Path

__all__ = ["OBS_SCHEMA_VERSION", "RunRegistry", "metric_value"]

OBS_SCHEMA_VERSION = 1

#: record kinds the stack emits (callers may add their own)
KIND_RUN = "simulation_run"
KIND_STAGE = "pipeline_stage"
KIND_BENCH = "bench"


def _jsonable(obj):
    """json.dumps default hook: numpy scalars/arrays, paths, repr-fallback."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    return repr(obj)


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
        """Append one envelope-stamped record; returns what was written.

        One atomic ``O_APPEND`` write.  The torn-tail probe below reads
        through a second handle and can land inside another process's
        in-flight write, so under concurrent appends a record may be
        preceded by one empty line; every reader skips those.
        """
        now = time.time()
        rec = {
            "obs_schema": OBS_SCHEMA_VERSION,
            "id": f"{int(now * 1000):013d}-{secrets.token_hex(3)}",
            "kind": str(kind),
            "key": key,
            "t_unix": now,
            "t": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
            "git_commit": git_commit(),
            "hostname": _hostname(),
            "cpu_count": os.cpu_count(),
            "pid": os.getpid(),
            "data": payload,
        }
        line = json.dumps(rec, default=_jsonable) + "\n"
        with open(self.path, "ab") as fh:
            # a crashed writer can leave a torn tail with no newline;
            # terminating it here keeps that failure from also
            # swallowing this record (still one atomic O_APPEND write)
            prefix = b""
            if fh.tell() > 0:
                try:
                    with open(self.path, "rb") as rd:
                        rd.seek(-1, os.SEEK_END)
                        if rd.read(1) != b"\n":
                            prefix = b"\n"
                except OSError:
                    pass
            fh.write(prefix + line.encode("utf-8"))
        return rec

    # ----- reading -------------------------------------------------------------
    def records(self, kind: str | None = None, key: str | None = None,
                limit: int | None = None) -> list[dict]:
        """All records oldest-first, optionally filtered; ``limit`` keeps
        only the newest N *after* filtering."""
        out = []
        if self.path.exists():
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn tail line from a crashed writer
                    if kind is not None and rec.get("kind") != kind:
                        continue
                    if key is not None and rec.get("key") != key:
                        continue
                    out.append(rec)
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


# ----- environment stamps ------------------------------------------------------
_GIT_COMMIT_CACHE: list = []


def git_commit() -> str | None:
    """The repo's HEAD commit (cached; None outside a git checkout)."""
    if not _GIT_COMMIT_CACHE:
        from ..diagnose.manifest import _git_commit

        _GIT_COMMIT_CACHE.append(_git_commit())
    return _GIT_COMMIT_CACHE[0]


def _hostname() -> str:
    import socket

    try:
        return socket.gethostname()
    except Exception:
        return "unknown"
