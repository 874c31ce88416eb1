"""Run provenance: one stamp of where and when, and the manifest that
pins what produced a trace.

§3.4.3 of the paper propagates the code version into every data
product's SDF header; a health-monitored run wants the same discipline
for the whole environment — the exact configuration (hashed, so two
manifests compare in O(1)), package versions, host, RNG seeds — written
alongside the trace so a regression found by ``repro-obs`` can always
be tied back to *what ran*.  :func:`provenance` is the one stamp (time,
git commit, host, cpu count, platform): the manifest, every run
registry record and every benchmark receipt take theirs from it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.metadata
import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .jsonl import jsonable

__all__ = ["build_manifest", "config_hash", "git_commit", "provenance", "write_manifest"]

MANIFEST_VERSION = 1


def config_hash(config) -> str:
    """SHA-256 of the canonical (sorted-key) JSON form of a config."""
    payload = json.dumps(jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@functools.cache
def git_commit() -> str | None:
    """The repo's HEAD commit (cached; None outside a git checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or None if out.returncode == 0 else None
    except Exception:
        return None


def provenance() -> dict:
    """Where and when: ``created_unix`` / ``created`` (local ISO time),
    ``git_commit``, ``hostname``, ``cpu_count``, ``platform``,
    ``machine`` and ``python`` (``sys.version``)."""
    now = time.time()
    try:
        hostname = socket.gethostname()
    except OSError:
        hostname = "unknown"
    return {
        "created_unix": now,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
        "git_commit": git_commit(),
        "hostname": hostname,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version,
    }


def build_manifest(config=None, seeds=None, extra=None) -> dict:
    """Assemble the provenance record (JSON-serializable)."""
    manifest = {
        "type": "manifest",
        "manifest_version": MANIFEST_VERSION,
        **provenance(),
        "config": jsonable(config) if config is not None else None,
        "config_sha256": config_hash(config) if config is not None else None,
        "seeds": jsonable(seeds) if seeds is not None else None,
        "packages": {"numpy": np.__version__, "scipy": importlib.metadata.version("scipy")},
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "argv": list(sys.argv),
    }
    if extra:
        manifest.update(jsonable(extra))
    return manifest


def write_manifest(path, config=None, seeds=None, extra=None) -> dict:
    """Build and write the manifest; returns what was written."""
    manifest = build_manifest(config=config, seeds=seeds, extra=extra)
    Path(path).write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest
