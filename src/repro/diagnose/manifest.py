"""Run provenance: a manifest that pins what produced a trace.

§3.4.3 of the paper propagates the code version into every data
product's SDF header; a health-monitored run wants the same discipline
for the whole environment — the exact configuration (hashed, so two
manifests compare in O(1)), package versions, host, RNG seeds — written
alongside the trace so a regression found by ``repro-obs`` can always
be tied back to *what ran*.
"""

from __future__ import annotations

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

from ..instrument.events import jsonable

__all__ = ["config_hash", "build_manifest", "write_manifest", "load_manifest"]

MANIFEST_VERSION = 1


def config_hash(config) -> str:
    """SHA-256 of the canonical (sorted-key) JSON form of a config."""
    payload = json.dumps(jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or None if out.returncode == 0 else None
    except Exception:
        return None


def build_manifest(config=None, seeds=None, extra=None) -> dict:
    """Assemble the provenance record (JSON-serializable)."""
    manifest = {
        "type": "manifest",
        "manifest_version": MANIFEST_VERSION,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": jsonable(config) if config is not None else None,
        "config_sha256": config_hash(config) if config is not None else None,
        "seeds": jsonable(seeds) if seeds is not None else None,
        "python": sys.version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "packages": {"numpy": np.__version__, "scipy": importlib.metadata.version("scipy")},
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "git_commit": _git_commit(),
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


def load_manifest(path) -> dict:
    return json.loads(Path(path).read_text())
