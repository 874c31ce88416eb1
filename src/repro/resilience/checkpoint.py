"""Durable checkpoint store: rotation, newest-valid restore, restart state.

One directory holds a rotating window of checkpoints
(``ckpt_<step>.sdf``), each written atomically with per-column
checksums and full restart metadata (see :mod:`repro.io.checkpoint`).
Restore walks newest -> oldest and returns the first file that loads
cleanly — a checkpoint corrupted by the failure that killed the run
(or by a :class:`~repro.resilience.faults.FaultPlan` in tests) is
skipped, not fatal, exactly the degradation a production run wants.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from ..io.checkpoint import load_checkpoint, save_checkpoint
from .faults import FaultPlan

__all__ = ["CheckpointStore", "NoValidCheckpoint"]

_CKPT_NAME = re.compile(r"^ckpt_(\d+)\.sdf$")


class NoValidCheckpoint(RuntimeError):
    """No checkpoint in the store survived validation."""


class CheckpointStore:
    """Keep-last-N rotating checkpoint directory with validated restore.

    Parameters
    ----------
    directory:
        Where checkpoints live (``ckpt_<step>.sdf``); created on first
        save.

    The ``corrupt`` clauses of the ``REPRO_FAULTS`` plan are applied to
    matching writes (deterministic fault injection).
    """

    #: rotation width — after each save only the newest ``KEEP``
    #: checkpoints remain (the paper checkpoints every ~4 h of an
    #: 80 h-MTBF run; a short window bounds disk while still surviving
    #: a corrupted newest file)
    KEEP = 3

    def __init__(self, directory):
        self.directory = Path(directory)
        self.faults = FaultPlan.from_env()

    def path_for(self, step: int) -> Path:
        return self.directory / f"ckpt_{int(step):06d}.sdf"

    def list(self) -> list[Path]:
        """All checkpoints in the store, oldest first (by step number)."""
        if not self.directory.is_dir():
            return []
        found = []
        for name in os.listdir(self.directory):
            m = _CKPT_NAME.match(name)
            if m:
                found.append((int(m.group(1)), self.directory / name))
        return [p for _, p in sorted(found)]

    # ----- writing ----------------------------------------------------------------
    def save(self, step: int, particles, **save_kw) -> Path:
        """Write checkpoint ``step`` durably, inject faults, rotate."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(step)
        save_checkpoint(path, particles, **save_kw)
        if self.faults:
            self.faults.corrupt_checkpoint(path)
        self.prune()
        return path

    def prune(self) -> None:
        """Drop all but the newest ``KEEP`` checkpoints."""
        for path in self.list()[:-self.KEEP]:
            try:
                path.unlink()
            except OSError:
                pass

    # ----- restoring --------------------------------------------------------------
    def latest_valid(self, expect_config=None):
        """Newest checkpoint that loads cleanly: ``(path, particles, md)``.

        Checksum failures, truncation and parse errors skip to the next
        older file (recorded in ``self.skipped``); a config mismatch
        against ``expect_config`` is *not* skipped — that is a caller
        error, not file corruption — and propagates.

        Raises :class:`NoValidCheckpoint` if nothing survives.
        """
        from ..io.checkpoint import CheckpointConfigMismatch

        self.skipped: list[tuple[Path, str]] = []
        for path in reversed(self.list()):
            try:
                ps, md = load_checkpoint(path, expect_config=expect_config)
            except CheckpointConfigMismatch:
                raise
            except Exception as exc:
                self.skipped.append((path, f"{type(exc).__name__}: {exc}"))
                continue
            return path, ps, md
        raise NoValidCheckpoint(
            f"no valid checkpoint under {self.directory} "
            f"(skipped {len(self.skipped)}: "
            f"{[str(p.name) for p, _ in self.skipped]})"
        )
