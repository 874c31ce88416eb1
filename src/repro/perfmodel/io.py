"""Parallel file-system throughput model (paper §3.4.2).

The paper's I/O data points:

* LANL Panasas: 5-10 GB/s typical,
* ORNL Lustre, single file across 160 OSTs: >20 GB/s,
* ORNL Lustre, 4 files across 512 OSTs (bypassing the per-file OST
  limit): 45 GB/s,
* a 69e9-particle checkpoint (approx. 2.2 TB at 32 B/particle)
  writes in ~6 minutes on the LANL production filesystem.

The model: aggregate rate = min(n_files * min(osts_per_file, ost_limit)
* per-OST rate, client injection limit).  Simple, but it captures why
splitting a checkpoint into 4 files tripled the paper's throughput —
and it feeds the checkpoint-interval economics.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FileSystemModel", "LUSTRE_ORNL", "PANASAS_LANL"]


@dataclass(frozen=True)
class FileSystemModel:
    """A striped parallel filesystem."""

    name: str
    per_ost_Bps: float
    #: maximum OSTs a single file may stripe across
    ost_limit_per_file: int
    total_osts: int
    client_limit_Bps: float = float("inf")

    def rate(self, n_files: int = 1) -> float:
        """Aggregate write rate in bytes/s for ``n_files`` files, each
        striped across as many OSTs as a file may use."""
        if n_files < 1:
            raise ValueError("need at least one file")
        used = min(n_files * self.ost_limit_per_file, self.total_osts)
        return min(used * self.per_ost_Bps, self.client_limit_Bps)


#: ORNL Lustre of the paper: 160-OST single-file limit, 128 MB/s/OST-ish
LUSTRE_ORNL = FileSystemModel(
    name="lustre-ornl",
    per_ost_Bps=0.128e9,
    ost_limit_per_file=160,
    total_osts=672,
    # aggregate client/ION ceiling: the paper measured 45 GB/s with 4
    # files over 512 OSTs, below the raw 512-OST stripe rate
    client_limit_Bps=45e9,
)

#: LANL Panasas: 5-10 GB/s aggregate regardless of layout
PANASAS_LANL = FileSystemModel(
    name="panasas-lanl",
    per_ost_Bps=0.08e9,
    ost_limit_per_file=100,
    total_osts=100,
    client_limit_Bps=8e9,
)


