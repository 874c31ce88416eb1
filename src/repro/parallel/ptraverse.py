"""Parallel tree traversal with request/reply accounting (paper §3.2).

Runs the production force calculation decomposed over P simulated
ranks: the domain decomposition assigns each rank an SFC-contiguous
block of sink leaves; each rank traverses *its own* sinks against the
global tree (exactly what HOT does once remote hcells have been
fetched), and every touched source cell or leaf owned by another rank
is accounted as a request/reply pair through the ABM layer.

Because the data is the real global tree, the parallel result is
bit-identical to the serial one — the point of the exercise is the
*accounting*: per-rank interaction work (load imbalance), remote-cell
request counts and bytes (communication volume), and the modeled
overlap of communication with computation.  These numbers feed
Table 2's stage breakdown and Fig. 5's strong-scaling model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tree import Tree, TreeMoments, traverse_lists
from .abm import ABMEngine
from .machine import MachineModel

__all__ = ["ParallelTraversalStats", "parallel_traversal"]

_HCELL_BYTES = 128  # key, moments summary, bounds — the paper's hcell record
_REQUEST_BYTES = 16


@dataclass
class ParallelTraversalStats:
    """Per-rank work and communication of one parallel traversal."""

    n_ranks: int
    work_per_rank: np.ndarray  # interaction counts
    remote_cells_requested: np.ndarray  # unique remote cells per rank
    request_bytes: np.ndarray
    reply_bytes: np.ndarray
    abm_time_s: float
    abm_wire_messages: int
    abm_posted_messages: int
    interactions_total: int

    @property
    def load_imbalance(self) -> float:
        w = self.work_per_rank
        return float(w.max() / max(w.mean(), 1e-300) - 1.0)


def parallel_traversal(
    tree: Tree,
    moms: TreeMoments,
    n_ranks: int,
    machine: MachineModel | None = None,
    periodic: bool = False,
    ws: int = 1,
    batching: bool = True,
) -> ParallelTraversalStats:
    """Decompose sink leaves over ranks and account the traversal.

    Rank boundaries follow the key-sorted particle order (the SFC
    decomposition); ownership of a source cell is the rank owning its
    first particle.  Interaction work partitions exactly across ranks:
    restricted walks replay the unrestricted walk's decisions.
    """
    machine = machine or MachineModel()
    n = tree.n_particles
    # SFC-contiguous particle blocks
    bounds = (np.arange(n_ranks + 1) * n) // n_ranks
    leaf = tree.leaf_indices
    leaf_sorted = leaf[np.argsort(tree.cell_start[leaf])]
    starts = tree.cell_start[leaf_sorted]
    leaf_rank = np.searchsorted(bounds, starts, side="right") - 1
    # cell ownership by first particle (ghosts: by their parent's range)
    cell_owner = np.searchsorted(bounds, tree.cell_start, side="right") - 1
    ghost = tree.cell_is_ghost
    if np.any(ghost):
        cell_owner[ghost] = cell_owner[tree.cell_parent[ghost]]

    work = np.zeros(n_ranks, dtype=np.int64)
    remote_cells = np.zeros(n_ranks, dtype=np.int64)
    req_bytes = np.zeros(n_ranks)
    rep_bytes = np.zeros(n_ranks)

    engine = ABMEngine(n_ranks, machine, batching=batching)
    engine.on("request", _handle_request)
    engine.on("reply", _handle_reply)

    total_inter = 0
    for r in range(n_ranks):
        sinks = leaf_sorted[leaf_rank == r]
        if len(sinks) == 0:
            continue
        inter = traverse_lists(
            tree, moms, periodic=periodic, ws=ws, sink_leaves=sinks
        )
        w = (
            inter.n_cell_interactions(tree)
            + inter.n_pp_interactions(tree)
            + inter.n_prism_interactions(tree)
        )
        work[r] = w
        total_inter += w
        touched = np.unique(
            np.concatenate([inter.cell_src, inter.leaf_src, inter.ghost_src])
        )
        owners = cell_owner[touched]
        remote = touched[owners != r]
        remote_cells[r] = len(remote)
        # one request per remote owner batch; replies carry hcell records
        for owner in np.unique(owners[owners != r]):
            cells = remote[cell_owner[remote] == owner]
            req_bytes[r] += _REQUEST_BYTES * len(cells)
            rep_bytes[owner] += _HCELL_BYTES * len(cells)
            engine.post(
                r, int(owner), "request",
                payload=len(cells), nbytes=_REQUEST_BYTES * len(cells),
            )
    t = engine.run()
    return ParallelTraversalStats(
        n_ranks=n_ranks,
        work_per_rank=work,
        remote_cells_requested=remote_cells,
        request_bytes=req_bytes,
        reply_bytes=rep_bytes,
        abm_time_s=t,
        abm_wire_messages=engine.wire_messages,
        abm_posted_messages=engine.messages_posted,
        interactions_total=total_inter,
    )


def _handle_request(engine: ABMEngine, msg):
    """A rank asked for ``payload`` hcells: reply with their records."""
    engine.post(
        msg.dst, msg.src, "reply",
        payload=msg.payload, nbytes=_HCELL_BYTES * int(msg.payload),
    )


def _handle_reply(engine: ABMEngine, msg):
    """Requested hcells arrive — nothing further to do in the model."""
