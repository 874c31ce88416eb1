"""Branch-node exchange: building the shared top of the tree (paper §3.2).

Each rank owns a contiguous SFC interval of particles; the cells fully
inside that interval are local, and the coarsest such cells are the
rank's *branch nodes*.  Every rank must also know enough of the other
ranks' upper tree structure to start its traversal.

WS93 solved this with a **global concatenation** of all branch nodes —
O(total branches) storage and communication per rank, fine at 10^3
ranks, "unacceptable overhead" at 10^5 because most of those nodes
"will never be used directly".

2HOT replaces it with **pairwise hierarchical aggregation**: log2(P)
rounds in which rank i exchanges with rank i XOR 2^k along the 1-d SFC
order, each time merging the received branch set *coarsened to the
level of detail the receiver can actually use* (far regions keep only
ancestors).  Per-rank data becomes O(branches_local + log P * detail),
which is what scales to 256k ranks.

Both algorithms are implemented over real key sets so their outputs
can be compared; communication volumes feed the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..keys import KEY_BITS, ancestor_key, key_level, parent_key
from .comm import SimComm

__all__ = [
    "branch_nodes",
    "exchange_global_concat",
    "exchange_hierarchical",
    "coarsen_for_receiver",
]


def branch_nodes(sorted_keys: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Coarsest cell keys exactly covering particles [lo, hi) of a
    globally key-sorted array.

    The classic segment-cover: walk from ``lo``, at each position take
    the largest cell that (a) starts there (its key is aligned) and
    (b) fits inside the remaining range *of key space owned by this
    rank* (approximated by the particle interval — sufficient for
    accounting and structure tests).
    """
    if hi <= lo:
        return np.empty(0, dtype=np.uint64)
    keys = np.asarray(sorted_keys, dtype=np.uint64)
    placeholder = 1 << (3 * KEY_BITS)
    lo_body = int(keys[lo]) - placeholder
    hi_body = int(keys[hi - 1]) - placeholder
    out = []
    # greedy SFC range cover: at each position take the largest aligned
    # octree cell fitting inside [cur, hi_body]
    cur = lo_body
    while cur <= hi_body:
        m = 0  # cell spans 8^m body keys
        while m < KEY_BITS:
            size_next = 1 << (3 * (m + 1))
            if cur % size_next != 0 or cur + size_next - 1 > hi_body:
                break
            m += 1
        level = KEY_BITS - m
        cell_key = (1 << (3 * level)) | (cur >> (3 * m))
        out.append(cell_key)
        cur += 1 << (3 * m)
    return np.array(out, dtype=np.uint64)


#: levels a far branch node is lifted by before it is sent
_DETAIL_LEVELS = 3


def coarsen_for_receiver(
    keys: np.ndarray, receiver_lo: np.uint64, receiver_hi: np.uint64
) -> np.ndarray:
    """Coarsen a branch set for a remote receiver.

    Nodes whose key interval is far (in SFC distance) from the
    receiver's interval are replaced by ancestors ``_DETAIL_LEVELS``
    above their natural level; near nodes are kept.  Deduplicated.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if len(keys) == 0:
        return keys
    lv = key_level(keys)
    # strip the placeholder bit before expanding to body-key coordinates
    stripped = keys ^ (np.uint64(1) << (np.uint64(3) * lv.astype(np.uint64)))
    body_first = stripped << ((KEY_BITS - lv) * 3).astype(np.uint64)
    # distance in body-key units to the receiver interval
    lo = np.uint64(receiver_lo)
    hi = np.uint64(receiver_hi)
    below = body_first < lo
    above = body_first > hi
    dist = np.zeros(len(keys), dtype=np.float64)
    dist[below] = (lo - body_first[below]).astype(np.float64)
    dist[above] = (body_first[above] - hi).astype(np.float64)
    span_total = float(np.uint64(1) << np.uint64(3 * KEY_BITS))
    far = dist > span_total / 64.0
    out = keys.copy()
    lift = np.minimum(lv[far], _DETAIL_LEVELS).astype(np.uint64)
    out[far] = keys[far] >> (np.uint64(3) * lift)
    return np.unique(out)


def exchange_global_concat(comm: SimComm, branches: list[np.ndarray]):
    """WS93: every rank receives every branch node.

    Returns (per-rank node sets, ledger deltas are in comm.ledger).
    """
    gathered = comm.allgather(branches)
    return [np.unique(np.concatenate(g)) for g in gathered]


def exchange_hierarchical(
    comm: SimComm,
    branches: list[np.ndarray],
    intervals: list[tuple[int, int]],
):
    """2HOT: log2(P) pairwise aggregation rounds with coarsening.

    ``intervals`` gives each rank's (lo_key, hi_key) ownership in body
    key space, used to coarsen what is sent to distant partners.
    """
    p = comm.n_ranks
    known = [np.unique(b) for b in branches]
    rounds = max(1, math.ceil(math.log2(max(p, 2))))
    for k in range(rounds):
        step = 1 << k
        msgs = []
        for i in range(p):
            j = i ^ step
            if j >= p or j == i:
                continue
            payload = coarsen_for_receiver(known[i], intervals[j][0], intervals[j][1])
            msgs.append((i, j, payload))
        inbox = comm.exchange_pairs(msgs)
        for dst, items in enumerate(inbox):
            for _src, payload in items:
                if len(payload):
                    known[dst] = np.unique(np.concatenate([known[dst], payload]))
    return known
