"""Compiled m x n-blocked CSR force kernel (paper §3.2) with backend dispatch.

The paper's production force rate comes from an m-sinks x n-sources
blocked inner kernel: load a block of sink coordinates into registers,
stream source tiles (cell multipoles, leaf particles, periodic images)
through the fused inner loops, and accumulate per-sink acc/pot without
ever materializing per-interaction intermediates.  This module is that
kernel for the CSR interaction lists emitted by
:func:`repro.tree.traversal.traverse_hierarchical`:

* the outer loop runs over sink leaves (CSR rows) in ``prange`` — rows
  own disjoint particle ranges, so parallel writes are race-free;
* per row, the m sink coordinates and accumulators live in small local
  arrays (the paper's register block);
* each CSR entry is one source tile: a cell-multipole entry walks the
  derivative-tensor recurrence per sink, a leaf entry streams its
  source particles (shifted by the entry's periodic-image offset)
  through the softened particle-particle loop.

The kernel body (:func:`_csr_force_kernel`) is plain nopython-subset
Python: with numba installed it is compiled via
``@njit(parallel=True, fastmath=False, cache=True)``; without numba
the same function runs interpreted, which keeps the kernel logic
testable on numba-free installs (the production fallback there is the
vectorized numpy evaluator in :mod:`repro.gravity.treeforce`, not the
interpreted loop).

``fastmath`` stays **off**: the backend-agreement contract is a
<= 1e-12 relative acc difference against the numpy reference, and the
kernel performs the same arithmetic in the same per-sink order — only
reduction internals (einsum/reduceat partial sums) differ.

Backend selection (``resolve_backend``): an explicit ``"numpy"`` or
``"compiled"`` wins; ``"auto"`` (the config default) consults the
``REPRO_FORCE_BACKEND`` environment variable and falls back to
compiled-when-available.  Requesting ``"compiled"`` without numba
degrades gracefully to numpy and records the reason.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from ..multipoles import multi_index_set
from ..multipoles.dtensors import recurrence_plan
from ..multipoles.multiindex import n_coeffs
from ..multipoles.radial import (
    ErfcKernel,
    ErfKernel,
    NewtonianKernel,
    PlummerKernel,
    _ErfFamilyKernel,
)
from .smoothing import (
    DehnenK1Softening,
    NoSoftening,
    PlummerSoftening,
    SplineSoftening,
)

__all__ = [
    "NUMBA_AVAILABLE",
    "resolve_backend",
    "kernel_available",
    "get_force_kernel",
    "set_kernel_threads",
    "active_kernel_threads",
    "kernel_specs",
    "run_csr_kernel",
    "run_m2l_kernel",
    "run_l2l_kernel",
    "run_l2p_kernel",
    "kernel_counters",
    "merge_kernel_counters",
]

try:  # import-guarded: the repo must import and pass tier-1 without numba
    import numba
    from numba import prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via monkeypatched reload
    numba = None
    prange = range
    NUMBA_AVAILABLE = False

#: radial-kernel kinds understood by the kernel body
_KERN_NEWTONIAN, _KERN_PLUMMER, _KERN_ERFFAMILY = 0, 1, 2
#: softening kinds understood by the kernel body
_SOFT_NONE, _SOFT_PLUMMER, _SOFT_SPLINE, _SOFT_DEHNEN = 0, 1, 2, 3

_EMPTY_F8 = np.zeros(0, dtype=np.float64)
_EMPTY_I8 = np.zeros(1, dtype=np.int64)


def _py_kernel_forced() -> bool:
    """Testing hook: run the interpreted kernel as the 'compiled' backend.

    ``REPRO_FORCE_PYKERNEL=1`` makes the backend dispatcher treat the
    uncompiled kernel body as available — orders of magnitude slower
    than numpy, but it exercises the exact code numba would compile,
    which is how numba-free CI proves the kernel logic.
    """
    return os.environ.get("REPRO_FORCE_PYKERNEL", "").strip().lower() in (
        "1", "true", "yes",
    )


def kernel_available() -> bool:
    """Can the 'compiled' backend actually run here?"""
    return NUMBA_AVAILABLE or _py_kernel_forced()


def resolve_backend_ex(requested: str | None) -> tuple[str, str | None]:
    """Resolve a backend request to ``(backend, fallback_reason)``.

    ``None``/"auto" consult ``REPRO_FORCE_BACKEND`` and default to
    compiled-when-available; an explicit "compiled" without a usable
    kernel degrades to "numpy" with the reason recorded.
    """
    req = (requested or "auto").strip().lower()
    if req == "auto":
        req = os.environ.get("REPRO_FORCE_BACKEND", "").strip().lower() or "auto"
    if req not in ("auto", "numpy", "compiled"):
        raise ValueError(
            f"unknown force backend {req!r} (expected auto|numpy|compiled)"
        )
    if req == "numpy":
        return "numpy", None
    if kernel_available():
        return "compiled", None
    if req == "compiled":
        return "numpy", "compiled backend requested but numba is not installed"
    return "numpy", None


def resolve_backend(requested: str | None) -> str:
    """The backend that will run for ``requested`` (see resolve_backend_ex)."""
    return resolve_backend_ex(requested)[0]


def set_kernel_threads(n: int | None) -> None:
    """Cap numba's thread pool (worker-pool oversubscription guard).

    The executor calls this in each worker with
    ``cpu_count // workers`` so ``workers > 1`` composed with the
    threaded kernel does not oversubscribe the node.  No-op without
    numba or with ``n=None``.
    """
    if n is None or not NUMBA_AVAILABLE:
        return
    try:
        limit = int(numba.config.NUMBA_NUM_THREADS)
        numba.set_num_threads(max(1, min(int(n), limit)))
    except Exception:  # pragma: no cover - defensive: never break a solve
        pass


def active_kernel_threads() -> int:
    """Threads the jitted kernel's ``prange`` will actually use."""
    if not NUMBA_AVAILABLE:
        return 1
    try:
        return int(numba.get_num_threads())
    except Exception:  # pragma: no cover - defensive
        return 1


# ---------------------------------------------------------------------------
# roofline counters
# ---------------------------------------------------------------------------


def kernel_counters(
    tree,
    inter,
    *,
    p: int,
    want_potential: bool,
    seconds: float,
    backend: str,
    cell_interactions: int,
    cell_entries: int,
    cell_per_row: np.ndarray | None = None,
    threads: int = 1,
    prism_interactions: int = 0,
    prism_cubes: int = 0,
) -> dict:
    """Roofline counters of one CSR force evaluation (paper §3.2/§3.4).

    Everything is derived from the CSR interaction lists plus the
    measured kernel seconds, so the numbers are identical accounting
    for both backends: interactions by family, an honest flop count
    from :mod:`repro.perfmodel.flops`, achieved interactions/s and
    effective GFLOP/s, the m x n tile shape the blocked kernel sees
    (m = sink particles per CSR row, n = sources per entry) with its
    register-block occupancy, a static-schedule thread-utilization
    estimate, and the fraction of the machine-model prediction reached.

    ``seconds`` covers the cell, pp and m2l families, so ``interactions``
    and ``flops`` count those only; the prism pass (timed separately in
    ``stats["family_seconds"]``) is carried as ``prism_interactions``
    (particle x merged box rows evaluated) and ``prism_cubes`` (the
    particle x cube pairs they stand for) and stays out of the rates.
    The cell family is counted by the evaluator —
    ``cell_interactions`` particle x cell rows from
    ``cell_entries`` accept-level entries, each with its own flop count;
    ``cell_per_row`` (entries per sink-leaf row of the fanned-out view)
    only weights the thread-utilization estimate of the compiled
    kernel.
    """
    from ..parallel.machine import MachineModel
    from ..perfmodel.flops import (
        FLOPS_PER_MONOPOLE_PP,
        flops_per_cell_entry,
        flops_per_cell_interaction,
    )

    sinks = inter.sink_leaves
    rows = int(len(sinks))
    leaf_np = tree.cell_count[sinks] if rows else np.zeros(0, dtype=np.int64)
    if cell_per_row is None:
        cell_per_row = np.zeros(rows, dtype=np.int64)
    pp_per_row = np.zeros(rows, dtype=np.int64)
    n_pp_mean = 0.0
    if len(inter.leaf_sink):
        ct_ent = tree.cell_count[inter.leaf_src]
        nent = np.diff(inter.leaf_indptr)
        nz = nent > 0
        if np.any(nz):
            pp_per_row[nz] = np.add.reduceat(ct_ent, inter.leaf_indptr[:-1][nz])
        if len(ct_ent):
            n_pp_mean = float(ct_ent.mean())
    cell_inter = int(cell_interactions)
    pp_inter = int((pp_per_row * leaf_np).sum())
    m2l_pairs = 0
    l2p_inter = 0
    if getattr(inter, "m2l_src", None) is not None and len(inter.m2l_src):
        from ..perfmodel.flops import flops_per_l2p, flops_per_m2l

        m2l_pairs = int(len(inter.m2l_src))
        l2p_inter = int(leaf_np.sum())
    total = cell_inter + pp_inter + m2l_pairs + l2p_inter
    cell_flops = flops_per_cell_interaction(p, want_potential)
    flops = float(
        cell_inter * cell_flops
        + int(cell_entries) * flops_per_cell_entry(p)
        + pp_inter * FLOPS_PER_MONOPOLE_PP
    )
    if m2l_pairs:
        flops += float(
            m2l_pairs * flops_per_m2l(p)
            + l2p_inter * flops_per_l2p(p, want_potential)
        )
    m_mean = float(leaf_np.mean()) if rows else 0.0
    m_max = int(leaf_np.max()) if rows else 0
    # static-schedule balance over the prange rows: per-row flop weight,
    # split into `threads` contiguous chunks; utilization = mean/max
    util = 1.0
    if threads > 1 and rows:
        weight = (cell_per_row * leaf_np * cell_flops
                  + pp_per_row * leaf_np * FLOPS_PER_MONOPOLE_PP).astype(np.float64)
        sums = np.array([c.sum() for c in np.array_split(weight, threads)])
        util = float(sums.mean() / sums.max()) if sums.max() > 0 else 1.0
    sec = max(float(seconds), 1e-12)
    gflops = flops / sec / 1e9
    model_gflops = MachineModel().flops_per_core * max(int(threads), 1) / 1e9
    return {
        "backend": backend,
        "seconds": float(seconds),
        "interactions": total,
        "cell_interactions": cell_inter,
        "cell_entries": int(cell_entries),
        "pp_interactions": pp_inter,
        "m2l_pairs": m2l_pairs,
        "l2p_interactions": l2p_inter,
        "prism_interactions": int(prism_interactions),
        "prism_cubes": int(prism_cubes),
        "flops": flops,
        "interactions_per_s": total / sec,
        "gflops": gflops,
        "rows": rows,
        "m_mean": m_mean,
        "m_max": m_max,
        "n_pp_mean": n_pp_mean,
        "tile_occupancy": (m_mean / m_max) if m_max else 0.0,
        "threads": max(int(threads), 1),
        "thread_utilization": util,
        "model_gflops": model_gflops,
        "model_fraction": gflops / model_gflops if model_gflops else 0.0,
    }


def merge_kernel_counters(parts: list[dict]) -> dict | None:
    """Combine per-shard kernel counters into one record.

    Additive fields sum; ``seconds`` sums *busy* kernel seconds across
    shards, so the recomputed rates are per-busy-second throughput —
    comparable to a single-thread rate, not to the pool wall-clock.
    Shape/utilization fields average weighted by interaction rows.
    """
    parts = [k for k in parts if k]
    if not parts:
        return None
    out = {"backend": parts[-1].get("backend", "numpy")}
    for key in ("interactions", "cell_interactions", "cell_entries",
                "pp_interactions", "m2l_pairs", "l2p_interactions",
                "prism_interactions", "prism_cubes", "rows"):
        out[key] = int(sum(k.get(key, 0) for k in parts))
    out["flops"] = float(sum(k.get("flops", 0.0) for k in parts))
    out["seconds"] = float(sum(k.get("seconds", 0.0) for k in parts))
    sec = max(out["seconds"], 1e-12)
    out["interactions_per_s"] = out["interactions"] / sec
    out["gflops"] = out["flops"] / sec / 1e9
    # weights: every row a shard ran through its tiles, prism included
    w = np.array(
        [
            max(k.get("interactions", 0) + k.get("prism_interactions", 0), 1)
            for k in parts
        ],
        dtype=float,
    )
    for key in ("m_mean", "n_pp_mean", "tile_occupancy", "thread_utilization"):
        out[key] = float(np.average([k.get(key, 0.0) for k in parts], weights=w))
    out["m_max"] = int(max(k.get("m_max", 0) for k in parts))
    out["threads"] = int(max(k.get("threads", 1) for k in parts))
    out["model_gflops"] = float(max(k.get("model_gflops", 0.0) for k in parts))
    out["model_fraction"] = (
        out["gflops"] / out["model_gflops"] if out["model_gflops"] else 0.0
    )
    return out


# ---------------------------------------------------------------------------
# kernel parameter marshalling
# ---------------------------------------------------------------------------


def _softening_spec(softening) -> tuple[int, float, float] | None:
    """(kind, eps-like scale, r_split) for the kernel body; None if unsupported.

    ``r_split > 0`` applies GADGET-2's short-range TreePM filter on top
    of the base softening (see :class:`repro.gravity.pm.ShortRangeSoftening`).
    """
    t = type(softening)
    if t is NoSoftening:
        return _SOFT_NONE, 0.0, 0.0
    if t is PlummerSoftening:
        return _SOFT_PLUMMER, softening.eps, 0.0
    if t is SplineSoftening:
        return _SOFT_SPLINE, softening.h, 0.0
    if t is DehnenK1Softening:
        return _SOFT_DEHNEN, softening.h, 0.0
    from .pm import ShortRangeSoftening  # local: pm imports treeforce

    if t is ShortRangeSoftening:
        base = _softening_spec(softening.base)
        if base is None or base[2] != 0.0:
            return None
        return base[0], base[1], softening.r_split
    return None


def _erf_chain_tables(kernel: _ErfFamilyKernel, mmax: int):
    """Flatten the symbolic erf/erfc derivative chain into CSR tables.

    Level m of the chain is a small sum of ``c * r^p * F(a r)`` and
    ``d * r^q * exp(-a^2 r^2)`` terms; the tables hold (power, coeff)
    runs per level, in the chain's own term order.
    """
    kernel._extend(mmax)
    e_pow, e_coef, e_ptr = [], [], [0]
    g_pow, g_coef, g_ptr = [], [], [0]
    for m in range(mmax + 1):
        e, g = kernel._chains[m]
        for p, c in e.items():
            e_pow.append(float(p))
            e_coef.append(c)
        for q, c in g.items():
            g_pow.append(float(q))
            g_coef.append(c)
        e_ptr.append(len(e_pow))
        g_ptr.append(len(g_pow))
    return (
        np.array(e_pow, dtype=np.float64),
        np.array(e_coef, dtype=np.float64),
        np.array(e_ptr, dtype=np.int64),
        np.array(g_pow, dtype=np.float64),
        np.array(g_coef, dtype=np.float64),
        np.array(g_ptr, dtype=np.int64),
    )


def _radial_spec(kernel, pmax: int):
    """Kernel-body parameters for a radial Green's function; None if unknown."""
    t = type(kernel)
    if t is NewtonianKernel:
        return (_KERN_NEWTONIAN, 0.0, 0.0, False,
                _EMPTY_F8, _EMPTY_F8, _EMPTY_I8, _EMPTY_F8, _EMPTY_F8, _EMPTY_I8)
    if t is PlummerKernel:
        return (_KERN_PLUMMER, kernel.eps, 0.0, False,
                _EMPTY_F8, _EMPTY_F8, _EMPTY_I8, _EMPTY_F8, _EMPTY_F8, _EMPTY_I8)
    if t in (ErfcKernel, ErfKernel):
        tables = _erf_chain_tables(kernel, pmax)
        return (_KERN_ERFFAMILY, 0.0, kernel.alpha, t is ErfKernel, *tables)
    return None


def kernel_specs(kernel, softening, p: int):
    """Marshal (radial kernel, softening) into kernel-body parameters.

    Returns ``(radial_spec, soft_spec)`` or ``None`` when either side is
    a type the compiled kernel does not implement — the caller then
    falls back to the numpy evaluator.  Exact-type checks on purpose:
    an unknown subclass overriding the math must not be silently
    evaluated with the base-class formulas.
    """
    rs = _radial_spec(kernel, p + 1)
    ss = _softening_spec(softening)
    if rs is None or ss is None:
        return None
    return rs, ss


@functools.lru_cache(maxsize=16)
def _plan_arrays(pmax: int):
    """Derivative-tensor recurrence plan as flat arrays (kernel input)."""
    mis_hi, plan = recurrence_plan(pmax)
    tgt = np.array([s[0] for s in plan], dtype=np.int64)
    axis = np.array([s[1] for s in plan], dtype=np.int64)
    idx1 = np.array([s[2] for s in plan], dtype=np.int64)
    idx2 = np.array([s[3] for s in plan], dtype=np.int64)
    fac = np.array([s[4] for s in plan], dtype=np.float64)
    orders = mis_hi.order.astype(np.int64)
    return tgt, axis, idx1, idx2, fac, orders


@functools.lru_cache(maxsize=16)
def _acc_cols_arr(p: int) -> np.ndarray:
    """Packed column indices of D_{alpha+e_i} per axis (kernel input)."""
    mis = multi_index_set(p)
    mis_hi = multi_index_set(p + 1)
    cols = np.empty((3, len(mis)), dtype=np.int64)
    for i in range(3):
        e = np.zeros(3, dtype=np.int64)
        e[i] = 1
        for j, a in enumerate(mis.alphas):
            cols[i, j] = mis_hi.index[tuple(int(x) for x in (a + e))]
    return cols


@functools.lru_cache(maxsize=8)
def _moment_weights(p: int) -> np.ndarray:
    mis = multi_index_set(p)
    return ((-1.0) ** mis.order) / mis.factorial


# ---------------------------------------------------------------------------
# the kernel body (numba-compilable pure-python)
# ---------------------------------------------------------------------------


def _csr_force_kernel(
    # particle / cell arrays (key-sorted SoA)
    pos, mass, cell_start, cell_count, cell_center,
    # CSR interaction lists (rows follow sink_leaves)
    sink_leaves, cell_indptr, cell_src, cell_off,
    leaf_indptr, leaf_src, leaf_off,
    # periodic images
    offsets, home_off,
    # multipole data: premultiplied moments and the recurrence plan
    wm, plan_tgt, plan_axis, plan_idx1, plan_idx2, plan_fac, orders, acc_cols,
    pmax, ncoef, nhi,
    # radial kernel spec
    kern_kind, kern_eps, kern_alpha, kern_use_erf,
    ke_pow, ke_coef, ke_ptr, kg_pow, kg_coef, kg_ptr,
    # softening spec
    soft_kind, soft_eps, soft_rsplit,
    # output layout
    want_potential, s0,
    acc, pot,
):  # pragma: no cover - covered via run_csr_kernel in the backend tests
    nrows = len(sink_leaves)
    for row in prange(nrows):
        leaf = sink_leaves[row]
        a0 = cell_start[leaf]
        m = cell_count[leaf]
        # ---- the m-sink block: local coordinates and accumulators ----
        sx = np.empty(m, dtype=np.float64)
        sy = np.empty(m, dtype=np.float64)
        sz = np.empty(m, dtype=np.float64)
        axl = np.zeros(m, dtype=np.float64)
        ayl = np.zeros(m, dtype=np.float64)
        azl = np.zeros(m, dtype=np.float64)
        phl = np.zeros(m, dtype=np.float64)
        for i in range(m):
            sx[i] = pos[a0 + i, 0]
            sy[i] = pos[a0 + i, 1]
            sz[i] = pos[a0 + i, 2]
        gch = np.empty(pmax + 1, dtype=np.float64)
        rm = np.empty((pmax + 1, nhi), dtype=np.float64)

        # ---- cell (multipole) tiles ----------------------------------
        for e in range(cell_indptr[row], cell_indptr[row + 1]):
            src = cell_src[e]
            off = cell_off[e]
            cx = cell_center[src, 0] + offsets[off, 0]
            cy = cell_center[src, 1] + offsets[off, 1]
            cz = cell_center[src, 2] + offsets[off, 2]
            for i in range(m):
                dx = sx[i] - cx
                dy = sy[i] - cy
                dz = sz[i] - cz
                r2 = dx * dx + dy * dy + dz * dz
                r = math.sqrt(r2)
                # radial derivative chain g_0..g_pmax
                if kern_kind == 0:  # Newtonian 1/r
                    inv_r2 = 1.0 / r2
                    g = 1.0 / r
                    gch[0] = g
                    for mm in range(1, pmax + 1):
                        g = g * (-(2.0 * mm - 1.0)) * inv_r2
                        gch[mm] = g
                elif kern_kind == 1:  # Plummer-smoothed
                    s2 = r2 + kern_eps * kern_eps
                    inv_s2 = 1.0 / s2
                    g = math.sqrt(inv_s2)
                    gch[0] = g
                    for mm in range(1, pmax + 1):
                        g = g * (-(2.0 * mm - 1.0)) * inv_s2
                        gch[mm] = g
                else:  # erfc/erf over r (Ewald / TreePM split)
                    if kern_use_erf:
                        fval = math.erf(kern_alpha * r)
                    else:
                        fval = math.erfc(kern_alpha * r)
                    gauss = math.exp(-(kern_alpha * kern_alpha) * r2)
                    for mm in range(pmax + 1):
                        s = 0.0
                        for t in range(ke_ptr[mm], ke_ptr[mm + 1]):
                            s += ke_coef[t] * r ** ke_pow[t] * fval
                        for t in range(kg_ptr[mm], kg_ptr[mm + 1]):
                            s += kg_coef[t] * r ** kg_pow[t] * gauss
                        gch[mm] = s
                # derivative-tensor recurrence (plan-driven, any order)
                for mm in range(pmax + 1):
                    rm[mm, 0] = gch[mm]
                for t in range(len(plan_tgt)):
                    tgt = plan_tgt[t]
                    o = orders[tgt]
                    i1 = plan_idx1[t]
                    i2 = plan_idx2[t]
                    fac = plan_fac[t]
                    axn = plan_axis[t]
                    if axn == 0:
                        xv = dx
                    elif axn == 1:
                        xv = dy
                    else:
                        xv = dz
                    for mm in range(pmax - o, -1, -1):
                        v = xv * rm[mm + 1, i1]
                        if i2 >= 0 and fac != 0.0:
                            v = v + fac * rm[mm + 1, i2]
                        rm[mm, tgt] = v
                # contract with the source cell's weighted moments
                aix = 0.0
                aiy = 0.0
                aiz = 0.0
                ph = 0.0
                for j in range(ncoef):
                    wj = wm[src, j]
                    aix += rm[0, acc_cols[0, j]] * wj
                    aiy += rm[0, acc_cols[1, j]] * wj
                    aiz += rm[0, acc_cols[2, j]] * wj
                    if want_potential:
                        ph += rm[0, j] * wj
                axl[i] += aix
                ayl[i] += aiy
                azl[i] += aiz
                if want_potential:
                    phl[i] += ph

        # ---- leaf (particle-particle) tiles --------------------------
        for e in range(leaf_indptr[row], leaf_indptr[row + 1]):
            srcc = leaf_src[e]
            off = leaf_off[e]
            ox = offsets[off, 0]
            oy = offsets[off, 1]
            oz = offsets[off, 2]
            is_home = off == home_off
            b0 = cell_start[srcc]
            nsrc = cell_count[srcc]
            for j in range(nsrc):
                px = pos[b0 + j, 0] + ox
                py = pos[b0 + j, 1] + oy
                pz = pos[b0 + j, 2] + oz
                pmass = mass[b0 + j]
                for i in range(m):
                    if is_home and a0 + i == b0 + j:
                        continue  # self interaction
                    dx = sx[i] - px
                    dy = sy[i] - py
                    dz = sz[i] - pz
                    r = math.sqrt(dx * dx + dy * dy + dz * dz)
                    # softened force factor F and potential psi
                    psi = 0.0
                    if soft_kind == 0:  # none
                        f = 1.0 / (r * r * r)
                        if want_potential:
                            psi = 1.0 / r
                    elif soft_kind == 1:  # plummer
                        q2 = r * r + soft_eps * soft_eps
                        f = q2 ** -1.5
                        if want_potential:
                            psi = q2 ** -0.5
                    elif soft_kind == 2:  # cubic spline (h = 2.8 eps)
                        h = soft_eps
                        u = r / h
                        if u >= 1.0:
                            rs = max(r, 1e-300)
                            f = 1.0 / rs ** 3
                            if want_potential:
                                psi = 1.0 / rs
                        elif u < 0.5:
                            f = (10.666666666667 + u * u * (32.0 * u - 38.4)) / h ** 3
                            if want_potential:
                                psi = -1.0 / h * (
                                    -2.8
                                    + u ** 2 * (5.333333333333 + u ** 2 * (6.4 * u - 9.6))
                                )
                        else:
                            f = (
                                21.333333333333
                                - 48.0 * u
                                + 38.4 * u * u
                                - 10.666666666667 * u ** 3
                                - 0.066666666667 / u ** 3
                            ) / h ** 3
                            if want_potential:
                                psi = -1.0 / h * (
                                    -3.2
                                    + 0.066666666667 / u
                                    + u ** 2
                                    * (10.666666666667
                                       + u * (-16.0 + u * (9.6 - 2.133333333333 * u)))
                                )
                    else:  # Dehnen K1 (h = eps)
                        h = soft_eps
                        u = r / h
                        if u >= 1.0:
                            rs = max(r, 1e-300)
                            f = 1.0 / rs ** 3
                            if want_potential:
                                psi = 1.0 / rs
                        else:
                            ui = min(u, 1.0)
                            f = (17.5 - 31.5 * ui ** 2 + 15.0 * ui ** 4) / h ** 3
                            if want_potential:
                                psi = (
                                    4.375 - 8.75 * ui ** 2 + 7.875 * ui ** 4
                                    - 2.5 * ui ** 6
                                ) / h
                    if soft_rsplit > 0.0:
                        # GADGET-2 short-range TreePM filter (same
                        # expression order as ShortRangeSoftening)
                        u = r / (2.0 * soft_rsplit)
                        ec = math.erfc(u)
                        f = f * (
                            ec + 2.0 * u / math.sqrt(math.pi) * math.exp(-u * u)
                        )
                        if want_potential:
                            psi = psi * ec
                    fm = pmass * f
                    axl[i] -= fm * dx
                    ayl[i] -= fm * dy
                    azl[i] -= fm * dz
                    if want_potential:
                        phl[i] += pmass * psi

        # ---- write the block back (rows own disjoint particle ranges)
        for i in range(m):
            out = a0 + i - s0
            acc[out, 0] += axl[i]
            acc[out, 1] += ayl[i]
            acc[out, 2] += azl[i]
            if want_potential:
                pot[out] += phl[i]


_JITTED = None


def _jit_kernel():
    """Compile (once) the kernel body with numba."""
    global _JITTED
    if _JITTED is None:
        _JITTED = numba.njit(parallel=True, fastmath=False, cache=True)(
            _csr_force_kernel
        )
    return _JITTED


def get_force_kernel():
    """The callable the 'compiled' backend dispatches to, or None.

    numba-jitted when numba is installed; the interpreted kernel body
    when ``REPRO_FORCE_PYKERNEL`` forces it (tests); None otherwise.
    """
    if NUMBA_AVAILABLE:
        return _jit_kernel()
    if _py_kernel_forced():
        return _csr_force_kernel
    return None


def _i8(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _f8(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def run_csr_kernel(
    tree,
    moms,
    inter,
    cell_csr,
    spec,
    want_potential: bool,
    s0: int,
    acc: np.ndarray,
    pot: np.ndarray | None,
    kernel_fn=None,
) -> None:
    """Evaluate the cell + pp families of CSR lists through the kernel.

    ``cell_csr`` is the cell family fanned out to the sink leaves,
    ``inter.cell_leaf_csr(tree)``: the kernel walks one particle x cell
    term at a time.  Accumulates into ``acc`` (and ``pot``) in
    key-sorted order offset by ``s0``; the analytic background (prism)
    family is evaluated by the shared numpy pass in
    :mod:`repro.gravity.treeforce`, identically for both backends.
    """
    fn = kernel_fn if kernel_fn is not None else get_force_kernel()
    if fn is None:
        raise RuntimeError("no compiled force kernel available")
    radial, soft = spec
    (kern_kind, kern_eps, kern_alpha, kern_use_erf,
     ke_pow, ke_coef, ke_ptr, kg_pow, kg_coef, kg_ptr) = radial
    soft_kind, soft_eps, soft_rsplit = soft
    p = moms.p
    pmax = p + 1
    ncoef = n_coeffs(p)
    nhi = n_coeffs(pmax)
    plan_tgt, plan_axis, plan_idx1, plan_idx2, plan_fac, orders = _plan_arrays(pmax)
    wm = np.ascontiguousarray(moms.moments[:, :ncoef]) * _moment_weights(p)
    home_off = int(np.flatnonzero(np.all(inter.offsets == 0.0, axis=1))[0])
    pot_arr = pot if pot is not None else _EMPTY_F8
    cell_src, cell_off, cell_indptr = cell_csr
    fn(
        _f8(tree.pos), _f8(tree.mass),
        _i8(tree.cell_start), _i8(tree.cell_count), _f8(tree.cell_center),
        _i8(inter.sink_leaves), _i8(cell_indptr),
        _i8(cell_src), _i8(cell_off),
        _i8(inter.leaf_indptr), _i8(inter.leaf_src), _i8(inter.leaf_off),
        _f8(inter.offsets), home_off,
        wm, plan_tgt, plan_axis, plan_idx1, plan_idx2, plan_fac, orders,
        _acc_cols_arr(p), pmax, ncoef, nhi,
        kern_kind, kern_eps, kern_alpha, kern_use_erf,
        ke_pow, ke_coef, ke_ptr, kg_pow, kg_coef, kg_ptr,
        soft_kind, soft_eps, soft_rsplit,
        want_potential, s0,
        acc, pot_arr,
    )


# ---------------------------------------------------------------------------
# fmm-hybrid far field: M2L / L2L / L2P kernel bodies
# ---------------------------------------------------------------------------


def _m2l_kernel(
    cell_center, offsets,
    m2l_cells, m2l_indptr, m2l_src, m2l_off,
    # premultiplied source moments and the triangular gather tables
    wm, acol, ccol, biptr,
    plan_tgt, plan_axis, plan_idx1, plan_idx2, plan_fac, orders,
    pmax, nhi, nloc,
    # radial kernel spec (same chain as the force kernel)
    kern_kind, kern_eps, kern_alpha, kern_use_erf,
    ke_pow, ke_coef, ke_ptr, kg_pow, kg_coef, kg_ptr,
    locs,
):  # pragma: no cover - covered via run_m2l_kernel in the hybrid tests
    nrows = len(m2l_cells)
    for row in prange(nrows):
        c = m2l_cells[row]
        cx0 = cell_center[c, 0]
        cy0 = cell_center[c, 1]
        cz0 = cell_center[c, 2]
        gch = np.empty(pmax + 1, dtype=np.float64)
        rm = np.empty((pmax + 1, nhi), dtype=np.float64)
        for e in range(m2l_indptr[row], m2l_indptr[row + 1]):
            src = m2l_src[e]
            off = m2l_off[e]
            dx = cx0 - (cell_center[src, 0] + offsets[off, 0])
            dy = cy0 - (cell_center[src, 1] + offsets[off, 1])
            dz = cz0 - (cell_center[src, 2] + offsets[off, 2])
            r2 = dx * dx + dy * dy + dz * dz
            r = math.sqrt(r2)
            if kern_kind == 0:  # Newtonian 1/r
                inv_r2 = 1.0 / r2
                g = 1.0 / r
                gch[0] = g
                for mm in range(1, pmax + 1):
                    g = g * (-(2.0 * mm - 1.0)) * inv_r2
                    gch[mm] = g
            elif kern_kind == 1:  # Plummer-smoothed
                s2 = r2 + kern_eps * kern_eps
                inv_s2 = 1.0 / s2
                g = math.sqrt(inv_s2)
                gch[0] = g
                for mm in range(1, pmax + 1):
                    g = g * (-(2.0 * mm - 1.0)) * inv_s2
                    gch[mm] = g
            else:  # erfc/erf over r (Ewald / TreePM split)
                if kern_use_erf:
                    fval = math.erf(kern_alpha * r)
                else:
                    fval = math.erfc(kern_alpha * r)
                gauss = math.exp(-(kern_alpha * kern_alpha) * r2)
                for mm in range(pmax + 1):
                    s = 0.0
                    for t in range(ke_ptr[mm], ke_ptr[mm + 1]):
                        s += ke_coef[t] * r ** ke_pow[t] * fval
                    for t in range(kg_ptr[mm], kg_ptr[mm + 1]):
                        s += kg_coef[t] * r ** kg_pow[t] * gauss
                    gch[mm] = s
            for mm in range(pmax + 1):
                rm[mm, 0] = gch[mm]
            for t in range(len(plan_tgt)):
                tgt = plan_tgt[t]
                o = orders[tgt]
                i1 = plan_idx1[t]
                i2 = plan_idx2[t]
                fac = plan_fac[t]
                axn = plan_axis[t]
                if axn == 0:
                    xv = dx
                elif axn == 1:
                    xv = dy
                else:
                    xv = dz
                for mm in range(pmax - o, -1, -1):
                    v = xv * rm[mm + 1, i1]
                    if i2 >= 0 and fac != 0.0:
                        v = v + fac * rm[mm + 1, i2]
                    rm[mm, tgt] = v
            # triangular contraction: local beta sums sources with
            # |alpha| + |beta| <= pmax
            for bi in range(nloc):
                sacc = 0.0
                for t in range(biptr[bi], biptr[bi + 1]):
                    sacc += wm[src, acol[t]] * rm[0, ccol[t]]
                locs[row, bi] += sacc


def _l2l_kernel(
    parent_local, d,
    tt_tgt, tt_src, tt_shift, tt_w, alphas,
    pmax, nloc,
    out,
):  # pragma: no cover - covered via run_l2l_kernel in the hybrid tests
    n = len(d)
    for k in prange(n):
        px = np.empty(pmax + 1, dtype=np.float64)
        py = np.empty(pmax + 1, dtype=np.float64)
        pz = np.empty(pmax + 1, dtype=np.float64)
        px[0] = 1.0
        py[0] = 1.0
        pz[0] = 1.0
        for q in range(1, pmax + 1):
            px[q] = px[q - 1] * d[k, 0]
            py[q] = py[q - 1] * d[k, 1]
            pz[q] = pz[q - 1] * d[k, 2]
        mono = np.empty(nloc, dtype=np.float64)
        for j in range(nloc):
            mono[j] = px[alphas[j, 0]] * py[alphas[j, 1]] * pz[alphas[j, 2]]
        # same table order and association as the numpy np.add.at path,
        # so the compiled sweep is bit-identical to the reference
        for t in range(len(tt_tgt)):
            out[k, tt_src[t]] += (
                parent_local[k, tt_tgt[t]] * mono[tt_shift[t]] * tt_w[t]
            )


def _l2p_kernel(
    pos, cell_start, cell_count, cell_center,
    sink_leaves, row_local,
    alphas, wf, grad_cols,
    pmax, ncoef, nloc,
    want_potential, s0,
    acc, pot,
):  # pragma: no cover - covered via run_l2p_kernel in the hybrid tests
    nrows = len(sink_leaves)
    for row in prange(nrows):
        leaf = sink_leaves[row]
        a0 = cell_start[leaf]
        m = cell_count[leaf]
        cx = cell_center[leaf, 0]
        cy = cell_center[leaf, 1]
        cz = cell_center[leaf, 2]
        px = np.empty(pmax + 1, dtype=np.float64)
        py = np.empty(pmax + 1, dtype=np.float64)
        pz = np.empty(pmax + 1, dtype=np.float64)
        mono = np.empty(nloc, dtype=np.float64)
        for i in range(m):
            sx = pos[a0 + i, 0] - cx
            sy = pos[a0 + i, 1] - cy
            sz = pos[a0 + i, 2] - cz
            px[0] = 1.0
            py[0] = 1.0
            pz[0] = 1.0
            for q in range(1, pmax + 1):
                px[q] = px[q - 1] * sx
                py[q] = py[q - 1] * sy
                pz[q] = pz[q - 1] * sz
            for j in range(nloc):
                mono[j] = px[alphas[j, 0]] * py[alphas[j, 1]] * pz[alphas[j, 2]]
            ax = 0.0
            ay = 0.0
            az = 0.0
            ph = 0.0
            for j in range(ncoef):
                b = mono[j] * wf[j]
                ax += b * row_local[row, grad_cols[0, j]]
                ay += b * row_local[row, grad_cols[1, j]]
                az += b * row_local[row, grad_cols[2, j]]
            if want_potential:
                for j in range(nloc):
                    ph += mono[j] * wf[j] * row_local[row, j]
            out = a0 + i - s0
            acc[out, 0] += ax
            acc[out, 1] += ay
            acc[out, 2] += az
            if want_potential:
                pot[out] += ph


_JITTED_AUX: dict[str, object] = {}
_AUX_BODIES = {"m2l": _m2l_kernel, "l2l": _l2l_kernel, "l2p": _l2p_kernel}


def _get_aux_kernel(name: str):
    """Jitted (or interpreted, under REPRO_FORCE_PYKERNEL) aux kernel."""
    if NUMBA_AVAILABLE:
        fn = _JITTED_AUX.get(name)
        if fn is None:
            fn = numba.njit(parallel=True, fastmath=False, cache=True)(
                _AUX_BODIES[name]
            )
            _JITTED_AUX[name] = fn
        return fn
    if _py_kernel_forced():
        return _AUX_BODIES[name]
    return None


def run_m2l_kernel(tree, moms, inter, kernel, tables, locs) -> bool:
    """Accumulate per-sink-cell locals through the compiled M2L kernel.

    Builds its own radial spec at the M2L order ``tables.P`` (two above
    the force kernel's chain, so it cannot share treeforce's spec).
    Returns False (leaving ``locs`` untouched) when no kernel is
    available so the caller can fall back to the numpy path.
    """
    fn = _get_aux_kernel("m2l")
    if fn is None:
        return False
    radial_spec = _radial_spec(kernel, tables.P)
    if radial_spec is None:
        return False
    (kern_kind, kern_eps, kern_alpha, kern_use_erf,
     ke_pow, ke_coef, ke_ptr, kg_pow, kg_coef, kg_ptr) = radial_spec
    pmax = tables.P
    nhi = n_coeffs(pmax)
    plan_tgt, plan_axis, plan_idx1, plan_idx2, plan_fac, orders = _plan_arrays(
        pmax
    )
    wm = np.ascontiguousarray(moms.moments[:, :nhi]) * tables.wsrc
    fn(
        _f8(tree.cell_center), _f8(inter.offsets),
        _i8(inter.m2l_cells), _i8(inter.m2l_indptr),
        _i8(inter.m2l_src), _i8(inter.m2l_off),
        wm, _i8(tables.acol), _i8(tables.ccol), _i8(tables.biptr),
        plan_tgt, plan_axis, plan_idx1, plan_idx2, plan_fac, orders,
        pmax, nhi, tables.nloc,
        kern_kind, kern_eps, kern_alpha, kern_use_erf,
        ke_pow, ke_coef, ke_ptr, kg_pow, kg_coef, kg_ptr,
        locs,
    )
    return True


@functools.lru_cache(maxsize=8)
def _l2l_table_arrays(p_loc: int):
    mis = multi_index_set(p_loc)
    tgt, srcb, shift, _binom = mis.translation_table
    return (
        _i8(tgt), _i8(srcb), _i8(shift),
        _f8(1.0 / mis.factorial[shift]),
        _i8(mis.alphas),
        len(mis),
    )


def run_l2l_kernel(parent_local, d, p_loc: int) -> np.ndarray | None:
    """One level of L2L translations; None when no kernel is available."""
    fn = _get_aux_kernel("l2l")
    if fn is None:
        return None
    tgt, srcb, shift, w, alphas, nloc = _l2l_table_arrays(p_loc)
    out = np.zeros_like(parent_local)
    fn(_f8(parent_local), _f8(d), tgt, srcb, shift, w, alphas, p_loc, nloc, out)
    return out


def run_l2p_kernel(
    tree, inter, row_local, p: int, want_potential: bool, s0: int, acc, pot
) -> bool:
    """Evaluate leaf locals at the sink particles through the kernel."""
    fn = _get_aux_kernel("l2p")
    if fn is None:
        return False
    from .localexp import l2p_gradient_columns

    mis_hi = multi_index_set(p + 2)
    fn(
        _f8(tree.pos),
        _i8(tree.cell_start), _i8(tree.cell_count), _f8(tree.cell_center),
        _i8(inter.sink_leaves), _f8(row_local),
        _i8(mis_hi.alphas), _f8(1.0 / mis_hi.factorial),
        _i8(l2p_gradient_columns(p)),
        p + 2, n_coeffs(p + 1), len(mis_hi),
        want_potential, s0,
        acc, pot if pot is not None else _EMPTY_F8,
    )
    return True
