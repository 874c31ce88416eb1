"""Vectorized force evaluation from interaction lists (paper §3.3).

Consumes the interaction lists produced by the traversal and evaluates
them in large blocked batches — the Python/NumPy analogue of 2HOT's
m x n interaction blocking with structure-of-arrays swizzling (§3.2):
the m particles of a sink leaf meet that leaf's n sources (cells,
source-leaf particles or background cubes) in one dense tile, whatever
depends only on the source is gathered once per block, every operand
is one contiguous row over the block's interactions, and a block is
thousands of interactions long, so the per-interaction interpreter
overhead is amortized exactly the way the paper amortizes
data-movement cost.  All three families below run through the same
blocks (:func:`_leaf_blocks`).

Three interaction families:

* **cell**  — particle x multipole at the expansion order p of the tree
  moments: acceleration and potential are contractions of the
  (metaprogrammed) level-0 and level-1 recurrence tensors of order
  <= p with per-cell weights; no order-(p+1) tensor is formed;
* **pp**    — particle x particle within directly-interacting leaf
  pairs, with any softening kernel (the 28-flop monopole inner loop of
  Table 3);
* **prism** — particle x analytic uniform cube, the near-field
  background subtraction of §2.2.1 (ghost cells and, in background
  mode, the background of every directly-interacting real leaf).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..instrument import get_tracer
from ..multipoles import multi_index_set
from ..multipoles.codegen import compiled_dtensor_function
from ..multipoles.multiindex import n_coeffs
# benchmarks/step/layers.py resolves both prism names in this module
from ..multipoles.prism import prism_acceleration, prism_potential  # noqa: F401
from ..multipoles.radial import NewtonianKernel, RadialKernel
from ..tree.moments import TreeMoments
from ..tree.structure import Tree
from ..tree.traversal import InteractionLists
from ..util import expand_ranges, release_scratch, scratch
from . import kernels
from .smoothing import NoSoftening, SofteningKernel

__all__ = ["ForceResult", "evaluate_forces", "autotune_chunks", "segment_sum"]


def segment_sum(contrib: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum ``contrib`` over the contiguous segments beginning at ``starts``.

    ``starts`` must be strictly increasing (zero-length segments
    filtered out by the caller) with an implicit final boundary at
    ``len(contrib)``.  ``np.add.reduceat`` touches each contribution
    once; a ``bincount`` over expanded segment ids has to materialize a
    per-contribution id array first, which lost at every size the
    evaluator produces (BENCH_force.json's ``segment_sum`` receipt).
    """
    return np.add.reduceat(contrib, starts, axis=0)


@dataclass
class ForceResult:
    """Accelerations/potentials (original particle order) plus counters."""

    acc: np.ndarray
    pot: np.ndarray | None
    stats: dict = field(default_factory=dict)


#: interaction rows per evaluation block of the cell, pp and prism
#: families.  Fixed, not calibrated: a one-shot timing per process picked
#: differently from run to run and moved step time and peak RSS with it
#: (benchmarks/step/README.md, baseline findings).  Blocks are aligned
#: to sink leaves / whole particles, so the values change speed only.
#: The prism kernel keeps ~26 float64 rows live per block and is fastest
#: while they fit the L2 cache: 8k rows measured 0.182 / 0.141 s against
#: 0.199 / 0.146 at 4k and 0.183 / 0.165 at 32k (first solve of
#: early_hybrid / clustered_hier); pp is flat from 32k to 128k.  The
#: cell kernel's ~165 row operations per block carry a fixed cost per
#: call, and a sink leaf here is 6-8k rows (p90 12.5k / 19k on
#: early_hier / clustered_hier): 16k rows cut 729 / 1,047 blocks to
#: 350 / 497 and measured 0.91 / 0.93 x the cell seconds of 8k (eight
#: alternating solves each); 32k measured the same as 16k.
_CELL_CHUNK = 16384
_PP_CHUNK = 65536
_PRISM_CHUNK = 8192


def autotune_chunks(p: int, dtype_str: str) -> tuple[int, int]:
    """The (cell_chunk, pp_chunk) row budgets used when none are passed.

    The same constants for every order and dtype; the step benchmark
    records this pair with every run.
    """
    return _CELL_CHUNK, _PP_CHUNK


def _leaf_blocks(leaf_np, indptr, budget):
    """Cut the CSR rows of one family into m x n evaluation blocks.

    Yields ``(a, b, e0, e1, tiles)``: sink particles [a, b) (positions in
    the row-major particle order) meet CSR entries [e0, e1).  A block is
    a run of whole rows whose n_L x E interaction rows fit ``budget``; a
    row that alone exceeds it is split by particles (into equal parts),
    never by entries.  So a block is a stack of dense tiles, one per
    row with entries: ``(r0, p0, n_t, c0, n_e)`` says block rows
    [r0, r0 + n_t * n_e), particle-major, pair block particles
    [p0, p0 + n_t) with block entries [c0, c0 + n_e).
    """
    nent = np.diff(indptr)
    rows = leaf_np * nent
    p_start = np.concatenate(([0], np.cumsum(leaf_np)))
    csum = np.cumsum(rows)
    la = 0
    while la < len(leaf_np):
        base = csum[la - 1] if la else 0
        lb = int(np.searchsorted(csum, base + budget, side="right"))
        if lb > la:
            keep = rows[la:lb] > 0
            tiles = zip(
                (csum[la:lb] - rows[la:lb] - base)[keep].tolist(),
                (p_start[la:lb] - p_start[la])[keep].tolist(),
                leaf_np[la:lb][keep].tolist(),
                (indptr[la:lb] - indptr[la])[keep].tolist(),
                nent[la:lb][keep].tolist(),
            )
            yield int(p_start[la]), int(p_start[lb]), indptr[la], indptr[lb], list(tiles)
            la = lb
            continue
        n_l, n_e = int(leaf_np[la]), int(nent[la])
        parts = -(-n_l // max(1, budget // n_e))
        step = -(-n_l // parts)
        for a in range(int(p_start[la]), int(p_start[la + 1]), step):
            b = min(a + step, int(p_start[la + 1]))
            yield a, b, indptr[la], indptr[la + 1], [(0, 0, b - a, 0, n_e)]
        la += 1


def _contract_tile(subscripts, d, w, out):
    """``einsum(subscripts, d, w, out=out)`` over one dense tile, summed in
    order of the coefficient axis ``a``.

    ``d`` ends in (a, p, e), ``w`` in (a, e), ``out`` in (p, e); one of
    the two carries a leading axis that ``out`` keeps.  einsum runs
    ``a`` as the outer loop of an elementwise multiply-add whenever the
    tile has more than one interaction.  A lone interaction is a dot
    product, which it would sum in SIMD order or sequentially depending
    on whether the operands happen to be contiguous (i.e. on what else
    shares the block) — spell that case out so the result never depends
    on the blocking.
    """
    if out.shape[-2:] == (1, 1):
        na = w.shape[-2]
        prod = d.reshape(-1, na) * w.reshape(-1, na)
        out[..., 0, 0] = np.add.accumulate(prod, axis=1)[:, -1]
    else:
        np.einsum(subscripts, d, w, out=out)


def _cell_weights(moments: np.ndarray, p: int, dtype) -> np.ndarray:
    """The per-cell weight table of the cell family, one row per weight.

    Rows [0, ncoef): ``wm[a] = (-1)^|a|/a! M_a``.  Then, per axis i, the
    n_coeffs(p-1) shifted weights ``(g_i + 1) wm[g + e_i]``, |g| <= p-1,
    that contract with the level-1 tensor into ``T_i`` (see
    :func:`evaluate_forces`).
    """
    mis = multi_index_set(p)
    wm = moments[:, : len(mis)] * (((-1.0) ** mis.order) / mis.factorial)
    lo = mis.alphas[: n_coeffs(p - 1)]
    blocks = [wm]
    for i in range(3):
        up = lo.copy()
        up[:, i] += 1
        cols = [mis.index[tuple(int(k) for k in g)] for g in up]
        blocks.append(wm[:, cols] * up[:, i])
    return np.ascontiguousarray(np.concatenate(blocks, axis=1).T, dtype=dtype)


def evaluate_forces(
    tree: Tree,
    moms: TreeMoments,
    inter: InteractionLists,
    softening: SofteningKernel | None = None,
    G: float = 1.0,
    dtype=np.float64,
    want_potential: bool = True,
    kernel: RadialKernel | None = None,
    cell_chunk: int | None = None,
    pp_chunk: int | None = None,
    particle_range: tuple[int, int] | None = None,
    backend: str | None = None,
) -> ForceResult:
    """Evaluate all interactions; returns fields in original particle order.

    Parameters
    ----------
    kernel:
        Radial Green's function for the *cell* interactions (default
        Newtonian 1/r; a short-range ErfcKernel turns this into the
        tree half of a TreePM split).
    backend:
        ``"numpy"`` (vectorized reference), ``"compiled"`` (the numba
        m x n-blocked CSR kernel of :mod:`repro.gravity.kernels`) or
        ``"auto"``/None (``REPRO_FORCE_BACKEND`` env, defaulting to
        compiled-when-available).  Unsupported kernel types fall back
        to numpy with the reason in ``stats["backend_fallback"]``.
        The compiled kernel always accumulates in float64 (it is the
        *more* accurate path when ``dtype=float32``).
    dtype:
        Accumulation precision (float32 reproduces the single-precision
        behaviour of Fig. 6 / Table 3).
    cell_chunk, pp_chunk:
        Interaction-rows per evaluation block for the cell family and
        for the pp and prism families.  ``None`` means the fixed
        defaults (:func:`autotune_chunks`; the prism family has its own,
        ``_PRISM_CHUNK``).  They pace memory and speed only; results do
        not depend on them.
    particle_range:
        Half-open (start, end) range of *key-sorted* particle indices
        covering every sink in ``inter`` (a shard of SFC-contiguous
        sink leaves).  Output arrays then have length ``end - start``,
        stay in key-sorted order and skip the final unsort/astype — the
        caller (the shared-memory executor) merges disjoint shard
        slices and unsorts once.

    Rows follow ``inter.sink_leaves`` (SFC order), so generating
    contributions row by row is automatically *sink-particle-major*:
    each sink particle's contributions form one contiguous run, closed
    by a single :func:`segment_sum` over the run boundaries, and each
    particle lands in exactly one block (blocks split only between
    particles), making the result independent of the block sizes.

    Every family is m x n-blocked (:func:`_leaf_blocks`); a block
    gathers what belongs to its entries once, the sink leaf's particles
    share it through broadcasts into pooled scratch, and every operand
    is a contiguous row over the block's interactions.  *cell*: entries
    are source cells — centres and one column of the weight table
    (:func:`_cell_weights`) gathered per entry with a single
    ``np.take``, ``dx`` a float64 broadcast (3, particles, 1) -
    (3, 1, entries), the generated recurrence writes the level-0 and
    level-1 tensors of order <= p as ``R[level, coefficient, row]``
    (level 1 alone without the potential).  With ``wm`` the
    (-1)^|a|/a!-weighted moments, the recurrence
    ``R^0_{a+e_i} = x_i R^1_a + a_i R^1_{a-e_i}`` turns the force
    contraction ``sum_a wm_a D_{a+e_i}`` into ``x_i S + T_i`` with
    ``S = sum_a wm_a R^1_a`` and ``T_i = sum_g (g_i + 1) wm_{g+e_i}
    R^1_g`` over |g| <= p - 1, so no order-(p+1) tensor exists and no
    tensor row is gathered: per tile one einsum contracts the stacked
    levels with ``wm`` into (potential, S), one contracts the
    order-(p-1) prefix of level 1 with the three shifted-weight blocks
    into T.  *pp*: entries are the source particles of the
    row's source leaves (a source-particle CSR derived from
    ``leaf_indptr``) — indices, image-shifted positions and masses
    gathered once per sink leaf, ``dx`` a float64 difference rounded to
    ``dtype`` on store, self-pairs masked on the home image only.
    *prism*: entries are background cubes — corners gathered per entry,
    and the block's rows go through one call of the fused 8-corner kernel
    (:func:`repro.multipoles.prism.prism_acceleration`), which returns
    acceleration and potential from the same corner terms.  Every
    family differences positions in float64; from there cell and pp
    interactions run in ``dtype``, the prism terms in float64; each
    particle's entries are summed in float64.

    ``stats["family_seconds"]`` holds the seconds spent in the cell,
    pp, m2l and prism families; ``stats["kernel"]`` rates the first
    three against their own interaction and flop counts.

    ``backend="compiled"`` replaces the cell and pp families with the
    m x n-blocked kernel of :mod:`repro.gravity.kernels` (same CSR
    arrays, no contrib buffers, float64 accumulation; its seconds are
    booked under ``"cell"``); the analytic background (prism) family
    always runs through the shared numpy pass below so both backends
    agree term by term.
    """
    softening = softening or NoSoftening()
    kernel = kernel or NewtonianKernel()
    p = moms.p
    resolved, fb_reason = kernels.resolve_backend_ex(backend)
    spec = None
    if resolved == "compiled":
        spec = kernels.kernel_specs(kernel, softening, p)
        if spec is None:
            resolved = "numpy"
            fb_reason = (
                "compiled kernel does not implement "
                f"{type(kernel).__name__}/{type(softening).__name__}"
            )
    tr = get_tracer()
    s0, s1 = particle_range if particle_range is not None else (0, tree.n_particles)
    n = s1 - s0
    acc = np.zeros((n, 3), dtype=np.float64)
    pot = np.zeros(n, dtype=np.float64) if want_potential else None
    if cell_chunk is None:
        cell_chunk = _CELL_CHUNK
    if pp_chunk is None:
        pp_chunk, prism_chunk = _PP_CHUNK, _PRISM_CHUNK
    else:
        prism_chunk = pp_chunk

    def loc(idx):
        return idx - s0 if s0 else idx

    stats = {
        "cell_interactions": 0,
        "pp_interactions": 0,
        "prism_interactions": 0,
        "m2l_pairs": 0,
        "m2l_interactions": 0,
        "order": p,
        "backend": resolved,
    }
    if fb_reason:
        stats["backend_fallback"] = fb_reason

    sinks = inter.sink_leaves
    # per sink particle: global key-sorted index and owning CSR row
    leaf_np = tree.cell_count[sinks]
    pid = expand_ranges(tree.cell_start[sinks], leaf_np)
    row_of_p = np.repeat(np.arange(len(sinks), dtype=np.int64), leaf_np)

    def reduce_into(contrib, pcontrib, a, b, lens):
        starts = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        nz = lens > 0
        if not np.any(nz):
            return
        rows = loc(pid[a:b][nz])
        acc[rows] += segment_sum(contrib, starts[nz])
        if want_potential:
            pot[rows] += segment_sum(pcontrib, starts[nz])

    # cell + pp + m2l is the denominator of the roofline counters
    family_s = {"cell": 0.0, "pp": 0.0, "m2l": 0.0, "prism": 0.0}
    stats["family_seconds"] = family_s

    # ----- cell (multipole) interactions --------------------------------------
    if len(inter.cell_sink):
        nent = np.diff(inter.cell_indptr)
        stats["cell_interactions"] = int((nent * leaf_np).sum())
    if len(inter.cell_sink) and resolved == "numpy":
        _tk0 = time.perf_counter()
        ncoef = n_coeffs(p)
        nlo = n_coeffs(p - 1)
        levels = (0, 1) if want_potential else (1,)
        nlev = len(levels)
        dt_fn = compiled_dtensor_function(p, levels)
        m_p = nent[row_of_p]
        # every cell's weights, one row per weight: a block gathers its
        # entries' columns once and all particles of the sink leaf
        # share them
        wt_all = _cell_weights(moms.moments, p, dtype)
        gathered = None
        for a, b, e0, e1, tiles in _leaf_blocks(leaf_np, inter.cell_indptr, cell_chunk):
            lens = m_p[a:b]
            n_rows = int(lens.sum())
            if not n_rows:
                continue
            if (e0, e1) != gathered:
                # (the parts of a leaf split by particles share one gather)
                gathered = (e0, e1)
                src = inter.cell_src[e0:e1]
                ctr = (tree.cell_center[src] + inter.offsets[inter.cell_off[e0:e1]]).T
                # (mode="clip": the default "raise" copies through a buffer)
                wt = np.take(
                    wt_all, src, axis=1, mode="clip",
                    out=scratch("wt", (len(wt_all), e1 - e0), dtype),
                )
                wm, shifted = wt[:ncoef], wt[ncoef:].reshape(3, nlo, e1 - e0)
            pos = tree.pos[pid[a:b]].T
            dx = scratch("dx", (3, n_rows), np.float64)
            for r0, p0, n_t, c0, n_e in tiles:
                np.subtract(
                    pos[:, p0 : p0 + n_t, None],
                    ctr[:, None, c0 : c0 + n_e],
                    out=dx[:, r0 : r0 + n_t * n_e].reshape(3, n_t, n_e),
                )
            r = np.sqrt(np.einsum("ij,ij->j", dx, dx))
            g = kernel.radial_derivs(r, p + 1).astype(dtype, copy=False)
            x = scratch("x", (3, n_rows), dtype)
            x[...] = dx
            R = dt_fn(
                x[0], x[1], x[2], g,
                scratch("R", (nlev * ncoef, n_rows), dtype),
                scratch("W", (dt_fn.n_scratch, n_rows), dtype),
            ).reshape(nlev, ncoef, n_rows)
            # rows: T_x, T_y, T_z, [potential,] S
            sums = scratch("sums", (3 + nlev, n_rows), dtype)
            T, S = sums[:3], sums[-1]
            for r0, _p0, n_t, c0, n_e in tiles:
                tile = slice(r0, r0 + n_t * n_e)
                _contract_tile(
                    "lape,ae->lpe",
                    R[:, :, tile].reshape(nlev, ncoef, n_t, n_e),
                    wm[:, c0 : c0 + n_e],
                    sums[3:, tile].reshape(nlev, n_t, n_e),
                )
                if nlo:
                    _contract_tile(
                        "ape,iae->ipe",
                        R[-1, :nlo, tile].reshape(nlo, n_t, n_e),
                        shifted[:, :, c0 : c0 + n_e],
                        T[:, tile].reshape(3, n_t, n_e),
                    )
            # acceleration_i = x_i S + T_i, written over T
            np.multiply(x, S, out=x)
            if nlo:
                np.add(T, x, out=T)
            else:
                T[...] = x
            c64 = sums[:-1].astype(np.float64, copy=False)
            reduce_into(c64[:3].T, c64[3] if want_potential else None, a, b, lens)
        release_scratch()
        family_s["cell"] += time.perf_counter() - _tk0

    # ----- particle-particle interactions --------------------------------------
    if len(inter.leaf_sink):
        # source-particle CSR: row -> its entries' particles, flattened
        ct_ent = tree.cell_count[inter.leaf_src]
        sp_cum = np.concatenate(([0], np.cumsum(ct_ent)))
        src_indptr = sp_cum[inter.leaf_indptr]
        src_per_row = np.diff(src_indptr)
        stats["pp_interactions"] = int((src_per_row * leaf_np).sum())
    if len(inter.leaf_sink) and resolved == "numpy":
        _tk0 = time.perf_counter()
        mass_w = tree.mass.astype(dtype, copy=False)
        home_off = int(np.flatnonzero(np.all(inter.offsets == 0.0, axis=1))[0])
        m_p = src_per_row[row_of_p]
        n_out = 4 if want_potential else 3
        for a, b, s_lo, s_hi, tiles in _leaf_blocks(leaf_np, src_indptr, pp_chunk):
            lens = m_p[a:b]
            n_rows = int(lens.sum())
            if not n_rows:
                continue
            # once per block: the source particles of its entries
            # (sp_cum turns the particle range back into the entry
            # range), their image-shifted positions and masses.
            # Positions stay float64 until they are differenced: dx is
            # computed in double and rounded to ``dtype`` on store (a
            # float32 position is 6e-8 absolute, 1e-3 of a clump-core
            # separation)
            e0, e1 = np.searchsorted(sp_cum, (s_lo, s_hi))
            reps = ct_ent[e0:e1]
            src_part = expand_ranges(tree.cell_start[inter.leaf_src[e0:e1]], reps)
            off = np.repeat(inter.leaf_off[e0:e1], reps)
            src_pos = (tree.pos[src_part] + inter.offsets[off]).T
            src_mass = mass_w[src_part]
            # a particle meets itself only through the home image
            src_home = np.where(off == home_off, src_part, -1)
            sink_part = pid[a:b]
            sink_pos = tree.pos[sink_part].T
            dx = scratch("dx", (3, n_rows), dtype)
            mass_row = scratch("mass", (n_rows,), dtype)
            self_pair = scratch("self", (n_rows,), bool)
            for r0, p0, n_t, c0, n_e in tiles:
                tile = slice(r0, r0 + n_t * n_e)
                np.subtract(
                    sink_pos[:, p0 : p0 + n_t, None],
                    src_pos[:, None, c0 : c0 + n_e],
                    out=dx[:, tile].reshape(3, n_t, n_e),
                )
                mass_row[tile].reshape(n_t, n_e)[...] = src_mass[c0 : c0 + n_e]
                np.equal(
                    sink_part[p0 : p0 + n_t, None],
                    src_home[None, c0 : c0 + n_e],
                    out=self_pair[tile].reshape(n_t, n_e),
                )
            r, t = scratch("r", (2, n_rows), dtype)
            np.multiply(dx[0], dx[0], out=r)
            for axis in (1, 2):
                np.multiply(dx[axis], dx[axis], out=t)
                r += t
            np.sqrt(r, out=r)
            f = softening.force_factor(r).astype(dtype, copy=False)
            f[self_pair] = 0.0
            contrib = scratch("contrib", (n_out, n_rows), dtype)
            np.multiply(mass_row, f, out=t)
            np.negative(t, out=t)
            np.multiply(t, dx, out=contrib[:3])
            if want_potential:
                psi = softening.potential(r).astype(dtype, copy=False)
                psi[self_pair] = 0.0
                np.multiply(mass_row, psi, out=contrib[3])
            c64 = contrib.astype(np.float64, copy=False)
            reduce_into(c64[:3].T, c64[3] if want_potential else None, a, b, lens)
        release_scratch()
        family_s["pp"] += time.perf_counter() - _tk0

    # ----- compiled m x n-blocked kernel (cell + pp families) ------------------
    if resolved == "compiled" and (len(inter.cell_sink) or len(inter.leaf_sink)):
        _tk0 = time.perf_counter()
        with tr.span("kernel"):
            kernels.run_csr_kernel(
                tree, moms, inter, spec, want_potential, s0, acc, pot
            )
        family_s["cell"] += time.perf_counter() - _tk0

    # ----- m2l local expansions + L2P (fmm-hybrid far field) -------------------
    if inter.m2l_cells is not None and inter.m2l_src is not None and len(
        inter.m2l_src
    ):
        from . import localexp

        _tk0 = time.perf_counter()
        stats["m2l_pairs"] = int(len(inter.m2l_src))
        stats["m2l_interactions"] = stats["m2l_pairs"] + int(leaf_np.sum())
        with tr.span("m2l"):
            loc_all = localexp.local_expansions(
                tree, moms, inter, kernel, backend=resolved
            )
            localexp.l2p_accumulate(
                tree, inter, loc_all, p,
                want_potential=want_potential,
                pid=pid, row_of_p=row_of_p, s0=s0,
                acc=acc, pot=pot,
                backend=resolved,
            )
        family_s["m2l"] += time.perf_counter() - _tk0

    # ----- analytic background cubes -------------------------------------------
    if moms.background:
        _tk0 = time.perf_counter()
        rho = -moms.mean_density  # subtract the background
        prism_passes = [(inter.ghost_src, inter.ghost_off, inter.ghost_indptr)]
        if len(inter.leaf_sink):
            # in background mode every direct leaf pair also needs its
            # source cube's background removed
            prism_passes.append(
                (inter.leaf_src, inter.leaf_off, inter.leaf_indptr)
            )
        for fam_src, fam_off, fam_indptr in prism_passes:
            if not len(fam_src):
                continue
            m_p = np.diff(fam_indptr)[row_of_p]
            stats["prism_interactions"] += int(m_p.sum())
            for a, b, e0, e1, tiles in _leaf_blocks(leaf_np, fam_indptr, prism_chunk):
                lens = m_p[a:b]
                n_rows = int(lens.sum())
                if not n_rows:
                    continue
                # once per block: each entry's cube corners
                src = fam_src[e0:e1]
                ctr = tree.cell_center[src] + inter.offsets[fam_off[e0:e1]]
                half = 0.5 * tree.cell_side[src][:, None]
                cube_lo, cube_hi = (ctr - half).T, (ctr + half).T
                sink_pos = tree.pos[pid[a:b]].T
                pts, lo, hi = scratch("prism", (3, 3, n_rows), np.float64)
                for r0, p0, n_t, c0, n_e in tiles:
                    tile = slice(r0, r0 + n_t * n_e)
                    pts[:, tile].reshape(3, n_t, n_e)[...] = sink_pos[
                        :, p0 : p0 + n_t, None
                    ]
                    lo[:, tile].reshape(3, n_t, n_e)[...] = cube_lo[
                        :, None, c0 : c0 + n_e
                    ]
                    hi[:, tile].reshape(3, n_t, n_e)[...] = cube_hi[
                        :, None, c0 : c0 + n_e
                    ]
                # one call per block: the step benchmark times the
                # module-global name
                out = prism_acceleration(
                    pts.T, lo.T, hi.T, rho, want_potential=want_potential
                )
                a_contrib, p_contrib = out if want_potential else (out, None)
                reduce_into(a_contrib, p_contrib, a, b, lens)
        release_scratch()
        family_s["prism"] += time.perf_counter() - _tk0

    if G != 1.0:
        acc *= G
        if want_potential:
            pot *= G

    if (
        stats["cell_interactions"]
        or stats["pp_interactions"]
        or stats["m2l_pairs"]
    ):
        stats["kernel"] = kernels.kernel_counters(
            tree,
            inter,
            p=p,
            want_potential=want_potential,
            seconds=family_s["cell"] + family_s["pp"] + family_s["m2l"],
            backend=resolved,
            threads=(
                kernels.active_kernel_threads() if resolved == "compiled" else 1
            ),
            prism_interactions=stats["prism_interactions"],
        )

    if particle_range is not None:
        return ForceResult(acc=acc, pot=pot, stats=stats)

    acc_out = np.empty_like(acc)
    acc_out[tree.order] = acc
    if want_potential:
        pot_out = np.empty_like(pot)
        pot_out[tree.order] = pot
    else:
        pot_out = None
    if dtype is not np.float64:
        acc_out = acc_out.astype(dtype)
        if pot_out is not None:
            pot_out = pot_out.astype(dtype)
    return ForceResult(acc=acc_out, pot=pot_out, stats=stats)
