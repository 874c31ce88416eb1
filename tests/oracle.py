"""The term-by-term force loop the tests compare the evaluator against.

A plain-Python m x n loop over the interaction lists of
:func:`repro.tree.traversal.traverse_hierarchical` — one (sink particle,
source cell) or (sink particle, source particle) term at a time, the
derivative-tensor recurrence per cell term, float64 throughout — plus
the background removed one cube at a time.  It shares no arithmetic
with :func:`repro.gravity.treeforce.evaluate_forces` (no polynomial
form of the field, no sink-cell length units, no blocks, no merged
boxes), which is what makes the <= 1e-12 agreement tests mean
something.  Only the exact-type marshalling of the kernels is shared
(:mod:`repro.gravity.native`), so both sides refuse the same types.

Orders of magnitude slower than the evaluator: keep inputs at a few
hundred particles.

At the end of the file, :func:`oracle_lattice_pieces` keeps the three
full-cube sums of the periodic lattice coefficients as
``repro.gravity.periodic`` computed them before it summed over the
cubic group's fundamental wedge, and :func:`oracle_moments`,
:func:`m2m` and :func:`l2p` keep the numpy upward pass and lattice L2P
that the compiled unit (``repro.multipoles.codegen.UPWARD_SOURCE``)
reproduces bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.gravity import native
from repro.gravity.periodic import _self_term
from repro.gravity.smoothing import NoSoftening
from repro.gravity.treeforce import ForceResult
from repro.multipoles import multi_index_set
from repro.multipoles.dtensors import derivative_tensors, recurrence_plan
from repro.multipoles.multiindex import n_coeffs
from repro.multipoles.prism import prism_acceleration
from repro.multipoles.bounds import critical_radius, critical_radius_moment
from repro.multipoles.cube import cube_moments
from repro.multipoles.radial import ErfcKernel, NewtonianKernel
from repro.tree.moments import TreeMoments, unit_cube_abs_moment
from repro.util import expand_ranges

def kernel_specs(kernel, softening, p: int):
    """Marshal (radial kernel, softening) into kernel-body parameters.

    Returns ``(radial_spec, soft_spec)`` through the evaluator's own
    exact-type marshalling (:func:`repro.gravity.native.radial_spec`,
    :func:`~repro.gravity.native.softening_spec`), which raises
    ``TypeError`` for any other type: an unknown subclass overriding the
    math must not be silently evaluated with the base-class formulas.
    """
    kind, alpha, *tables = native.radial_spec(kernel, p + 1)
    soft_kind, h, eps, r_split = native.softening_spec(softening)
    return (kind, alpha, *tables), (soft_kind, eps if soft_kind == native.SOFT_PLUMMER else h, r_split)


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
# the kernel body
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
    kern_kind, kern_alpha, ke_pow, ke_coef, ke_ptr, kg_pow, kg_coef, kg_ptr,
    # softening spec
    soft_kind, soft_eps, soft_rsplit,
    # output layout
    want_potential, s0,
    acc, pot,
):
    nrows = len(sink_leaves)
    for row in range(nrows):
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
                if kern_kind == native.KERN_NEWTON:  # 1/r
                    inv_r2 = 1.0 / r2
                    g = 1.0 / r
                    gch[0] = g
                    for mm in range(1, pmax + 1):
                        g = g * (-(2.0 * mm - 1.0)) * inv_r2
                        gch[mm] = g
                else:  # erfc(alpha r) / r (Ewald / TreePM split)
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



def _i8(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _f8(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


# ---------------------------------------------------------------------------
# the lists as the loop walks them, and the entry point
# ---------------------------------------------------------------------------


def cell_leaf_csr(tree, inter):
    """The cell family fanned out to the sink leaves: ``(src, off, indptr)``.

    Every accept recorded at an interior sink cell is inherited by the
    selected leaves under it, so each row of ``inter.sink_leaves`` lists
    all the source cells its particles see.  A row holds the segments
    of its ancestors first, by ascending cell index, then its own, each
    in list order — a pure function of the accept-level lists, so
    restricted walks reproduce identical rows.
    """
    n_rows = len(inter.sink_leaves)
    sink = np.repeat(inter.cell_cells, np.diff(inter.cell_indptr))
    lo, hi = inter._leaf_rows_under(tree, sink)
    row = expand_ranges(lo, hi - lo)
    order = np.argsort(row, kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=indptr[1:])
    return (
        np.repeat(inter.cell_src, hi - lo)[order],
        np.repeat(inter.cell_off, hi - lo)[order],
        indptr,
    )


def per_cube_background(tree, moms, inter):
    """The background removed cube by cube — one prism per (sink
    particle, ghost or direct-pair cube), nothing merged: the pass the
    merged one replaced.  One kernel call per sink leaf and family.
    Returns (acc, pot, particle x cube pairs) in key-sorted order."""
    acc, pot = np.zeros((tree.n_particles, 3)), np.zeros(tree.n_particles)
    pairs = 0
    for fam_src, fam_off, indptr in (
        (inter.ghost_src, inter.ghost_off, inter.ghost_indptr),
        (inter.leaf_src, inter.leaf_off, inter.leaf_indptr),
    ):
        for r, leaf in enumerate(inter.sink_leaves):
            m, cubes = tree.cell_count[leaf], slice(indptr[r], indptr[r + 1])
            n = cubes.stop - cubes.start
            if not n:
                continue
            own = slice(tree.cell_start[leaf], tree.cell_start[leaf] + m)
            ctr = tree.cell_center[fam_src[cubes]] + inter.offsets[fam_off[cubes]]
            half = 0.5 * tree.cell_side[fam_src[cubes]][:, None]
            # rows: particle-major, every particle against every cube
            a, u = prism_acceleration(
                np.repeat(tree.pos[own], n, axis=0),
                np.tile(ctr - half, (m, 1)), np.tile(ctr + half, (m, 1)),
                -moms.mean_density, want_potential=True,
            )
            acc[own] += a.reshape(m, n, 3).sum(axis=1)
            pot[own] += u.reshape(m, n).sum(axis=1)
            pairs += m * n
    return acc, pot, pairs


def oracle_forces(
    tree,
    moms,
    inter,
    softening=None,
    want_potential: bool = True,
    kernel=None,
    particle_range: tuple[int, int] | None = None,
) -> ForceResult:
    """``evaluate_forces`` (same arguments, float64), one term at a time.

    The cell and pp families go through :func:`_csr_force_kernel` on the
    per-leaf view, the background through :func:`per_cube_background`.
    ``stats`` counts the terms the loop walked.  Lists with an m2l
    family are refused: the far field of the hybrid walk has its own
    references (interpreted tensors, the L2L identity, direct sums).
    """
    if inter.m2l_src is not None and len(inter.m2l_src):
        raise ValueError("oracle_forces walks the cell, pp and ghost families only")
    (kern_kind, kern_alpha, ke_pow, ke_coef, ke_ptr, kg_pow, kg_coef, kg_ptr), (
        soft_kind, soft_eps, soft_rsplit) = kernel_specs(
        kernel or NewtonianKernel(), softening or NoSoftening(), moms.p)
    s0, s1 = particle_range if particle_range is not None else (0, tree.n_particles)
    acc = np.zeros((s1 - s0, 3))
    pot = np.zeros(s1 - s0) if want_potential else None
    p = moms.p
    pmax = p + 1
    ncoef = n_coeffs(p)
    nhi = n_coeffs(pmax)
    plan_tgt, plan_axis, plan_idx1, plan_idx2, plan_fac, orders = _plan_arrays(pmax)
    wm = np.ascontiguousarray(moms.moments[:, :ncoef]) * _moment_weights(p)
    home_off = int(np.flatnonzero(np.all(inter.offsets == 0.0, axis=1))[0])
    cell_src, cell_off, cell_indptr = cell_leaf_csr(tree, inter)
    _csr_force_kernel(
        _f8(tree.pos), _f8(tree.mass),
        _i8(tree.cell_start), _i8(tree.cell_count), _f8(tree.cell_center),
        _i8(inter.sink_leaves), _i8(cell_indptr),
        _i8(cell_src), _i8(cell_off),
        _i8(inter.leaf_indptr), _i8(inter.leaf_src), _i8(inter.leaf_off),
        _f8(inter.offsets), home_off,
        wm, plan_tgt, plan_axis, plan_idx1, plan_idx2, plan_fac, orders,
        _acc_cols_arr(p), pmax, ncoef, nhi,
        kern_kind, kern_alpha, ke_pow, ke_coef, ke_ptr, kg_pow, kg_coef, kg_ptr,
        soft_kind, soft_eps, soft_rsplit,
        want_potential, s0,
        acc, pot if want_potential else np.zeros(0),
    )
    # particles of the sink leaf x entries of its row, per family
    leaf_np = tree.cell_count[inter.sink_leaves]
    pp_row = np.repeat(np.arange(len(leaf_np)), np.diff(inter.leaf_indptr))
    stats = {
        "cell_interactions": int((leaf_np * np.diff(cell_indptr)).sum()),
        "pp_interactions": int((leaf_np[pp_row] * tree.cell_count[inter.leaf_src]).sum()),
    }
    if moms.background:
        bg_acc, bg_pot, _ = per_cube_background(tree, moms, inter)
        acc += bg_acc[s0:s1]
        if want_potential:
            pot += bg_pot[s0:s1]
    if particle_range is not None:
        return ForceResult(acc=acc, pot=pot, stats=stats)
    acc_out = np.empty_like(acc)
    acc_out[tree.order] = acc
    pot_out = None
    if want_potential:
        pot_out = np.empty_like(pot)
        pot_out[tree.order] = pot
    return ForceResult(acc=acc_out, pot=pot_out, stats=stats)


# ---------------------------------------------------------------------------
# lattice sums over the full cube
# ---------------------------------------------------------------------------


def oracle_lattice_pieces(order: int, ws: int, box: float, alpha: float, rmax: int, kmax: int):
    """The three sums behind ``lattice_sums``, one lattice vector per row.

    Returns ``{"real" | "wave" | "near": (sum, added)}``: the erfc
    real-space sum over 0 < |n|_inf <= rmax, the k-space sum over
    0 < |k|_inf <= kmax and the bare sum over 0 < |n|_inf <= ws, each
    packed to ``order``, with ``added`` = sum of |term| per coefficient
    — the size of what was added up, which is the only scale left where
    the exact sum is zero and ``sum`` holds round-off.
    """
    mis = multi_index_set(order)
    ncoef = len(mis)

    # --- real-space erfc sum over all n != 0 --------------------------------
    r = np.arange(-rmax, rmax + 1)
    gx, gy, gz = np.meshgrid(r, r, r, indexing="ij")
    nvec = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1).astype(np.float64)
    nvec = nvec[np.any(nvec != 0, axis=1)] * box
    real_terms = derivative_tensors(nvec, ErfcKernel(alpha), order)
    real = real_terms.sum(axis=0)

    # --- k-space sum ----------------------------------------------------------
    k = np.arange(-kmax, kmax + 1)
    gx, gy, gz = np.meshgrid(k, k, k, indexing="ij")
    kvec = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1).astype(np.float64)
    kvec = kvec[np.any(kvec != 0, axis=1)] * (2.0 * np.pi / box)
    k2 = np.einsum("ij,ij->i", kvec, kvec)
    kcoef = 4.0 * np.pi / box**3 * np.exp(-k2 / (4.0 * alpha * alpha)) / k2
    kpart = np.zeros(ncoef)
    # d^gamma cos(k.x)|_0 = Re[(ik)^gamma]: nonzero for even |gamma| with
    # sign (-1)^{|gamma|/2}
    mono = mis.powers(kvec)  # k^gamma
    for i, g in enumerate(mis.alphas):
        n = int(g.sum())
        if n % 2:
            continue
        sign = (-1.0) ** (n // 2)
        kpart[i] = sign * float((kcoef * mono[:, i]).sum())

    # --- the explicitly-traversed near images (bare kernel) -------------------
    r = np.arange(-ws, ws + 1)
    gx, gy, gz = np.meshgrid(r, r, r, indexing="ij")
    near = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1).astype(np.float64)
    near = near[np.any(near != 0, axis=1)] * box
    near_terms = derivative_tensors(near, NewtonianKernel(), order)

    return {
        "real": (real, np.abs(real_terms).sum(axis=0)),
        "wave": (kpart, np.abs(kcoef[:, None] * mono).sum(axis=0)),
        "near": (near_terms.sum(axis=0), np.abs(near_terms).sum(axis=0)),
    }


def oracle_lattice_sums(order: int, ws: int = 2, box: float = 1.0,
                        alpha: float | None = None, rmax: int = 6, kmax: int = 8) -> np.ndarray:
    """``lattice_sums`` from the full-cube pieces; the two closed-form terms are the library's."""
    alpha = 2.0 / box if alpha is None else float(alpha)
    pieces = oracle_lattice_pieces(order, ws, box, alpha, rmax, kmax)

    total = pieces["real"][0] + pieces["wave"][0] - _self_term(order, alpha)
    # gamma = 0 background term of the Ewald potential
    total[0] -= math.pi / (alpha * alpha * box**3)
    total -= pieces["near"][0]
    return total


# ---------------------------------------------------------------------------
# the numpy upward pass and lattice L2P
# ---------------------------------------------------------------------------


def m2m(moments: np.ndarray, d: np.ndarray, p: int) -> np.ndarray:
    """Translate moments from center z to z' where ``d = z - z'``.

    Exact (no truncation error): moments of order n about the new
    center depend only on moments of order <= n about the old one.
    Vectorized over leading dimensions of ``moments`` and ``d``.
    """
    mis = multi_index_set(p)
    moments = np.asarray(moments, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    tgt, src, shift, binom = mis.translation_table
    mono = mis.powers(d)  # (..., ncoef)
    out = np.zeros_like(moments)
    contrib = binom * moments[..., src] * mono[..., shift]
    # scatter-add into targets
    np.add.at(out.reshape(-1, out.shape[-1]).T, tgt, contrib.reshape(-1, contrib.shape[-1]).T)
    return out


def l2p(local: np.ndarray, center: np.ndarray, targets: np.ndarray, p: int, dtype=np.float64):
    """Local-to-particle: evaluate a local expansion at points.

    Returns (potential, acceleration).  The acceleration uses the
    coefficients L_{beta+e_i}, so its effective order is p-1.
    """
    mis = multi_index_set(p)
    targets = np.asarray(targets, dtype=np.float64)
    s = (targets - np.asarray(center, dtype=np.float64)).astype(dtype)
    mono = mis.powers(s).astype(dtype)
    w = (1.0 / mis.factorial).astype(dtype)
    lw = np.asarray(local, dtype=np.float64).astype(dtype) * w
    pot = mono @ lw
    acc = np.zeros((targets.shape[0], 3), dtype=dtype)
    for i in range(3):
        for bi, b in enumerate(mis.alphas):
            up = (int(b[0]) + (i == 0), int(b[1]) + (i == 1), int(b[2]) + (i == 2))
            j = mis.index.get(up)
            if j is None:
                continue
            acc[:, i] += mono[:, bi] * (1.0 / mis.factorial[bi]) * local[j]
    return pot, acc


def oracle_moments(tree, p: int, tol: float, background: bool = False,
                   mean_density: float | None = None, mac: str = "moment") -> TreeMoments:
    """``compute_moments`` as numpy ran it: reduceat P2M, M2M through
    ``np.add.at`` level by level, absolute moments and bmax alongside."""
    p_store = p + 2
    mis = multi_index_set(p_store)
    ncoef = len(mis)
    n_cells = tree.n_cells
    moments = np.zeros((n_cells, ncoef), dtype=np.float64)
    babs = np.zeros((n_cells, p + 2), dtype=np.float64)
    bmax = np.zeros(n_cells, dtype=np.float64)

    leaves = tree.leaf_indices
    lorder = np.argsort(tree.cell_start[leaves])
    leaves = leaves[lorder]
    starts = tree.cell_start[leaves]
    counts = tree.cell_count[leaves]
    centers = np.repeat(tree.cell_center[leaves], counts, axis=0)
    dd = tree.pos - centers
    mono = mis.powers(dd) * tree.mass[:, None]
    moments[leaves] = np.add.reduceat(mono, starts, axis=0)
    r = np.sqrt(np.einsum("ij,ij->i", dd, dd))
    rp = r[None, :] ** np.arange(p + 2)[:, None] * tree.mass[None, :]
    babs[leaves] = np.add.reduceat(rp, starts, axis=1).T
    bmax[leaves] = np.maximum.reduceat(r, starts)

    if background:
        rho = float(mean_density)
        all_leaf = np.flatnonzero(tree.is_leaf)
        side = tree.cell_side[all_leaf]
        moments[all_leaf] -= cube_moments(p_store, side, rho)
        icoef = np.array([unit_cube_abs_moment(k) for k in range(p + 2)])
        babs[all_leaf] += rho * side[:, None] ** (3 + np.arange(p + 2))[None, :] * icoef
        bmax[all_leaf] = side * np.sqrt(3.0) / 2.0

    binom = np.array(
        [[float(math.comb(nn, kk)) for kk in range(p + 2)] for nn in range(p + 2)]
    )
    for level in range(tree.max_level - 1, -1, -1):
        cells = tree.cells_at_level(level)
        internal = cells[tree.cell_first_child[cells] >= 0]
        if len(internal) == 0:
            continue
        kids = expand_ranges(tree.cell_first_child[internal], tree.cell_nchildren[internal])
        kid_parent = np.repeat(internal, tree.cell_nchildren[internal])
        d = tree.cell_center[kids] - tree.cell_center[kid_parent]
        np.add.at(moments, kid_parent, m2m(moments[kids], d, p_store))
        # B_n(parent) <= sum_child sum_k C(n,k) |d|^{n-k} B_k
        dn = np.linalg.norm(d, axis=1)
        dpow = dn[:, None] ** np.arange(p + 2)[None, :]
        bk = babs[kids]
        bup = np.zeros_like(bk)
        for nn in range(p + 2):
            ks = np.arange(nn + 1)
            bup[:, nn] = (binom[nn, ks] * dpow[:, nn - ks] * bk[:, ks]).sum(axis=1)
        np.add.at(babs, kid_parent, bup)
        np.maximum.at(bmax, kid_parent, dn + bmax[kids])
        corner = tree.cell_side[internal] * np.sqrt(3.0) / 2.0
        bmax[internal] = np.minimum(bmax[internal], corner)

    sl1 = mis.slice_of_order(p + 1)
    sl2 = mis.slice_of_order(p + 2)
    mnorm = np.sqrt((mis.multinomial[sl1][None, :] * moments[:, sl1] ** 2).sum(axis=1))
    mnorm2 = np.sqrt((mis.multinomial[sl2][None, :] * moments[:, sl2] ** 2).sum(axis=1))
    if mac == "moment":
        r_crit = critical_radius_moment(p, bmax, mnorm, tol, mnorm_p2=mnorm2)
    else:
        r_crit = critical_radius(p, bmax, babs[:, p + 1], tol)
    return TreeMoments(
        p=p, tol=tol, background=background, mean_density=float(mean_density or 0.0),
        mac=mac, moments=moments, babs=babs, bmax=bmax, mnorm=mnorm, mnorm2=mnorm2,
        r_crit=r_crit,
    )


def oracle_lattice_field(ple, box_moments: np.ndarray, pos: np.ndarray):
    """``PeriodicLocalExpansion.field`` through the numpy :func:`l2p`."""
    loc = ple.local_coefficients(box_moments)
    center = np.full(3, ple.box / 2.0)
    return l2p(loc, center, np.asarray(pos, dtype=np.float64), ple.p_local + 1)
