"""The term-by-term force kernel the tests compare the evaluator against.

Every (sink particle, source cell) and (sink particle, source particle)
term of the interaction lists of
:func:`repro.tree.traversal.traverse_hierarchical` is computed on its
own — the radial chain and the derivative-tensor recurrence per cell
term, the softening branches as masks per pair term, float64
throughout — with numpy arrays over bounded chunks of terms, then
scatter-added per sink particle; the background is removed one cube at
a time.  It shares no arithmetic with
:func:`repro.gravity.treeforce.evaluate_forces` (no polynomial form of
the field, no sink-cell length units, no blocks, no merged boxes),
which is what makes the <= 1e-12 agreement tests mean something.  Only
the exact-type marshalling of the kernels is shared
(:mod:`repro.gravity.native`), so both sides refuse the same types.

Each chunk holds at most ``_PAIRS`` terms, so memory stays bounded;
the time grows with the number of terms, about a microsecond each at
order 2: inputs of a few thousand particles take well under a second.

At the end of the file, :func:`oracle_lattice_pieces` keeps the three
full-cube sums of the periodic lattice coefficients as
``repro.gravity.periodic`` computed them before it summed over the
cubic group's fundamental wedge, and :func:`oracle_moments`,
:func:`m2m` and :func:`l2p` keep the numpy upward pass and lattice L2P,
and :func:`oracle_walk` the numpy dual walk, that the compiled unit
(``repro.multipoles.codegen.UPWARD_SOURCE``) reproduces bit for bit;
:func:`oracle_background_boxes` / :func:`oracle_coalesce_boxes`, next to
the per-cube background, keep the numpy box merge whose boxes and order
its ``merge_boxes`` reproduces.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from repro.gravity import native
from repro.gravity.periodic import _self_term
from repro.gravity.smoothing import NoSoftening
from repro.gravity.treeforce import ForceResult
from repro.keys import cell_coordinates
from repro.multipoles import multi_index_set
from repro.multipoles.dtensors import derivative_tensors, recurrence_plan
from repro.multipoles.multiindex import n_coeffs
from repro.multipoles.prism import prism_acceleration
from repro.multipoles.bounds import critical_radius, critical_radius_moment
from repro.multipoles.cube import cube_moments
from repro.multipoles.radial import ErfcKernel, NewtonianKernel
from repro.tree import traversal
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
def _plan_steps(pmax: int) -> tuple:
    """The recurrence plan of :func:`recurrence_plan` as ``(target, axis,
    idx1, idx2, factor, top)`` steps; ``top = pmax - |target|`` is the
    highest chain level the step fills."""
    mis_hi, plan = recurrence_plan(pmax)
    return tuple(
        (tgt, axis, i1, i2, fac, pmax - int(mis_hi.order[tgt]))
        for tgt, axis, i1, i2, fac in plan
    )


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


#: (sink particle, source) terms evaluated per numpy pass
_PAIRS = 1 << 13


# ---------------------------------------------------------------------------
# the kernel body
# ---------------------------------------------------------------------------


def _pair_chunks(counts: np.ndarray):
    """``(lo, hi)`` runs of consecutive entries holding <= ``_PAIRS``
    terms each (an entry with more terms is a run of its own)."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + _PAIRS, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def _radial_chain(r, r2, pmax, kern_kind, kern_alpha, ke_pow, ke_coef, ke_ptr,
                  kg_pow, kg_coef, kg_ptr) -> list:
    """g_0 .. g_pmax of the radial kernel at the separations ``r``."""
    if kern_kind == native.KERN_NEWTON:  # 1/r
        inv_r2 = 1.0 / r2
        chain = [1.0 / r]
        for mm in range(1, pmax + 1):
            chain.append(chain[-1] * (-(2.0 * mm - 1.0)) * inv_r2)
        return chain
    # erfc(alpha r) / r (Ewald / TreePM split)
    fval = special.erfc(kern_alpha * r)
    gauss = np.exp(-(kern_alpha * kern_alpha) * r2)
    chain = []
    for mm in range(pmax + 1):
        s = np.zeros_like(r)
        for t in range(ke_ptr[mm], ke_ptr[mm + 1]):
            s += ke_coef[t] * r ** ke_pow[t] * fval
        for t in range(kg_ptr[mm], kg_ptr[mm + 1]):
            s += kg_coef[t] * r ** kg_pow[t] * gauss
        chain.append(s)
    return chain


def _softened(r, soft_kind, soft_eps, soft_rsplit):
    """Force factor F and potential psi of a unit-mass source at ``r``:
    the four softening branches as masks, then the r_split filter."""
    if soft_kind == native.SOFT_NONE:
        f, psi = 1.0 / (r * r * r), 1.0 / r
    elif soft_kind == native.SOFT_PLUMMER:
        q2 = r * r + soft_eps * soft_eps
        f, psi = q2 ** -1.5, q2 ** -0.5
    else:  # cubic spline (h = 2.8 eps) or Dehnen K1 (h = eps); Newtonian past h
        h = soft_eps
        u = r / h
        f, psi = np.empty_like(r), np.empty_like(r)
        far = u >= 1.0
        rs = np.maximum(r[far], 1e-300)
        f[far] = 1.0 / rs ** 3
        psi[far] = 1.0 / rs
        if soft_kind == native.SOFT_SPLINE:
            near = u < 0.5
            un = u[near]
            f[near] = (10.666666666667 + un * un * (32.0 * un - 38.4)) / h ** 3
            psi[near] = -1.0 / h * (
                -2.8 + un ** 2 * (5.333333333333 + un ** 2 * (6.4 * un - 9.6))
            )
            mid = ~far & ~near
            um = u[mid]
            f[mid] = (
                21.333333333333
                - 48.0 * um
                + 38.4 * um * um
                - 10.666666666667 * um ** 3
                - 0.066666666667 / um ** 3
            ) / h ** 3
            psi[mid] = -1.0 / h * (
                -3.2
                + 0.066666666667 / um
                + um ** 2 * (10.666666666667 + um * (-16.0 + um * (9.6 - 2.133333333333 * um)))
            )
        else:
            ui = np.minimum(u[~far], 1.0)
            f[~far] = (17.5 - 31.5 * ui ** 2 + 15.0 * ui ** 4) / h ** 3
            psi[~far] = (4.375 - 8.75 * ui ** 2 + 7.875 * ui ** 4 - 2.5 * ui ** 6) / h
    if soft_rsplit > 0.0:
        # GADGET-2 short-range TreePM filter (same expression order as
        # ShortRangeSoftening)
        u = r / (2.0 * soft_rsplit)
        ec = special.erfc(u)
        f = f * (ec + 2.0 * u / math.sqrt(math.pi) * np.exp(-u * u))
        psi = psi * ec
    return f, psi


def _csr_force_kernel(tree, inter, cell_csr, wm, p, radial, soft, want_potential, s0,
                      acc, pot) -> tuple[int, int]:
    """Add every (sink particle, source cell) and (sink particle, source
    particle) term of the per-leaf lists into ``acc`` / ``pot`` (rows
    from particle ``s0``); returns the (cell, pp) term counts walked.

    Each term is computed on its own, ``_PAIRS`` at a time, and the
    terms are scatter-added per sink particle.
    """
    pos, mass, offsets = tree.pos, tree.mass, inter.offsets
    home_off = int(np.flatnonzero(np.all(offsets == 0.0, axis=1))[0])
    leaf_np = tree.cell_count[inter.sink_leaves]
    leaf_a0 = tree.cell_start[inter.sink_leaves]
    n_out = len(acc)
    pmax = p + 1
    steps = _plan_steps(pmax)
    acc_cols = _acc_cols_arr(p)
    ncoef = wm.shape[1]
    nhi = n_coeffs(pmax)

    def scatter(sink, ax, ay, az, ph):
        for k, part in enumerate((ax, ay, az)):
            acc[:, k] += np.bincount(sink, weights=part, minlength=n_out)
        if want_potential:
            pot[:] += np.bincount(sink, weights=ph, minlength=n_out)

    # ---- cell (multipole) terms: one per (entry, sink particle) -------
    cell_src, cell_off, cell_indptr = cell_csr
    row = np.repeat(np.arange(len(leaf_np)), np.diff(cell_indptr))
    counts = leaf_np[row]
    n_cell = int(counts.sum())
    for lo, hi in _pair_chunks(counts):
        ent = np.repeat(np.arange(lo, hi), counts[lo:hi])
        sink = expand_ranges(leaf_a0[row[lo:hi]], counts[lo:hi])
        src = cell_src[ent]
        ctr = tree.cell_center[src] + offsets[cell_off[ent]]
        d = [pos[sink, k] - ctr[:, k] for k in range(3)]
        r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        chain = _radial_chain(np.sqrt(r2), r2, pmax, *radial)
        # derivative-tensor recurrence (plan-driven, any order)
        rm = np.empty((pmax + 1, nhi, len(sink)))
        rm[:, 0] = chain
        for tgt, axis, i1, i2, fac, top in steps:
            v = d[axis] * rm[1 : top + 2, i1]
            if i2 >= 0:
                v = v + fac * rm[1 : top + 2, i2]
            rm[: top + 1, tgt] = v
        # contract with the source cell's weighted moments
        w = wm[src]
        a = [rm[0, acc_cols[k, 0]] * w[:, 0] for k in range(3)]
        ph = rm[0, 0] * w[:, 0]
        for j in range(1, ncoef):
            for k in range(3):
                a[k] += rm[0, acc_cols[k, j]] * w[:, j]
            ph += rm[0, j] * w[:, j]
        scatter(sink - s0, *a, ph)

    # ---- pp terms: one per (entry, source particle, sink particle) ----
    row = np.repeat(np.arange(len(leaf_np)), np.diff(inter.leaf_indptr))
    m = leaf_np[row]
    nsrc = tree.cell_count[inter.leaf_src]
    counts = m * nsrc
    for lo, hi in _pair_chunks(counts):
        ent = np.repeat(np.arange(lo, hi), counts[lo:hi])
        k = expand_ranges(np.zeros(hi - lo, dtype=np.int64), counts[lo:hi])
        sink = leaf_a0[row[ent]] + k % m[ent]
        source = tree.cell_start[inter.leaf_src[ent]] + k // m[ent]
        off = inter.leaf_off[ent]
        keep = (off != home_off) | (sink != source)  # no self interaction
        sink, source, off = sink[keep], source[keep], off[keep]
        d = [pos[sink, c] - (pos[source, c] + offsets[off, c]) for c in range(3)]
        r = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        f, psi = _softened(r, *soft)
        fm = mass[source] * f
        scatter(sink - s0, *(-(fm * dc) for dc in d), mass[source] * psi)

    return n_cell, int(counts.sum())


# ---------------------------------------------------------------------------
# the lists as the kernel walks them, and the entry point
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


def oracle_coalesce_boxes(row, lo, hi, n_rows):
    """Merge the face-adjacent boxes of each row into larger boxes.

    Box i is ``[lo[:, i], hi[:, i])`` — integer corners, shape (3, n) —
    and belongs to row ``row[i]`` of ``n_rows``; the boxes of one row
    are pairwise disjoint.  One sweep per axis, x then y then z: the
    boxes are sorted by (row, extents across the axis, ``lo`` along
    it), and a box whose ``lo`` is the previous box's ``hi`` on the same
    row and cross-section is fused with it.  A run of cubes becomes a
    bar, a stack of equal bars a slab, a stack of equal slabs a block;
    the union of a row's boxes does not change.  Returns ``(box_lo,
    box_hi, box_indptr)``: the merged corners as a CSR over the rows,
    each row's boxes in an order set by its own boxes alone.

    The sort key is the six fields packed, most significant first, into
    as few int64 words as hold them — one for a tree a few levels deep,
    three at the key depth of 21 — ordered by one ``np.argsort`` when it
    is one word and by ``np.lexsort`` otherwise.  A row's boxes are
    disjoint, so every key is unique and both give the one permutation.
    """
    if len(row):
        base = lo.min()
        lo, hi = lo - base, hi - base
        widths = [n_rows.bit_length()] + [int(hi.max()).bit_length()] * 5
        for axis in range(3):
            b, c = (axis + 1) % 3, (axis + 2) % 3
            words, used = [], 63
            for fld, width in zip((row, lo[b], hi[b], lo[c], hi[c], lo[axis]), widths):
                if used + width > 63:
                    words.append(fld)
                    used = width
                else:
                    words[-1] = (words[-1] << width) | fld
                    used += width
            order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
            # box i continues box i - 1 of the sorted order where its key
            # is that box's key with hi in place of lo (the last field)
            words = [w[order] for w in words]
            end = words[-1] + (hi[axis] - lo[axis])[order]
            first = np.ones(len(row), dtype=bool)
            np.not_equal(words[-1][1:], end[:-1], out=first[1:])
            for w in words[:-1]:
                first[1:] |= w[1:] != w[:-1]
            first = np.flatnonzero(first)
            top = hi[axis][order[np.append(first[1:], len(row)) - 1]]
            keep = order[first]
            row, lo, hi = row[keep], lo.take(keep, axis=1), hi.take(keep, axis=1)
            hi[axis] = top
        lo += base
        hi += base
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=indptr[1:])
    return lo, hi, indptr


def oracle_background_boxes(tree, inter):
    """The boxes of :func:`repro.gravity.treeforce._merged_boxes`, by
    the numpy merge the compiled ``merge_boxes`` replaced.

    The ghost cubes and the source cubes of the direct leaf pairs of one
    row are taken together, placed on the integer grid of the finest
    level among them (cell coordinates from the Morton keys, image
    offsets in whole boxes: no rounding) and merged by
    :func:`oracle_coalesce_boxes`.  Returns float64 ``(box_lo, box_hi)`` of
    shape (3, n_boxes) and ``box_indptr`` over ``inter.sink_leaves``.
    """
    n_rows = len(inter.sink_leaves)
    rows = np.arange(n_rows)
    row = np.concatenate(
        [np.repeat(rows, np.diff(ip)) for ip in (inter.ghost_indptr, inter.leaf_indptr)]
    )
    src = np.concatenate((inter.ghost_src, inter.leaf_src))
    off = np.concatenate((inter.ghost_off, inter.leaf_off))
    idx, level = cell_coordinates(tree.cell_key)
    unit = int(level[src].max()) if len(src) else 0
    # (cells finer than the unit are in no list)
    shift = np.maximum(unit - level, 0)
    image = np.rint(inter.offsets / tree.box).astype(np.int64)
    # (3, n) rows, contiguous per axis
    lo = np.take(np.ascontiguousarray(idx.T) << shift, src, axis=1)
    lo += np.take(np.ascontiguousarray(image.T) << unit, off, axis=1)
    hi = lo + (1 << shift)[src]
    lo, hi, indptr = oracle_coalesce_boxes(row, lo, hi, n_rows)
    h = tree.box / (1 << unit)
    return lo * h, hi * h, indptr


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
    ``stats`` counts the terms the kernel walked.  Lists with an m2l
    family are refused: the far field of the hybrid walk has its own
    references (interpreted tensors, the L2L identity, direct sums).
    """
    if inter.m2l_src is not None and len(inter.m2l_src):
        raise ValueError("oracle_forces walks the cell, pp and ghost families only")
    radial, soft = kernel_specs(kernel or NewtonianKernel(), softening or NoSoftening(), moms.p)
    s0, s1 = particle_range if particle_range is not None else (0, tree.n_particles)
    acc = np.zeros((s1 - s0, 3))
    pot = np.zeros(s1 - s0) if want_potential else None
    p = moms.p
    wm = moms.moments[:, : n_coeffs(p)] * _moment_weights(p)
    n_cell, n_pp = _csr_force_kernel(
        tree, inter, cell_leaf_csr(tree, inter), wm, p, radial, soft, want_potential, s0,
        acc, pot,
    )
    stats = {"cell_interactions": n_cell, "pp_interactions": n_pp}
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


# ---------------------------------------------------------------------------
# the numpy dual walk
# ---------------------------------------------------------------------------

#: bits of a pair's decision code: a<-b retires, b<-a retires, an
#: undecided pair splits its b side; then the pair's topology: a is a
#: leaf, b is a leaf, it is the home self-pair of a cell
RET1, RET2, SPLIT_B, LEAF_A, LEAF_B, SELF = 1, 2, 4, 8, 16, 32


def oracle_sink_relevance(tree, sinks):
    """Cells whose subtree holds a selected sink leaf, level by level:
    each interior cell ORs its children's flags, deepest level first."""
    if sinks is None:
        return tree.cell_count > 0
    relevant = np.zeros(tree.n_cells, dtype=bool)
    relevant[sinks] = True
    for level in range(tree.max_level - 1, -1, -1):
        cells = tree.cells_at_level(level)
        internal = cells[tree.cell_first_child[cells] >= 0]
        if len(internal) == 0:
            continue
        nch = tree.cell_nchildren[internal]
        kids = expand_ranges(tree.cell_first_child[internal], nch)
        np.logical_or.at(relevant, np.repeat(internal, nch), relevant[kids])
    return relevant


def oracle_pair_geometry(a, b, off, center, images, half):
    """``dist`` = |x_a - (x_b + image)| and the cube gaps of a and b (the
    distance from the other cell's center to the cube of half-side
    ``half`` around a cell's center); the squares add up x, y, z in order."""
    d = [center[ax][a] - (center[ax][b] + images[ax][off]) for ax in range(3)]
    dist = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    absd = [np.abs(x) for x in d]
    gaps = []
    for h in (half[a], half[b]):
        g = [np.maximum(x - h, 0.0) for x in absd]
        gaps.append(np.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2]))
    return dist, *gaps


def _decide(a, b, fl, dist, gap_a, gap_b, topo, ctx):
    """Decision code of each tested pair: the topology bits ``topo``, plus
    ``RET1`` / ``RET2`` for each live direction that retires and
    ``SPLIT_B`` for an undecided pair that splits its b side."""
    bmax, r_crit, is_ghost, xmax, cc_xmax, m2l = ctx
    bmax_a, bmax_b = bmax[a], bmax[b]
    # direction a<-b: d_eff lower-bounds the distance from any particle
    # under sink a to source b's expansion center
    d_eff = np.maximum(dist - bmax_a, gap_a)
    ok1 = (d_eff > r_crit[b]) & (bmax_b < d_eff * xmax)
    # direction b<-a: same separation, mirrored image offset
    d_eff = np.maximum(dist - bmax_b, gap_b)
    ok2 = (d_eff > r_crit[a]) & (bmax_a < d_eff * xmax)
    if m2l:
        # mutual accept: both directions at once, a ghost side waived
        sep = bmax_a + bmax_b < cc_xmax * dist
        ok1 = ok2 = sep & (ok1 | is_ghost[a]) & (ok2 | is_ghost[b])
    leaf_a = (topo & LEAF_A).astype(bool)
    leaf_b = (topo & LEAF_B).astype(bool)
    ret1 = (fl & 1).astype(bool) & ok1
    ret2 = (fl & 2).astype(bool) & ok2
    undecided = (((fl & 1).astype(bool) & ~ret1) | ((fl & 2).astype(bool) & ~ret2)) & ~(
        leaf_a & leaf_b
    )
    # the home self-pair splits into the triangle of its children; every
    # other pair splits its larger (internal) side
    split_b = undecided & ~(topo & SELF).astype(bool) & (leaf_a | (~leaf_b & (bmax_b >= bmax_a)))
    return (
        topo | ret1.view(np.uint8) | (ret2.view(np.uint8) << 1) | (split_b.view(np.uint8) << 2)
    )


def _pack(packer, rows, src, off):
    """(row, source, image) triples as ``packer``'s sortable keys."""
    key = rows.astype(packer.dtype) << (packer.b_src + packer.b_off)
    return key | (src.astype(packer.dtype) << packer.b_off) | off


def _entry_keys(a, b, off, fl, code, mirror, by_cell, by_row, row_of, is_ghost):
    """(accept, direct, ghost) keys of the entries of tested pairs, unsorted:
    a live direction that retired is an accept keyed (sink cell, source,
    image); a live direction of two leaves that did not is direct, keyed
    (sink-leaf row, source, image), ghost sources apart.  Direction b<-a
    reads the mirror image of ``off``."""
    both_leaf = (code & (LEAF_A | LEAF_B)) == LEAF_A | LEAF_B
    accepts, direct = [], []
    for sink, src, img, live, ret in ((a, b, off, 1, RET1), (b, a, mirror[off], 2, RET2)):
        acc = (code & ret).astype(bool)
        accepts.append(_pack(by_cell, sink, src, img)[acc])
        d = np.flatnonzero((fl & live).astype(bool) & ~acc & both_leaf)
        direct.append((row_of[sink[d]], src[d], img[d]))
    sink, src, img = (np.concatenate(x) for x in zip(*direct))
    ghost = is_ghost[src]
    return (
        np.concatenate(accepts),
        _pack(by_row, sink[~ghost], src[~ghost], img[~ghost]),
        _pack(by_row, sink[ghost], src[ghost], img[ghost]),
    )


def oracle_walk_keys(tree, moms, periodic=False, ws=1, sink_leaves=None, xmax=0.6,
                     m2l=False, cc_xmax=0.5):
    """The numpy dual walk, round by round: its (accept, direct, ghost)
    entry keys, each sorted, its ``(mac_tests, rounds, frontier_peak)``
    and what :func:`repro.tree.traversal._lists_from_walk` needs besides."""
    sinks, offsets, mirror = traversal._walk_frame(tree, periodic, ws, sink_leaves)
    relevant = oracle_sink_relevance(tree, None if sink_leaves is None else sinks)
    n_cells, n_off, home = tree.n_cells, len(offsets), 0
    by_cell = traversal._KeyPacker(n_cells, n_cells, n_off)
    by_row = traversal._KeyPacker(len(sinks), n_cells, n_off)
    row_of = np.zeros(n_cells, dtype=np.int64)
    row_of[sinks] = np.arange(len(sinks))
    center, images = tree.cell_center.T, offsets.T
    is_leaf, is_ghost = tree.is_leaf, tree.cell_is_ghost
    first_child, nchildren = tree.cell_first_child, tree.cell_nchildren
    half = tree.box / np.exp2(tree.cell_level + 1)
    ctx = (moms.bmax, moms.r_crit, is_ghost, xmax, cc_xmax, m2l)

    # one canonical entry per unordered (root, root image) pair: the home
    # self-pair carries a single direction, each +/- image pair both
    root = int(np.flatnonzero(tree.cell_level == 0)[0])
    canon = np.flatnonzero(np.arange(n_off) <= mirror)
    f_a = np.full(len(canon), root, dtype=np.int64)
    f_b, f_off = f_a.copy(), canon.astype(np.int64)
    f_fl = np.where(mirror[canon] == canon, 1, 3).astype(np.int8)
    keys, sizes = [], []
    while len(f_a):
        sizes.append(len(f_a))
        dist, gap_a, gap_b = oracle_pair_geometry(f_a, f_b, f_off, center, images, half)
        topo = (is_leaf[f_a].view(np.uint8) * np.uint8(LEAF_A)
                | is_leaf[f_b].view(np.uint8) * np.uint8(LEAF_B)
                | ((f_a == f_b) & (f_off == home)).view(np.uint8) * np.uint8(SELF))
        code = _decide(f_a, f_b, f_fl, dist, gap_a, gap_b, topo, ctx)
        keys.append(_entry_keys(f_a, f_b, f_off, f_fl, code, mirror, by_cell, by_row,
                                row_of, is_ghost))

        both_leaf = (code & (LEAF_A | LEAF_B)) == LEAF_A | LEAF_B
        live1 = (f_fl & 1).astype(bool) & ~(code & RET1).astype(bool) & ~both_leaf
        live2 = (f_fl & 2).astype(bool) & ~(code & RET2).astype(bool) & ~both_leaf
        undecided = live1 | live2
        fl_live = (live1.astype(np.int8) + 2 * live2.astype(np.int8))[undecided]
        ua, ub, uo = f_a[undecided], f_b[undecided], f_off[undecided]
        selfp = (code[undecided] & SELF).astype(bool)
        split_b = (code[undecided] & SPLIT_B).astype(bool)
        split_a = ~selfp & ~split_b
        parts = []
        # (split side, other side, the split side's direction bit)
        for split, side, other, bit in ((split_b, ub, ua, 2), (split_a, ua, ub, 1)):
            nch = nchildren[side[split]]
            kids = expand_ranges(first_child[side[split]], nch)
            ko = np.repeat(uo[split], nch)
            kf = np.repeat(fl_live[split], nch)
            # the split side's sink direction survives only into kids
            # holding selected sink leaves
            kf = (kf & (3 - bit)) | np.where(relevant[kids], kf & bit, 0).astype(np.int8)
            kept = np.repeat(other[split], nch)
            pa, pb = (kept, kids) if bit == 2 else (kids, kept)
            keep = kf != 0
            parts.append((pa[keep], pb[keep], ko[keep], kf[keep]))
        # unordered children pairs {k_i, k_j}, i <= j, of each self-pair
        # cell; diagonals are single-direction self-pairs
        sa = ua[selfp]
        for n in np.unique(nchildren[sa]):
            iu, ju = np.triu_indices(int(n))
            first = first_child[sa[nchildren[sa] == n]]
            ka = (first[:, None] + iu[None, :]).ravel()
            kb = (first[:, None] + ju[None, :]).ravel()
            kf = (np.where(relevant[ka], 1, 0) | np.where(relevant[kb], 2, 0)).astype(np.int8)
            kf = np.where(ka == kb, kf & 1, kf).astype(np.int8)
            keep = kf != 0
            parts.append((ka[keep], kb[keep], np.full(int(keep.sum()), home), kf[keep]))
        f_a, f_b, f_off, f_fl = (np.concatenate(x) for x in zip(*parts))
        f_fl = f_fl.astype(np.int8)
    keys = tuple(np.sort(np.concatenate(k)) for k in zip(*keys))
    counters = (int(sum(sizes)), len(sizes), int(max(sizes)))
    return keys, counters, (sinks, offsets, by_cell, by_row)


def oracle_walk(tree, moms, m2l=False, **kw):
    """:func:`repro.tree.traversal.traverse_hierarchical` by the numpy walk."""
    keys, counters, (sinks, offsets, by_cell, by_row) = oracle_walk_keys(
        tree, moms, m2l=m2l, **kw
    )
    return traversal._lists_from_walk(tree, keys, counters, sinks, offsets, m2l, by_cell, by_row)


def last_lists(solver):
    """The interaction lists of ``solver``'s last solve: its tree and
    moments walked again (a walk is a pure function of the two)."""
    spec = solver.spec
    return traversal.traverse_lists(
        solver.last_tree, solver.last_moments, traversal=spec.traversal,
        periodic=spec.periodic, ws=spec.ws, cc_xmax=spec.cc_xmax,
    )
