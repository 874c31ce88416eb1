"""Metaprogrammed interaction routines.

Paper §2.2.2: "the expression for the force with p = 8 in three
dimensions begins with 3^8 = 6561 terms. We resort to metaprogramming,
translating the intermediate representation of the computer algebra
system directly into C code."  Two generators walk the symbolic plans
of this package:

* :func:`generate_evaluator_source` emits C: the force evaluator's one
  translation unit per (order p, dtype), with three entry points.  The
  particle-cell row (``cell_field``) is the polynomial form of
  :mod:`repro.multipoles.hermite` — scaled monomials, P_k and d_i P_k
  from a cell's coefficients, the radial chain, the gradient
  x_i S + T_i — unrolled into straight-line statements inside a loop
  over a block of entries that the compiler vectorizes; the pp loop
  (``pp_field``) and the softening kernels are written out beside it;
  the particle-box row of the background subtraction (``prism_field``)
  is the eight corners of :mod:`repro.multipoles.prism` unrolled the
  same way, in float64, its ``log`` and ``atan`` glibc's vector
  variants.  :mod:`repro.gravity.native` compiles and loads the unit,
  and :func:`cell_row_ops` counts the cell row's arithmetic for
  :mod:`repro.perfmodel.flops`.
* :func:`generate_dtensor_source` walks the derivative-tensor
  recurrence and emits fully unrolled NumPy source (one multiply, plus
  an add where the recurrence has a second term and a constant
  multiply where that term's factor is not 1, per surviving
  coefficient), which :func:`compiled_dtensor_function` ``exec``s into
  a callable.  The recurrence runs over levels R^m_alpha; its output
  is level 0, the plain derivative tensor D_alpha = R^0_alpha — what
  M2L asks for — and only the steps that output depends on are
  emitted.  The routine is structure-of-arrays (paper §3.3): every
  operand is one contiguous row over the interaction batch and every
  statement is a ufunc call writing through ``out=`` into a row of the
  caller's output or scratch array, so a call allocates nothing.  It is
  bit-identical to the interpreted recurrence in
  :mod:`repro.multipoles.dtensors` (tested): same plan, same operands,
  same multiply/add order; only the exact ``1.0 *`` multiplies are
  elided.
"""

from __future__ import annotations

import functools

import numpy as np

from .dtensors import recurrence_plan
from .hermite import field_table
from .multiindex import multi_index_set, n_coeffs

__all__ = [
    "generate_dtensor_source",
    "compiled_dtensor_function",
    "dtensors_soa",
    "generate_evaluator_source",
    "cell_row_ops",
]


def _dtensor_program(p: int) -> tuple[str, int, int]:
    """(source of ``dtensors``, scratch rows, multiply/add statements)."""
    mis, plan = recurrence_plan(p)
    orders = mis.order
    ncoef = len(mis)
    # one step per (target, level m): R^m_tgt = x_i R^{m+1}_a [+ fac R^{m+1}_b],
    # kept only where the output depends on it (operands have a
    # lower packed index than their target: one backward sweep settles it)
    steps = [
        (m, tgt, i, idx1, idx2 if fac != 0.0 else -1, fac)
        for tgt, i, idx1, idx2, fac in plan
        for m in range(p - int(orders[tgt]), -1, -1)
    ]
    needed = {(0, idx) for idx in range(ncoef)}
    for m, tgt, _i, idx1, idx2, _fac in reversed(steps):
        if (m, tgt) in needed:
            needed.update({(m + 1, idx1), (m + 1, idx2)})
    steps = [s for s in steps if (s[0], s[1]) in needed]
    last_read: dict[tuple[int, int], int] = {}
    for k, (m, _tgt, _i, idx1, idx2, _fac) in enumerate(steps):
        last_read[(m + 1, idx1)] = k
        if idx2 >= 0:
            last_read[(m + 1, idx2)] = k

    slot: dict[tuple[int, int], int] = {}
    free: list[int] = []
    n_scratch = 0

    def take() -> int:
        nonlocal n_scratch
        if free:
            return free.pop()
        n_scratch += 1
        return n_scratch - 1

    def name(m: int, idx: int) -> str:
        if m == 0:
            return f"d{idx}"
        return f"g{m}" if idx == 0 else f"w{slot[(m, idx)]}"

    axis_var = "xyz"
    body = []
    for k, (m, tgt, i, idx1, idx2, fac) in enumerate(steps):
        if m:
            slot[(m, tgt)] = take()
        dst = name(m, tgt)
        body.append(f"    mul({axis_var[i]}, {name(m + 1, idx1)}, {dst})")
        if idx2 >= 0:
            term = name(m + 1, idx2)
            if fac != 1.0:
                tmp = take()
                body.append(f"    mul({fac!r}, {term}, w{tmp})")
                term = f"w{tmp}"
                free.append(tmp)
            body.append(f"    add({dst}, {term}, {dst})")
        for read in ((m + 1, idx1), (m + 1, idx2)):
            if read in slot and last_read[read] == k:
                free.append(slot.pop(read))

    def unpack(prefix: str, n: int, arr: str) -> str:
        names = ", ".join(f"{prefix}{j}" for j in range(n))
        return f"    {names}, = {arr}"

    head = [
        "def dtensors(x, y, z, g, D, W):",
        f'    """Unrolled D_alpha, |alpha| <= {p} (generated).',
        "",
        f"    x, y, z: (N,) displacements; g: ({p + 1}, N) radial chain;",
        f"    D: ({ncoef}, N) output;",
        f"    W: (>={n_scratch}, N) scratch.",
        '    """',
        unpack("g", p + 1, "g"),
        unpack("d", ncoef, "D"),
    ]
    if n_scratch:
        head.append(unpack("w", n_scratch, f"W[:{n_scratch}]"))
    # seed: R^0_(000) = g[0]
    src = "\n".join(head + ["    np.copyto(d0, g0)"] + body + ["    return D"]) + "\n"
    return src, n_scratch, len(body)


def generate_dtensor_source(p: int) -> str:
    """Emit unrolled source for the derivative tensors up to order ``p``.

    The generated function has signature ``f(x, y, z, g, D, W)`` where
    x, y, z are the (N,) displacement components, ``g`` is the
    (p + 1, N) radial derivative chain, ``D`` is a preallocated
    (n_coeffs(p), N) output array (row j holds D_alpha for the packed
    multi-index alpha_j) and ``W`` is scratch with at least
    ``f.n_scratch`` rows of N.  ``D`` and ``W`` must not overlap the
    inputs.
    """
    return _dtensor_program(p)[0]


@functools.lru_cache(maxsize=32)
def compiled_dtensor_function(p: int):
    """Compile (exec) the generated source for order ``p`` and return it.

    The scratch-row count the routine needs is its ``n_scratch``
    attribute, the multiply/add statements it executes its ``n_ops``
    (what :mod:`repro.perfmodel.flops` counts for the recurrence).
    """
    src, n_scratch, n_ops = _dtensor_program(p)
    namespace: dict = {"np": np, "mul": np.multiply, "add": np.add}
    code = compile(src, f"<generated dtensors p={p}>", "exec")
    exec(code, namespace)  # noqa: S102 - trusted, self-generated source
    fn = namespace["dtensors"]
    fn.n_scratch = n_scratch
    fn.n_ops = n_ops
    return fn


def dtensors_soa(x, y, z, g, p: int) -> np.ndarray:
    """Run the generated order-``p`` routine; returns a new ``D[n_coeffs(p), N]``.

    Output and scratch are allocated here in the dtype of ``g``; a hot
    loop calls :func:`compiled_dtensor_function` with pooled buffers.
    """
    fn = compiled_dtensor_function(p)
    n = g.shape[1]
    out = np.empty((n_coeffs(p), n), dtype=g.dtype)
    return fn(x, y, z, g, out, np.empty((fn.n_scratch, n), dtype=g.dtype))


def derivative_tensors_generated(dx, kernel, p: int, dtype=np.float64):
    """Drop-in replacement for :func:`repro.multipoles.dtensors.derivative_tensors`
    backed by the generated unrolled kernel."""
    dx = np.asarray(dx, dtype=np.float64)
    r = np.sqrt(np.einsum("ij,ij->i", dx, dx))
    g = kernel.radial_derivs(r, p)
    out = dtensors_soa(dx[:, 0], dx[:, 1], dx[:, 2], g, p).T
    if dtype is not np.float64:
        out = out.astype(dtype)
    return out




# ----- the force evaluator, emitted as C ----------------------------------------

#: entries per gathered block of the cell, pp and prism loops: a
#: ``#define`` of the generated unit, not a setting; no result depends
#: on it (tested)
BLK = 64


class _Emitter:
    """Straight-line C statements in ``real``, counting the arithmetic."""

    def __init__(self):
        self.lines: list[str] = []
        self.ops = 0

    def let(self, name: str, expr: str, ops: int) -> str:
        self.lines.append(f"real {name} = {expr};")
        self.ops += ops
        return name

    def sum_of(self, name: str, terms: list[str]) -> str | None:
        """``name`` = the terms added left to right; None without terms."""
        if not terms:
            return None
        self.let(name, terms[0], terms[0].count("*"))
        for t in terms[1:]:
            self.lines.append(f"{name} = {name} + {t};")
            self.ops += 1 + t.count("*")
        return name


@functools.lru_cache(maxsize=16)
def _field_program(p: int) -> tuple[str, str, str, int, int, int]:
    """C of one particle x cell row of order ``p``.

    Returns ``(geometry, newton_chain, body, geometry + chain ops, body
    ops without the potential, potential ops)``.  ``geometry`` turns the
    particle (px, py, pz) and the entry's source centre cx/cy/cz[j] into
    x, y, z, r2, r; ``newton_chain`` the radial chain g0 .. g{p+1} of
    1/r; ``body`` reads x, y, z, the chain and the entry's coefficient
    rows B[f][j] (f over ``field_table(p).filled``) and writes
    AX/AY/AZ/PH[j].

    The body is the field of :mod:`repro.multipoles.hermite` evaluated
    at x itself: the scaled monomials X_gamma = x^gamma / gamma!, one
    multiply each from a lower one; P_k = sum b_{k,gamma} X_gamma and
    d_i P_k = sum b_{k,gamma} X_{gamma - e_i}; then S = sum g_{k+1} P_k,
    T_i = sum g_k d_i P_k, a_i = x_i S + T_i and phi = sum g_k P_k.
    """
    tab = field_table(p)
    mis = multi_index_set(p)
    alphas = [tuple(int(v) for v in a) for a in mis.alphas]
    rows = []  # (f, k, gamma) of the filled rows
    for k in range(p + 1):
        for g in range(n_coeffs(k)):
            if tab.filled[tab.offsets[k] + g]:
                rows.append((len(rows), k, alphas[g]))
    axis_var = "xyz"

    def lower(gamma, i):
        return gamma[:i] + (gamma[i] - 1,) + gamma[i + 1 :]

    need = {gamma for _, _, gamma in rows}
    need |= {lower(g, i) for _, _, g in rows for i in range(3) if g[i]}
    # parents: X_gamma = X_{gamma - e_i} * x_i / gamma_i, i its first axis
    todo = sorted(need, key=sum)
    for gamma in todo:
        if sum(gamma) > 1:
            i = next(i for i in range(3) if gamma[i])
            if lower(gamma, i) not in need:
                need.add(lower(gamma, i))
                todo.append(lower(gamma, i))
    em = _Emitter()
    name = {(0, 0, 0): None}
    for i in range(3):
        for j in range(2, p + 1):
            if any(g[i] == j and sum(g) > 1 for g in need):
                em.let(f"{axis_var[i]}{j}", f"{axis_var[i]} * R({1.0 / j!r})", 1)
    for gamma in sorted(need, key=lambda g: (sum(g), mis.index[g])):
        if sum(gamma) == 0:
            continue
        if sum(gamma) == 1:
            name[gamma] = axis_var[gamma.index(1)]
            continue
        i = next(i for i in range(3) if gamma[i])
        scale = axis_var[i] if gamma[i] == 1 else f"{axis_var[i]}{gamma[i]}"
        name[gamma] = em.let(f"X{mis.index[gamma]}", f"{name[lower(gamma, i)]} * {scale}", 1)

    def term(f, gamma):
        return f"B[{f}][j]" if name[gamma] is None else f"B[{f}][j] * {name[gamma]}"

    P, D = {}, {}
    for k in range(p + 1):
        mine = [(f, g) for f, kk, g in rows if kk == k]
        P[k] = em.sum_of(f"P{k}", [term(f, g) for f, g in mine])
        for i in range(3):
            D[k, i] = em.sum_of(
                f"D{k}{axis_var[i]}", [term(f, lower(g, i)) for f, g in mine if g[i]]
            )
    em.sum_of("S", [f"g{k + 1} * {P[k]}" for k in range(p + 1)])
    for i, v in enumerate(axis_var):
        T = em.sum_of(f"T{v}", [f"g{k} * {D[k, i]}" for k in range(1, p + 1) if D[k, i]])
        out = f"{v} * S" if T is None else f"{v} * S + {T}"
        em.lines.append(f"A{v.upper()}[j] = {out};")
        em.ops += out.count("*") + out.count("+")
    body_ops = em.ops
    em.sum_of("phi", [f"g{k} * {P[k]}" for k in range(p + 1)])
    em.lines.append("PH[j] = phi;")
    pot_ops = em.ops - body_ops

    geometry = "\n".join([
        "real x = (real)(px - cx[j]);",
        "real y = (real)(py - cy[j]);",
        "real z = (real)(pz - cz[j]);",
        "real r2 = (x * x + y * y) + z * z;",
        "real r = SQRT(r2);",
    ])
    chain = ["real ir2 = R(1.0) / r2;", "real g0 = R(1.0) / r;"]
    for m in range(1, p + 2):
        chain.append(f"real g{m} = (g{m - 1} * R({-(2.0 * m - 1)!r})) * ir2;")
    geometry_ops = 3 + 5 + 1 + 2 + 2 * (p + 1)
    return (
        geometry, "\n".join(chain), "\n".join(em.lines),
        geometry_ops, body_ops, pot_ops,
    )


def _prism_program() -> str:
    """C of one particle x box row of the background subtraction.

    The arithmetic of :func:`repro.multipoles.prism.prism_acceleration`,
    one corner after another in (i, j, k) order: reads the particle
    (px, py, pz) and the box LX .. HZ[j], writes the field (GX, GY,
    GZ)[j] and the potential GU[j] of the density ``rho``, all float64.
    Per corner r = sqrt((x^2 + y^2) + z^2), the logs ln(c + r) floored at
    ``PRISM_TINY`` (a comparison: an ``fmax`` call keeps gcc from
    vectorizing the loop), atan(b c / (a r)) with 0 where a r = 0, the
    integrands f_a = (b L_c + c L_b) - a A_a and u = (x f_x + y f_y) +
    z f_z, summed with the corner's parity sign.
    """
    lines = []
    for v, lo, hi in (("x", "LX", "HX"), ("y", "LY", "HY"), ("z", "LZ", "HZ")):
        lines.append(f"double {v}0 = {lo}[j] - p{v}, {v}1 = {hi}[j] - p{v};")
        lines.append(f"double {v}{v}0 = {v}0 * {v}0, {v}{v}1 = {v}1 * {v}1;")
    lines.append("double gx = 0.0, gy = 0.0, gz = 0.0, gu = 0.0;")
    for i in range(2):
        for j in range(2):
            lines.append(f"double s{i}{j} = xx{i} + yy{j};")
            for k in range(2):
                c = f"{i}{j}{k}"
                x, y, z = f"x{i}", f"y{j}", f"z{k}"
                lines.append(f"double r{c} = sqrt(s{i}{j} + zz{k});")
                for v, a in (("x", x), ("y", y), ("z", z)):
                    lines.append(f"double t{v}{c} = {a} + r{c};")
                    lines.append(
                        f"double l{v}{c} = log(t{v}{c} > PRISM_TINY ? t{v}{c} : PRISM_TINY);"
                    )
                for v, a, b, cc in (("x", x, y, z), ("y", y, z, x), ("z", z, x, y)):
                    lines.append(f"double d{v}{c} = {a} * r{c};")
                    lines.append(
                        f"double a{v}{c} = atan(d{v}{c} != 0.0 ? ({b} * {cc}) / d{v}{c} : 0.0);"
                    )
                lines += [
                    f"double fx{c} = ({y} * lz{c} + {z} * ly{c}) - {x} * ax{c};",
                    f"double fy{c} = ({z} * lx{c} + {x} * lz{c}) - {y} * ay{c};",
                    f"double fz{c} = ({x} * ly{c} + {y} * lx{c}) - {z} * az{c};",
                    f"double u{c} = ({x} * fx{c} + {y} * fy{c}) + {z} * fz{c};",
                ]
                # + where an odd number of upper corners is involved
                sign = "+" if (i + j + k) % 2 else "-"
                for g in ("x", "y", "z"):
                    lines.append(f"g{g} = g{g} {sign} f{g}{c};")
                lines.append(f"gu = gu {sign} u{c};")
    lines += [
        "GX[j] = gx * nrho;",
        "GY[j] = gy * nrho;",
        "GZ[j] = gz * nrho;",
        "GU[j] = gu * hrho;",
    ]
    return "\n".join(lines)


def cell_row_ops(p: int, want_potential: bool = True) -> int:
    """Arithmetic of one particle x cell row in the generated C: the
    difference, r, the 1/r chain and the field body, one per ``+ - * /``
    or square root (the potential's statements only when it is wanted)."""
    _, _, _, geometry, body, pot = _field_program(p)
    return geometry + body + (pot if want_potential else 0)


_EVALUATOR_C = r"""/* Force evaluator of order $p in $real (generated by
 * repro.multipoles.codegen; do not edit).  Built with IEEE arithmetic:
 * no -ffast-math, no contraction, every sum in the order written. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* glibc's libmvec: vector variants of log and atan for the prism loop
   (-fopenmp-simd, linked with -lmvec); <math.h> declares them only
   under -ffast-math, which the unit must not use */
#pragma omp declare simd notinbranch
double log(double);
#pragma omp declare simd notinbranch
double atan(double);

typedef $real real;
#define R(c) ((real)(c))
#define SQRT $sqrt
#ifndef BLK
#define BLK $blk
#endif
/* prism lanes: every block is padded to a multiple of VW boxes, the
   four float64 lanes of the 256-bit vector log and atan, so that no box
   falls to a scalar remainder loop */
#define VW 4
#define PBLK ((BLK + VW - 1) / VW * VW)
#define PRISM_TINY 1e-300
#define NF $nf
#define NG $ng

enum { KERN_NEWTON = 0, KERN_ERFC = 1 };
enum { SOFT_NONE = 0, SOFT_PLUMMER = 1, SOFT_SPLINE = 2, SOFT_DEHNEN = 3 };

static const int UNIT_POWER[NF] = { $unit_power };

/* g_0 .. g_{NG-1} of erfc(alpha r) / r in float64: per level a sum of
   c r^p erfc(alpha r) and d r^q exp(-alpha^2 r^2) terms (CSR tables) */
static void erfc_chain(double r, double alpha, const double *e_pow,
                       const double *e_coef, const int64_t *e_ptr,
                       const double *g_pow, const double *g_coef,
                       const int64_t *g_ptr, double *g)
{
    double f = erfc(alpha * r);
    double gauss = exp(-(alpha * alpha) * r * r);
    for (int m = 0; m < NG; m++) {
        double acc = 0.0;
        for (int64_t t = e_ptr[m]; t < e_ptr[m + 1]; t++)
            acc += e_coef[t] * pow(r, e_pow[t]) * f;
        for (int64_t t = g_ptr[m]; t < g_ptr[m + 1]; t++)
            acc += g_coef[t] * pow(r, g_pow[t]) * gauss;
        g[m] = acc;
    }
}

/* The cell family: per sink-cell row, blocks of BLK entries gathered
   into structure-of-arrays form, then for every owned particle of the
   cell one vectorizable pass over the block and one scalar pass adding
   its rows into float64 in entry order.  Lengths are in units
   u = 2^row_unit[row] of the row's level. */
int cell_field(const double *pos, const uint8_t *owned,
               const int64_t *cell_start, const int64_t *cell_count,
               const double *cell_center, int64_t n_rows,
               const int64_t *row_cell, const int64_t *row_unit,
               const int64_t *indptr, const int64_t *src, const int64_t *off,
               const double *offsets, const double *coef,
               int kern, double alpha,
               const double *e_pow, const double *e_coef, const int64_t *e_ptr,
               const double *g_pow, const double *g_coef, const int64_t *g_ptr,
               int want_pot, int64_t s0, double *acc, double *pot)
{
    int64_t mmax = 1;
    for (int64_t row = 0; row < n_rows; row++)
        if (cell_count[row_cell[row]] > mmax)
            mmax = cell_count[row_cell[row]];
    double *sum = malloc(4 * mmax * sizeof(double));
    if (!sum)
        return -1;
    double cx[BLK], cy[BLK], cz[BLK];
    real B[NF][BLK], G[NG][BLK];
    real X[BLK], Y[BLK], Z[BLK], RR[BLK];
    real AX[BLK], AY[BLK], AZ[BLK], PH[BLK];
    for (int64_t row = 0; row < n_rows; row++) {
        int64_t e0 = indptr[row], e1 = indptr[row + 1];
        int64_t c = row_cell[row], a0 = cell_start[c], m = cell_count[c];
        int any = 0;
        for (int64_t i = 0; i < m; i++)
            any |= owned[a0 + i];
        if (e0 == e1 || !any)
            continue;
        int ue = (int)row_unit[row];
        double u = ldexp(1.0, ue), inv_u = ldexp(1.0, -ue);
        double scale[NF], gscale[NG];
        for (int f = 0; f < NF; f++)
            scale[f] = ldexp(1.0, ue * UNIT_POWER[f]);
        for (int k = 0; k < NG; k++)
            gscale[k] = ldexp(1.0, (2 * k + 1) * ue);
        memset(sum, 0, 4 * m * sizeof(double));
        for (int64_t b0 = e0; b0 < e1; b0 += BLK) {
            int nb = (int)(e1 - b0 < BLK ? e1 - b0 : BLK);
            for (int j = 0; j < nb; j++) {
                int64_t s = src[b0 + j], o = off[b0 + j];
                cx[j] = (cell_center[3 * s] + offsets[3 * o]) * inv_u;
                cy[j] = (cell_center[3 * s + 1] + offsets[3 * o + 1]) * inv_u;
                cz[j] = (cell_center[3 * s + 2] + offsets[3 * o + 2]) * inv_u;
                const double *b = coef + s * NF;
                for (int f = 0; f < NF; f++)
                    B[f][j] = (real)(b[f] * scale[f]);
            }
            for (int64_t i = 0; i < m; i++) {
                if (!owned[a0 + i])
                    continue;
                const double *q = pos + 3 * (a0 + i);
                double px = q[0] * inv_u, py = q[1] * inv_u, pz = q[2] * inv_u;
                if (kern == KERN_NEWTON) {
                    for (int j = 0; j < nb; j++) {
$geometry
$chain
$body
                    }
                } else {
                    for (int j = 0; j < nb; j++) {
$geometry
                        X[j] = x; Y[j] = y; Z[j] = z; RR[j] = r;
                    }
                    for (int j = 0; j < nb; j++) {
                        double g[NG];
                        /* in box units, then scaled to u exactly */
                        erfc_chain((double)RR[j] * u, alpha, e_pow, e_coef, e_ptr,
                                   g_pow, g_coef, g_ptr, g);
                        for (int k = 0; k < NG; k++)
                            G[k][j] = (real)(g[k] * gscale[k]);
                    }
                    for (int j = 0; j < nb; j++) {
                        real x = X[j], y = Y[j], z = Z[j];
$load_chain
$body
                    }
                }
                double *t = sum + 4 * i;
                double sx = t[0], sy = t[1], sz = t[2], sp = t[3];
                for (int j = 0; j < nb; j++) {
                    sx += AX[j];
                    sy += AY[j];
                    sz += AZ[j];
                    sp += PH[j];
                }
                t[0] = sx; t[1] = sy; t[2] = sz; t[3] = sp;
            }
        }
        for (int64_t i = 0; i < m; i++) {
            if (!owned[a0 + i])
                continue;
            double *a = acc + 3 * (a0 + i - s0);
            a[0] += sum[4 * i] * inv_u;
            a[1] += sum[4 * i + 1] * inv_u;
            a[2] += sum[4 * i + 2] * inv_u;
            if (want_pot)
                pot[a0 + i - s0] += sum[4 * i + 3];
        }
    }
    free(sum);
    return 0;
}

/* F(r) and psi(r) of a softening kernel, the float64 definitions of
   repro.gravity.smoothing (and the TreePM short-range filter when
   r_split > 0) */
static void soften(int kind, double r, double h, double eps, double r_split,
                   double *f, double *psi)
{
    if (kind == SOFT_PLUMMER) {
        double q2 = r * r + eps * eps;
        *f = pow(q2, -1.5);
        *psi = pow(q2, -0.5);
    } else if (kind == SOFT_SPLINE) {
        double u = r / h;
        if (u >= 1.0) {
            double rs = r > 1e-300 ? r : 1e-300;
            *f = 1.0 / pow(rs, 3.0);
            *psi = 1.0 / rs;
        } else if (u < 0.5) {
            *f = (10.666666666667 + u * u * (32.0 * u - 38.4)) / pow(h, 3.0);
            *psi = -1.0 / h * (-2.8 + u * u * (5.333333333333 + u * u * (6.4 * u - 9.6)));
        } else {
            *f = (21.333333333333 - 48.0 * u + 38.4 * u * u
                  - 10.666666666667 * pow(u, 3.0) - 0.066666666667 / pow(u, 3.0))
                 / pow(h, 3.0);
            *psi = -1.0 / h * (-3.2 + 0.066666666667 / u
                   + u * u * (10.666666666667 + u * (-16.0 + u * (9.6 - 2.133333333333 * u))));
        }
    } else if (kind == SOFT_DEHNEN) {
        double u = r / h;
        if (r >= h) {
            double rs = r > 1e-300 ? r : 1e-300;
            *f = 1.0 / pow(rs, 3.0);
        } else {
            *f = (17.5 - 31.5 * (u * u) + 15.0 * pow(u, 4.0)) / pow(h, 3.0);
        }
        if (u >= 1.0)
            *psi = 1.0 / (r > 1e-300 ? r : 1e-300);
        else
            *psi = (4.375 - 8.75 * (u * u) + 7.875 * pow(u, 4.0) - 2.5 * pow(u, 6.0)) / h;
    } else {
        *f = 1.0 / (r * r * r);
        *psi = 1.0 / r;
    }
    if (r_split > 0.0) {
        double u = r / (2.0 * r_split);
        double ec = erfc(u);
        *f = *f * (ec + 2.0 * u / sqrt(M_PI) * exp(-u * u));
        *psi = *psi * ec;
    }
}

/* The pp family: for every particle of every sink leaf, its row's source
   particles in place, a block at a time: the difference in float64
   rounded to real, r, 1/r^3 and 1/r in real, the softening's float64
   definitions where r < hthr, the self-pair (home image only) masked,
   then -m F dx and m psi added into float64 in entry order. */
void pp_field(const double *pos, const real *mass,
              const int64_t *cell_start, const int64_t *cell_count,
              int64_t n_rows, const int64_t *sink_leaves, const int64_t *indptr,
              const int64_t *src, const int64_t *off, const double *offsets,
              int64_t home_off, int soft, double hthr_in, double soft_h,
              double soft_eps, double r_split, int want_pot, int64_t s0,
              double *acc, double *pot)
{
    real hthr = (real)hthr_in;
    real DX[BLK], DY[BLK], DZ[BLK], RR[BLK], F[BLK], PSI[BLK];
    for (int64_t row = 0; row < n_rows; row++) {
        int64_t leaf = sink_leaves[row], a0 = cell_start[leaf], m = cell_count[leaf];
        for (int64_t i = 0; i < m; i++) {
            int64_t gi = a0 + i;
            double px = pos[3 * gi], py = pos[3 * gi + 1], pz = pos[3 * gi + 2];
            double sx = 0.0, sy = 0.0, sz = 0.0, sp = 0.0;
            for (int64_t e = indptr[row]; e < indptr[row + 1]; e++) {
                int64_t s = src[e], o = off[e];
                double ox = offsets[3 * o], oy = offsets[3 * o + 1], oz = offsets[3 * o + 2];
                int64_t b0 = cell_start[s], ns = cell_count[s];
                for (int64_t jb = 0; jb < ns; jb += BLK) {
                    int nb = (int)(ns - jb < BLK ? ns - jb : BLK);
                    const double *q = pos + 3 * (b0 + jb);
                    const real *mq = mass + b0 + jb;
                    for (int j = 0; j < nb; j++) {
                        real dx = (real)(px - (q[3 * j] + ox));
                        real dy = (real)(py - (q[3 * j + 1] + oy));
                        real dz = (real)(pz - (q[3 * j + 2] + oz));
                        real r = SQRT((dx * dx + dy * dy) + dz * dz);
                        real psi = R(1.0) / r;
                        DX[j] = dx; DY[j] = dy; DZ[j] = dz; RR[j] = r;
                        F[j] = (psi * psi) * psi;
                        PSI[j] = psi;
                    }
                    if (hthr > 0)
                        for (int j = 0; j < nb; j++)
                            if (RR[j] < hthr) {
                                double f, psi;
                                soften(soft, (double)RR[j], soft_h, soft_eps, r_split, &f, &psi);
                                F[j] = (real)f;
                                PSI[j] = (real)psi;
                            }
                    if (o == home_off && gi >= b0 + jb && gi < b0 + jb + nb) {
                        F[gi - b0 - jb] = 0;
                        PSI[gi - b0 - jb] = 0;
                    }
                    for (int j = 0; j < nb; j++) {
                        real t = -mq[j] * F[j];
                        sx += t * DX[j];
                        sy += t * DY[j];
                        sz += t * DZ[j];
                        sp += mq[j] * PSI[j];
                    }
                }
            }
            double *a = acc + 3 * (gi - s0);
            a[0] += sx;
            a[1] += sy;
            a[2] += sz;
            if (want_pot)
                pot[gi - s0] += sp;
        }
    }
}

/* The prism family: the background of density rho removed over each
   sink leaf's merged boxes (lo, hi: (3, n_boxes), a CSR over the rows),
   in float64 whatever real is.  Per row, blocks of BLK boxes copied and
   padded to a multiple of VW lanes with the block's first box, so that
   every box goes through the same vector log and atan; then for every
   particle of the leaf one vectorized pass over the padded block and
   one scalar pass adding its real rows into float64 in box order. */
int prism_field(const double *pos, const int64_t *cell_start,
                const int64_t *cell_count, int64_t n_rows,
                const int64_t *sink_leaves, const double *box_lo,
                const double *box_hi, int64_t n_boxes, const int64_t *indptr,
                double rho, int want_pot, int64_t s0, double *acc, double *pot)
{
    int64_t mmax = 1;
    for (int64_t row = 0; row < n_rows; row++)
        if (cell_count[sink_leaves[row]] > mmax)
            mmax = cell_count[sink_leaves[row]];
    double *sum = malloc(4 * mmax * sizeof(double));
    if (!sum)
        return -1;
    double nrho = -rho, hrho = 0.5 * rho;
    double LX[PBLK], LY[PBLK], LZ[PBLK], HX[PBLK], HY[PBLK], HZ[PBLK];
    double GX[PBLK], GY[PBLK], GZ[PBLK], GU[PBLK];
    for (int64_t row = 0; row < n_rows; row++) {
        int64_t e0 = indptr[row], e1 = indptr[row + 1];
        if (e0 == e1)
            continue;
        int64_t leaf = sink_leaves[row], a0 = cell_start[leaf], m = cell_count[leaf];
        memset(sum, 0, 4 * m * sizeof(double));
        for (int64_t b0 = e0; b0 < e1; b0 += BLK) {
            int nb = (int)(e1 - b0 < BLK ? e1 - b0 : BLK);
            int nv = (nb + VW - 1) / VW;
            for (int j = 0; j < nv * VW; j++) {
                int64_t e = b0 + (j < nb ? j : 0);
                LX[j] = box_lo[e];
                LY[j] = box_lo[n_boxes + e];
                LZ[j] = box_lo[2 * n_boxes + e];
                HX[j] = box_hi[e];
                HY[j] = box_hi[n_boxes + e];
                HZ[j] = box_hi[2 * n_boxes + e];
            }
            for (int64_t i = 0; i < m; i++) {
                const double *q = pos + 3 * (a0 + i);
                double px = q[0], py = q[1], pz = q[2];
                for (int v = 0; v < nv; v++) {
#pragma omp simd
                    for (int l = 0; l < VW; l++) {
                        int j = v * VW + l;
$prism
                    }
                }
                double *t = sum + 4 * i;
                double sx = t[0], sy = t[1], sz = t[2], sp = t[3];
                for (int j = 0; j < nb; j++) {
                    sx += GX[j];
                    sy += GY[j];
                    sz += GZ[j];
                    sp += GU[j];
                }
                t[0] = sx; t[1] = sy; t[2] = sz; t[3] = sp;
            }
        }
        for (int64_t i = 0; i < m; i++) {
            double *a = acc + 3 * (a0 + i - s0);
            a[0] += sum[4 * i];
            a[1] += sum[4 * i + 1];
            a[2] += sum[4 * i + 2];
            if (want_pot)
                pot[a0 + i - s0] += sum[4 * i + 3];
        }
    }
    free(sum);
    return 0;
}
"""


def _indent(code: str, n: int) -> str:
    return "\n".join(" " * n + line for line in code.splitlines())


@functools.lru_cache(maxsize=16)
def generate_evaluator_source(p: int, dtype_name: str) -> str:
    """The C translation unit of the force evaluator at order ``p`` in
    ``dtype_name`` ("float32" or "float64").

    Three entry points, ``cell_field``, ``pp_field`` and ``prism_field``
    (:mod:`repro.gravity.native` loads them): the straight-line field of
    :func:`_field_program` inlined in the cell loop, the softened pair
    loop, and the corners of :func:`_prism_program` in the padded,
    vectorized box loop.  ``BLK`` is overridable with ``-DBLK=n``.
    """
    import string

    real = {"float32": "float", "float64": "double"}.get(dtype_name)
    if real is None:
        raise ValueError(f"the force evaluator runs in float32 or float64, not {dtype_name}")
    geometry, chain, body, *_ = _field_program(p)
    tab = field_table(p)
    load_chain = "\n".join(f"real g{m} = G[{m}][j];" for m in range(p + 2))
    return string.Template(_EVALUATOR_C).substitute(
        p=p, real=real, sqrt="sqrtf" if real == "float" else "sqrt", blk=BLK,
        nf=int(tab.filled.sum()), ng=p + 2,
        unit_power=", ".join(str(int(v)) for v in tab.unit_power[tab.filled]),
        geometry=_indent(geometry, 24), chain=_indent(chain, 24),
        body=_indent(body, 24), load_chain=_indent(load_chain, 24),
        prism=_indent(_prism_program(), 24),
    )
