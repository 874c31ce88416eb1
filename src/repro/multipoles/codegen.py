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
  (``pp_field``: each sink leaf's source particles gathered once into
  one run, the paper's m x n tile) and the softening kernels are
  written out beside it;
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


#: The evaluator's C text, its ``$`` fields filled per (order, dtype) by
#: :func:`generate_evaluator_source`; its entry points' prototypes hold
#: none, so :mod:`repro.gravity.native` reads their signatures from it.
EVALUATOR_TEMPLATE = r"""/* Force evaluator of order $p in $real (generated by
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

/* The pp family, as an m x n tile: per sink-leaf row the row's source
   particles are gathered once into one structure-of-arrays run (position
   plus image offset in float64, mass in real, and the particle's index
   where the image is home, -1 elsewhere); then every particle of the
   sink leaf makes one blocked pass over the run: the difference in
   float64 rounded to real, r, 1/r^3 and 1/r in real, the softening's
   float64 definitions where r < hthr, the home self-pair masked, then
   -m F dx and m psi added into float64 in run order (entry order, then
   particle order). */
int pp_field(const double *pos, const real *mass,
             const int64_t *cell_start, const int64_t *cell_count,
             int64_t n_rows, const int64_t *sink_leaves, const int64_t *indptr,
             const int64_t *src, const int64_t *off, const double *offsets,
             int64_t home_off, int soft, double hthr_in, double soft_h,
             double soft_eps, double r_split, int want_pot, int64_t s0,
             double *acc, double *pot)
{
    int64_t nmax = 1;
    for (int64_t row = 0; row < n_rows; row++) {
        int64_t n = 0;
        for (int64_t e = indptr[row]; e < indptr[row + 1]; e++)
            n += cell_count[src[e]];
        if (n > nmax)
            nmax = n;
    }
    double *QX = malloc(nmax * (3 * sizeof(double) + sizeof(int64_t) + sizeof(real)));
    if (!QX)
        return -1;
    double *QY = QX + nmax, *QZ = QY + nmax;
    int64_t *ID = (int64_t *)(QZ + nmax);
    real *MQ = (real *)(ID + nmax);
    real hthr = (real)hthr_in;
    real DX[BLK], DY[BLK], DZ[BLK], RR[BLK], F[BLK], PSI[BLK];
    for (int64_t row = 0; row < n_rows; row++) {
        int64_t n = 0;
        for (int64_t e = indptr[row]; e < indptr[row + 1]; e++) {
            int64_t s = src[e], o = off[e];
            double ox = offsets[3 * o], oy = offsets[3 * o + 1], oz = offsets[3 * o + 2];
            int64_t b0 = cell_start[s], ns = cell_count[s];
            for (int64_t j = 0; j < ns; j++, n++) {
                const double *q = pos + 3 * (b0 + j);
                QX[n] = q[0] + ox;
                QY[n] = q[1] + oy;
                QZ[n] = q[2] + oz;
                MQ[n] = mass[b0 + j];
                ID[n] = o == home_off ? b0 + j : -1;
            }
        }
        int64_t leaf = sink_leaves[row], a0 = cell_start[leaf], m = cell_count[leaf];
        for (int64_t i = 0; i < m; i++) {
            int64_t gi = a0 + i;
            double px = pos[3 * gi], py = pos[3 * gi + 1], pz = pos[3 * gi + 2];
            double sx = 0.0, sy = 0.0, sz = 0.0, sp = 0.0;
            for (int64_t jb = 0; jb < n; jb += BLK) {
                int nb = (int)(n - jb < BLK ? n - jb : BLK);
                const double *qx = QX + jb, *qy = QY + jb, *qz = QZ + jb;
                const real *mq = MQ + jb;
                const int64_t *id = ID + jb;
                for (int j = 0; j < nb; j++) {
                    real dx = (real)(px - qx[j]);
                    real dy = (real)(py - qy[j]);
                    real dz = (real)(pz - qz[j]);
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
                for (int j = 0; j < nb; j++)
                    if (id[j] == gi) {
                        F[j] = 0;
                        PSI[j] = 0;
                    }
                for (int j = 0; j < nb; j++) {
                    real t = -mq[j] * F[j];
                    sx += t * DX[j];
                    sy += t * DY[j];
                    sz += t * DZ[j];
                    sp += mq[j] * PSI[j];
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
    free(QX);
    return 0;
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
    return string.Template(EVALUATOR_TEMPLATE).substitute(
        p=p, real=real, sqrt="sqrtf" if real == "float" else "sqrt", blk=BLK,
        nf=int(tab.filled.sum()), ng=p + 2,
        unit_power=", ".join(str(int(v)) for v in tab.unit_power[tab.filled]),
        geometry=_indent(geometry, 24), chain=_indent(chain, 24),
        body=_indent(body, 24), load_chain=_indent(load_chain, 24),
        prism=_indent(_prism_program(), 24),
    )


#: The upward pass, the lattice L2P, the dual walk and the background's box
#: merge: one fixed unit for every order, driven by
#: :class:`~repro.multipoles.multiindex.MultiIndexSet` tables (``alphas`` for
#: the powers, ``translation_table``, ``up``) and the tree's cell arrays.
#: Every sum runs in the order numpy took it before this code replaced it, so
#: the moments, ``bmax``, the lattice acceleration, every MAC decision of the
#: walk and every merged box are numpy's bit for bit (``tests/oracle.py``
#: keeps that numpy as the reference).
UPWARD_SOURCE = r"""/* Upward pass (P2M, M2M, absolute moments, bmax), lattice L2P, the
 * dual walk and the box merge (repro.multipoles.codegen.UPWARD_SOURCE; one
 * unit for every order).  IEEE arithmetic, no contraction, every sum in
 * numpy's order. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* children of a cell, particles of an L2P block: the vector lanes */
#define LANES 8

static inline double np_max(double a, double b) { return (a >= b || a != a) ? a : b; }
static inline double np_min(double a, double b) { return (a <= b || a != a) ? a : b; }

/* MultiIndexSet.powers into out[i * stride]: (x^t y^u) z^v, each power
   by repeated multiplication from 1.0 */
static void powers(double x, double y, double z, int64_t pmax, int64_t ncoef,
                   const int64_t *restrict alphas, double *restrict out, int64_t stride)
{
    double px[pmax + 1], py[pmax + 1], pz[pmax + 1];
    px[0] = py[0] = pz[0] = 1.0;
    for (int64_t k = 1; k <= pmax; k++) {
        px[k] = px[k - 1] * x;
        py[k] = py[k - 1] * y;
        pz[k] = pz[k - 1] * z;
    }
    for (int64_t i = 0; i < ncoef; i++)
        out[i * stride] = px[alphas[3 * i]] * py[alphas[3 * i + 1]] * pz[alphas[3 * i + 2]];
}

/* numpy's pairwise_sum of the n values a[i * stride]: a plain loop from
   -0.0 below 8 values, eight interleaved accumulators up to 128, and
   above that the two halves split at a multiple of 8 (not inlined: its
   recursion, unrolled into the callers, would triple the build time) */
__attribute__((noinline)) static double pairwise(const double *a, int64_t n, int64_t stride)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i * stride];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int64_t k = 0; k < 8; k++)
            r[k] = a[k * stride];
        for (i = 8; i < n - n % 8; i += 8)
            for (int64_t k = 0; k < 8; k++)
                r[k] += a[(i + k) * stride];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i * stride];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2, stride) + pairwise(a + n2 * stride, n - n2, stride);
}

/* np.add.reduceat over one segment of n >= 1 rows of width w: per
   column, the first row plus the pairwise sum of the rest */
static void segment_sum(const double *a, int64_t n, int64_t w, double *out)
{
    for (int64_t c = 0; c < w; c++)
        out[c] = n == 1 ? a[c] : a[c] + pairwise(a + w + c, n - 1, w);
}

/* P2M of every listed leaf about its center: moments (ncoef per cell, of
   (x^t y^u z^v) m), the absolute moments babs (nb per cell, r^k m) and
   bmax, the largest particle radius.  The radius sums x^2 + z^2 first
   when xz_first is set, as numpy's einsum does on some hosts.  Returns
   -1 when the scratch rows cannot be allocated. */
int p2m_leaves(int64_t n_leaves, const int64_t *leaves, const int64_t *cell_start,
               const int64_t *cell_count, const double *cell_center,
               const double *pos, const double *mass, int64_t pmax, int64_t ncoef,
               const int64_t *alphas, int64_t nb, int xz_first,
               double *moments, double *babs, double *bmax)
{
    int64_t nmax = 1;
    for (int64_t l = 0; l < n_leaves; l++)
        if (cell_count[leaves[l]] > nmax)
            nmax = cell_count[leaves[l]];
    double *mono = malloc(nmax * (ncoef + nb) * sizeof(double));
    if (!mono)
        return -1;
    double *rp = mono + nmax * ncoef;
    for (int64_t l = 0; l < n_leaves; l++) {
        int64_t c = leaves[l], s = cell_start[c], n = cell_count[c];
        if (n == 0)
            continue;
        const double *ctr = cell_center + 3 * c;
        double rmax = 0.0;
        for (int64_t j = 0; j < n; j++) {
            const double *x = pos + 3 * (s + j);
            double dx = x[0] - ctr[0], dy = x[1] - ctr[1], dz = x[2] - ctr[2];
            double m = mass[s + j];
            double *row = mono + j * ncoef;
            powers(dx, dy, dz, pmax, ncoef, alphas, row, 1);
            for (int64_t i = 0; i < ncoef; i++)
                row[i] *= m;
            double r = sqrt(xz_first ? (dx * dx + dz * dz) + dy * dy
                                     : (dx * dx + dy * dy) + dz * dz);
            double rk = 1.0;
            for (int64_t k = 0; k < nb; k++) {
                rp[j * nb + k] = rk * m;
                rk *= r;
            }
            rmax = j ? np_max(rmax, r) : r;
        }
        segment_sum(mono, n, ncoef, moments + c * ncoef);
        segment_sum(rp, n, nb, babs + c * nb);
        bmax[c] = rmax;
    }
    free(mono);
    return 0;
}

/* M2M, babs and bmax of every split cell, deepest level first.  Per
   child (LANES at a time) a zeroed row takes (binom M[src]) d^shift in
   table order; the parent then adds its children's rows in child order.
   B_n(parent) += sum_k C(n,k) |d|^(n-k) B_k(child); bmax is the largest
   |d| + bmax(child), at most the corner distance.  Returns -1 when the
   scratch cannot be allocated. */
int m2m_upward(int64_t n_cells, const int64_t *cell_level, const int64_t *first_child,
               const int64_t *nchildren, const double *cell_center,
               const double *cell_side, int64_t pmax, int64_t ncoef,
               const int64_t *alphas, int64_t n_terms, const int64_t *tgt,
               const int64_t *src, const int64_t *shift, const double *binom,
               int64_t nb, double *moments, double *babs, double *bmax)
{
    int64_t lmax = 0;
    for (int64_t c = 0; c < n_cells; c++)
        if (first_child[c] >= 0 && cell_level[c] > lmax)
            lmax = cell_level[c];
    int64_t *order = malloc(n_cells * sizeof(int64_t));
    int64_t *at = calloc(lmax + 2, sizeof(int64_t));
    double *scratch = malloc(3 * ncoef * LANES * sizeof(double));
    if (!order || !at || !scratch) {
        free(order);
        free(at);
        free(scratch);
        return -1;
    }
    double *mt = scratch, *dt = mt + ncoef * LANES, *tr = dt + ncoef * LANES;
    /* split cells by level, deepest first */
    for (int64_t c = 0; c < n_cells; c++)
        if (first_child[c] >= 0)
            at[lmax - cell_level[c] + 1]++;
    for (int64_t L = 1; L <= lmax + 1; L++)
        at[L] += at[L - 1];
    for (int64_t c = 0; c < n_cells; c++)
        if (first_child[c] >= 0)
            order[at[lmax - cell_level[c]]++] = c;
    int64_t n_split = at[lmax];

    double choose[nb][nb];
    for (int64_t n = 0; n < nb; n++) {
        choose[n][0] = choose[n][n] = 1.0;
        for (int64_t k = 1; k < n; k++)
            choose[n][k] = choose[n - 1][k - 1] + choose[n - 1][k];
    }
    double dpow[nb], bup[nb];

    for (int64_t o = 0; o < n_split; o++) {
        int64_t par = order[o];
        const double *pc = cell_center + 3 * par;
        double *pm = moments + par * ncoef;
        for (int64_t k0 = first_child[par], k1 = k0 + nchildren[par]; k0 < k1; k0 += LANES) {
            int64_t nk = k1 - k0 < LANES ? k1 - k0 : LANES;
            for (int64_t i = 0; i < ncoef * LANES; i++)
                mt[i] = dt[i] = tr[i] = 0.0;
            for (int64_t k = 0; k < nk; k++) {
                const double *kc = cell_center + 3 * (k0 + k);
                powers(kc[0] - pc[0], kc[1] - pc[1], kc[2] - pc[2], pmax, ncoef, alphas,
                       dt + k, LANES);
                for (int64_t i = 0; i < ncoef; i++)
                    mt[i * LANES + k] = moments[(k0 + k) * ncoef + i];
            }
            for (int64_t e = 0; e < n_terms; e++) {
                const double b = binom[e];
                const double *restrict ms = mt + src[e] * LANES;
                const double *restrict dd = dt + shift[e] * LANES;
                double *restrict out = tr + tgt[e] * LANES;
                for (int64_t k = 0; k < LANES; k++)
                    out[k] += (b * ms[k]) * dd[k];
            }
            for (int64_t k = 0; k < nk; k++)
                for (int64_t i = 0; i < ncoef; i++)
                    pm[i] += tr[i * LANES + k];
        }
        double reach = bmax[par];
        for (int64_t kid = first_child[par]; kid < first_child[par] + nchildren[par]; kid++) {
            const double *kc = cell_center + 3 * kid;
            double dx = kc[0] - pc[0], dy = kc[1] - pc[1], dz = kc[2] - pc[2];
            double dn = sqrt((dx * dx + dy * dy) + dz * dz);
            dpow[0] = 1.0;
            for (int64_t n = 1; n < nb; n++)
                dpow[n] = dpow[n - 1] * dn;
            for (int64_t n = 0; n < nb; n++) {
                bup[n] = 0.0;
                for (int64_t k = 0; k <= n; k++)
                    bup[n] += choose[n][k] * dpow[n - k] * babs[kid * nb + k];
            }
            for (int64_t n = 0; n < nb; n++)
                babs[par * nb + n] += bup[n];
            reach = np_max(reach, dn + bmax[kid]);
        }
        bmax[par] = np_min(reach, cell_side[par] * sqrt(3.0) / 2.0);
    }
    free(order);
    free(at);
    free(scratch);
    return 0;
}

/* L2P of the local expansion `local` (order pmax, about `center`) at n
   positions, LANES particles at a time: pot = sum_b s^b (L_b / b!) and
   acc_i = sum_b (s^b (1 / b!)) L_{b + e_i}, both in table order, where
   up[i * ncoef + b] is the packed index of b + e_i (-1 past the order) */
void l2p_field(int64_t n, const double *pos, const double *center, int64_t pmax,
               int64_t ncoef, const int64_t *alphas, const double *inv_fact,
               const double *local, const int64_t *up, double *pot, double *acc)
{
    double mono[ncoef * LANES], lw[ncoef];
    for (int64_t i = 0; i < ncoef; i++)
        lw[i] = local[i] * inv_fact[i];
    for (int64_t j0 = 0; j0 < n; j0 += LANES) {
        int64_t m = n - j0 < LANES ? n - j0 : LANES;
        for (int64_t k = 0; k < LANES; k++) {
            const double *x = pos + 3 * (j0 + (k < m ? k : 0));
            powers(x[0] - center[0], x[1] - center[1], x[2] - center[2], pmax, ncoef, alphas,
                   mono + k, LANES);
        }
        double ph[LANES], ax[LANES], ay[LANES], az[LANES];
        for (int64_t k = 0; k < LANES; k++)
            ph[k] = ax[k] = ay[k] = az[k] = 0.0;
        for (int64_t i = 0; i < ncoef; i++) {
            const double *mi = mono + i * LANES;
            const double f = inv_fact[i], w = lw[i];
            for (int64_t k = 0; k < LANES; k++)
                ph[k] += mi[k] * w;
            if (up[i] >= 0) {
                const double l = local[up[i]];
                for (int64_t k = 0; k < LANES; k++)
                    ax[k] += mi[k] * f * l;
            }
            if (up[ncoef + i] >= 0) {
                const double l = local[up[ncoef + i]];
                for (int64_t k = 0; k < LANES; k++)
                    ay[k] += mi[k] * f * l;
            }
            if (up[2 * ncoef + i] >= 0) {
                const double l = local[up[2 * ncoef + i]];
                for (int64_t k = 0; k < LANES; k++)
                    az[k] += mi[k] * f * l;
            }
        }
        for (int64_t k = 0; k < m; k++) {
            pot[j0 + k] = ph[k];
            acc[3 * (j0 + k)] = ax[k];
            acc[3 * (j0 + k) + 1] = ay[k];
            acc[3 * (j0 + k) + 2] = az[k];
        }
    }
}

/* the dual walk's frontier, one array per field: cells a and b, image off
   of b, and the live directions fl (1: a sinks b, 2: b sinks a) */
typedef struct {
    int32_t *a, *b, *off, *fl;
    int64_t n, cap;
} walk_frontier;

/* room for n pairs in f; 0, or -1 when it cannot be allocated */
static int frontier_room(walk_frontier *f, int64_t n)
{
    if (n <= f->cap)
        return 0;
    int64_t cap = f->cap > 1024 ? f->cap : 1024;
    while (cap < n)
        cap *= 2;
    int32_t **fields[4] = {&f->a, &f->b, &f->off, &f->fl};
    for (int k = 0; k < 4; k++) {
        int32_t *p = realloc(*fields[k], cap * sizeof(int32_t));
        if (!p)
            return -1;
        *fields[k] = p;
    }
    f->cap = cap;
    return 0;
}

/* the two frontiers and the MAC codes, kept from walk to walk (one set
   per thread) and grown to the largest round: pages a walk faults in
   fresh cost more than its arithmetic */
static _Thread_local walk_frontier kept_cur, kept_next;
static _Thread_local int32_t *kept_ok;
static _Thread_local int64_t kept_ok_cap;

/* key i of a family's buffer, which holds int64 keys when wide, else int32 */
static inline void put_key(uint8_t *keys, int64_t i, int64_t key, int64_t wide)
{
    if (wide)
        ((int64_t *)keys)[i] = key;
    else
        ((int32_t *)keys)[i] = (int32_t)key;
}

/* np.maximum without a branch, so that the MAC loop vectorizes */
static inline double walk_max(double a, double b) { return (a >= b) | (a != a) ? a : b; }

/* the MAC of each frontier pair (a, b, image off): bit 1 when a may take
   b as a multipole, bit 2 when b may take a.  dist = |c_a - (c_b +
   image)|, squares x, y, z in order; a sink's effective distance is the
   larger of dist - bmax(sink) and the distance from the source's center
   to the sink's cube, and the source passes when it exceeds the source's
   r_crit and bmax(source) < xmax times it.  With m2l both directions pass
   together, when both do (a ghost side waived) and bmax(a) + bmax(b) <
   cc_xmax dist. */
static void mac(const walk_frontier *f, const double *restrict images,
                const double *restrict cell_center, const double *restrict half,
                const double *restrict bmax, const double *restrict r_crit,
                const int *restrict is_ghost, double xmax, double cc_xmax, int m2l,
                int32_t *restrict ok)
{
    const int32_t *restrict fa = f->a, *restrict fb = f->b, *restrict fo = f->off;
    const int64_t n = f->n;
#pragma omp simd
    for (int64_t i = 0; i < n; i++) {
        const int32_t a = fa[i], b = fb[i], o = fo[i];
        double d[3], ga[3], gb[3];
        for (int k = 0; k < 3; k++) {
            d[k] = cell_center[3 * a + k] - (cell_center[3 * b + k] + images[3 * o + k]);
            ga[k] = walk_max(fabs(d[k]) - half[a], 0.0);
            gb[k] = walk_max(fabs(d[k]) - half[b], 0.0);
        }
        const double dist = sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]);
        const double gap_a = sqrt((ga[0] * ga[0] + ga[1] * ga[1]) + ga[2] * ga[2]);
        const double gap_b = sqrt((gb[0] * gb[0] + gb[1] * gb[1]) + gb[2] * gb[2]);
        const double eff_a = walk_max(dist - bmax[a], gap_a);
        const double eff_b = walk_max(dist - bmax[b], gap_b);
        const int32_t ok1 = (eff_a > r_crit[b]) & (bmax[b] < eff_a * xmax);
        const int32_t ok2 = (eff_b > r_crit[a]) & (bmax[a] < eff_b * xmax);
        const int32_t mutual = (bmax[a] + bmax[b] < cc_xmax * dist) & (ok1 | is_ghost[a])
                               & (ok2 | is_ghost[b]);
        ok[i] = ((ok1 | ok2 << 1) & (m2l - 1)) | (mutual * 3 & -m2l);
    }
}

/* The dual walk of repro.tree.traversal, breadth first from one pair per
   unordered (root, root image) pair.  Each round decides every frontier
   pair's live directions (mac): a direction that passes retires as an
   accept; a live direction of two leaves that does not is direct (ghost,
   when its source is a ghost).  An undecided pair splits into the next
   round: the home self-pair into the triangle of its children's pairs,
   any other pair on its larger (internal) side; a sink direction survives
   only into children marked `relevant`.  Entries are keys (row << (b_src
   + b_off)) | (source << b_off) | image, the row a cell for accepts and
   row_of[leaf] for the others; direction b <- a reads image mirror[off].
   The buffers hold int64 keys when wide, else int32 ones, and capacities
   count keys.  A round writes its keys only where its family has room for
   two per pair.  counts holds each family's length (accept, direct,
   ghost), the capacity each family needed for that, then mac_tests, rounds and
   frontier_peak; the keys are complete when no family needed more than
   it had.  Returns -1 when the frontier cannot be grown. */
int dual_walk(int64_t root, int64_t n_off, const double *images, const int64_t *mirror,
              const double *cell_center, const double *half, const double *bmax,
              const double *r_crit, const int *is_leaf, const int *is_ghost,
              const int64_t *first_child, const int64_t *nchildren, const int *relevant,
              const int64_t *row_of, double xmax, double cc_xmax, int m2l, int64_t b_src,
              int64_t b_off, int64_t wide, int64_t cap_accept, int64_t cap_direct,
              int64_t cap_ghost, uint8_t *accept, uint8_t *direct, uint8_t *ghost,
              int64_t *counts)
{
    walk_frontier cur = kept_cur, next = kept_next;
    int32_t *ok = kept_ok;
    int64_t cap_ok = kept_ok_cap, status = -1;
    uint8_t *outs[3] = {accept, direct, ghost};
    int64_t caps[3] = {cap_accept, cap_direct, cap_ghost};
    int64_t n_keys[3] = {0, 0, 0}, needed[3] = {0, 0, 0}, spill[3];
    int64_t tests = 0, rounds = 0, peak = 0;
    const int64_t row_shift = b_src + b_off;
    cur.n = 0;
    if (frontier_room(&cur, n_off))
        goto out;
    for (int64_t o = 0; o < n_off; o++)
        if (o <= mirror[o]) {  /* the home self-pair carries one direction */
            cur.a[cur.n] = cur.b[cur.n] = root;
            cur.off[cur.n] = o;
            cur.fl[cur.n++] = mirror[o] == o ? 1 : 3;
        }
    while (cur.n) {
        tests += cur.n;
        rounds++;
        peak = cur.n > peak ? cur.n : peak;
        if (cur.n > cap_ok) {
            int32_t *p = realloc(ok, cur.n * sizeof(int32_t));
            if (!p)
                goto out;
            ok = p;
            cap_ok = cur.n;
        }
        mac(&cur, images, cell_center, half, bmax, r_crit, is_ghost, xmax, cc_xmax, m2l, ok);
        /* a family without room for this round writes to a spill slot */
        uint8_t *dst[3];
        int64_t mask[3];
        for (int k = 0; k < 3; k++) {
            const int64_t want = n_keys[k] + 2 * cur.n;
            needed[k] = want > needed[k] ? want : needed[k];
            const int fits = needed[k] <= caps[k];
            dst[k] = fits ? outs[k] : (uint8_t *)&spill[k];
            mask[k] = fits ? -1 : 0;
        }
        int64_t n_acc = n_keys[0], n_dir = n_keys[1], n_gh = n_keys[2];
        next.n = 0;
        for (int64_t i = 0; i < cur.n; i++) {
            const int64_t a = cur.a[i], b = cur.b[i], off = cur.off[i], fl = cur.fl[i];
            const int64_t both_leaf = is_leaf[a] & is_leaf[b];
            const int64_t ret = fl & ok[i], rest = fl & ~ret;
            const int64_t direct_fl = rest & -both_leaf, live = rest & (both_leaf - 1);
            /* every candidate key is written; a family keeps the ones it counts */
            const int64_t src_b = b << b_off | off, src_a = a << b_off | mirror[off];
            put_key(dst[0], n_acc & mask[0], a << row_shift | src_b, wide);
            n_acc += ret & 1;
            put_key(dst[0], n_acc & mask[0], b << row_shift | src_a, wide);
            n_acc += ret >> 1;
            /* a direct entry of a ghost source is a ghost entry */
            const int64_t g1 = is_ghost[b], g2 = is_ghost[a], d1 = direct_fl & 1, d2 = direct_fl >> 1;
            int64_t *n_fam = g1 ? &n_gh : &n_dir;
            put_key(dst[1 + g1], *n_fam & mask[1 + g1], row_of[a] << row_shift | src_b, wide);
            *n_fam += d1;
            n_fam = g2 ? &n_gh : &n_dir;
            put_key(dst[1 + g2], *n_fam & mask[1 + g2], row_of[b] << row_shift | src_a, wide);
            *n_fam += d2;
            if (!live)
                continue;
            if (a == b && off == 0) {
                /* unordered children pairs {k_i, k_j}, i <= j: diagonals are
                   single-direction self-pairs, the rest carry both */
                const int64_t k0 = first_child[a], n = nchildren[a];
                if (frontier_room(&next, next.n + n * (n + 1) / 2))
                    goto out;
                for (int64_t ki = k0; ki < k0 + n; ki++)
                    for (int64_t kj = ki; kj < k0 + n; kj++) {
                        next.a[next.n] = ki;
                        next.b[next.n] = kj;
                        next.off[next.n] = 0;
                        next.fl[next.n] = relevant[ki] | (relevant[kj] & (kj != ki)) << 1;
                        next.n += next.fl[next.n] != 0;
                    }
                continue;
            }
            /* the larger side splits: b when a is a leaf or b is the wider
               internal cell; bit is the split side's sink direction */
            const int64_t split_b = is_leaf[a] | ((is_leaf[b] ^ 1) & (bmax[b] >= bmax[a]));
            const int64_t side = split_b ? b : a, other = split_b ? a : b, bit = split_b ? 2 : 1;
            const int64_t k0 = first_child[side], n = nchildren[side];
            if (frontier_room(&next, next.n + n))
                goto out;
            for (int64_t k = k0; k < k0 + n; k++) {
                next.a[next.n] = split_b ? other : k;
                next.b[next.n] = split_b ? k : other;
                next.off[next.n] = off;
                next.fl[next.n] = (live & ~bit) | (live & bit & -(int64_t)relevant[k]);
                next.n += next.fl[next.n] != 0;
            }
        }
        n_keys[0] = n_acc;
        n_keys[1] = n_dir;
        n_keys[2] = n_gh;
        walk_frontier t = cur;
        cur = next;
        next = t;
    }
    for (int k = 0; k < 3; k++) {
        counts[k] = n_keys[k];
        counts[3 + k] = needed[k];
    }
    counts[6] = tests;
    counts[7] = rounds;
    counts[8] = peak;
    status = 0;
out:
    kept_cur = cur;
    kept_next = next;
    kept_ok = ok;
    kept_ok_cap = cap_ok;
    return status;
}

/* the box merge's scratch, kept from call to call (one set per thread) and
   grown to the largest row: two sets of boxes, six corners each (lo x, y,
   z, then hi x, y, z), and two key buffers */
static _Thread_local int64_t (*kept_boxes)[6];
static _Thread_local uint64_t *kept_keys;
static _Thread_local int64_t kept_boxes_cap;

static inline int bit_length(uint64_t x) { return x ? 64 - __builtin_clzll(x) : 0; }

/* key[0, n) sorted in place by bits [lo_bit, top_bit), which are unique
   across the keys (the bits below never decide), tmp as scratch: least
   significant digit first, in as few passes of at most 8 bits as cover
   the bits */
static void sort_keys(uint64_t *restrict key, uint64_t *restrict tmp, int64_t n, int lo_bit,
                      int top_bit)
{
    if (n < 2)
        return;
    const int passes = (top_bit - lo_bit + 7) / 8;
    const int digit = (top_bit - lo_bit + passes - 1) / passes;
    const uint64_t mask = ((uint64_t)1 << digit) - 1;
    int64_t count[8][256];
    for (int p = 0; p < passes; p++)
        memset(count[p], 0, (mask + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++)
        for (int p = 0; p < passes; p++)
            count[p][(key[i] >> (lo_bit + p * digit)) & mask]++;
    uint64_t *src = key, *dst = tmp;
    for (int p = 0; p < passes; p++) {
        const int s = lo_bit + p * digit;
        int64_t *at = count[p];
        for (int64_t d = 0, sum = 0; d <= (int64_t)mask; d++) {
            const int64_t c = at[d];
            at[d] = sum;
            sum += c;
        }
        for (int64_t i = 0; i < n; i++)
            dst[at[(src[i] >> s) & mask]++] = src[i];
        uint64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != key)
        memcpy(key, src, n * sizeof(uint64_t));
}

/* box i before box j by the corners fld (most significant first) */
static inline int box_before(const int64_t (*box)[6], const int *fld, uint64_t i, uint64_t j)
{
    for (int k = 0; k < 5; k++)
        if (box[i][fld[k]] != box[j][fld[k]])
            return box[i][fld[k]] < box[j][fld[k]];
    return 0;
}

/* the indices order[0, n) sorted by the corners fld, merging runs bottom
   up, tmp as scratch: the rows whose corners do not pack into one 64-bit
   key */
static void sort_wide(const int64_t (*box)[6], const int *fld, uint64_t *order, uint64_t *tmp,
                      int64_t n)
{
    uint64_t *src = order, *dst = tmp;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            const int64_t mid = lo + width < n ? lo + width : n;
            const int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                dst[k++] = box_before(box, fld, src[j], src[i]) ? src[j++] : src[i++];
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        uint64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != order)
        memcpy(order, src, n * sizeof(uint64_t));
}

/* One run-merge sweep along axis a over the n > 0 boxes of one row in cur,
   written to nxt: the boxes in the order of (lo_b, hi_b, lo_c, hi_c, lo_a),
   b and c the next two axes, and a box whose lo_a is the previous box's
   hi_a on the same cross-section extends it.  The corners are >= 0 and
   below 2^w[k] on axis k; where the five fit, they are packed above the
   box's index into one 64-bit key.  Returns the merged count. */
static int64_t merge_sweep(const int64_t (*cur)[6], int64_t (*nxt)[6], int64_t n, int a,
                           const int *w, uint64_t *key, uint64_t *tmp)
{
    const int b = (a + 1) % 3, c = (a + 2) % 3;
    const int fld[5] = {b, 3 + b, c, 3 + c, a};
    const int ib = bit_length((uint64_t)(n - 1)), bits = 2 * w[b] + 2 * w[c] + w[a];
    if (bits + ib <= 64) {
        for (int64_t i = 0; i < n; i++) {
            uint64_t k = 0;
            for (int m = 0; m < 5; m++)
                k = k << w[fld[m] % 3] | (uint64_t)cur[i][fld[m]];
            key[i] = k << ib | (uint64_t)i;
        }
        sort_keys(key, tmp, n, ib, bits + ib);
        const uint64_t low = ((uint64_t)1 << ib) - 1;
        for (int64_t i = 0; i < n; i++)
            key[i] &= low;
    } else {
        for (int64_t i = 0; i < n; i++)
            key[i] = (uint64_t)i;
        sort_wide(cur, fld, key, tmp, n);
    }
    /* box j of the order continues box j - 1; a run keeps its first lo_a */
    const int64_t *prev = cur[key[0]];
    int64_t m = 0, run_lo = prev[a];
    memcpy(nxt[0], prev, sizeof nxt[0]);
    for (int64_t j = 1; j < n; j++) {
        const int64_t *box = cur[key[j]];
        const int64_t more = (box[b] == prev[b]) & (box[3 + b] == prev[3 + b])
                             & (box[c] == prev[c]) & (box[3 + c] == prev[3 + c])
                             & (box[a] == prev[3 + a]);
        m += 1 - more;
        run_lo = more ? run_lo : box[a];
        memcpy(nxt[m], box, sizeof nxt[0]);
        nxt[m][a] = run_lo;
        prev = box;
    }
    return m + 1;
}

/* The background's boxes (repro.gravity.treeforce): per sink row, its
   ghost entries, then its direct-pair entries, each (source cell s, image
   o) the cube [cell_lo[s] + image[o], cell_hi[s] + image[o]) on one
   integer grid; a row's cubes are disjoint.  Three run-merge sweeps, x
   then y then z, turn them into a few boxes whose union is the same, in
   the order of the last sweep.  The sweeps run on the corners less the
   row's smallest on each axis (merging moves neither end of the union).
   Writes the corners times h to box_lo / box_hi (3 rows of stride
   entries) and the rows' CSR to indptr.  Returns -1 when the scratch
   cannot be grown. */
int merge_boxes(int64_t n_rows, const int64_t *ghost_indptr, const int64_t *ghost_src,
                const int64_t *ghost_off, const int64_t *leaf_indptr, const int64_t *leaf_src,
                const int64_t *leaf_off, const int64_t *cell_lo, const int64_t *cell_hi,
                const int64_t *image, double h, int64_t stride, double *box_lo,
                double *box_hi, int64_t *indptr)
{
    int64_t cap = 1;
    for (int64_t row = 0; row < n_rows; row++) {
        const int64_t n = ghost_indptr[row + 1] - ghost_indptr[row] + leaf_indptr[row + 1]
                          - leaf_indptr[row];
        cap = n > cap ? n : cap;
    }
    if (cap > kept_boxes_cap) {
        int64_t (*boxes)[6] = realloc(kept_boxes, 2 * cap * sizeof boxes[0]);
        if (boxes)
            kept_boxes = boxes;
        uint64_t *keys = realloc(kept_keys, 2 * cap * sizeof(uint64_t));
        if (keys)
            kept_keys = keys;
        if (!boxes || !keys)
            return -1;
        kept_boxes_cap = cap;
    }
    const int64_t *const ptrs[2] = {ghost_indptr, leaf_indptr};
    const int64_t *const srcs[2] = {ghost_src, leaf_src}, *const offs[2] = {ghost_off, leaf_off};
    int64_t out = 0;
    indptr[0] = 0;
    for (int64_t row = 0; row < n_rows; row++) {
        int64_t (*cur)[6] = kept_boxes, (*nxt)[6] = kept_boxes + cap, n = 0;
        for (int fam = 0; fam < 2; fam++)
            for (int64_t e = ptrs[fam][row]; e < ptrs[fam][row + 1]; e++, n++) {
                const int64_t *lo = cell_lo + 3 * srcs[fam][e], *hi = cell_hi + 3 * srcs[fam][e];
                const int64_t *im = image + 3 * offs[fam][e];
                for (int k = 0; k < 3; k++) {
                    cur[n][k] = lo[k] + im[k];
                    cur[n][3 + k] = hi[k] + im[k];
                }
            }
        int64_t base[3];
        int w[3];
        for (int k = 0; k < 3 && n; k++) {
            int64_t lo = cur[0][k], hi = cur[0][3 + k];
            for (int64_t i = 1; i < n; i++) {
                lo = cur[i][k] < lo ? cur[i][k] : lo;
                hi = cur[i][3 + k] > hi ? cur[i][3 + k] : hi;
            }
            base[k] = lo;
            w[k] = bit_length((uint64_t)(hi - lo));
            for (int64_t i = 0; i < n; i++) {
                cur[i][k] -= lo;
                cur[i][3 + k] -= lo;
            }
        }
        for (int a = 0; a < 3 && n; a++) {
            n = merge_sweep((const int64_t (*)[6])cur, nxt, n, a, w, kept_keys, kept_keys + cap);
            int64_t (*t)[6] = cur;
            cur = nxt;
            nxt = t;
        }
        for (int k = 0; k < 3; k++)
            for (int64_t i = 0; i < n; i++) {
                box_lo[k * stride + out + i] = (double)(cur[i][k] + base[k]) * h;
                box_hi[k * stride + out + i] = (double)(cur[i][3 + k] + base[k]) * h;
            }
        out += n;
        indptr[row + 1] = out;
    }
    return 0;
}
"""
