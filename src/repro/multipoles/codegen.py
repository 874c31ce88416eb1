"""Metaprogrammed interaction routines.

Paper §2.2.2: "the expression for the force with p = 8 in three
dimensions begins with 3^8 = 6561 terms. We resort to metaprogramming,
translating the intermediate representation of the computer algebra
system directly into C code."  The same pipeline exists here in pure
Python: :func:`generate_dtensor_source` walks the derivative-tensor
recurrence symbolically and emits fully unrolled NumPy source (one
multiply, plus an add where the recurrence has a second term and a
constant multiply where that term's factor is not 1, per surviving
coefficient), which :func:`compiled_dtensor_function` ``exec``s into a
callable.

The recurrence runs over levels R^m_alpha; its output is level 0, the
plain derivative tensor D_alpha = R^0_alpha — what M2L asks for — and
only the steps that output depends on are emitted.  The particle-cell
interaction uses the polynomial form of :mod:`repro.multipoles.hermite`,
which has its own generated routine, :func:`compiled_shift_function`:
the straight-line re-centring of a cell's polynomial coefficients on a
sink-cell centre, run once per accept-level entry by
:func:`repro.gravity.treeforce.evaluate_forces`.

The routine is structure-of-arrays (paper §3.3): every operand is one
contiguous row over the interaction batch and every statement is a
ufunc call writing through ``out=`` into a row of the caller's output
or scratch array, so a call allocates nothing.  The levels above 0
live in scratch rows that are recycled as soon as their last reader
has run.

The generated routines are bit-identical to the interpreted recurrence
in :mod:`repro.multipoles.dtensors` (tested): same plan, same operands,
same multiply/add order; only the exact ``1.0 *`` multiplies are
elided.
"""

from __future__ import annotations

import functools

import numpy as np

from .dtensors import recurrence_plan
from .hermite import field_table, shift_plan
from .multiindex import n_coeffs

__all__ = [
    "generate_dtensor_source",
    "compiled_dtensor_function",
    "dtensors_soa",
    "generate_shift_source",
    "compiled_shift_function",
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


def _shift_program(p: int) -> tuple[str, int, int]:
    """(source of ``shift``, scratch rows, multiply/add statements)."""
    steps = shift_plan(p)
    n_rows = int(field_table(p).offsets[-1])
    # d^j / j! along each axis, j >= 2, as far as a step reads it
    top = [max((j for _, _, ax, j, _ in steps if ax == axis), default=1) for axis in range(3)]
    power = {(axis, 1): f"d{axis}" for axis in range(3)}
    body = []
    for axis in range(3):
        for j in range(2, top[axis] + 1):
            power[(axis, j)] = f"w{len(power) - 3}"
            dst = power[(axis, j)]
            body.append(f"    mul({power[(axis, j - 1)]}, d{axis}, {dst})")
            body.append(f"    mul({1.0 / j!r}, {dst}, {dst})")
    tmp = f"w{len(power) - 3}"
    n_scratch = len(power) - 2
    for dst, src, axis, j, fresh in steps:
        if fresh:
            body.append(f"    mul({power[(axis, j)]}, q{src}, q{dst})")
        else:
            body.append(f"    mul({power[(axis, j)]}, q{src}, {tmp})")
            body.append(f"    add(q{dst}, {tmp}, q{dst})")
    head = [
        "def shift(d, Q, W):",
        f'    """Q_(k,gamma)(d) from b_(k,gamma), in place; order {p} (generated).',
        "",
        f"    d: (3, N) shift vectors; Q: ({n_rows}, N), the rows of",
        "    ``field_table(p).filled`` hold b on entry, every row Q on return;",
        f"    W: (>={n_scratch}, N) scratch.",
        '    """',
        "    d0, d1, d2 = d",
        "    " + ", ".join(f"q{j}" for j in range(n_rows)) + ", = Q",
        "    " + ", ".join(f"w{j}" for j in range(n_scratch)) + f", = W[:{n_scratch}]",
    ]
    return "\n".join(head + body + ["    return Q"]) + "\n", n_scratch, len(body)


def generate_shift_source(p: int) -> str:
    """Emit unrolled source for the polynomial shift of order ``p``.

    The generated ``shift(d, Q, W)`` walks
    :func:`repro.multipoles.hermite.shift_plan` (same steps, same
    operand order, so it is bit-identical to an interpreted walk of the
    plan): first the rows d_i^j / j!, then one multiply per step plus an
    add where the target row already holds a value.
    """
    return _shift_program(p)[0]


@functools.lru_cache(maxsize=16)
def compiled_shift_function(p: int):
    """Compile (exec) the generated shift of order ``p`` and return it.

    ``n_scratch`` and ``n_ops`` as for :func:`compiled_dtensor_function`.
    """
    src, n_scratch, n_ops = _shift_program(p)
    namespace: dict = {"mul": np.multiply, "add": np.add}
    exec(compile(src, f"<generated shift p={p}>", "exec"), namespace)  # noqa: S102
    fn = namespace["shift"]
    fn.n_scratch = n_scratch
    fn.n_ops = n_ops
    return fn
