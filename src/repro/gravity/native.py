"""The compiled units (force evaluator; upward pass, walk and box merge): build once per host, load with ctypes.

Paper §2.2.2 turns its interaction kernels into C by metaprogramming;
:func:`repro.multipoles.codegen.generate_evaluator_source` emits that C,
one translation unit per (order p, dtype) (:func:`evaluator`), and
:data:`~repro.multipoles.codegen.UPWARD_SOURCE` is the one fixed unit of
the upward pass, the lattice L2P, the dual walk and the background's box
merge (:func:`upward`).  This module
compiles each with the host's C compiler into a cache and loads it:

* ``cc -O3 -march=native -mprefer-vector-width=512 -fno-math-errno
  -ffp-contract=off -fopenmp-simd -shared -fPIC ... -lmvec -lm`` — no
  ``-ffast-math``: float operations stay IEEE and every sum keeps the
  order the source writes, so results are reproducible bit for bit
  wherever the same library runs.  The vector width (the host's full
  width, 512 bits where it has AVX-512) only sets how many independent
  rows one instruction computes: no reduction is vectorized, so the
  bits do not depend on it.  ``-fopenmp-simd`` honours the unit's
  ``omp simd`` and ``declare simd`` pragmas (nothing else of OpenMP),
  and ``-lmvec`` links glibc's vector math library, whose ``log`` and
  ``atan`` the prism loop calls four lanes at a time at any width;
* the cache is ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``),
  a file named by the sha256 of the source, ``cc --version``, the flags,
  the link libraries and the host's CPU flags (``evaluator-*.so``,
  ``upward-*.so``), written to a temporary
  name and moved into place with ``os.replace``, so concurrent builders
  never see a torn library.  A cache that cannot be written falls back
  to a temporary directory of this process;
* pool workers load the parent's file: forked ones inherit the loaded
  unit, spawned ones get its path with their start-up arguments
  (:func:`library_paths`, :func:`adopt_libraries`), so no worker
  compiles.
* an entry point's signature is written once, in the C text:
  :data:`ENTRY_POINTS` reads the eight prototypes from
  :data:`~repro.multipoles.codegen.EVALUATOR_TEMPLATE` and
  :data:`~repro.multipoles.codegen.UPWARD_SOURCE`, and a :class:`Unit`
  exposes each as a keyword-only callable named as in the C: inputs are
  converted, outputs refused unless they are what the C writes, the
  keywords checked, all before any C runs, and a failed allocation is a
  ``MemoryError``.  No other module handles a raw pointer.

A host without the compiler or without libmvec fails when a solver is
constructed, with a message naming what is missing.
:func:`softening_spec` and :func:`radial_spec` turn the kernel objects
into the evaluator's parameters by *exact* type, and refuse any other
type: a subclass that overrides the math must not be evaluated with the
formulas of its base.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import re
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..multipoles.codegen import EVALUATOR_TEMPLATE, UPWARD_SOURCE, generate_evaluator_source
from ..multipoles.radial import ErfcKernel, NewtonianKernel
from .smoothing import DehnenK1Softening, NoSoftening, PlummerSoftening, SplineSoftening

__all__ = [
    "CC", "FLAGS", "LIBS", "ENTRY_POINTS", "Unit", "evaluator", "upward", "softening_spec",
    "radial_spec", "cache_dir", "library_paths", "adopt_libraries",
]

#: the C compiler (a name on PATH)
CC = "cc"
FLAGS = (
    "-O3", "-march=native", "-mprefer-vector-width=512", "-fno-math-errno",
    "-ffp-contract=off", "-fopenmp-simd", "-shared", "-fPIC",
)
#: link libraries: glibc's vector math (libmvec) and libm
LIBS = ("-lmvec", "-lm")

#: radial kernels and softenings the generated unit implements
KERN_NEWTON, KERN_ERFC = 0, 1
SOFT_NONE, SOFT_PLUMMER, SOFT_SPLINE, SOFT_DEHNEN = 0, 1, 2, 3

_I8 = np.zeros(1, dtype=np.int64)
_F8 = np.zeros(1, dtype=np.float64)


def softening_spec(softening) -> tuple[int, float, float, float]:
    """``(kind, h, eps, r_split)`` of a softening kernel.

    ``h`` is the support the kernel's own definitions apply inside;
    ``r_split > 0`` adds GADGET-2's short-range TreePM filter
    (:class:`repro.gravity.pm.ShortRangeSoftening`) over its base.
    """
    from .pm import ShortRangeSoftening

    t = type(softening)
    if t is NoSoftening:
        return SOFT_NONE, 0.0, 0.0, 0.0
    if t is PlummerSoftening:
        return SOFT_PLUMMER, np.inf, softening.eps, 0.0
    if t is SplineSoftening:
        return SOFT_SPLINE, softening.h, softening.eps, 0.0
    if t is DehnenK1Softening:
        return SOFT_DEHNEN, softening.h, softening.eps, 0.0
    if t is ShortRangeSoftening and type(softening.base) is not ShortRangeSoftening:
        kind, h, eps, _ = softening_spec(softening.base)
        return kind, h, eps, softening.r_split
    raise TypeError(f"no compiled form of the softening {t.__name__}")


def erf_chain_tables(kernel: ErfcKernel, mmax: int) -> tuple[np.ndarray, ...]:
    """The symbolic erfc derivative chain of ``kernel`` as CSR tables.

    Level m of the chain is a small sum of ``c * r^p * erfc(a r)`` and
    ``d * r^q * exp(-a^2 r^2)`` terms; returns ``(e_pow, e_coef, e_ptr,
    g_pow, g_coef, g_ptr)``, the (power, coefficient) runs per level in
    the chain's own term order.
    """
    kernel._extend(mmax)
    e_pow, e_coef, e_ptr = [], [], [0]
    g_pow, g_coef, g_ptr = [], [], [0]
    for m in range(mmax + 1):
        e, g = kernel._chains[m]
        e_pow += [float(p) for p in e]
        e_coef += list(e.values())
        g_pow += [float(q) for q in g]
        g_coef += list(g.values())
        e_ptr.append(len(e_pow))
        g_ptr.append(len(g_pow))
    f8, i8 = np.float64, np.int64
    return (np.array(e_pow, f8), np.array(e_coef, f8), np.array(e_ptr, i8),
            np.array(g_pow, f8), np.array(g_coef, f8), np.array(g_ptr, i8))


def radial_spec(kernel, mmax: int) -> tuple:
    """``(kind, alpha, *erf_chain_tables)`` of a cell kernel, chain to ``mmax``."""
    t = type(kernel)
    if t is NewtonianKernel:
        return (KERN_NEWTON, 0.0, _F8, _F8, _I8, _F8, _F8, _I8)
    if t is ErfcKernel:
        return (KERN_ERFC, kernel.alpha, *erf_chain_tables(kernel, mmax))
    raise TypeError(f"no compiled form of the radial kernel {t.__name__}")


def cache_dir() -> Path:
    """Where compiled units live: ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


@functools.lru_cache(maxsize=1)
def _host_key() -> str:
    """``cc --version``, the flags and the CPU flags: what a build depends on."""
    try:
        version = subprocess.run(
            [CC, "--version"], capture_output=True, text=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        raise RuntimeError(
            f"the force evaluator is compiled C and needs a C compiler: "
            f"{CC!r} could not be run ({exc})"
        ) from None
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln for ln in fh if ln.startswith("flags")), "")
    except OSError:
        pass
    return "\n".join([version, " ".join(FLAGS + LIBS), cpu])


def _compile(source: str, target: Path) -> None:
    """Build ``source`` into the shared library ``target`` (atomically)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    c_file = tmp[:-4] + ".c"
    try:
        Path(c_file).write_text(source)
        proc = subprocess.run(
            [CC, *FLAGS, c_file, "-o", tmp, *LIBS], capture_output=True, text=True
        )
        if proc.returncode and "mvec" in proc.stderr:
            raise RuntimeError(
                "the force evaluator links glibc's vector math library libmvec "
                f"(-lmvec), which {CC} could not find:\n{proc.stderr}"
            )
        if proc.returncode:
            raise RuntimeError(f"{CC} failed on the unit {target.stem}:\n{proc.stderr}")
        os.replace(tmp, target)
    finally:
        for leftover in (tmp, c_file):
            if os.path.exists(leftover):
                os.unlink(leftover)


@functools.lru_cache(maxsize=1)
def _private_dir() -> Path:
    return Path(tempfile.mkdtemp(prefix="repro-native-"))


def library_path(source: str, stem: str = "evaluator") -> Path:
    """The cached library ``stem-<hash>.so`` of ``source``, compiled first
    when it is missing."""
    key = hashlib.sha256((_host_key() + "\n" + source).encode()).hexdigest()[:24]
    name = f"{stem}-{key}.so"
    for where in (cache_dir(), _private_dir()):
        path = where / name
        if path.exists():
            return path
        try:
            _compile(source, path)
            return path
        except OSError:
            continue  # the cache cannot be written: this process's own directory
    raise RuntimeError(f"cannot write the compiled {stem} to {cache_dir()} or a temporary directory")


#: C types of the entry points' pointer parameters -> numpy dtypes (and
#: ``real``, the unit's dtype); of their scalars -> (ctypes type, coercion)
_ARRAY_TYPES = {"double": np.float64, "int64_t": np.int64, "int": np.intc, "uint8_t": np.uint8}
_SCALAR_TYPES = {"double": (ctypes.c_double, float), "int64_t": (ctypes.c_int64, int),
                 "int": (ctypes.c_int, int)}
_PROTOTYPE = re.compile(r"^(int|void) (\w+)\(([^)]*)\)\s*\{", re.M)
_PARAMETER = re.compile(r"(const )?(\w+) (\*?)(\w+)")


def _prototypes(source: str) -> dict:
    """``{name: (return type, [(parameter, C type, role)])}`` of the
    entry points in a C text; the role is ``"in"`` for a ``const T *``,
    ``"out"`` for another pointer and ``"scalar"`` for the rest."""
    table = {}
    for ret, name, params in _PROTOTYPE.findall(source):
        parsed = (_PARAMETER.fullmatch(text.strip()).groups() for text in params.split(","))
        table[name] = ret, [(param, ctype, "scalar" if not star else "in" if const else "out")
                            for const, ctype, star, param in parsed]
    return table


#: unit kind -> its entry points, read once from the two C texts
ENTRY_POINTS = {"evaluator": _prototypes(EVALUATOR_TEMPLATE), "upward": _prototypes(UPWARD_SOURCE)}


def _entry_point(fn, name: str, ret: str, params: list, real):
    """The C function ``fn`` as a keyword-only callable.

    Each ``const T *`` argument is converted to a contiguous array of T;
    an output pointer must already be a writeable C-contiguous array of
    T, or None (a null pointer); scalars are coerced.  Every check runs
    before the C does, and a non-zero ``int`` status is a MemoryError.
    """
    if real is None and any(ctype == "real" for _, ctype, _ in params):
        raise TypeError(f"{name} reads real: the unit needs its dtype")
    types = {**_ARRAY_TYPES, "real": real}
    fn.argtypes = [_SCALAR_TYPES[c][0] if role == "scalar" else ctypes.c_void_p
                   for _, c, role in params]
    fn.restype = ctypes.c_int if ret == "int" else None
    spec = [(param, role, _SCALAR_TYPES[c][1] if role == "scalar" else np.dtype(types[c]))
            for param, c, role in params]
    names = {param for param, _, _ in params}

    def call(**kwargs):
        if kwargs.keys() != names:
            raise TypeError(f"{name}() missing {sorted(names - kwargs.keys())}, "
                            f"unknown {sorted(kwargs.keys() - names)}")
        args, held = [], []  # held: the converted inputs, alive until the C returns
        for param, role, kind in spec:
            value = kwargs[param]
            if role == "scalar":
                args.append(kind(value))
            elif role == "in" and value is not None:
                held.append(np.ascontiguousarray(value, dtype=kind))
                args.append(held[-1].ctypes.data)
            elif role == "out" and value is None:
                args.append(None)
            elif (role == "out" and isinstance(value, np.ndarray) and value.dtype == kind
                  and value.flags.c_contiguous and value.flags.writeable):
                args.append(value.ctypes.data)
            else:
                wanted = "an array of" if role == "in" else "None or a writeable C-contiguous"
                raise TypeError(f"{name}(): {param} must be {wanted} {kind}, not "
                                f"{type(value).__name__} {getattr(value, 'dtype', '')}".rstrip())
        if fn(*args):
            raise MemoryError(f"{name} could not allocate its scratch memory")

    call.__name__ = call.__qualname__ = name
    return call


class Unit:
    """A loaded compiled unit of ``kind`` (a key of ``ENTRY_POINTS``):
    each entry point an attribute called with keywords named as in the
    C, ``real`` taken as ``dtype``.  Any file of that kind loads this
    way — the cached units of :func:`evaluator` and :func:`upward`, or a
    variant build of their source (``-DBLK=n``, other flags)."""

    def __init__(self, path, kind: str, dtype=None):
        self.path = str(path)
        self._lib = ctypes.CDLL(self.path)
        for name, (ret, params) in ENTRY_POINTS[kind].items():
            setattr(self, name, _entry_point(getattr(self._lib, name), name, ret, params, dtype))


#: unit -> the library file this process loaded for it, and the files a
#: spawned worker was handed by its parent; a unit is ("evaluator", p,
#: dtype name) or ("upward",)
_PATHS: dict[tuple, str] = {}
_ADOPTED: dict[tuple, str] = {}


def evaluator(p: int, dtype) -> Unit:
    """The loaded evaluator of order ``p`` in ``dtype`` (compiled on first use).

    Exposes ``cell_field``, ``pp_field`` and ``prism_field``; see the
    generated source.
    """
    return _load("evaluator", p, np.dtype(dtype).name)


def upward() -> Unit:
    """The loaded upward-pass / lattice / walk / box-merge unit (compiled
    on first use).

    Exposes ``p2m_leaves``, ``m2m_upward``, ``l2p_field``, ``dual_walk``
    and ``merge_boxes`` of :data:`~repro.multipoles.codegen.UPWARD_SOURCE`;
    one unit serves every order.
    """
    return _load("upward")


def library_paths() -> dict[tuple, str]:
    """The files of the units this process has loaded, by unit."""
    return dict(_PATHS)


def adopt_libraries(paths: dict[tuple, str]) -> None:
    """Load these files for their units instead of resolving them: a
    spawned pool worker adopts its parent's :func:`library_paths`, so a
    cache it cannot write does not make it compile again."""
    _ADOPTED.update(paths)


@functools.lru_cache(maxsize=32)
def _load(kind: str, *key) -> Unit:
    unit = (kind, *key)
    path = _ADOPTED.get(unit)
    if path is None:
        source = UPWARD_SOURCE if kind == "upward" else generate_evaluator_source(*key)
        path = str(library_path(source, kind))
    lib = Unit(path, kind, *key[1:])
    _PATHS[unit] = path
    return lib
