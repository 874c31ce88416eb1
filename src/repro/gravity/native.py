"""The compiled force evaluator: build once per host, load with ctypes.

Paper §2.2.2 turns its interaction kernels into C by metaprogramming;
:func:`repro.multipoles.codegen.generate_evaluator_source` emits that C,
one translation unit per (order p, dtype), and this module compiles it
with the host's C compiler into a cache and loads it:

* ``cc -O3 -march=native -fno-math-errno -ffp-contract=off
  -fopenmp-simd -shared -fPIC ... -lmvec -lm`` — no ``-ffast-math``:
  float operations stay IEEE and every sum keeps the order the source
  writes, so results are reproducible bit for bit wherever the same
  library runs.  ``-fopenmp-simd`` honours the unit's ``omp simd`` and
  ``declare simd`` pragmas (nothing else of OpenMP), and ``-lmvec``
  links glibc's vector math library, whose ``log`` and ``atan`` the
  prism loop calls four lanes at a time;
* the cache is ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``),
  a file named by the sha256 of the source, ``cc --version``, the flags,
  the link libraries and the host's CPU flags, written to a temporary
  name and moved into place with ``os.replace``, so concurrent builders
  never see a torn library.  A cache that cannot be written falls back
  to a temporary directory of this process;
* pool workers load the parent's file: forked ones inherit the loaded
  unit, spawned ones get its path with their start-up arguments
  (:func:`library_paths`, :func:`adopt_libraries`), so no worker
  compiles.

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
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..multipoles.codegen import generate_evaluator_source
from ..multipoles.radial import ErfcKernel, NewtonianKernel
from .smoothing import DehnenK1Softening, NoSoftening, PlummerSoftening, SplineSoftening

__all__ = [
    "CC", "FLAGS", "LIBS", "evaluator", "softening_spec", "radial_spec", "cache_dir",
    "library_paths", "adopt_libraries",
]

#: the C compiler (a name on PATH)
CC = "cc"
FLAGS = (
    "-O3", "-march=native", "-fno-math-errno", "-ffp-contract=off", "-fopenmp-simd",
    "-shared", "-fPIC",
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
            raise RuntimeError(f"{CC} failed on the generated evaluator:\n{proc.stderr}")
        os.replace(tmp, target)
    finally:
        for leftover in (tmp, c_file):
            if os.path.exists(leftover):
                os.unlink(leftover)


@functools.lru_cache(maxsize=1)
def _private_dir() -> Path:
    return Path(tempfile.mkdtemp(prefix="repro-native-"))


def library_path(source: str) -> Path:
    """The cached library of ``source``, compiled first when it is missing."""
    key = hashlib.sha256((_host_key() + "\n" + source).encode()).hexdigest()[:24]
    name = f"evaluator-{key}.so"
    for where in (cache_dir(), _private_dir()):
        path = where / name
        if path.exists():
            return path
        try:
            _compile(source, path)
            return path
        except OSError:
            continue  # the cache cannot be written: this process's own directory
    raise RuntimeError(f"cannot write the compiled evaluator to {cache_dir()} or a temporary directory")


_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double

#: (p, dtype name) -> the library file this process loaded for it, and
#: the files a spawned worker was handed by its parent
_PATHS: dict[tuple[int, str], str] = {}
_ADOPTED: dict[tuple[int, str], str] = {}


def evaluator(p: int, dtype) -> ctypes.CDLL:
    """The loaded evaluator of order ``p`` in ``dtype`` (compiled on first use).

    Exposes ``cell_field``, ``pp_field`` and ``prism_field``; see the
    generated source.
    """
    return _load(p, np.dtype(dtype).name)


def library_paths() -> dict[tuple[int, str], str]:
    """The files of the units this process has loaded, by (p, dtype name)."""
    return dict(_PATHS)


def adopt_libraries(paths: dict[tuple[int, str], str]) -> None:
    """Load these files for their (p, dtype name) instead of resolving
    them: a spawned pool worker adopts its parent's :func:`library_paths`,
    so a cache it cannot write does not make it compile again."""
    _ADOPTED.update(paths)


@functools.lru_cache(maxsize=32)
def _load(p: int, dtype_name: str) -> ctypes.CDLL:
    path = _ADOPTED.get((p, dtype_name))
    if path is None:
        path = str(library_path(generate_evaluator_source(p, dtype_name)))
    lib = _bind(ctypes.CDLL(path))
    _PATHS[p, dtype_name] = path
    return lib


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the entry points' signatures on a loaded unit."""
    lib.cell_field.restype = ctypes.c_int
    lib.cell_field.argtypes = (
        [_P] * 5 + [_I] + [_P] * 7 + [ctypes.c_int, _D] + [_P] * 6
        + [ctypes.c_int, _I, _P, _P]
    )
    lib.pp_field.restype = None
    lib.pp_field.argtypes = (
        [_P] * 4 + [_I] + [_P] * 5 + [_I, ctypes.c_int] + [_D] * 4
        + [ctypes.c_int, _I, _P, _P]
    )
    lib.prism_field.restype = ctypes.c_int
    lib.prism_field.argtypes = (
        [_P] * 3 + [_I] + [_P] * 3 + [_I, _P, _D, ctypes.c_int, _I, _P, _P]
    )
    return lib
