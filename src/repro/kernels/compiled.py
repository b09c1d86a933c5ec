"""The compiled nearest-rounding quantize kernel (cffi + gcc).

``pow2_nearest.c`` holds two bodies, one extension module for both.  The
pow2 body runs the numpy backend's pow2 operation sequence
(``_pow2_fused``) in C, and the FP32-scaled body runs its scaled INT and
VSQ sequences (``_int_fused``, ``_vsq_fused``) element by element, so
their outputs equal the numpy body's bit for bit while a call costs
microseconds instead of tens of them.  On x86-64 CPUs with AVX2 the pow2
body runs four elements per instruction along the trailing axis, or four
adjacent fibers along any other; the C code picks that vector body per
call, from the CPU and the geometry, and runs the scalar one elsewhere,
with the same bits (:func:`last_pow2_body` says which ran).
:class:`~repro.kernels.numpy_backend.NumpyBackend` routes every
nearest-rounding pow2-scaled ``quantize`` and ``quantize_partial`` call
through :func:`pow2_nearest`, and every nearest-rounding fp32-scaled one
through :func:`scaled_nearest`, and runs its numpy body whenever those
decline.  Nothing selects them: they run when the kernel built and loaded.

Build once, load many times:

* The extension module is named after a checksum of the C source, the
  cdef, the compiler flags, the interpreter's extension suffix and the
  cffi version, and lives in a cache directory outside the source tree:
  ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``, else a per-user
  directory under :func:`tempfile.gettempdir` when those are not writable.
* A warm load imports that module and nothing else new but cffi's C
  runtime (``_cffi_backend``): no ``cffi``, ``pycparser``, ``setuptools``
  or ``distutils`` package, and no compiler run.
* A cold build imports cffi to emit the wrapper source, compiles it with
  the interpreter's own ``LDSHARED`` command plus :data:`FLAGS` in a
  private temporary directory beside the target, and publishes the result
  with :func:`os.replace`.  Interpreters building at once each publish a
  complete file; none can load a half-written one.
* The load happens on the first call that needs the kernel, not at
  import.  Any failure -- no cffi, no compiler, no writable cache
  directory -- leaves the kernel unloaded and the numpy body runs, with
  the same outputs.  Delete the cache directory to force a rebuild.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import math
import os
import tempfile
import threading
import zlib
from pathlib import Path

import numpy as np

from ..core.scaling import exponent_range
from .reference import _as_fp32

__all__ = ["pow2_nearest", "scaled_nearest", "kernel_path", "last_pow2_body"]

SOURCE = Path(__file__).with_name("pow2_nearest.c")
CDEF = """
int repro_pow2_nearest(const double *x, double *out,
                       int64_t outer, int64_t n, int64_t inner,
                       int64_t os_outer, int64_t os_n, int64_t os_inner,
                       int64_t k1, int64_t k2, int64_t lo, int64_t hi,
                       int64_t beta, int64_t m, double qmax);
int repro_pow2_last_body(void);
extern int repro_pow2_scalar_only;
int repro_scaled_nearest(const double *x, double *out,
                         int64_t outer, int64_t n, int64_t inner,
                         int64_t os_outer, int64_t os_n, int64_t os_inner,
                         int64_t k1, int64_t k2, double qmax, double ssq,
                         int64_t jit, double scale);
"""
#: Exactness flags: no contraction into fused multiply-adds, no fast-math;
#: and no ``-march=native``, so a cached build runs on any CPU of its ABI.
FLAGS = ("-O2", "-fPIC", "-ffp-contract=off", "-fno-fast-math")
EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]
_FLOAT64 = np.dtype(np.float64)
_UID = os.getuid() if hasattr(os, "getuid") else None


def _cache_roots():
    """Candidate cache directories, most preferred first (absolute paths
    only, so nothing lands relative to the working directory)."""
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(xdg):
        yield os.path.join(xdg, "repro")
    home = os.path.expanduser("~")
    if os.path.isabs(home):
        yield os.path.join(home, ".cache", "repro")
    yield os.path.join(tempfile.gettempdir(), f"repro-{_UID}")


def _ours(root: str) -> bool:
    """Whether only this user can write to ``root``: a shared temp directory
    must not hand us somebody else's extension to load."""
    if _UID is None:
        return True
    info = os.stat(root)
    return info.st_uid == _UID and not info.st_mode & 0o022


def _module_name() -> str:
    import _cffi_backend

    key = b"\0".join([
        SOURCE.read_bytes(), CDEF.encode(), " ".join(FLAGS).encode(),
        EXT_SUFFIX.encode(), _cffi_backend.__version__.encode(),
    ])
    return f"_repro_pow2_{zlib.crc32(key):08x}{zlib.adler32(key):08x}"


def _import(name: str, path: str):
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_loader(name, loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _build(name: str):
    """Compile and publish the extension; its module, or ``None``."""
    import shlex
    import shutil
    import subprocess
    import sysconfig

    command = sysconfig.get_config_var("LDSHARED")
    if not command or shutil.which(shlex.split(command)[0]) is None:
        return None
    try:
        import cffi
    except ImportError:
        return None
    filename = name + EXT_SUFFIX
    for root in _cache_roots():
        try:
            os.makedirs(root, mode=0o700, exist_ok=True)
            if not _ours(root):
                continue
            scratch = tempfile.mkdtemp(prefix=".build-", dir=root)
        except OSError:
            continue
        try:
            ffi = cffi.FFI()
            ffi.cdef(CDEF)
            ffi.set_source(name, SOURCE.read_text(), compiler_verbose=False)
            c_file = os.path.join(scratch, name + ".c")
            ffi.emit_c_code(c_file)
            built = os.path.join(scratch, filename)
            include = {sysconfig.get_path("include"), sysconfig.get_path("platinclude")}
            subprocess.run(
                [*shlex.split(command), *FLAGS, *(f"-I{d}" for d in sorted(include)),
                 c_file, "-o", built],
                check=True, capture_output=True, timeout=300,
            )
            module = _import(name, built)  # publish only what loads
            module.__file__ = os.path.join(root, filename)
            os.replace(built, module.__file__)
            return module
        except (OSError, ImportError, subprocess.SubprocessError, cffi.CDefError):
            return None
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return None


def _load():
    """The loaded extension module: warm from the cache, else built."""
    try:
        name = _module_name()
    except (ImportError, OSError):
        return None
    filename = name + EXT_SUFFIX
    for root in _cache_roots():
        path = os.path.join(root, filename)
        try:
            if os.path.isfile(path) and _ours(root):
                return _import(name, path)
        except (OSError, ImportError):
            break  # unreadable or damaged: build a fresh copy over it
    return _build(name)


_LOAD_LOCK = threading.Lock()
#: set once the first use has loaded the kernel, or failed to
_LOADED = False
_MODULE = _LIB = _FFI = None


def _kernel():
    """The kernel's ``lib``, loaded on first use; ``None`` when unavailable."""
    global _LOADED, _MODULE, _LIB, _FFI
    with _LOAD_LOCK:
        if not _LOADED:
            _MODULE = _load()
            if _MODULE is not None:
                _LIB, _FFI = _MODULE.lib, _MODULE.ffi
            _LOADED = True
    return _LIB


def kernel_path() -> str | None:
    """File the loaded kernel came from, or ``None`` when the numpy body runs."""
    lib = _LIB if _LOADED else _kernel()
    return None if lib is None else _MODULE.__file__


@contextlib.contextmanager
def _numpy_body():
    """Test seam: calls inside the block run the numpy body (not thread-safe)."""
    global _LIB
    saved, _LIB = _kernel(), None
    try:
        yield
    finally:
        _LIB = saved


@contextlib.contextmanager
def _scalar_body():
    """Test seam: pow2 calls inside the block run the scalar C body, never
    the AVX2 one (not thread-safe)."""
    lib = _kernel()
    if lib is None:
        yield
        return
    saved, lib.repro_pow2_scalar_only = lib.repro_pow2_scalar_only, 1
    try:
        yield
    finally:
        lib.repro_pow2_scalar_only = saved


def last_pow2_body() -> str | None:
    """The C body that ran this thread's last compiled pow2 call: ``"avx2"``
    or ``"scalar"``; ``None`` when the kernel is not loaded."""
    lib = _LIB if _LOADED else _kernel()
    if lib is None:
        return None
    return "avx2" if lib.repro_pow2_last_body() else "scalar"


def pow2_nearest(x: np.ndarray, config, axis: int, c_order: bool) -> np.ndarray | None:
    """Quantize ``x`` (other dtypes are widened to float64) with the
    compiled kernel.

    ``config`` is a pow2-scaled config the numpy body accepts (``m <= 50``,
    exponent range inside the normal float64 range).  The result is laid out
    in memory as the numpy body lays out its own, because the bits of a later
    BLAS product depend on the operand's layout: a fresh buffer with the
    block axis last and rows padded to a multiple of ``k1``, viewed back to
    ``x``'s shape -- or plain C order when ``c_order`` is set (the numpy
    body's tiled path).  Returns ``None`` when the kernel is not loaded, ``x``
    is empty or a block holds inf/NaN: the caller then runs the numpy body.
    """
    lib = _LIB if _LOADED else _kernel()
    if lib is None or not x.size:
        return None
    shape = x.shape
    last = len(shape) - 1
    axis %= len(shape)
    n = shape[axis]
    inner = 1 if axis == last else math.prod(shape[axis + 1:])
    outer = x.size // (n * inner)
    if x.dtype is not _FLOAT64 or not x.flags.c_contiguous:  # C reads doubles
        x = np.ascontiguousarray(x, dtype=_FLOAT64)
    k1 = config.k1
    if c_order:
        out = view = np.empty(shape)
        strides = (n * inner, inner, 1)
    else:
        width = n + (-n) % k1
        out = view = np.empty(shape[:axis] + shape[axis + 1:] + (width,))
        strides = (inner * width, 1, width)
        if width != n:
            view = view[..., :n]
        if axis != last:  # np.moveaxis(view, -1, axis), without its checks
            view = view.transpose((*range(axis), last, *range(axis, last)))
    lo, hi = exponent_range(config.d1)
    # two scaling levels only under a pow2 sub-scale: as in the numpy body
    # and the reference, a pow2 block over an INT sub-scale takes one level
    beta = config.beta if config.ss_type == "pow2" else 0
    status = lib.repro_pow2_nearest(
        _FFI.from_buffer("double[]", x), _FFI.from_buffer("double[]", out, True),
        outer, n, inner, *strides, k1, config.k2, lo, hi, beta, config.m,
        config.qmax,
    )
    return None if status else view


def scaled_nearest(x: np.ndarray, config, axis: int, scale_override) -> np.ndarray | None:
    """Quantize ``x`` (other dtypes are widened to float64) with the
    compiled FP32-scaled body: scaled INT at one level, or VSQ when
    ``config.ss_type == "int"``.

    ``config`` is an fp32-scaled config with ``m <= 50``.  ``scale_override``
    is ``None`` (each block derives its scale) or a scalar, rounded to fp32
    here as the numpy body rounds it.  The result is laid out as
    :func:`pow2_nearest` lays out its own, never in C order (the numpy body
    does not tile these configs).  Returns ``None`` when the kernel is not
    loaded, ``x`` is empty, the override is array-valued or negative, or a
    block holds inf/NaN: the caller then runs the numpy body.  (A negative
    scale can make a VSQ sub-code ``-0.0``, which ``np.clip`` against 0
    keeps on numpy 2 and turns into ``+0.0`` on numpy 1; the C body
    follows numpy 2.)
    """
    lib = _LIB if _LOADED else _kernel()
    if lib is None or not x.size or np.ndim(scale_override):
        return None
    jit = scale_override is None
    scale = 0.0 if jit else float(_as_fp32(np.asarray(scale_override, dtype=_FLOAT64)))
    if scale < 0.0:
        return None
    # pow2_nearest's geometry and layout without its C-order case; not
    # shared, as a helper call costs a 24-element pow2 call about 8%
    shape = x.shape
    last = len(shape) - 1
    axis %= len(shape)
    n = shape[axis]
    inner = 1 if axis == last else math.prod(shape[axis + 1:])
    if x.dtype is not _FLOAT64 or not x.flags.c_contiguous:  # C reads doubles
        x = np.ascontiguousarray(x, dtype=_FLOAT64)
    width = n + (-n) % config.k1
    out = view = np.empty(shape[:axis] + shape[axis + 1:] + (width,))
    if width != n:
        view = view[..., :n]
    if axis != last:
        view = view.transpose((*range(axis), last, *range(axis, last)))
    ss_qmax = (1 << config.d2) - 1 if config.ss_type == "int" else 0
    status = lib.repro_scaled_nearest(
        _FFI.from_buffer("double[]", x), _FFI.from_buffer("double[]", out, True),
        x.size // (n * inner), n, inner, inner * width, 1, width,
        config.k1, config.k2, config.qmax, ss_qmax, jit, scale,
    )
    return None if status else view
