"""The compiled ensemble loops and trajectory text (``_rk4.c``), built and loaded on first use.

``_rk4.c`` holds the Lorenz RK4 steps and the Henon map steps of a whole
block of samples, each of which also flags whether any sample it wrote is
beyond the divergence bound or not finite and, for an ensemble, adds every
row it writes into the chunk's moment, peak and power sums and copies the
kept ones into its settling subsample, and a chunk's backward settling
scan.  Each does its arithmetic in the operation order of the numpy code it
replaces, so every path agrees bit for bit.  Its loops run across orbits at SIMD width; on
x86-64 with glibc the loader picks the AVX-512, AVX2 or baseline clone the
CPU runs.  It also prints a trajectory's rows in the bytes of ``b'%.17g' % v``:
an exact 17-digit conversion in 128-bit integers, and ``snprintf`` for the
values outside it or where the compiler has no 128-bit integer.

The package ships the C source, not a binary.  :func:`kernel` compiles it with
the system's ``cc`` into ``$XDG_CACHE_HOME/chaoswpt`` (``~/.cache/chaoswpt``
when unset or relative), or a per-user directory under the temp dir when that
one is unusable.  The library's name carries a hash of the source, the flags
and the machine, so a changed source builds afresh; it is written under a
temporary name and renamed into place, so processes building at once do not
clash.  A build also removes the cached libraries of any key last modified
over 30 days ago.  Without a compiler, or when the build or load fails,
:func:`kernel` warns once and returns None: ``chaoswpt.dynamics._fill_block``,
which alone chooses between the library and the fallback, fills the block
one textbook step at a time, flow and map, single orbits (trajectories, fig3
points) included, and adds an ensemble's block with ``chaoswpt.montecarlo._block_moments`` and a strided
copy, :func:`chaoswpt.montecarlo.run_ensemble` scans with ``_quiet_counts``,
and :func:`chaoswpt.io_utils.trajectory_csv` prints the same bytes with ``%``,
with the same results.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import CompiledKernelWarning

SOURCE = Path(__file__).with_name("_rk4.c")
#: no contraction into fused multiply-adds and no -ffast-math: every operation
#: rounds as numpy's does; no -march either, the source picks its SIMD clone
#: when it loads
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120
#: a cached library left unmodified this long is removed after the next build
_STALE_DAYS = 30


class Kernel(NamedTuple):
    """The library's functions, as ctypes functions: three ensemble loops and the trajectory text."""

    #: ``chaoswpt_lorenz_rk4_rows(src, out, rows, n, rates, bound, k0, tally)``, returns the bad-sample flag
    lorenz_rows: Callable[..., int]
    #: ``chaoswpt_henon_rows(src, out, rows, n, params, bound, k0, tally)``, returns the bad-sample flag
    henon_rows: Callable[..., int]
    #: ``chaoswpt_quiet_rows(det, rows, dim, n, tol, work, count)``
    quiet: Callable[..., None]
    #: ``chaoswpt_format_rows(samples, rows, dim, dt, out)``, returns the bytes of text written
    format_rows: Callable[..., int]


@functools.cache
def kernel() -> Kernel | None:
    """The compiled library's functions, or None after one warning."""
    try:
        source = SOURCE.read_bytes()
        path = library_path(source)
        try:
            return _load(path)
        except (OSError, AttributeError):
            pass  # not built yet, or a corrupt or foreign file: build it once more
        return _build(source, path)
    except (OSError, AttributeError) as exc:
        warnings.warn(
            f"compiled kernel unavailable ({exc}); Lorenz and Henon orbits take the textbook step, and "
            "ensembles add their block sums and scan for settling through numpy, and trajectory text is "
            "printed by %, with the same results but slower",
            CompiledKernelWarning,
            stacklevel=2,
        )
        return None


def library_path(source: bytes) -> str:
    """Where the library built from ``source`` is cached."""
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(CFLAGS).encode(), platform.machine().encode()])).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"_rk4-{key}.so")


def _cache_dir() -> str:
    """The first cache directory that exists or can be made, is ours and is writable.

    A directory another user owns or can write to is skipped: a library
    planted there would run in this process.
    """
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    candidates = [os.path.join(xdg if os.path.isabs(xdg) else os.path.expanduser("~/.cache"), "chaoswpt"),
                  os.path.join(tempfile.gettempdir(), f"chaoswpt-{os.getuid()}")]
    for path in candidates:
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            st = os.stat(path)
        except OSError:
            continue
        if st.st_uid == os.getuid() and not st.st_mode & 0o022 and os.access(path, os.W_OK | os.X_OK):
            return path
    raise OSError(f"no usable cache directory among {', '.join(candidates)}")


def _build(source: bytes, path: str):
    """Compile ``source``, load the result, move it to ``path`` and prune the cache.

    The library is loaded under its temporary name: the dynamic loader would
    hand back a library it already opened under ``path``.
    """
    # only a build needs subprocess; a run that loads the cached library skips its import
    import subprocess

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        try:
            subprocess.run(["cc", *CFLAGS, "-x", "c", "-o", tmp, "-"], input=source,
                           capture_output=True, check=True, timeout=_COMPILE_TIMEOUT_S)
        except subprocess.CalledProcessError as exc:
            raise OSError(f"cc failed: {exc.stderr.decode(errors='replace').strip()}") from exc
        except subprocess.TimeoutExpired as exc:
            raise OSError(f"cc took over {_COMPILE_TIMEOUT_S} s") from exc
        found = _load(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _prune(os.path.dirname(path))
    return found


def _prune(cache: str) -> None:
    """Remove the libraries in ``cache`` not modified for ``_STALE_DAYS`` days.

    Newer ones stay, whatever their key: checkouts of other sources may
    still load them, and deleting each other's would make two of them that
    run by turns rebuild on every run.
    """
    cutoff = time.time() - _STALE_DAYS * 86400
    for lib in Path(cache).glob("_rk4-*.so"):
        try:
            if lib.stat().st_mtime < cutoff:
                lib.unlink()
        except OSError:
            pass  # removed meanwhile, or not ours to remove


def _load(path: str) -> Kernel:
    """Every function of the library at ``path``; AttributeError when one is missing."""
    lib = ctypes.CDLL(path)
    pointer, size = ctypes.c_void_p, ctypes.c_size_t
    found = Kernel(lib.chaoswpt_lorenz_rk4_rows, lib.chaoswpt_henon_rows, lib.chaoswpt_quiet_rows,
                   lib.chaoswpt_format_rows)
    for rows in (found.lorenz_rows, found.henon_rows):
        rows.argtypes = [pointer, pointer, size, size, pointer, ctypes.c_double, size, pointer]
        rows.restype = ctypes.c_int
    found.quiet.argtypes = [pointer, size, size, size, ctypes.c_double, pointer, pointer]
    found.quiet.restype = None
    found.format_rows.argtypes = [pointer, size, size, ctypes.c_double, pointer]
    found.format_rows.restype = size
    return found
