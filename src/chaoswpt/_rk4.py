"""The compiled ensemble loops (``_rk4.c``), built and loaded on first use.

``_rk4.c`` holds the Lorenz RK4 step, the Henon map step, an ensemble block's
moment, peak and power sums and a chunk's backward settling scan, each in the
operation order of the numpy code it replaces, so every path agrees bit for
bit.  Its loops run across orbits at SIMD width; on x86-64 with glibc the
loader picks the AVX-512, AVX2 or baseline clone the CPU runs.

The package ships the C source, not a binary.  :func:`kernel` compiles it with
the system's ``cc`` into ``$XDG_CACHE_HOME/chaoswpt`` (``~/.cache/chaoswpt``
when unset), or into a per-user directory under the system temp dir when that
one is unusable.  The library's name carries a hash of the source, the flags
and the machine, so a changed source builds afresh; it is written under a
temporary name and renamed into place, so processes building at once do not
clash.  A build also removes the cached libraries of any key last modified
over 30 days ago.  Without a compiler, or when the build or load fails,
:func:`kernel` warns once and returns None: :func:`chaoswpt.dynamics.rk4_step`
and :func:`chaoswpt.dynamics.henon_step` take the textbook step, single orbits
(trajectories, fig3 points) included, and :func:`chaoswpt.montecarlo.run_ensemble`
adds the sums with ``_block_moments`` and scans with ``_quiet_counts``, with
the same results.
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
    """The library's functions, as ctypes functions."""

    #: ``chaoswpt_lorenz_rk4(in, out, n, rates)``
    step: Callable[..., None]
    #: ``chaoswpt_block_moments(x, rows, stride, n, c, p, acc)``
    moments: Callable[..., None]
    #: ``chaoswpt_henon(in, out, n, params)``
    henon: Callable[..., None]
    #: ``chaoswpt_quiet_rows(det, rows, dim, n, tol, work, count)``
    quiet: Callable[..., None]


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
            "ensembles add their block sums and scan for settling through numpy, with the same results "
            "but slower",
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
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    candidates = [os.path.join(base, "chaoswpt"),
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
    found = Kernel(lib.chaoswpt_lorenz_rk4, lib.chaoswpt_block_moments, lib.chaoswpt_henon,
                   lib.chaoswpt_quiet_rows)
    found.step.argtypes = [pointer, pointer, size, pointer]
    found.moments.argtypes = [pointer, size, size, size, size, size, pointer]
    found.henon.argtypes = [pointer, pointer, size, pointer]
    found.quiet.argtypes = [pointer, size, size, size, ctypes.c_double, pointer, pointer]
    for fn in found:
        fn.restype = None
    return found
