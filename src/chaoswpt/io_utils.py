"""CSV serialization to ASCII bytes, with full-precision floats.

Floats are rendered with %.17g so every written value round-trips to the same
IEEE double; runs with identical configs therefore produce byte-identical
files.  A trajectory's rows are printed by the compiled library when it
loads, in the bytes Python's ``%`` gives, and by ``%`` otherwise.  The writer
creates each file once, in the run's private stage; the runner renames it
into place, so a crashed run never leaves a partial file.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import _rk4

#: column order of the harvest/sweep CSV emitted by the experiment runner
HARVEST_HEADER = [
    "system",
    "r_or_gamma",
    "delta",
    "eps",
    "pt_dbm",
    "eta_analytic",
    "eta_empirical",
    "papr_db",
    "stable",
    "m2_emp",
    "m2_stderr",
    "m4_emp",
    "m4_stderr",
]

SCAN_HEADER = ["sigma", "beta", "r", "stable", "minor1", "minor2", "minor3"]

#: trajectory rows formatted by one ``%``
_TEXT_ROWS = 2048
#: the most bytes one compiled trajectory cell takes: the longest ``%.17g``
#: text, -2.2250738585072014e-308, and the comma or newline after it
_CELL_BYTES = 25


def fmt_value(v) -> str:
    """Render one CSV cell; None and NaN become the empty cell."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        return "" if math.isnan(v) else "%.17g" % v
    return str(v)


def csv_text(header: list[str], rows: list[list]) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(fmt_value(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("ascii")


def write_text_atomic(path: str | Path, data: bytes | memoryview) -> None:
    """Create ``path``, which must not exist yet, holding ``data``.

    The file is written once and never over another; the atomicity is the
    runner's, which writes into a private stage and renames each file out.
    """
    with open(path, "xb") as fh:
        fh.write(data)


def trajectory_csv(traj) -> bytes | memoryview:
    """Serialize a Trajectory to ASCII bytes: ``t,x,y,z`` for flows, ``n,x,y`` for maps.

    The first column is ``np.arange(n) * dt`` for a flow and the index for a
    map, and every value is printed as ``b'%.17g' % v``: by the compiled library
    when it loads, into a buffer returned as a view, and by ``%`` otherwise.
    """
    samples = traj.samples
    n, dim = samples.shape
    flow = dim == 3
    head = b"t,x,y,z\n" if flow else b"n,x,y\n"
    # a map's index k is printed as k * 1.0, on both paths
    dt = traj.dt if flow else 1.0
    lib = _rk4.kernel()
    if lib is not None:
        # one buffer, written once: the header, then rows of at most
        # (dim + 1) cells each
        samples = np.ascontiguousarray(samples, dtype=np.float64)
        buf = np.empty(len(head) + n * (dim + 1) * _CELL_BYTES, dtype=np.uint8)
        buf[:len(head)] = np.frombuffer(head, dtype=np.uint8)
        end = len(head) + lib.format_rows(samples.ctypes.data, n, dim, dt, buf.ctypes.data + len(head))
        return memoryview(buf)[:end]
    row = b",".join([b"%.17g"] * (dim + 1)) + b"\n"
    table = np.column_stack((np.arange(n) * dt, samples))
    # one % per block of rows, over the row format repeated; the block bounds
    # how many floats are alive at once
    parts = [head]
    for i in range(0, n, _TEXT_ROWS):
        block = table[i:i + _TEXT_ROWS]
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return b"".join(parts)


def harvest_row(result) -> list:
    """Flatten one EnsembleResult into the HARVEST_HEADER columns."""
    cfg = result.config
    if cfg.system == "lorenz":
        swept, delta, eps = cfg.lorenz.r, None, cfg.scaling.eps_x
    elif cfg.system == "henon":
        swept, delta, eps = cfg.henon.gamma, cfg.henon.delta, None
    else:
        swept, delta, eps = cfg.n_tones, None, None
    rep = result.report
    return [
        cfg.system,
        swept,
        delta,
        eps,
        cfg.link.pt_dbm,
        rep.eta_analytic,
        rep.eta_empirical,
        rep.papr_db,
        rep.stable,
        result.m2_mean,
        result.m2_stderr,
        result.m4_mean,
        result.m4_stderr,
    ]
