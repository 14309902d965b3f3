"""Building, caching and loading the compiled ensemble library, and the numpy fallback."""

import functools
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import needs_cc

from chaoswpt import _rk4, dynamics, montecarlo
from chaoswpt.cli import main
from chaoswpt.dynamics import (
    DEFAULT_DIVERGENCE_BOUND,
    STATE_DIM,
    HenonParams,
    LorenzParams,
    ScalingFactors,
    block_rows,
    henon_map_step,
    lorenz_step,
    rate_constants,
    sample_blocks,
)
from chaoswpt.errors import CompiledKernelWarning

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fresh_process(tmp_path, monkeypatch):
    """The kernel not loaded yet, with empty cache and temp dirs under tmp_path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    _rk4.kernel.cache_clear()
    yield tmp_path
    _rk4.kernel.cache_clear()


def _ensemble():
    consts = rate_constants(LorenzParams(10.0, 28.0, 8.0 / 3.0), ScalingFactors(2.0, 3.0, 5.0))
    state = np.random.default_rng(3).uniform(-10.0, 10.0, (3, 50))
    blocks = sample_blocks(lorenz_step(1e-3, consts), state, 300)
    return np.concatenate([samples.copy() for _, samples, _ in blocks])


def _truncated_library(path):
    Path(path).write_bytes(b"\x7fELF" + bytes(60))


def _compile(path, source, *flags):
    subprocess.run(["cc", *flags, "-x", "c", "-o", path, "-"], input=source, check=True, capture_output=True)


def _foreign_library(path):
    # loads, but lacks the kernel's symbols
    _compile(path, b"int other(void) { return 0; }", *_rk4.CFLAGS)


def _step_only_library(path):
    # an older build of the source: the step without the block sums
    _compile(path, b"void chaoswpt_lorenz_rk4(void) {}", *_rk4.CFLAGS)


def _single_row_library(path):
    # the source before its block steps: four functions, each step one row
    _compile(path, b"".join(b"void chaoswpt_%s(void) {}\n" % name
                            for name in (b"lorenz_rk4", b"block_moments", b"henon", b"quiet_rows")),
             *_rk4.CFLAGS)


@needs_cc
@pytest.mark.parametrize("spoil", [_truncated_library, _foreign_library, _step_only_library, _single_row_library])
def test_a_corrupt_cached_library_is_rebuilt(fresh_process, spoil):
    path = _rk4.library_path(_rk4.SOURCE.read_bytes())
    spoil(path)
    spoiled = Path(path).read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledKernelWarning)
        assert _rk4.kernel() is not None
    assert Path(path).stat().st_size > 1000
    assert Path(path).read_bytes() != spoiled


def _isa_flags():
    """The -m flags of each target_clones ISA this CPU runs, the baseline's (none) first."""
    flags = [[]]
    if platform.machine() == "x86_64":
        try:
            cpu = Path("/proc/cpuinfo").read_text().split()
        except OSError:
            cpu = []
        flags += [[f"-m{isa}"] for isa in ("avx2", "avx512f") if isa in cpu]
    return flags


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """A scalar -O0 build and, for each ISA this CPU runs, a one-ISA -O3 build,
    next to the shipped library."""
    out = tmp_path_factory.mktemp("builds")
    source = _rk4.SOURCE.read_bytes()
    scalar = out / "scalar.so"
    _compile(scalar, source, "-O0", "-ffp-contract=off", "-shared", "-fPIC")
    libs = [_rk4.kernel()]
    assert libs[0] is not None
    for i, flags in enumerate(_isa_flags()):
        # an empty SIMD_CLONES builds the plain loop, vectorised for this ISA alone
        path = out / f"isa{i}.so"
        _compile(path, source, "-DSIMD_CLONES=", *flags, *_rk4.CFLAGS)
        libs.append(_rk4._load(str(path)))
    return _rk4._load(str(scalar)), libs


#: the largest double: sample_blocks clamps an infinite bound to it
_MAX = sys.float_info.max


def _block_sizes(n_steps, rows):
    """Blocks of 1 row, 2 rows, then ``rows`` rows, and a partial last block, ``n_steps`` rows in all."""
    sizes = [1, 2] + [rows] * ((n_steps - 3) // rows)
    sizes.append(n_steps - sum(sizes))
    assert 0 < sizes[-1] < rows
    return sizes


def _fill(lib, name, src, m, consts, bound):
    """The flag and the (m, dim, width) block that ``lib``'s block step ``name`` fills from ``src``."""
    src = np.ascontiguousarray(src)
    block = np.empty((m,) + src.shape)
    flag = getattr(lib, name)(src.ctypes.data, block.ctypes.data, m, src.shape[1], consts.ctypes.data, bound,
                              1, None)
    return flag, block


def _assert_flags_at_block_ends(libs, name, consts, calm, start, bound, width):
    """Blocks whose first or whose last row holds an orbit's first sample beyond ``bound``.

    Column c of an otherwise ``calm`` state starts at ``start``: first lane 0,
    then the last lane, which a width off the vector length steps in the
    scalar tail.  Every build writes the same bytes, and raises the flag just
    where numpy finds a sample beyond the bound or not finite.  A finite first
    bad sample also bounds the block that ends on it: at that bound the
    block is good, one ulp below it bad.  Returns the first bad sample's row.
    """
    dim = len(calm)
    sizes = (1, 2, block_rows(dim, width))
    consts = np.array(consts)
    # the columns are independent, so one orbit alone gives every block's start
    _, orbit = _fill(libs[0], name, np.array(start, dtype=float)[:, None], 4000, consts, _MAX)
    orbit = orbit[:, :, 0]
    beyond = ~(np.abs(orbit) <= bound).all(axis=1)
    j = int(np.argmax(beyond))
    assert beyond[j] and max(sizes) <= j <= len(orbit) - max(sizes)
    magnitude = np.abs(orbit[j]).max()
    bounds = [bound] + ([magnitude, np.nextafter(magnitude, 0.0)] if np.isfinite(magnitude) else [])
    src = np.repeat(np.array(calm, dtype=float)[:, None], width, axis=1)
    for c in sorted({0, width - 1}):
        for m in sizes:
            for first in (j - m, j - 1):  # the bad sample in the last row, then in the first
                src[:, c] = orbit[first]
                for b in bounds:
                    flags, blocks = zip(*(_fill(lib, name, src, m, consts, b) for lib in libs))
                    assert np.array_equal(blocks[0][:, :, c], orbit[first + 1:first + 1 + m], equal_nan=True)
                    expected = not (np.abs(blocks[0]) <= b).all()
                    assert [bool(f) for f in flags] == [expected] * len(libs), (c, m, first, b)
                    for block in blocks[1:]:
                        assert block.tobytes() == blocks[0].tobytes(), (c, m, first, b)
                    if b == bound:
                        assert expected
                    elif first == j - m:
                        assert expected == (b < magnitude)
            src[:, c] = calm
    return orbit[j]


@needs_cc
@pytest.mark.parametrize("eps", [1.0, 6.0])
@pytest.mark.parametrize("width", [1, 7, 1000, 1001, 2048])
def test_the_vectorised_library_equals_a_scalar_build(builds, block_budget, width, eps):
    # widths off the 4- and 8-lane vectors run the loops' scalar tails too; the
    # shipped build runs the clone this CPU picks, the one-ISA builds every clone.
    # Map blocks of at most 1024 rows (flow ones 682): the first bad samples
    # of the orbits at the end lie 1290 to 2798 steps into their 4000, and a
    # whole block must fit on either side
    block_budget(min(dynamics._BLOCK_BYTES, 8 * 2 * width * 1024))
    scalar, vectorised = builds
    libs = [scalar, *vectorised]
    scaling = ScalingFactors(eps, eps, eps)
    rates = np.array((1e-3, *rate_constants(LorenzParams(10.0, 28.0, 8.0 / 3.0), scaling)))
    rows = block_rows(3, width)
    start = np.random.default_rng(width).uniform((-15.0, -15.0, 5.0), (15.0, 15.0, 40.0), (width, 3)).T / eps
    # the flow's blocks as sample_blocks lays them out: each reads the block's
    # last row, where the previous block's last sample is copied
    blocks = [np.empty((rows, 3, width)) for _ in libs]
    sums = [np.zeros((4, width)) for _ in libs]
    # windows as a 4000-step run_ensemble opens them: moments from step 2000,
    # power from 400, and every 50th sample kept
    n_steps, cutoff, papr_start, stride = 4000, 2000, 400, 50
    kept = [np.zeros((1 + n_steps // stride, 3, width)) for _ in libs]
    tallies = [montecarlo._chunk_tally(cutoff, papr_start, stride, acc, det) for acc, det in zip(sums, kept)]
    for block in blocks:
        block[-1] = start
    k0 = 1
    for m in _block_sizes(n_steps, rows):
        for lib, block, tally in zip(libs, blocks, tallies):
            base = block.ctypes.data
            assert lib.lorenz_rows(base + (rows - 1) * block.strides[0], base, m, width, rates.ctypes.data,
                                   DEFAULT_DIVERGENCE_BOUND, k0, tally[1]) == 0
            block[-1] = block[m - 1]
        for block in blocks[1:]:
            assert block[:m].tobytes() == blocks[0][:m].tobytes(), k0
        k0 += m
    assert (sums[0] > 0).all() and (kept[0][1:] != 0).all()
    for acc, det in zip(sums[1:], kept[1:]):
        assert acc.tobytes() == sums[0].tobytes()
        assert det.tobytes() == kept[0].tobytes()

    # the map, chaotic at eps 1 and attracting at eps 6, every sample kept as
    # run_ensemble keeps its detection rows: each block reads the row before it
    params = np.array((1.4, 0.3) if eps == 1.0 else (0.002, 0.9))
    n_map = 1000
    orbits = [np.empty((n_map + 1, 2, width)) for _ in libs]
    for orbit in orbits:
        orbit[0] = start[:2] / 100.0
    row_bytes = orbits[0].strides[0]
    k0 = 1
    for m in _block_sizes(n_map, block_rows(2, width)):
        for lib, orbit in zip(libs, orbits):
            base = orbit.ctypes.data
            assert lib.henon_rows(base + (k0 - 1) * row_bytes, base + k0 * row_bytes, m, width,
                                  params.ctypes.data, DEFAULT_DIVERGENCE_BOUND, k0, None) == 0
        k0 += m
    assert np.isfinite(orbits[0]).all()
    for orbit in orbits[1:]:
        assert orbit.tobytes() == orbits[0].tobytes()

    # the settling scan of the map's samples, which stops at once where the
    # map is chaotic and runs ~830 rows back where it attracts, and of the
    # flow's last block
    for det, far in ((orbits[0], eps == 6.0), (blocks[0], False)):
        counts = [np.full(width, -1, dtype=np.intp) for _ in libs]
        for lib, count in zip(libs, counts):
            work = np.empty((2,) + det.shape[1:])
            lib.quiet(det.ctypes.data, det.shape[0], det.shape[1], width, 1e-3, work.ctypes.data,
                      count.ctypes.data)
        assert counts[0].min() > (800 if far else 0)
        for count in counts[1:]:
            assert np.array_equal(count, counts[0])

    # bad samples at either end of a block.  The map x' = y + 1, y' = delta x
    # holds (1, delta) / (1 - delta) fixed, and from (1, 1) or (-2, -2) it
    # grows: through 1e6 at delta 1.01, and at delta 3 to inf or -inf.  The
    # flow dx = -x, dy = -x (6 z) - y, dz = z holds the origin fixed, and from
    # (0, 0, 1e-300) it grows z through 1e6, until 6 z overflows: 0 (6 z) is
    # NaN, and the next sample is NaN where no component overflowed.
    flow = (0.5, 1.0, 0.0, -1.0, 0.0, 1.0, 6.0, 0.0)
    at = functools.partial(_assert_flags_at_block_ends, libs, width=width)
    assert np.isfinite(at("henon_rows", (0.0, 1.01), (-100.0, -101.0), (1.0, 1.0), DEFAULT_DIVERGENCE_BOUND)).all()
    assert np.isposinf(at("henon_rows", (0.0, 3.0), (-0.5, -1.5), (1.0, 1.0), _MAX)).any()
    assert np.isneginf(at("henon_rows", (0.0, 3.0), (-0.5, -1.5), (-2.0, -2.0), _MAX)).any()
    assert np.isfinite(at("lorenz_rows", flow, (0.0, 0.0, 0.0), (0.0, 0.0, 1e-300), DEFAULT_DIVERGENCE_BOUND)).all()
    first_nan = at("lorenz_rows", flow, (0.0, 0.0, 0.0), (0.0, 0.0, 1e-300), _MAX)
    assert np.isnan(first_nan).any() and not np.isinf(first_nan).any()


def _block(rng, rows, dim, width):
    """Samples of every kind a block can hold: zeros, subnormals, squares that
    are subnormal, values at and near the divergence bound, and ordinary ones."""
    bound, tiny = DEFAULT_DIVERGENCE_BOUND, np.finfo(float).smallest_normal
    ranges = [(0.0, 0.0), (0.0, tiny), (1e-162, 1e-154), (bound - 1.0, bound), (bound, bound)]
    samples = rng.normal(0.0, 10.0, (rows, dim, width))
    kind = rng.integers(0, len(ranges) + 1, samples.shape, dtype=np.int8)
    for k, (lo, hi) in enumerate(ranges):
        where = kind == k
        samples[where] = rng.choice((-1.0, 1.0), where.sum()) * rng.uniform(lo, hi, where.sum())
    return samples


def _chunk(step, start, n_steps, cutoff, papr_start, stride, fused):
    """Every sample of one chunk as sample_blocks steps it, and its sums and settling subsample.

    ``fused``: the block steps add each block into a chunk tally, as
    run_ensemble has them do.  Otherwise the test adds each block it is
    yielded with ``_block_moments`` and copies every stride-th sample itself:
    the reference.
    """
    dim, width = start.shape
    acc = np.zeros((4, width))
    det = np.full((1 + n_steps // stride, dim, width), np.nan)
    tally = montecarlo._chunk_tally(cutoff, papr_start, stride, acc, det) if fused else None
    seen = []
    for k0, samples, first in sample_blocks(step, start, n_steps, DEFAULT_DIVERGENCE_BOUND, tally):
        assert (first < 0).all()
        if not fused:
            montecarlo._block_moments(samples, max(cutoff - k0, 0), max(papr_start - k0, 0), acc)
            for i, row in enumerate(samples):
                if (k0 + i) % stride == 0:
                    det[(k0 + i) // stride] = row
        seen.append(samples.copy())
    return np.concatenate(seen), acc, det


@needs_cc
@pytest.mark.parametrize("width", [1, 7, 8, 1000, 1001, 2048])
@pytest.mark.parametrize("system", ["lorenz", "henon"])
def test_fused_block_steps_equal_textbook_rows_sums_and_copy(builds, block_budget, monkeypatch, system, width):
    # 12-row blocks, the last one partial; the fused steps of the numpy path,
    # of the scalar build and of every clone against the textbook rows, then
    # _block_moments and a strided copy
    rows, dim = 12, STATE_DIM[system]
    block_budget(8 * dim * width * rows)
    n_steps = 4 * rows + 5
    rng = np.random.default_rng(width)
    if system == "lorenz":
        scaling = ScalingFactors(2.0, 3.0, 5.0)
        step = lorenz_step(1e-3, rate_constants(LorenzParams(10.0, 28.0, 8.0 / 3.0), scaling))
        start = rng.uniform((-15.0, -15.0, 5.0), (15.0, 15.0, 40.0), (width, 3)).T / 2.0
    else:
        step = henon_map_step(HenonParams(1.4, 0.3))
        start = rng.uniform(-0.2, 0.2, (2, width))
    # (cutoff, papr_start, stride): windows that open on the start (a transient
    # fraction of 0), on a block's first row (1, rows + 1) or its last (rows),
    # inside a block (rows + 6) and on the last sample, and strides that
    # divide the 12-row block (1, 4) or do not (5, 13)
    cases = [(0, 0, 1), (rows + 1, 1, 5), (rows + 6, rows, 4), (1, rows + 6, 13),
             (n_steps, rows + 1, 5), (rows, n_steps, 1)]
    scalar, vectorised = builds
    for cutoff, papr_start, stride in cases:
        monkeypatch.setattr(_rk4, "kernel", lambda: None)
        expected = _chunk(step, start, n_steps, cutoff, papr_start, stride, fused=False)
        assert not np.isnan(expected[2]).any()
        for i, lib in enumerate([None, scalar, *vectorised]):
            monkeypatch.setattr(_rk4, "kernel", lambda: lib)
            got = _chunk(step, start, n_steps, cutoff, papr_start, stride, fused=True)
            for name, a, b in zip(("samples", "acc", "det"), got, expected):
                assert a.tobytes() == b.tobytes(), (i, name, cutoff, papr_start, stride)


@needs_cc
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_a_fused_row_adds_its_samples_as_the_numpy_sums_do(data):
    # one map row whose x is written from x_in and y_in = -1 as
    # 0 - (gamma x_in) x_in, gamma = +-1: x_in = sqrt |t| for t of every kind
    # _block draws, so the row's samples and squares span them
    width = data.draw(st.integers(1, 2049), label="width")
    k0 = data.draw(st.integers(1, 40), label="k0")
    # windows that opened before the row, open on it, or open after it
    cutoff = data.draw(st.integers(0, k0 + 2), label="cutoff")
    papr_start = data.draw(st.integers(0, k0 + 2), label="papr_start")
    stride = data.draw(st.integers(1, 4), label="stride")
    gamma = data.draw(st.sampled_from([1.0, -1.0]), label="gamma")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    src = np.stack((np.sqrt(np.abs(_block(rng, 1, 1, width)[0, 0])), np.full(width, -1.0)))
    start = rng.uniform(0.0, 1e3, (4, width)) * (rng.random((4, width)) < 0.8)
    params = np.array((gamma, 0.5))

    kernel = _rk4.kernel()
    assert kernel is not None
    acc = start.copy()
    det = np.zeros((1 + (k0 + 2) // stride, 2, width))
    tally = montecarlo._chunk_tally(cutoff, papr_start, stride, acc, det)
    fused = np.empty((1, 2, width))
    plain = np.empty((1, 2, width))
    for out, address in ((fused, tally[1]), (plain, None)):
        kernel.henon_rows(src.ctypes.data, out.ctypes.data, 1, width, params.ctypes.data, _MAX, k0, address)
    assert fused.tobytes() == plain.tobytes()

    expected = start.copy()
    montecarlo._block_moments(plain, max(cutoff - k0, 0), max(papr_start - k0, 0), expected)
    assert acc.tobytes() == expected.tobytes()
    kept = np.zeros_like(det)
    if k0 % stride == 0:
        kept[k0 // stride] = plain[0]
    assert det.tobytes() == kept.tobytes()


@needs_cc
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_compiled_settling_scan_equals_the_numpy_scan(data):
    rows = data.draw(st.integers(1, 300), label="rows")
    width = data.draw(st.integers(1, 2049), label="width")
    dim = data.draw(st.sampled_from(sorted(STATE_DIM.values())), label="dim")
    tol = data.draw(st.sampled_from([1e-3, 0.25, 1.0]), label="tol")
    # a suffix that spans exactly tol is quiet at tol, and not just below it
    scan_tol = data.draw(st.sampled_from([tol, np.nextafter(tol, 0.0)]), label="scan_tol")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    det = rng.normal(0.0, 10.0 * tol, (rows, dim, width))
    # each orbit ends on a quiet suffix of its own length, values in [0, tol];
    # from two rows on, its first component spans exactly tol
    length = rng.integers(0, rows + 1, width)
    in_suffix = np.arange(rows)[:, None] >= rows - length
    det = np.where(in_suffix[:, None, :], rng.uniform(0.0, tol, det.shape), det)
    edge = np.flatnonzero(length >= 2)
    det[rows - length[edge], 0, edge] = 0.0
    det[-1, 0, edge] = tol
    # a few samples that are not finite, anywhere
    n_bad = data.draw(st.integers(0, 3), label="n_bad")
    for value in rng.choice([np.nan, np.inf, -np.inf], n_bad):
        det[rng.integers(rows), rng.integers(dim), rng.integers(width)] = value

    kernel = _rk4.kernel()
    assert kernel is not None
    count = np.full(width, -1, dtype=np.intp)
    work = np.empty((2, dim, width))
    kernel.quiet(det.ctypes.data, rows, dim, width, scan_tol, work.ctypes.data, count.ctypes.data)
    expected = montecarlo._quiet_counts(det, scan_tol)
    assert np.array_equal(count, expected)


def test_without_a_compiler_ensembles_step_through_numpy_with_one_warning(fresh_process, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompiledKernelWarning)
        expected = _ensemble()
    _rk4.kernel.cache_clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(fresh_process / "other-cache"))
    monkeypatch.setenv("PATH", str(fresh_process / "no-tools"))
    # a corrupt library in the cache cannot be rebuilt either
    _truncated_library(_rk4.library_path(_rk4.SOURCE.read_bytes()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first, second = _ensemble(), _ensemble()
    assert [w.category for w in caught] == [CompiledKernelWarning]
    assert _rk4.kernel() is None
    assert np.array_equal(first, expected) and np.array_equal(second, expected)


# the flow settled and chaotic, the map and a multisine; 2100 realizations in
# chunks of 2048 make a 2048-wide chunk of 5-row (flow) or 8-row (map) blocks
# and a 52-wide one of 210-row or 315-row blocks, so the numpy sums take both
# of _running_sum's paths
_FIG4 = """
experiment: fig4
fig4: {pt_dbm_values: [10, 30], lorenz_r_values: [12, 28], henon_params: [[0.2, 0.1]], n_tones_values: [4]}
ensemble: {n_realizations: 2100, horizon: 20, dt: 0.01}
"""
# one chaotic orbit, 5000 steps over five blocks, the last one partial
_TRAJECTORY = """
experiment: trajectory
lorenz: {r: 28}
trajectory: {p_in: [1, -5, 20], horizon: 5}
"""
# four one-orbit ensembles in the chaotic band
_FIG3 = """
experiment: fig3
fig3: {r_values: [28, 40], eps_values: [1, 6], sigma_values: [10]}
ensemble: {horizon: 5}
"""


def test_a_run_writes_the_same_bytes_on_the_compiled_and_the_numpy_path(kernel, request, tmp_path, chunk_width):
    configs = {"fig4": _FIG4, "trajectory": _TRAJECTORY, "fig3": _FIG3}
    out = tmp_path / "out"

    def run(name):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(configs[name])
        # the same out_dir every time: the manifest records it
        with chunk_width(2048):
            assert main(["run", str(cfg), "--out", str(out)]) == 0
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        return written

    compiled = {name: run(name) for name in configs}
    assert {name: sorted(files) for name, files in compiled.items()} == {
        "fig4": ["fig4.csv", "manifest.yaml"],
        "trajectory": ["manifest.yaml", "trajectory.csv"],
        "fig3": ["fig3_sigma10_eps1.csv", "fig3_sigma10_eps6.csv", "manifest.yaml"],
    }
    request.getfixturevalue("numpy_rk4")
    assert {name: run(name) for name in configs} == compiled


@needs_cc
def test_a_build_removes_the_libraries_left_unmodified_too_long(fresh_process):
    path = Path(_rk4.library_path(_rk4.SOURCE.read_bytes()))
    now = time.time()
    # a library of any other key stays until it is that old: another checkout may load it
    for name, days in [("_rk4-stale.so", _rk4._STALE_DAYS + 1), ("_rk4-recent.so", _rk4._STALE_DAYS - 1),
                       ("other.so", _rk4._STALE_DAYS + 1)]:
        (path.parent / name).write_bytes(b"")
        os.utime(path.parent / name, (now - days * 86400,) * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledKernelWarning)
        assert _rk4.kernel() is not None
    assert sorted(p.name for p in path.parent.iterdir()) == sorted([path.name, "_rk4-recent.so", "other.so"])


@needs_cc
def test_an_unusable_cache_dir_gives_way_to_the_temp_dir(fresh_process, monkeypatch):
    not_a_dir = fresh_process / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledKernelWarning)
        assert _rk4.kernel() is not None
    assert len(list((fresh_process / "tmp").glob("chaoswpt-*/_rk4-*.so"))) == 1


def test_a_relative_xdg_cache_home_is_ignored(fresh_process, monkeypatch):
    # the XDG spec calls a relative path invalid: honouring it would build a
    # library in every working directory a run starts from
    home, cwd = fresh_process / "home", fresh_process / "cwd"
    cwd.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", "cache")
    monkeypatch.chdir(cwd)
    path = Path(_rk4.library_path(_rk4.SOURCE.read_bytes()))
    assert path.parent == home / ".cache" / "chaoswpt" and path.parent.is_dir()
    assert list(cwd.iterdir()) == []


def test_a_built_package_ships_the_kernel_source(tmp_path):
    pytest.importorskip("setuptools")
    # build a copy, so that the build's egg-info stays out of the checkout
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    lib = tmp_path / "lib"
    subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()", "build_py", "--build-lib", str(lib)],
        cwd=tmp_path, check=True, capture_output=True,
    )
    found = subprocess.run(
        [sys.executable, "-c", "from chaoswpt import _rk4; print(_rk4.SOURCE.is_file(), _rk4.SOURCE)"],
        cwd=tmp_path, env={"PYTHONPATH": str(lib)}, check=True, capture_output=True, text=True,
    ).stdout.split()
    assert found == ["True", str(lib / "chaoswpt" / "_rk4.c")]
