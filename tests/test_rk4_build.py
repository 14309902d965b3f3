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
    LorenzParams,
    ScalingFactors,
    block_rows,
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
    flag = getattr(lib, name)(src.ctypes.data, block.ctypes.data, m, src.shape[1], consts.ctypes.data, bound)
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
    for block in blocks:
        block[-1] = start
    # windows as a 4000-step run_ensemble opens them: moments from step 2000, power from 400
    n_steps, cutoff, papr_start = 4000, 2000, 400
    k0 = 1
    for m in _block_sizes(n_steps, rows):
        c, p = max(cutoff - k0, 0), max(papr_start - k0, 0)
        for lib, block, acc in zip(libs, blocks, sums):
            base = block.ctypes.data
            assert lib.lorenz_rows(base + (rows - 1) * block.strides[0], base, m, width, rates.ctypes.data,
                                   DEFAULT_DIVERGENCE_BOUND) == 0
            lib.moments(base, m, 3 * width, width, c, p, acc.ctypes.data)
            block[-1] = block[m - 1]
        for block in blocks[1:]:
            assert block[:m].tobytes() == blocks[0][:m].tobytes(), k0
        k0 += m
    assert (sums[0] > 0).all()
    for acc in sums[1:]:
        assert acc.tobytes() == sums[0].tobytes()

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
                                  params.ctypes.data, DEFAULT_DIVERGENCE_BOUND) == 0
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


@needs_cc
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_compiled_block_moments_equal_the_numpy_sums(data):
    rows = data.draw(st.integers(1, 1024), label="rows")
    width = data.draw(st.integers(1, 2049), label="width")
    dim = data.draw(st.sampled_from(sorted(STATE_DIM.values())), label="dim")
    # a window that opened before the block (0), opens inside it, or opens after it
    c = data.draw(st.integers(0, rows + 2), label="c")
    p = data.draw(st.integers(0, rows + 2), label="p")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    samples = _block(rng, rows, dim, width)
    start = rng.uniform(0.0, 1e3, (4, width)) * (rng.random((4, width)) < 0.8)

    kernel = _rk4.kernel()
    assert kernel is not None
    acc = start.copy()
    kernel.moments(samples.ctypes.data, rows, dim * width, width, c, p, acc.ctypes.data)
    expected = start.copy()
    montecarlo._block_moments(samples, c, p, expected)
    assert acc.tobytes() == expected.tobytes()


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
    with np.errstate(invalid="ignore"):  # inf - inf
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
