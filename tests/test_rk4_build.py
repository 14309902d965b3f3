"""Building, caching and loading the compiled ensemble library, and the numpy fallback."""

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

from chaoswpt import _rk4, montecarlo
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

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


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


@needs_cc
@pytest.mark.parametrize("spoil", [_truncated_library, _foreign_library, _step_only_library])
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


@needs_cc
@pytest.mark.parametrize("eps", [1.0, 6.0])
@pytest.mark.parametrize("width", [1, 7, 1000, 1001, 2048])
def test_the_vectorised_library_equals_a_scalar_build(builds, width, eps):
    # widths off the 4- and 8-lane vectors run the loops' scalar tails too; the
    # shipped build runs the clone this CPU picks, the one-ISA builds every clone
    scalar, vectorised = builds
    libs = [scalar, *vectorised]
    scaling = ScalingFactors(eps, eps, eps)
    rates = np.array((1e-3, *rate_constants(LorenzParams(10.0, 28.0, 8.0 / 3.0), scaling)))
    rows = block_rows(3, width)
    start = np.random.default_rng(width).uniform((-15.0, -15.0, 5.0), (15.0, 15.0, 40.0), (width, 3)).T / eps
    blocks = [np.empty((rows, 3, width)) for _ in libs]
    sums = [np.zeros((4, width)) for _ in libs]
    for block in blocks:
        block[-1] = start
    # windows as a 4000-step run_ensemble opens them: moments from step 2000, power from 400
    n_steps, cutoff, papr_start = 4000, 2000, 400
    row_bytes = blocks[0].strides[0]
    for k in range(1, n_steps + 1):
        i = (k - 1) % rows
        for lib, block in zip(libs, blocks):
            base = block.ctypes.data
            lib.step(base + (i - 1) % rows * row_bytes, base + i * row_bytes, width, rates.ctypes.data)
        for block in blocks[1:]:
            assert np.array_equal(blocks[0][i], block[i]), k
        if i == rows - 1 or k == n_steps:
            k0 = k - i
            c, p = max(cutoff - k0, 0), max(papr_start - k0, 0)
            for lib, block, acc in zip(libs, blocks, sums):
                lib.moments(block.ctypes.data, i + 1, 3 * width, width, c, p, acc.ctypes.data)
    assert (sums[0] > 0).all()
    for acc in sums[1:]:
        assert acc.tobytes() == sums[0].tobytes()


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


# the flow settled and chaotic, the map and a multisine; 2100 realizations make
# a 2048-wide chunk of 5-row blocks and a 52-wide one of 218-row blocks, so the
# numpy sums take both of _running_sum's paths
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


def test_a_run_writes_the_same_bytes_on_the_compiled_and_the_numpy_path(request, tmp_path):
    if _rk4.kernel() is None:
        pytest.skip("the compiled RK4 kernel cannot be built here")
    configs = {"fig4": _FIG4, "trajectory": _TRAJECTORY, "fig3": _FIG3}
    out = tmp_path / "out"

    def run(name):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(configs[name])
        # the same out_dir every time: the manifest records it
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
