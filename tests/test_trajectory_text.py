"""The trajectory text: every value printed as ``'%.17g' % v``, by the compiled library and by ``%``."""

import struct
import subprocess
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import needs_cc

from chaoswpt import _rk4, io_utils
from chaoswpt.dynamics import HenonParams, LorenzParams, Trajectory, integrate_lorenz, iterate_henon
from chaoswpt.io_utils import trajectory_csv, write_text_atomic

#: the three longest '%.17g' texts a double has, 24 bytes each
_LONGEST = [-2.2250738585072014e-308, -1.7976931348623157e+308, -4.9406564584124654e-324]


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _percent_text(traj):
    """The oracle: the trajectory's text built value by value with ``%``, as ASCII bytes."""
    n, dim = traj.samples.shape
    if dim == 3:
        head, first = "t,x,y,z", ["%.17g" % t for t in (np.arange(n) * traj.dt).tolist()]
    else:
        head, first = "n,x,y", ["%d" % k for k in range(n)]
    rows = (",".join([f, *("%.17g" % v for v in row)]) for f, row in zip(first, traj.samples.tolist()))
    return ("\n".join([head, *rows]) + "\n").encode("ascii")


def _table(values, dim):
    """``values`` as the rows of a ``dim``-column trajectory, the last row padded with zeros."""
    samples = np.zeros((-(-len(values) // dim), dim))
    samples.flat[:len(values)] = values
    return Trajectory(1e-3 if dim == 3 else 1.0, samples, 0)


def _edges():
    """Zeros, the extremes, NaN and inf, a tie, and each power of ten from 1e-8 to 1e22
    and the fast path's range edges 1e-5 and 1e16 with their neighbours two ulp either side."""
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e+308, float("inf"), float("nan"),
              _double(0xFFF8000000000000), 123456789012345.625, 123456789012345.875, 0.5]
    for k in range(-8, 23):
        centre = float(f"1e{k}")
        below, above = np.nextafter(centre, 0.0), np.nextafter(centre, np.inf)
        values += [np.nextafter(below, 0.0), below, centre, above, np.nextafter(above, np.inf)]
    return values + [-v for v in values]


@pytest.fixture(scope="module")
def orbits():
    """The 50,001-row r = 28 flow trajectory and a 100,000-step chaotic Henon orbit."""
    return {
        "flow": integrate_lorenz((1.0, -5.0, 20.0), LorenzParams(10.0, 28.0, 8.0 / 3.0), dt=1e-3, horizon=50.0),
        "map": iterate_henon((0.0, 0.0), HenonParams(1.4, 0.3), n_steps=100_000),
    }


def _printed(lib, values):
    """Each of ``values`` as ``lib`` prints it, the second cell of a row of its own."""
    samples = np.array(values, dtype=np.float64).reshape(-1, 1)
    buf = np.empty(len(samples) * 2 * io_utils._CELL_BYTES, dtype=np.uint8)
    end = lib.format_rows(samples.ctypes.data, len(samples), 1, 0.0, buf.ctypes.data)
    return [row.split(",")[1] for row in buf[:end].tobytes().decode("ascii").splitlines()]


@pytest.mark.parametrize("kind", ["flow", "map"])
def test_long_orbits_print_as_percent(rk4_path, orbits, kind):
    traj = orbits[kind]
    assert len(traj.samples) == {"flow": 50_001, "map": 100_001}[kind]
    assert trajectory_csv(traj) == _percent_text(traj)


def test_the_text_is_held_once_on_its_way_to_the_file(kernel, orbits, tmp_path):
    # the printed buffer is written as it is: no decoded str, no encoded copy of it
    traj = orbits["flow"]
    n, dim = traj.samples.shape
    printed = len(b"t,x,y,z\n") + n * (dim + 1) * io_utils._CELL_BYTES
    tracemalloc.start()
    try:
        write_text_atomic(tmp_path / "t.csv", trajectory_csv(traj))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < printed + 1_000_000


@pytest.mark.parametrize("dim", [2, 3])
def test_edge_values_print_as_percent(rk4_path, dim):
    traj = _table(_edges(), dim)
    assert trajectory_csv(traj) == _percent_text(traj)


@pytest.mark.parametrize("value, text", [
    (1e23, "9.9999999999999992e+22"),
    (123456789012345.625, "123456789012345.62"),  # a tie, to the even digit
    (1e-5, "1.0000000000000001e-05"),
    (9.9999999999999991e-06, "9.9999999999999991e-06"),
    (0.0001, "0.0001"),
    (1e16, "10000000000000000"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (_double(0xFFF8000000000000), "nan"),
    (float("-inf"), "-inf"),
])
def test_hand_values(rk4_path, value, text):
    assert trajectory_csv(_table([value], 2)) == f"n,x,y\n0,{text},0\n".encode("ascii")


@pytest.mark.parametrize("dim", [2, 3])
def test_the_longest_values_stay_within_the_row_bound(kernel, dim):
    assert {len("%.17g" % v) for v in _LONGEST} == {24}
    n = 300
    samples = np.resize(_LONGEST, (n, dim))
    # a short last value still stays within its cell's bytes
    samples[-1, -1] = 1.0
    # a flow's first column k * dt is as long
    dt = _LONGEST[0] if dim == 3 else 1.0
    bound = n * (dim + 1) * io_utils._CELL_BYTES
    buf = np.full(bound + 64, 0xA5, dtype=np.uint8)
    end = kernel.format_rows(samples.ctypes.data, n, dim, dt, buf.ctypes.data)
    assert end <= bound and (buf[bound:] == 0xA5).all()
    expected = _percent_text(Trajectory(dt, samples, 0))
    assert buf[:end].tobytes() == expected[expected.index(b"\n") + 1:]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(1e-5, 1e16).flatmap(lambda v: st.sampled_from([v, -v]))),
                min_size=1, max_size=64))
def test_finite_doubles_print_as_percent(kernel, values):
    assert _printed(kernel, values) == ["%.17g" % v for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1).map(_double), min_size=1, max_size=64))
def test_every_bit_pattern_prints_as_percent(kernel, values):
    # NaN and inf among them
    assert _printed(kernel, values) == ["%.17g" % v for v in values]


@needs_cc
@pytest.mark.parametrize("flags", [["-O0"], ["-O3", "-U__SIZEOF_INT128__"]], ids=["O0", "no-int128"])
def test_an_unoptimised_build_and_one_without_128_bit_integers_print_the_same(kernel, tmp_path, flags):
    # without 128-bit integers every value goes through snprintf
    path = tmp_path / "lib.so"
    subprocess.run(["cc", *flags, "-ffp-contract=off", "-shared", "-fPIC", "-x", "c", "-o", str(path), "-"],
                   input=_rk4.SOURCE.read_bytes(), check=True, capture_output=True)
    other = _rk4._load(str(path))
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
        rng.choice((-1.0, 1.0), 20_000) * 10.0 ** rng.uniform(-7.0, 18.0, 20_000),
        np.arange(20_000) * 1e-3,
        _edges(),
    ])
    printed = _printed(kernel, values)
    assert _printed(other, values) == printed
    assert printed == ["%.17g" % v for v in values.tolist()]

