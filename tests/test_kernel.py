"""The time-blocked integration core against textbook steps, bit for bit.

The oracles below are the schoolbook RK4 and Henon updates, returning fresh
tuples; they work on Python floats and, elementwise, on numpy arrays.  Every
state the core yields must equal theirs exactly, at every width, one orbit
included, across block boundaries, on every path: the compiled Lorenz and
map steps where the library builds, and otherwise each system's textbook
step, with the block written once (on Python floats for one orbit).
"""

import collections
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import on_both_paths

from chaoswpt import _rk4, dynamics, montecarlo
from chaoswpt.dynamics import (
    DEFAULT_DIVERGENCE_BOUND,
    HenonParams,
    LorenzParams,
    ScalingFactors,
    block_rows,
    integrate_lorenz,
    iterate_henon,
    rate_constants,
    sample_blocks,
    steps_for_horizon,
)
from chaoswpt.errors import DivergenceError
from chaoswpt.montecarlo import EnsembleConfig, SystemConfig, run_ensemble

CHAOTIC = LorenzParams(sigma=10.0, r=28.0, beta=8.0 / 3.0)
HENON = HenonParams(1.4, 0.3)
DT = 1e-3


def oracle_rates(s, params, eps):
    x, y, z = s
    return (
        params.sigma * ((eps.eps_y / eps.eps_x) * y - x),
        (eps.eps_x / eps.eps_y) * x * (params.r - eps.eps_z * z) - y,
        (eps.eps_x * eps.eps_y / eps.eps_z) * x * y - params.beta * z,
    )


def oracle_rk4(s, dt, params, eps):
    k1 = oracle_rates(s, params, eps)
    k2 = oracle_rates(tuple(c + 0.5 * dt * k for c, k in zip(s, k1)), params, eps)
    k3 = oracle_rates(tuple(c + 0.5 * dt * k for c, k in zip(s, k2)), params, eps)
    k4 = oracle_rates(tuple(c + dt * k for c, k in zip(s, k3)), params, eps)
    return tuple(
        c + dt / 6.0 * (a + 2.0 * b + 2.0 * d + e) for c, a, b, d, e in zip(s, k1, k2, k3, k4)
    )


def oracle_henon(s, params):
    x, y = s
    return (y + 1.0 - params.gamma * x * x, params.delta * x)


def lorenz_step(params, eps):
    return dynamics.lorenz_step(DT, rate_constants(params, eps))


def henon(params):
    return dynamics.henon_map_step(params)


def start(dim, width, eps, seed):
    rng = np.random.default_rng(seed)
    if dim == 2:
        return rng.uniform(-0.2, 0.2, (2, width))
    return rng.uniform((-15.0, -15.0, 5.0), (15.0, 15.0, 40.0), (width, 3)).T / eps.eps_x


def assert_core_matches(step, oracle, state):
    dim, width = state.shape
    rows = block_rows(dim, width)
    n_steps = max(2 * rows, 300) + 37
    assert n_steps % rows  # the last block is partial
    expected = tuple(state[j].copy() if width > 1 else float(state[j, 0]) for j in range(dim))
    seen = 0
    for k0, samples, first in sample_blocks(step, state, n_steps):
        assert k0 == seen and (first == -1).all()
        if k0:
            assert samples.shape[0] == min(rows, n_steps + 1 - k0)
        for i in range(samples.shape[0]):
            if k0 + i:
                expected = oracle(expected)
            got = samples[i]
            for j in range(dim):
                assert np.array_equal(got[j], np.broadcast_to(expected[j], (width,))), (k0 + i, j)
        seen = k0 + samples.shape[0]
    assert seen == n_steps + 1


def cap_blocks(block_budget, dim, width):
    """Blocks of at most 1024 rows: a Python oracle then crosses a few block
    boundaries without stepping through whole 256 KB blocks of one orbit."""
    block_budget(min(dynamics._BLOCK_BYTES, 8 * dim * width * 1024))


# unequal factors make every coefficient of the scaled field differ from 1
EPS = [(1.0, 1.0, 1.0), (6.0, 6.0, 6.0), (2.0, 3.0, 5.0)]
WIDTHS = [1, 3, 1000, 5462]


# at width 5462 a block holds two rows, so the steps alternate between them
@on_both_paths(["eps", "width"],
               [pytest.param(eps, width, id=f"eps{i}-{width}") for i, eps in enumerate(EPS) for width in WIDTHS])
def test_lorenz_core_equals_textbook_rk4(rk4_path, block_budget, eps, width):
    cap_blocks(block_budget, 3, width)
    scaling = ScalingFactors(*eps)
    assert_core_matches(
        lorenz_step(CHAOTIC, scaling),
        lambda s: oracle_rk4(s, DT, CHAOTIC, scaling),
        start(3, width, scaling, seed=width),
    )


# at width 5462 a block holds two rows
@on_both_paths(["width"], [pytest.param(width, id=str(width)) for width in WIDTHS])
def test_henon_core_equals_textbook_map(rk4_path, block_budget, width):
    cap_blocks(block_budget, 2, width)
    assert_core_matches(henon(HENON), lambda s: oracle_henon(s, HENON), start(2, width, None, seed=width))


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("dim", [2, 3])
def test_zero_steps_yield_the_start_alone(rk4_path, dim, width):
    state = start(dim, width, ScalingFactors(), seed=width)
    step = henon(HENON) if dim == 2 else lorenz_step(CHAOTIC, ScalingFactors())
    [(k0, samples, first)] = list(sample_blocks(step, state, 0))
    assert k0 == 0 and np.array_equal(samples, state[None]) and list(first) == [-1] * width


@pytest.mark.parametrize("dim,width", [(3, 5462), (2, 8193)])
def test_core_equals_textbook_steps_where_a_block_budget_holds_one_row(dim, width):
    # from these widths on, a block's byte budget alone would hold one sample row
    if dim == 3:
        scaling = ScalingFactors(2.0, 3.0, 5.0)
        step, oracle = lorenz_step(CHAOTIC, scaling), lambda s: oracle_rk4(s, DT, CHAOTIC, scaling)
    else:
        scaling, step, oracle = None, henon(HENON), lambda s: oracle_henon(s, HENON)
    state = start(dim, width, scaling, seed=width)
    expected = tuple(state.copy())
    for k0, samples, first in sample_blocks(step, state, 9):
        assert (first == -1).all()
        for i, got in enumerate(samples):
            if k0 + i:
                expected = oracle(expected)
            assert all(np.array_equal(got[j], expected[j]) for j in range(dim)), k0 + i


def test_public_integrators_equal_textbook_steps():
    eps = ScalingFactors(6.0, 6.0, 6.0)
    traj = integrate_lorenz((0.5, -1.0, 4.0), CHAOTIC, eps, dt=DT, horizon=2.5)
    s = (0.5, -1.0, 4.0)
    for row in traj.samples:
        assert tuple(row) == s
        s = oracle_rk4(s, DT, CHAOTIC, eps)
    traj = iterate_henon((0.1, -0.2), HENON, n_steps=2500)
    s = (0.1, -0.2)
    for row in traj.samples:
        assert tuple(row) == s
        s = oracle_henon(s, HENON)
    # no step, or a horizon shorter than one: the orbit is its start
    assert iterate_henon((0.1, 0.2), HenonParams(), n_steps=0).samples.tolist() == [[0.1, 0.2]]
    assert integrate_lorenz((1.0, 2.0, 3.0), LorenzParams(), horizon=0.0005).samples.tolist() == [[1.0, 2.0, 3.0]]


@pytest.mark.parametrize("initial", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
def test_a_wrong_length_start_is_named_by_its_count(initial):
    with pytest.raises(ValueError, match=f"^initial must have 3 components, got {len(initial)}$"):
        integrate_lorenz(initial, LorenzParams())
    with pytest.raises(ValueError, match=f"^initial must have 2 components, got {len(initial) - 1}$"):
        iterate_henon(initial[1:], HenonParams())


def _orbit(oracle, s, n):
    out = [s]
    for _ in range(n):
        s = oracle(s)
        out.append(s)
    return out


def _record(orbit, k):
    """The first index j >= k whose magnitude exceeds those of the k - 1 before it.

    Returns (j, bound), the bound between the two: from ``orbit[j - i]``, for
    any i <= k, steps 1 .. i-1 stay within ``bound`` and step i exceeds it.
    """
    mags = [max(abs(c) for c in s) for s in orbit]
    for j in range(k, len(orbit)):
        before = max(mags[j - k + 1:j])
        if mags[j] > before:
            return j, 0.5 * (before + mags[j])
    raise AssertionError("no record magnitude in the oracle orbit")


def _record_start(orbit, k):
    """A start whose k-th step sets a record magnitude, and a bound just under it."""
    j, bound = _record(orbit, k)
    return orbit[j - k], bound


def test_divergence_past_the_first_block_keeps_step_and_message(rk4_path, block_budget):
    cap_blocks(block_budget, 3, 1)
    k = block_rows(3, 1) + 3
    orbit = _orbit(lambda s: oracle_rk4(s, DT, CHAOTIC, ScalingFactors()), (1.0, 1.0, 20.0), 20 * k)
    s0, b = _record_start(orbit, k)
    with pytest.raises(DivergenceError) as exc:
        integrate_lorenz(s0, CHAOTIC, dt=DT, horizon=2 * k * DT, divergence_bound=b)
    assert exc.value.step == k
    assert str(exc.value) == f"state magnitude exceeded {b:g} at t={k * DT:g}"

    cap_blocks(block_budget, 2, 1)
    k = block_rows(2, 1) + 3
    orbit = _orbit(lambda s: oracle_henon(s, HENON), (0.1, 0.1), 50 * k)
    s0, b = _record_start(orbit, k)
    with pytest.raises(DivergenceError) as exc:
        iterate_henon(s0, HENON, n_steps=2 * k, divergence_bound=b)
    assert exc.value.step == k
    assert str(exc.value) == f"state magnitude exceeded {b:g} at step {k}"


@pytest.mark.parametrize("width", [1, 3, 1000])
def test_lorenz_orbits_die_from_their_first_bad_sample(rk4_path, block_budget, width):
    # every column starts on one oracle orbit, k steps before a sample that
    # exceeds the bound for the first time: at step K + 3 (K rows a block),
    # mid-block, or never; the start is a transposed, strided view at every
    # width, one included
    cap_blocks(block_budget, 3, width)
    scaling = ScalingFactors(2.0, 3.0, 5.0)
    rows = block_rows(3, width)
    n_steps = 2 * rows + 5
    orbit = _orbit(lambda s: oracle_rk4(s, DT, CHAOTIC, scaling), (1.0, 1.0, 20.0), 8000)
    j, bound = _record(orbit, n_steps + 1)
    ks = ([rows + 3, rows + rows // 2, n_steps + 1] + list(range(1, n_steps + 2)) * width)[:width]
    state = np.array([np.repeat(orbit[j - k], 2) for k in ks]).T[::2]
    assert not state.flags.c_contiguous

    got = []
    for k0, samples, first in sample_blocks(lorenz_step(CHAOTIC, scaling), state, n_steps, bound):
        # the compiled block sums read every block, the start's included, as
        # C-contiguous doubles
        assert samples.flags.c_contiguous, k0
        got.append(samples.copy())
    got = np.concatenate(got)
    assert list(first) == [k if k <= n_steps else -1 for k in ks]
    for c, k in enumerate(ks):
        expected = np.array(orbit[j - k:j - k + n_steps + 1])
        if k <= n_steps:
            # from the block of the first bad sample on, the orbit reads 0
            expected[1 + (k - 1) // rows * rows:] = 0.0
        assert np.array_equal(got[:, :, c], expected), (c, k)


def test_divergence_is_reported_from_first_bad_sample(rk4_path):
    # escaping orbits leave at different steps; the core marks each orbit from
    # its own first bad sample and zeroes it, without numpy warnings
    rng = np.random.default_rng(11)
    state = rng.uniform((-2.0, -1.0), (2.0, 1.0), (500, 2)).T
    n_steps = 211
    first_bad = []
    for x, y in state.T:
        s, hit = (float(x), float(y)), -1
        for k in range(1, n_steps + 1):
            s = oracle_henon(s, HENON)
            if not max(abs(c) for c in s) <= DEFAULT_DIVERGENCE_BOUND:
                hit = k
                break
        first_bad.append(hit)
    rows = block_rows(2, 500)
    steps = {k for k in first_bad if k >= 0}
    assert len(steps) > 1 and any((k - 1) % rows not in (0, rows - 1) for k in steps)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k0, samples, first in sample_blocks(henon(HENON), state, n_steps):
            assert np.isfinite(samples).all()
            assert not samples[:, :, first >= 0].any()
    assert list(first) == first_bad


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("width", [1, 4])
def test_map_orbits_die_at_a_first_sample_beyond_the_bound_or_not_finite(rk4_path, width):
    # under a bound of 1e300, x = 1e200 overflows to -inf at step 1, x = 1e150
    # steps to -1.4e300, beyond the bound but finite, x = 1e140 overflows at
    # step 2, and 0.1 never leaves the bound
    bound = 1e300
    starts = [(1e200, 0.0), (1e150, 0.0), (1e140, 0.5), (0.1, -0.1)][:width]
    n_steps = block_rows(2, width) + 3
    orbits = [_orbit(lambda s: oracle_henon(s, HENON), s0, n_steps) for s0 in starts]
    first_bad = [next((k for k, s in enumerate(o) if not max(abs(c) for c in s) <= bound), -1)
                 for o in orbits]
    assert first_bad == [1, 1, 2, -1][:width]
    assert orbits[0][1][0] == -math.inf

    got = []
    for k0, samples, first in sample_blocks(henon(HENON), np.array(starts).T.copy(), n_steps, bound):
        got.append(samples.copy())
    assert list(first) == first_bad
    got = np.concatenate(got)
    for c, (orbit, k) in enumerate(zip(orbits, first_bad)):
        expected = np.array(orbit)
        if k >= 0:
            # the first block after the start holds step k, so from there on the orbit reads 0
            expected[1:] = 0.0
        assert np.array_equal(got[:, :, c], expected), c


@pytest.mark.filterwarnings("error")
def test_a_non_finite_sample_is_bad_under_an_infinite_bound(rk4_path):
    # 1e200 overflows at the first step of the map and of the flow; abs(inf)
    # <= inf holds, yet a sample that is not finite is bad whatever the bound
    with pytest.raises(DivergenceError) as exc:
        iterate_henon((1e200, 0.0), HENON, n_steps=4, divergence_bound=math.inf)
    assert exc.value.step == 1
    with pytest.raises(DivergenceError) as exc:
        integrate_lorenz((1e200, 1e200, 1e200), CHAOTIC, dt=DT, horizon=4 * DT, divergence_bound=math.inf)
    assert exc.value.step == 1
    # the largest double is within it
    traj = iterate_henon((0.0, sys.float_info.max), HenonParams(1e-300, 0.1), n_steps=1,
                         divergence_bound=math.inf)
    assert traj.samples[1, 0] == sys.float_info.max

    # three orbits of the flow in one block: the one at 1e200 overflows at
    # step 1, and the others keep the textbook bits across a block boundary
    starts = [(1.0, 1.0, 20.0), (1e200, 1e200, 1e200), (-5.0, 3.0, 25.0)]
    n_steps = block_rows(3, 3) + 3
    scaling = ScalingFactors()
    got = []
    for k0, samples, first in sample_blocks(lorenz_step(CHAOTIC, scaling), np.array(starts).T.copy(), n_steps,
                                            math.inf):
        got.append(samples.copy())
    assert list(first) == [-1, 1, -1]
    got = np.concatenate(got)
    for c in (0, 2):
        expected = _orbit(lambda s: oracle_rk4(s, DT, CHAOTIC, scaling), starts[c], n_steps)
        assert np.array_equal(got[:, :, c], np.array(expected)), c


@pytest.mark.filterwarnings("error")
def test_a_start_beyond_the_bound_or_not_finite_is_bad_at_step_0(rk4_path):
    # the start is checked as every step is, before anything is stepped
    with pytest.raises(DivergenceError) as exc:
        iterate_henon((2e6, 0.0), HenonParams(0.2, 0.1), n_steps=0)
    assert exc.value.step == 0
    assert str(exc.value) == "state magnitude exceeded 1e+06 at step 0"
    with pytest.raises(DivergenceError) as exc:
        integrate_lorenz((math.inf, 0.0, 0.0), CHAOTIC, dt=DT, horizon=4 * DT)
    assert exc.value.step == 0
    assert str(exc.value) == "state magnitude exceeded 1e+06 at t=0"
    # not finite is bad whatever the bound; at the bound is good
    with pytest.raises(DivergenceError) as exc:
        integrate_lorenz((0.0, math.nan, 0.0), CHAOTIC, dt=DT, horizon=4 * DT, divergence_bound=math.inf)
    assert exc.value.step == 0
    assert iterate_henon((-2.0, 0.0), HENON, n_steps=0, divergence_bound=2.0).samples.tolist() == [[-2.0, 0.0]]

    # in a chunk, a bad start's column reads 0 from the start on, and the
    # other orbits keep the textbook bits
    starts = [(0.1, -0.2), (2e6, 0.0), (0.0, -math.inf), (-0.3, 0.1)]
    n_steps = block_rows(2, 4) + 3
    got = []
    for k0, samples, first in sample_blocks(henon(HENON), np.array(starts).T.copy(), n_steps):
        got.append(samples.copy())
    assert list(first) == [-1, 0, 0, -1]
    got = np.concatenate(got)
    assert not got[:, :, 1:3].any()
    for c in (0, 3):
        expected = _orbit(lambda s: oracle_henon(s, HENON), starts[c], n_steps)
        assert np.array_equal(got[:, :, c], np.array(expected)), c


@pytest.mark.parametrize("bound", [2.0, DEFAULT_DIVERGENCE_BOUND, sys.float_info.max])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_sample_at_the_bound_is_good_and_one_ulp_past_it_bad(rk4_path, bound, sign):
    # delta 2 takes (v / 2, 0) to (1 - gamma v v / 4, v), with y exact: v / 2
    # is exact, and the largest double when v is inf.  gamma, the smallest
    # subnormal, keeps gamma x x finite, and the start and x' within the bound
    params = HenonParams(math.ulp(0.0), 2.0)

    def halved(v):
        return sign * min(v / 2.0, sys.float_info.max), 0.0

    traj = iterate_henon(halved(bound), params, n_steps=1, divergence_bound=bound)
    assert traj.samples[1, 1] == sign * bound
    past = math.nextafter(bound, math.inf)
    with pytest.raises(DivergenceError) as exc:
        iterate_henon(halved(past), params, n_steps=1, divergence_bound=bound)
    assert exc.value.step == 1

    # the flow's first step from here grows y past the start's magnitude
    s0 = (1.0, 20.0, 1.0)
    v = np.abs(integrate_lorenz(s0, CHAOTIC, dt=DT, horizon=DT).samples[1]).max()
    assert v > 20.0
    integrate_lorenz(s0, CHAOTIC, dt=DT, horizon=DT, divergence_bound=v)
    with pytest.raises(DivergenceError) as exc:
        integrate_lorenz(s0, CHAOTIC, dt=DT, horizon=DT, divergence_bound=np.nextafter(v, 0.0))
    assert exc.value.step == 1


def test_the_compiled_library_is_called_once_per_block(kernel, monkeypatch, chunk_width):
    calls = collections.Counter()

    def counted(name):
        fn = getattr(kernel, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    # every function of the library, counted
    counting = _rk4.Kernel(*map(counted, _rk4.Kernel._fields))
    monkeypatch.setattr(_rk4, "kernel", lambda: counting)

    integrate_lorenz((1.0, 1.0, 20.0), CHAOTIC, dt=DT, horizon=3000 * DT)
    assert calls == {"lorenz_rows": math.ceil(3000 / block_rows(3, 1))}
    calls.clear()
    # one orbit's blocks hold as many bytes as an ensemble's
    integrate_lorenz((1.0, 1.0, 20.0), CHAOTIC, dt=DT, horizon=30000 * DT)
    assert calls == {"lorenz_rows": math.ceil(30000 / block_rows(3, 1))} == {"lorenz_rows": 3}
    calls.clear()
    iterate_henon((0.1, -0.2), HENON, n_steps=3000)
    assert calls == {"henon_rows": math.ceil(3000 / block_rows(2, 1))}
    calls.clear()
    # two chunks, 64 and 36 realizations wide: one call per block, which
    # also sums and subsamples it, and one settling scan per chunk
    with chunk_width(64):
        run_ensemble(SystemConfig(system="henon", henon=HenonParams(0.2, 0.1),
                                  ensemble=EnsembleConfig(n_realizations=100, horizon=1000.0, seed=3)))
    assert calls == {"henon_rows": math.ceil(1000 / block_rows(2, 64)) + math.ceil(1000 / block_rows(2, 36)),
                     "quiet": 2}
    calls.clear()
    with chunk_width(40):
        run_ensemble(SystemConfig(ensemble=EnsembleConfig(n_realizations=100, horizon=3.0, seed=3)))
    assert calls == {"lorenz_rows": 2 * math.ceil(3000 / block_rows(3, 40)) + math.ceil(3000 / block_rows(3, 20)),
                     "quiet": 3}


def test_each_block_passes_one_traced_entry_point(rk4_path, monkeypatch, block_budget, chunk_width):
    # perfbench/spans.py wraps these two names, tagging each call with its
    # block's realization-steps, and perfbench/test_counts.py sums the tags
    tags = collections.defaultdict(int)

    def traced(name, fn, tag):
        def call(*args, **kwargs):
            tags[name] += tag(args)
            return fn(*args, **kwargs)

        return call

    rk4 = traced("rk4_step", dynamics.rk4_step, lambda args: getattr(args[0], "size", 1))
    monkeypatch.setattr(dynamics, "rk4_step", rk4)
    monkeypatch.setattr(montecarlo, "rk4_step", rk4, raising=False)
    monkeypatch.setattr(montecarlo, "henon_step",
                        traced("henon_step", montecarlo.henon_step, lambda args: getattr(args[0][0], "size", 1)))
    # at most 100 rows a block, so that every run below crosses blocks
    block_budget(8 * 3 * 100)

    def steps(run):
        tags.clear()
        run()
        return dict(tags)

    n = steps_for_horizon(2.5, DT)
    assert steps(lambda: integrate_lorenz((1.0, 1.0, 20.0), CHAOTIC, dt=DT, horizon=2.5)) == {"rk4_step": n}
    flow = EnsembleConfig(n_realizations=5, seed=3, dt=0.01, horizon=3.0)
    with chunk_width(3):
        assert steps(lambda: run_ensemble(SystemConfig(ensemble=flow))) == {"rk4_step": 5 * 300}
        # the map never steps through rk4_step
        henon = SystemConfig(system="henon", henon=HenonParams(0.2, 0.1), ensemble=replace(flow, horizon=700.0))
        assert steps(lambda: run_ensemble(henon)) == {"henon_step": 5 * 700}
    # a fig3 point: one realization
    one = SystemConfig(lorenz=CHAOTIC, ensemble=EnsembleConfig(n_realizations=1, seed=4, horizon=2.5))
    assert steps(lambda: run_ensemble(one)) == {"rk4_step": n}
