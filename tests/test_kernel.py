"""The time-blocked integration core against textbook steps, bit for bit.

The oracles below are the schoolbook RK4 and Henon updates, returning fresh
tuples; they work on Python floats and, elementwise, on numpy arrays.  Every
state the core yields must equal theirs exactly, at every width, one orbit
included, across block boundaries, on every path: the compiled Lorenz step
where it builds and the textbook step copied into the block otherwise (on
Python floats for one orbit), and the map on Python floats for one orbit and
numpy ``out=`` ufuncs for more.
"""

import warnings

import numpy as np
import pytest

from chaoswpt import dynamics
from chaoswpt.dynamics import (
    DEFAULT_DIVERGENCE_BOUND,
    HenonParams,
    LorenzParams,
    ScalingFactors,
    block_rows,
    henon_step,
    integrate_lorenz,
    iterate_henon,
    rate_constants,
    sample_blocks,
)
from chaoswpt.errors import DivergenceError

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
    return lambda s, work: henon_step(s, params, work)


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
    for k0, samples, bad in sample_blocks(step, state, n_steps):
        assert k0 == seen and bad is None
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


# unequal factors make every coefficient of the scaled field differ from 1
EPS = [(1.0, 1.0, 1.0), (6.0, 6.0, 6.0), (2.0, 3.0, 5.0)]


def assert_lorenz_core_matches(width, eps):
    scaling = ScalingFactors(*eps)
    assert_core_matches(
        lorenz_step(CHAOTIC, scaling),
        lambda s: oracle_rk4(s, DT, CHAOTIC, scaling),
        start(3, width, scaling, seed=width),
    )


# at width 5462 a block holds two rows, so the steps alternate between them
@pytest.mark.parametrize("width", [1, 3, 1000, 5462])
@pytest.mark.parametrize("eps", EPS)
def test_lorenz_core_equals_textbook_rk4(width, eps):
    assert_lorenz_core_matches(width, eps)


@pytest.mark.parametrize("width", [1, 3, 1000, 5462])
@pytest.mark.parametrize("eps", EPS)
def test_lorenz_core_on_the_numpy_path_equals_textbook_rk4(numpy_rk4, width, eps):
    assert_lorenz_core_matches(width, eps)


@pytest.mark.parametrize("width", [1, 3, 1000])
def test_henon_core_equals_textbook_map(width):
    assert_core_matches(
        henon(HENON), lambda s: oracle_henon(s, HENON), start(2, width, None, seed=width)
    )


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
    for k0, samples, bad in sample_blocks(step, state, 9):
        assert bad is None
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


def assert_divergence_past_the_first_block_keeps_step_and_message():
    k = block_rows(3, 1) + 3
    orbit = _orbit(lambda s: oracle_rk4(s, DT, CHAOTIC, ScalingFactors()), (1.0, 1.0, 20.0), 20 * k)
    s0, b = _record_start(orbit, k)
    with pytest.raises(DivergenceError) as exc:
        integrate_lorenz(s0, CHAOTIC, dt=DT, horizon=2 * k * DT, divergence_bound=b)
    assert exc.value.step == k
    assert str(exc.value) == f"state magnitude exceeded {b:g} at t={k * DT:g}"

    k = block_rows(2, 1) + 3
    orbit = _orbit(lambda s: oracle_henon(s, HENON), (0.1, 0.1), 50 * k)
    s0, b = _record_start(orbit, k)
    with pytest.raises(DivergenceError) as exc:
        iterate_henon(s0, HENON, n_steps=2 * k, divergence_bound=b)
    assert exc.value.step == k
    assert str(exc.value) == f"state magnitude exceeded {b:g} at step {k}"


def test_divergence_past_the_first_block_keeps_step_and_message():
    assert_divergence_past_the_first_block_keeps_step_and_message()


def test_divergence_past_the_first_block_on_the_numpy_path_keeps_step_and_message(numpy_rk4):
    assert_divergence_past_the_first_block_keeps_step_and_message()


@pytest.mark.parametrize("width", [1, 3, 1000])
def test_lorenz_orbits_die_from_their_first_bad_sample(rk4_path, width):
    # every column starts on one oracle orbit, k steps before a sample that
    # exceeds the bound for the first time: at step K + 3 (K rows a block),
    # mid-block, or never; the start is a transposed, strided view at every
    # width, one included
    scaling = ScalingFactors(2.0, 3.0, 5.0)
    rows = block_rows(3, width)
    n_steps = 2 * rows + 5
    orbit = _orbit(lambda s: oracle_rk4(s, DT, CHAOTIC, scaling), (1.0, 1.0, 20.0), 8000)
    j, bound = _record(orbit, n_steps + 1)
    ks = ([rows + 3, rows + rows // 2, n_steps + 1] + list(range(1, n_steps + 2)) * width)[:width]
    state = np.array([np.repeat(orbit[j - k], 2) for k in ks]).T[::2]
    assert not state.flags.c_contiguous

    first_bad = [None] * width
    got = []
    for k0, samples, bad in sample_blocks(lorenz_step(CHAOTIC, scaling), state, n_steps, bound):
        # the compiled block sums read every block, the start's included, as
        # C-contiguous doubles
        assert samples.flags.c_contiguous, k0
        got.append(samples.copy())
        if bad is not None:
            for c in np.flatnonzero(bad.any(axis=0)):
                if first_bad[c] is None:
                    first_bad[c] = k0 + int(np.argmax(bad[:, c]))
    got = np.concatenate(got)
    assert first_bad == [k if k <= n_steps else None for k in ks]
    for c, k in enumerate(ks):
        expected = np.array(orbit[j - k:j - k + n_steps + 1])
        if k <= n_steps:
            # from the block of the first bad sample on, the orbit reads 0
            expected[1 + (k - 1) // rows * rows:] = 0.0
        assert np.array_equal(got[:, :, c], expected), (c, k)


def test_divergence_is_reported_from_first_bad_sample():
    # escaping orbits leave at different steps; the core marks each orbit from
    # its own first bad sample and zeroes it, without numpy warnings
    rng = np.random.default_rng(11)
    state = rng.uniform((-2.0, -1.0), (2.0, 1.0), (500, 2)).T
    n_steps = 211
    first_bad = []
    for x, y in state.T:
        s, hit = (float(x), float(y)), None
        for k in range(1, n_steps + 1):
            s = oracle_henon(s, HENON)
            if not max(abs(c) for c in s) <= DEFAULT_DIVERGENCE_BOUND:
                hit = k
                break
        first_bad.append(hit)
    rows = block_rows(2, 500)
    steps = {k for k in first_bad if k is not None}
    assert len(steps) > 1 and any((k - 1) % rows not in (0, rows - 1) for k in steps)

    seen = [None] * 500
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k0, samples, bad in sample_blocks(henon(HENON), state, n_steps):
            assert np.isfinite(samples).all()
            if bad is None:
                continue
            for i in np.flatnonzero(bad.any(axis=0)):
                if seen[i] is None:
                    seen[i] = k0 + int(np.argmax(bad[:, i]))
            assert not samples[:, :, [i for i, k in enumerate(seen) if k is not None]].any()
    assert seen == first_bad
