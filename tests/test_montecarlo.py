import contextlib
import functools
import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import on_both_paths

from chaoswpt import dynamics, harvest, montecarlo

from chaoswpt.dynamics import (
    STATE_DIM,
    HenonParams,
    LorenzParams,
    ScalingFactors,
    Trajectory,
    block_rows,
    henon_map_step,
    integrate_lorenz,
    iterate_henon,
    lorenz_step,
    rate_constants,
    sample_blocks,
    steps_for_horizon,
    transient_cutoff_index,
)
from chaoswpt.errors import DivergenceError, InvalidSweepError
from chaoswpt.harvest import LinkBudget, coefficients, dc_from_moments
from chaoswpt.io_utils import HARVEST_HEADER, csv_text, harvest_row
from chaoswpt.montecarlo import (
    EnsembleConfig,
    HENON_INIT_BOX,
    LORENZ_INIT_BOX,
    SweepSpec,
    SystemConfig,
    detect_steady_state,
    initial_points,
    multisine_result,
    patched_config,
    run_ensemble,
    sweep,
    with_link,
)

HENON_FP_X = 0.9221443851123801


def _lorenz_cfg(n=100, horizon=40.0, seed=1, **kw):
    return SystemConfig(
        ensemble=EnsembleConfig(n_realizations=n, horizon=horizon, seed=seed), **kw
    )


def _henon_cfg(n=200, horizon=100.0, seed=3, params=HenonParams(0.2, 0.1), **kw):
    return SystemConfig(
        system="henon",
        henon=params,
        ensemble=EnsembleConfig(n_realizations=n, horizon=horizon, seed=seed),
        **kw,
    )


def test_detect_constant_trajectory_is_zero():
    traj = Trajectory(1.0, np.ones((50, 2)), 0)
    assert detect_steady_state(traj, tol=1e-9) == 0


def test_detect_requires_certifying_window():
    # settles only over the final 3 of 100 samples: too little history to certify
    col = np.concatenate([np.linspace(0, 10, 97), np.full(3, 10.0)])
    traj = Trajectory(1.0, col.reshape(-1, 1), 0)
    assert detect_steady_state(traj, tol=1e-6) is None


def test_detect_settling_time_lorenz(std_params):
    traj = integrate_lorenz((1.0, -5.0, 20.0), std_params, horizon=40.0)
    idx = detect_steady_state(traj, tol=1e-3)
    assert idx is not None
    assert idx * traj.dt < 25.0
    # at a coarse tolerance the settling looks much faster
    coarse = detect_steady_state(traj, tol=0.5)
    assert coarse * traj.dt < 10.0


def test_detect_chaotic_regime_returns_none():
    traj = integrate_lorenz((1.0, -5.0, 20.0), LorenzParams(10.0, 30.0, 8 / 3), horizon=30.0)
    assert detect_steady_state(traj, tol=1e-3) is None


def test_detect_tol_validation(std_params):
    traj = Trajectory(1.0, np.ones((10, 1)), 0)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            detect_steady_state(traj, tol=tol)


def _chunk(*columns):
    """A (n, dim, width) detection buffer, one column per (n, dim) orbit."""
    return np.stack([np.asarray(c, dtype=float).reshape(len(c), -1) for c in columns], axis=-1)


def _orbit(head, tail, dim=2):
    # ``head`` rows of distinct values, then ``tail`` equal rows
    rows = np.concatenate([10.0 + np.arange(head), np.full(tail, 3.0)])
    return np.stack([rows * (c + 1) for c in range(dim)], axis=1)


def _detection_cases():
    n = 50  # a certifying suffix needs max(2, ceil(0.1 n)) = 5 rows
    k = np.arange(n)
    settling = np.stack([3.0 + 2.0 * 0.5**k, -1.0 + 0.8**k], axis=1)
    swinging = np.stack([(-1.0) ** k, np.ones(n)], axis=1)
    constant = np.full((n, 2), 7.5)
    dead = _orbit(n - 20, 20)
    dead[30:] = 0.0
    # the last rows swing by exactly 0.25: quiet at tol 0.25, not below it
    edge = np.stack([np.concatenate([np.linspace(0.0, 9.0, n - 10), np.tile([1.0, 1.25], 5)]),
                     np.full(n, 2.0)], axis=1)
    return [
        (_chunk(constant, settling, swinging, _orbit(n - 5, 5), _orbit(n - 4, 4), dead, edge), 1e-3),
        (_chunk(settling, edge, _orbit(n - 10, 10), edge), 0.25),
        (_chunk(settling[:, :1], swinging[:, :1], constant[:, :1]), 1e-6),
        (_chunk(_orbit(0, 1, 3), _orbit(0, 1, 3)), 1e-3),
        (_chunk(_orbit(0, 2, 3), _orbit(1, 1, 3), _orbit(2, 0, 3)), 1e-3),
        (_chunk(dead, np.zeros((n, 2)), swinging, dead), 1e-3),
        # 41 rows need ceil(4.1) = 5 quiet ones
        (_chunk(_orbit(36, 5), _orbit(37, 4)), 1e-3),
    ]


@on_both_paths(["det", "tol"],
               [pytest.param(det, tol, id=f"det{i}-{tol}") for i, (det, tol) in enumerate(_detection_cases())])
def test_chunk_detection_matches_detect_steady_state(rk4_path, det, tol):
    # the chunk scan gives each orbit what detect_steady_state gives it alone
    got = montecarlo._first_quiet_index(det, tol)
    assert got.shape == (det.shape[2],)
    for j in range(det.shape[2]):
        alone = detect_steady_state(Trajectory(1.0, det[:, :, j].copy(), 0), tol)
        assert got[j] == (-1 if alone is None else alone), j


def test_chunk_detection_hand_values(rk4_path):
    (det, tol), (det_edge, tol_edge) = _detection_cases()[:2]
    # constant, settling, swinging, 5-row and 4-row quiet suffixes, dead, edge
    idx = montecarlo._first_quiet_index(det, tol)
    assert list(idx[[0, 2, 3, 4, 5, 6]]) == [0, -1, 45, -1, 30, -1]
    assert 0 < idx[1] < 45
    assert montecarlo._first_quiet_index(det_edge, tol_edge)[1] == 40
    assert montecarlo._first_quiet_index(det_edge, np.nextafter(tol_edge, 0.0))[1] == -1
    assert list(montecarlo._first_quiet_index(*_detection_cases()[-1])) == [36, -1]


def test_initial_points_reproducible_and_in_box():
    cfg = EnsembleConfig(n_realizations=40, seed=7)
    a = initial_points(cfg, LORENZ_INIT_BOX)
    b = initial_points(cfg, LORENZ_INIT_BOX)
    assert np.array_equal(a, b)
    lows = np.array(LORENZ_INIT_BOX)[:, 0]
    highs = np.array(LORENZ_INIT_BOX)[:, 1]
    assert ((a >= lows) & (a <= highs)).all()


def test_initial_points_keyed_per_realization():
    # realization i's draw depends only on (seed, i), so prefixes agree and a
    # manually-built jumped stream reproduces any single row
    big = initial_points(EnsembleConfig(n_realizations=40, seed=7), LORENZ_INIT_BOX)
    small = initial_points(EnsembleConfig(n_realizations=14, seed=7), LORENZ_INIT_BOX)
    assert np.array_equal(big[:14], small)
    gen = np.random.Generator(np.random.Philox(key=7).jumped(13))
    lows = np.array(LORENZ_INIT_BOX)[:, 0]
    highs = np.array(LORENZ_INIT_BOX)[:, 1]
    assert np.array_equal(big[13], gen.uniform(lows, highs))
    # every row, at the extreme keys and for a box of width zero (fig3's
    # point), for one orbit (fig3's ensemble) and for 50
    point = ((2.0, 2.0), (-1.0, -1.0), (25.0, 25.0))
    for seed in (0, 7, 2**64 - 1):
        for box in (LORENZ_INIT_BOX, HENON_INIT_BOX, point):
            bounds = np.array(box)
            for n in (1, 50):
                pts = initial_points(EnsembleConfig(n_realizations=n, seed=seed), box)
                assert pts.shape == (n, len(box))
                for i, row in enumerate(pts):
                    gen = np.random.Generator(np.random.Philox(key=seed).jumped(i))
                    assert np.array_equal(row, gen.uniform(bounds[:, 0], bounds[:, 1])), (seed, box, n, i)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.sampled_from((1, 4, 33)), data=st.data())
def test_vectorised_philox_blocks_equal_jumped_streams(seed, n, data):
    # counters whose 32-bit halves carry into each other, and the last ones
    first = data.draw(st.one_of(st.integers(0, 2**64 - n), st.integers(2**32 - n, 2**32 + 4),
                                st.integers(2**64 - n - 4, 2**64 - n)), label="first")
    blocks = montecarlo._philox_blocks(seed, first, n)
    assert blocks.shape == (n, 4) and blocks.dtype == np.uint64
    for j, block in enumerate(blocks):
        expected = np.random.Philox(key=seed).jumped(first + j).random_raw(4)
        assert np.array_equal(block, expected), j


def test_initial_points_differ_across_seeds():
    a = initial_points(EnsembleConfig(n_realizations=10, seed=1), HENON_INIT_BOX)
    b = initial_points(EnsembleConfig(n_realizations=10, seed=2), HENON_INIT_BOX)
    assert not np.array_equal(a, b)


def test_run_ensemble_seed_reproducible():
    a = run_ensemble(_lorenz_cfg(n=30, horizon=20.0, seed=5))
    b = run_ensemble(_lorenz_cfg(n=30, horizon=20.0, seed=5))
    assert a.m2_mean == b.m2_mean
    assert a.m4_mean == b.m4_mean
    assert a.papr_db_mean == b.papr_db_mean
    c = run_ensemble(_lorenz_cfg(n=30, horizon=20.0, seed=6))
    assert c.m2_mean != a.m2_mean


def test_single_realization_matches_scalar_integrator(std_params):
    # the batched engine steps through the same arithmetic as integrate_lorenz
    box = ((2.0, 2.0), (-1.0, -1.0), (25.0, 25.0))
    cfg = _lorenz_cfg(n=1, horizon=10.0)
    cfg = replace(cfg, ensemble=replace(cfg.ensemble, init_box=box))
    res = run_ensemble(cfg)
    traj = integrate_lorenz((2.0, -1.0, 25.0), std_params, horizon=10.0)
    x = traj.samples[traj.transient_cutoff:, 0]
    assert res.m2_mean == pytest.approx(np.mean(x * x), rel=1e-12)
    assert res.m4_mean == pytest.approx(np.mean(x**4), rel=1e-12)
    assert res.m2_stderr == 0.0


def test_single_realization_matches_scalar_henon():
    box = ((0.3, 0.3), (-0.2, -0.2))
    cfg = _henon_cfg(n=1, horizon=100.0)
    cfg = replace(cfg, ensemble=replace(cfg.ensemble, init_box=box))
    res = run_ensemble(cfg)
    traj = iterate_henon((0.3, -0.2), HenonParams(0.2, 0.1), n_steps=100)
    x = traj.samples[traj.transient_cutoff:, 0]
    assert res.m2_mean == pytest.approx(np.mean(x * x), rel=1e-12)


def test_ensemble_lorenz_moments_match_closed_form(std_params):
    res = run_ensemble(_lorenz_cfg(n=100, horizon=40.0))
    m2 = std_params.beta * (std_params.r - 1.0)
    assert res.m2_mean == pytest.approx(m2, rel=1e-2)
    assert res.m4_mean == pytest.approx(m2 * m2, rel=2e-2)
    assert res.n_diverged == 0
    assert res.fraction_converged == 1.0
    assert res.report.stable
    assert res.report.eta_analytic == pytest.approx(res.report.eta_empirical, rel=1e-2)


def test_ensemble_henon_moments_match_fixed_point():
    res = run_ensemble(_henon_cfg())
    assert res.m2_mean == pytest.approx(HENON_FP_X**2, rel=1e-9)
    assert res.fraction_converged == 1.0
    assert res.mean_convergence_time < 100.0


def test_ensemble_scaled_moments(std_params, eps6):
    res = run_ensemble(replace(_lorenz_cfg(n=50, horizon=40.0), scaling=eps6))
    assert res.m2_mean == pytest.approx(std_params.beta * 11.0 / 36.0, rel=1e-2)


def test_ensemble_all_diverged():
    # every orbit started this far out escapes the map's basin
    cfg = _henon_cfg(n=20, params=HenonParams(1.4, 0.3))
    cfg = replace(cfg, ensemble=replace(cfg.ensemble, init_box=((2.0, 4.0), (-1.0, 1.0))))
    res = run_ensemble(cfg)
    assert res.n_diverged == 20
    assert res.fraction_converged == 0.0
    assert math.isnan(res.m2_mean)
    assert res.report.eta_empirical is None
    assert res.report.papr_db is None
    assert math.isnan(res.mean_convergence_time)


#: ensembles of which some orbits overflow a few steps into their first
#: block: flow steps of 0.12 are too long for RK4 to stay stable from some
#: starts, and map orbits started off the attractor escape it
_OVERFLOWING = {
    "lorenz": SystemConfig(lorenz=LorenzParams(10.0, 28.0, 8.0 / 3.0),
                           ensemble=EnsembleConfig(n_realizations=50, dt=0.12, horizon=20.0)),
    "henon": SystemConfig(system="henon", henon=HenonParams(1.4, 0.3),
                          ensemble=EnsembleConfig(n_realizations=50, horizon=150.0, seed=3,
                                                  init_box=((-2.0, 2.0), (-1.0, 1.0)))),
}


@pytest.mark.parametrize("system", sorted(_OVERFLOWING))
def test_an_orbit_that_overflows_mid_block_warns_nothing_and_records_nan(rk4_path, system):
    # the block steps add an orbit into the sums and the settling subsample
    # before its columns are zeroed, inf and NaN included; pytest turns any
    # RuntimeWarning into an error
    cfg = _OVERFLOWING[system]
    ens = cfg.ensemble
    if system == "lorenz":
        n_steps = steps_for_horizon(ens.horizon, ens.dt)
        step = lorenz_step(ens.dt, rate_constants(cfg.lorenz, cfg.scaling))
    else:
        n_steps = steps_for_horizon(ens.horizon, 1.0)
        step = henon_map_step(cfg.henon)
    start = initial_points(ens, montecarlo.initial_box(cfg)).T.copy()
    # each orbit's first sample that is not finite
    for _, _, overflow in sample_blocks(step, start, n_steps, math.inf):
        pass
    overflowed = overflow >= 0
    rows = block_rows(STATE_DIM[system], ens.n_realizations)
    assert 0 < overflowed.sum() < ens.n_realizations
    # none on a block's first or last row
    assert np.isin((overflow[overflowed] - 1) % rows, (0, rows - 1), invert=True).all()

    m2, m4, papr_db, conv_time = _records(cfg, None, None)
    diverged = np.isnan(m2)
    assert np.array_equal(diverged, overflowed)
    for record in (m4, papr_db, conv_time):
        assert np.isnan(record[diverged]).all()
    for record in (m4, papr_db):
        assert np.isfinite(record[~diverged]).all()


def test_with_no_transient_the_start_is_summed_and_subsampled(rk4_path):
    # orbits that start within 1e-5 of the map's fixed point stay within
    # tol of it from their start, sample 0: each settles at time 0, and its
    # m2 holds the start's square
    gamma, delta, x, n_steps = 0.2, 0.1, HENON_FP_X, 50
    box = ((x - 1e-5, x + 1e-5), (delta * x - 1e-5, delta * x + 1e-5))
    cfg = _henon_cfg(n=20, horizon=float(n_steps), params=HenonParams(gamma, delta))
    cfg = replace(cfg, ensemble=replace(cfg.ensemble, transient_fraction=0.0, init_box=box))
    m2, _, _, conv_time = _records(cfg, None, None)
    assert (conv_time == 0.0).all()
    for (x, y), got in zip(initial_points(cfg.ensemble, box), m2):
        s2 = 0.0 + x * x
        for _ in range(n_steps):
            x, y = y + 1.0 - gamma * x * x, delta * x
            s2 += x * x
        assert got == s2 / (n_steps + 1)


@pytest.mark.parametrize("cfg", [_lorenz_cfg(n=5, horizon=0.0005), _henon_cfg(n=5, horizon=0.5)],
                         ids=["lorenz", "henon"])
def test_an_ensemble_shorter_than_a_step_measures_its_starts(cfg):
    res = run_ensemble(cfg)
    x = initial_points(cfg.ensemble, montecarlo.initial_box(cfg))[:, 0]
    assert res.m2_mean == float(np.mean(x * x))
    assert (res.papr_db_mean, res.fraction_converged, res.n_diverged) == (0.0, 0.0, 0)


def _assert_identical(a, b):
    # repr prints each float exactly, NaN as nan, and tells -0.0 from 0.0
    for f in fields(a):
        assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name


@pytest.mark.parametrize("system", ["lorenz", "henon"])
def test_ensemble_independent_of_chunk_width(rk4_path, chunk_width, system):
    # on the numpy path a chunk of one orbit takes the textbook step on Python
    # floats and a wider one on arrays, with the same bits, and a block of
    # 2000 map orbits is summed row by row, narrower ones accumulated
    if system == "lorenz":
        n = 12
        cfg = replace(_lorenz_cfg(n=n), ensemble=EnsembleConfig(n_realizations=n, dt=0.01, horizon=30.0))
    else:
        n = 2000
        cfg = _henon_cfg(n=n, params=HenonParams(1.4, 0.3))
        cfg = replace(cfg, ensemble=replace(cfg.ensemble, init_box=((-2.0, 2.0), (-1.0, 1.0))))
    results = []
    for chunk in (1, 7, n):
        with chunk_width(chunk):
            results.append(run_ensemble(cfg))
    if system == "lorenz":
        assert results[0].fraction_converged > 0
    else:
        assert 0 < results[0].n_diverged < n
    for other in results[1:]:
        _assert_identical(results[0], other)


def _records(cfg, chunk, chunk_width):
    """The per-realization (m2, m4, papr_db, conv_time) run_ensemble summarises, at chunk width ``chunk``.

    A ``chunk`` of None keeps the width the byte budget gives.
    """
    seen = []
    aggregate = montecarlo._aggregate

    def capture(config, stable, *records):
        seen.append(records)
        return aggregate(config, stable, *records)

    forced = contextlib.nullcontext() if chunk is None else chunk_width(chunk)
    with pytest.MonkeyPatch.context() as mp, forced:
        mp.setattr(montecarlo, "_aggregate", capture)
        run_ensemble(cfg)
    return seen[0]


_MOST = 16


def _mixed_cfg(system, n):
    # flow orbits of which some settle within the horizon and some do not;
    # map orbits of which some settle and some diverge
    if system == "lorenz":
        return SystemConfig(ensemble=EnsembleConfig(n_realizations=n, dt=0.01, horizon=22.0))
    cfg = _henon_cfg(n=n)
    return replace(cfg, ensemble=replace(cfg.ensemble, init_box=((-8.0, 8.0), (-1.0, 1.0))))


@functools.cache
def _reference_records(system, path, chunk_width):
    records = _records(_mixed_cfg(system, _MOST), _MOST, chunk_width)
    m2, conv_time = records[0], records[3]
    assert np.isfinite(conv_time).any() and not np.isfinite(conv_time).all()
    if system == "henon":
        assert np.isfinite(m2).any() and not np.isfinite(m2).all()
    return records


@settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(system=st.sampled_from(["lorenz", "henon"]), n=st.integers(1, _MOST), chunk=st.integers(1, _MOST + 1))
def test_a_realizations_record_does_not_depend_on_ensemble_size_or_chunk_width(rk4_path, chunk_width, system, n,
                                                                                chunk):
    # realization i's draw depends on (seed, i) alone, and so must every value
    # it contributes; NaN marks a diverged or unsettled one in both runs
    reference = _reference_records(system, rk4_path, chunk_width)
    got = _records(_mixed_cfg(system, n), chunk, chunk_width)
    for name, a, b in zip(("m2", "m4", "papr_db", "conv_time"), got, reference):
        assert np.array_equal(a, b[:n], equal_nan=True), name


def test_no_block_budget_changes_a_bit(rk4_path, block_budget):
    # the README promises results that do not depend on the block length: a
    # budget of one byte steps in 2-row blocks, the default one orbit's flow
    # in 10,922-row ones and map in 16,384-row ones, and 16 times the default
    # runs each orbit below in one block
    got = []
    for nbytes in (1, dynamics._BLOCK_BYTES, 16 * dynamics._BLOCK_BYTES):
        block_budget(nbytes)
        flow = integrate_lorenz((1.0, 1.0, 20.0), LorenzParams(10.0, 28.0, 8.0 / 3.0), horizon=25.0).samples
        orbit = iterate_henon((0.1, -0.2), HenonParams(1.4, 0.3), n_steps=40000).samples
        flows, maps = (_records(_mixed_cfg(system, _MOST), None, None) for system in ("lorenz", "henon"))
        got.append([a.tobytes() for a in (flow, orbit, *flows, *maps)])
    # the ensembles hold settled, unsettled and diverged members
    assert all(np.isfinite(conv_time).any() and np.isnan(conv_time).any() for conv_time in (flows[3], maps[3]))
    assert np.isnan(maps[0]).any()
    assert got[1] == got[0] and got[2] == got[0]


@pytest.mark.parametrize("chunk", [None, 11])
@pytest.mark.parametrize("system", ["lorenz", "henon"])
def test_each_settling_time_is_detect_steady_states_on_the_realizations_own_orbit(rk4_path, chunk_width, system,
                                                                                   chunk):
    # the flow's detection stride (10) divides none of its block lengths, 682
    # rows (16 orbits wide), 992 (11 wide) and 2184 (5 wide), and each is
    # shorter than the run, so each block's subsample starts at its own offset
    # into the block
    if system == "lorenz":
        cfg, stride = _mixed_cfg(system, _MOST), 10
        dt = cfg.ensemble.dt
        n_steps = steps_for_horizon(cfg.ensemble.horizon, dt)
        for width in {_MOST} if chunk is None else {chunk, _MOST % chunk or chunk}:
            assert block_rows(3, width) % stride and block_rows(3, width) < n_steps, width

        def orbit(point):
            return integrate_lorenz(point, cfg.lorenz, cfg.scaling, dt, cfg.ensemble.horizon).samples
    else:
        cfg, stride, dt = _mixed_cfg(system, 200), 1, 1.0

        def orbit(point):
            return iterate_henon(point, cfg.henon, int(cfg.ensemble.horizon)).samples
    conv_time = _records(cfg, chunk, chunk_width)[3]
    box = montecarlo.initial_box(cfg)
    expected = []
    for point in initial_points(cfg.ensemble, box):
        try:
            idx = detect_steady_state(Trajectory(dt * stride, orbit(point)[::stride], 0), cfg.ensemble.steady_state_tol)
        except DivergenceError:
            idx = None
        expected.append(math.nan if idx is None else idx * stride * dt)
    assert np.isfinite(expected).any() and not np.isfinite(expected).all()
    assert np.array_equal(conv_time, expected, equal_nan=True)


def test_a_chunk_frees_its_detection_buffer_before_the_next_one_is_allocated(chunk_width):
    # the detection buffer dominates a long map ensemble's memory: 10,001 rows
    # of 2 x 64 doubles, 10 MB a chunk
    peaks = []
    with chunk_width(64):
        for n in (64, 128):
            peaks.append(_traced_peak(_henon_cfg(n=n, horizon=10000.0)))
    assert peaks[0] > 10e6
    assert peaks[1] <= 1.1 * peaks[0]


def _traced_peak(cfg):
    """The most bytes numpy and Python held at once while ``cfg``'s ensemble ran."""
    tracemalloc.start()
    try:
        run_ensemble(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_ensembles_detection_buffer_stays_within_its_byte_budget():
    # in one chunk, 1024 map orbits over 10^4 iterations would hold a 164 MB
    # detection buffer and 5000 over 1000 one of 80 MB; chunks of 48 and 496
    # orbits keep each under 8 MB
    for n, horizon in ((1024, 10000.0), (5000, 1000.0)):
        assert _traced_peak(_henon_cfg(n=n, horizon=horizon)) < 12e6, n


def test_full_scale_fig4s_flow_chunks_stay_wide_enough_for_the_kernel():
    # 10,001 subsample rows are full-scale fig4's 10^6 flow steps, which the
    # budget keeps at least 32 orbits wide (see _DETECTION_BYTES)
    assert montecarlo._detection_grid(steps_for_horizon(1000.0, 1e-3), 1e-3, 3)[2] >= 32


@settings(max_examples=200, deadline=None)
@given(n_steps=st.integers(0, 10**9), dt=st.sampled_from([0.001, 0.01, 0.1, 1.0]), dim=st.sampled_from([2, 3]))
def test_a_chunk_is_the_most_whole_vectors_whose_detection_buffer_fits_the_budget(n_steps, dt, dim):
    _, n_det, width = montecarlo._detection_grid(n_steps, dt, dim)
    vector = 8 * 8 * dim * n_det  # bytes of one 8-wide vector of detection rows
    assert width % 8 == 0 and width >= 8
    if vector <= montecarlo._DETECTION_BYTES:
        assert width * dim * n_det * 8 <= montecarlo._DETECTION_BYTES < (width + 8) * dim * n_det * 8
    else:
        assert width == 8


def test_ensemble_divergence_inside_a_block_matches_oracle_loop(rk4_path):
    # realizations leave the map's basin at different steps, most of them
    # inside a block; the engine must drop exactly those, quietly
    gamma, delta, bound = 1.4, 0.3, 1e6
    cfg = _henon_cfg(n=300, horizon=150.0, params=HenonParams(gamma, delta))
    cfg = replace(cfg, ensemble=replace(cfg.ensemble, init_box=((-2.0, 2.0), (-1.0, 1.0))))
    n_steps = 150
    cutoff = (n_steps + 1) // 2
    m2, m4, escapes = [], [], set()
    for x, y in initial_points(cfg.ensemble, cfg.ensemble.init_box):
        s2 = s4 = 0.0
        for k in range(1, n_steps + 1):
            x, y = y + 1.0 - gamma * x * x, delta * x
            if not (abs(x) <= bound and abs(y) <= bound):
                escapes.add(k)
                break
            if k >= cutoff:
                s2 += x * x
                s4 += x * x * (x * x)
        else:
            m2.append(s2 / (n_steps + 1 - cutoff))
            m4.append(s4 / (n_steps + 1 - cutoff))
    assert len(escapes) > 3 and 0 < len(m2) < 300

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_ensemble(cfg)
    assert res.n_diverged == 300 - len(m2)
    for got, values in ((res.m2_mean, m2), (res.m4_mean, m4)):
        assert got == float(np.mean(values))


def test_ensemble_chaotic_regime(std_params):
    res = run_ensemble(_lorenz_cfg(n=20, horizon=30.0, lorenz=LorenzParams(10.0, 30.0, 8 / 3)))
    assert not res.report.stable
    assert res.report.eta_analytic is None
    assert res.report.eta_empirical is not None
    assert res.fraction_converged == 0.0
    assert res.papr_db_mean > 1.0  # chaotic swings well above the mean power


def test_ensemble_stderr_shrinks_with_sqrt_n():
    # short-horizon map ensembles keep across-realization variance alive
    errs = []
    for n in (100, 1000, 10000):
        res = run_ensemble(_henon_cfg(n=n, horizon=20.0, seed=5))
        errs.append(res.m2_stderr)
    for a, b in zip(errs, errs[1:]):
        assert math.sqrt(10) / 2 < a / b < 2 * math.sqrt(10)


def test_ensemble_independent_of_initial_box(std_params):
    # settled statistics forget the initial condition up to fp-level residue
    cfg_a = _lorenz_cfg(n=100, horizon=80.0, seed=1)
    box_b = ((-5.0, 5.0), (-5.0, 5.0), (10.0, 30.0))
    cfg_b = replace(cfg_a, ensemble=replace(cfg_a.ensemble, init_box=box_b, seed=2))
    a, b = run_ensemble(cfg_a), run_ensemble(cfg_b)
    gap = abs(a.m2_mean - b.m2_mean)
    limit = max(3.0 * math.hypot(a.m2_stderr, b.m2_stderr), 1e-9 * a.m2_mean)
    assert gap < limit


def test_sweep_r_monotone_and_validated(std_params):
    # r values that settle well inside a 40-unit horizon; the full grid runs
    # at the production horizon in the acceptance suite
    base = _lorenz_cfg(n=100, horizon=40.0)
    results = sweep(SweepSpec("r", (5.0, 10.0, 15.0), base))
    ana = [res.report.eta_analytic for res in results]
    emp = [res.report.eta_empirical for res in results]
    assert all(x < y for x, y in zip(ana, ana[1:]))
    assert all(x < y for x, y in zip(emp, emp[1:]))
    for a, e in zip(ana, emp):
        assert e == pytest.approx(a, rel=1e-2)
    assert [res.config.lorenz.r for res in results] == [5.0, 10.0, 15.0]


def test_sweep_rejects_mismatched_parameter():
    with pytest.raises(InvalidSweepError):
        sweep(SweepSpec("gamma", (0.1, 0.2), _lorenz_cfg()))
    with pytest.raises(InvalidSweepError):
        sweep(SweepSpec("volume", (1.0,), _lorenz_cfg()))
    with pytest.raises(InvalidSweepError):
        sweep(SweepSpec("r", (), _lorenz_cfg()))


def _count_evaluations(monkeypatch) -> list:
    """Record every config ``sweep`` evaluates through montecarlo's namespace."""
    calls = []
    for name in ("run_ensemble", "multisine_result"):
        def counted(cfg, _evaluate=getattr(montecarlo, name)):
            calls.append(cfg)
            return _evaluate(cfg)

        monkeypatch.setattr(montecarlo, name, counted)
    return calls


@pytest.mark.parametrize(
    "base",
    [_lorenz_cfg(n=20, horizon=20.0), _henon_cfg(n=50), SystemConfig(system="multisine", n_tones=2)],
    ids=["lorenz", "henon", "multisine"],
)
def test_pt_dbm_sweep_evaluates_once_and_reprices(monkeypatch, base):
    values = (10.0, 20.0, 30.0)
    evaluate = multisine_result if base.system == "multisine" else run_ensemble
    want = [harvest_row(evaluate(patched_config(base, "pt_dbm", v))) for v in values]
    calls = _count_evaluations(monkeypatch)
    results = sweep(SweepSpec("pt_dbm", values, base))
    assert csv_text(HARVEST_HEADER, [harvest_row(res) for res in results]) == csv_text(
        HARVEST_HEADER, want
    )
    assert calls == [patched_config(base, "pt_dbm", 10.0)]


def test_sweep_rejects_a_bad_value_before_running_any(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    with pytest.raises(ValueError):
        sweep(SweepSpec("r", (5.0, -1.0), _lorenz_cfg(n=2, horizon=1.0)))
    with pytest.raises(InvalidSweepError):
        sweep(SweepSpec("n_tones", (1, 2.5), SystemConfig(system="multisine")))
    assert calls == []


def test_sweep_eps_sets_all_axes():
    cfg = patched_config(_lorenz_cfg(), "eps", 6.0)
    assert cfg.scaling == ScalingFactors(6.0, 6.0, 6.0)


def test_sweep_multisine_tones():
    base = SystemConfig(system="multisine")
    results = sweep(SweepSpec("n_tones", (1, 2, 4), base))
    ana = [res.report.eta_analytic for res in results]
    assert all(x < y for x, y in zip(ana, ana[1:]))
    for res, n in zip(results, (1, 2, 4)):
        assert res.report.eta_empirical is None
        assert res.report.papr_db == pytest.approx(10 * math.log10(2 * n), abs=1e-9)


def test_multisine_result_is_deterministic_baseline():
    res = multisine_result(SystemConfig(system="multisine", n_tones=4))
    assert res.m2_mean == pytest.approx(1.0, rel=1e-12)
    assert res.m2_stderr == 0.0
    assert res.n_diverged == 0
    assert res.report.stable


@pytest.mark.filterwarnings("ignore::chaoswpt.errors.SaturationWarning")
@pytest.mark.parametrize("n_tones", [1, 4, 1000, 4999])
def test_multisine_result_has_the_bits_of_its_moments_and_papr(n_tones):
    res = multisine_result(SystemConfig(system="multisine", n_tones=n_tones))
    m2, m4 = harvest.multisine_moments(n_tones)
    papr = harvest.waveform_papr_db(harvest.multisine_waveform(n_tones, harvest.MULTISINE_SAMPLES))
    assert (res.m2_mean, res.m4_mean, res.papr_db_mean) == (m2, m4, papr)
    assert res.report.papr_db == papr


def test_a_multisine_row_builds_one_waveform(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return waveform(*args)

    waveform = harvest.multisine_waveform
    monkeypatch.setattr(harvest, "multisine_waveform", counted)
    monkeypatch.setattr(montecarlo, "multisine_waveform", counted)
    multisine_result(SystemConfig(system="multisine", n_tones=7))
    assert built == [(7, harvest.MULTISINE_SAMPLES)]


def test_patched_config_rejects_fractional_tone_count():
    base = SystemConfig(system="multisine")
    assert patched_config(base, "n_tones", 2.0).n_tones == 2
    with pytest.raises(InvalidSweepError):
        patched_config(base, "n_tones", 2.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"horizon": math.inf},
        {"dt": math.nan},
        {"init_box": ((0.0, 1.0),)},  # one pair fits neither the flow nor the map
        {"init_box": ((0.0, 1.0),) * 4},
        {"init_box": ((-math.inf, math.inf),) * 3},  # every draw would be NaN
        {"dt": math.inf},
        {"steady_state_tol": math.inf},  # would certify every realization as settled
    ],
)
def test_ensemble_config_rejects_what_no_ensemble_can_use(kwargs):
    with pytest.raises(ValueError):
        EnsembleConfig(**kwargs)


def test_with_link_reprices_without_rerunning():
    res = run_ensemble(_henon_cfg(n=50))
    cheap = with_link(res, LinkBudget(pt_dbm=20.0))
    assert cheap.m2_mean == res.m2_mean  # statistics untouched
    c = coefficients(LinkBudget(pt_dbm=20.0), cheap.config.rectenna)
    assert cheap.report.eta_empirical == dc_from_moments(res.m2_mean, res.m4_mean, c)
    assert cheap.report.eta_analytic < res.report.eta_analytic


def test_run_ensemble_rejects_multisine():
    with pytest.raises(ValueError):
        run_ensemble(SystemConfig(system="multisine"))


def test_init_box_dimension_checked():
    cfg = replace(
        _lorenz_cfg(n=2, horizon=1.0),
        ensemble=EnsembleConfig(n_realizations=2, horizon=1.0, init_box=((0.0, 1.0), (0.0, 1.0))),
    )
    with pytest.raises(ValueError):
        run_ensemble(cfg)


def test_map_ensemble_horizon_rounds_like_the_flow(monkeypatch):
    horizon = 3 - 1e-12
    taken = []
    blocks = montecarlo.sample_blocks

    def counting(step, state, n_steps, *args):
        taken.append(n_steps)
        return blocks(step, state, n_steps, *args)

    monkeypatch.setattr(montecarlo, "sample_blocks", counting)
    spec = SweepSpec("gamma", (0.2,), _henon_cfg(n=1, horizon=horizon))
    assert [res.n_realizations for res in sweep(spec)] == [1]
    assert taken == [3] == [steps_for_horizon(horizon, 1.0)]


def test_transient_fraction_rule_is_transient_cutoff_index():
    with pytest.raises(ValueError) as rule:
        transient_cutoff_index(10, 1.0)
    with pytest.raises(ValueError) as ensemble:
        EnsembleConfig(transient_fraction=1.0)
    assert str(ensemble.value) == str(rule.value)


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(n_realizations=0)
    with pytest.raises(ValueError):
        EnsembleConfig(seed=-1)
    with pytest.raises(ValueError):
        EnsembleConfig(seed=2**64)
    with pytest.raises(ValueError):
        EnsembleConfig(dt=0.0)
    with pytest.raises(ValueError):
        EnsembleConfig(transient_fraction=1.0)
    with pytest.raises(ValueError):
        EnsembleConfig(init_box=((1.0, 0.0), (0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        SystemConfig(system="pendulum")
    with pytest.raises(ValueError):
        SystemConfig(n_tones=0)
