import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoswpt.dynamics import (
    HenonParams,
    LorenzParams,
    ScalingFactors,
    UNIT_SCALING,
    henon_step,
    integrate_lorenz,
    iterate_henon,
    lorenz_derivative,
    scale_state,
    steps_for_horizon,
    transient_cutoff_index,
    unscale_state,
)
from chaoswpt.errors import DivergenceError
from chaoswpt.stability import henon_fixed_point, lorenz_equilibria

# Derivative at (1, -5, 20) for sigma=10, r=12, beta=8/3, frozen from exact
# symbolic substitution (test_derivative_matches_symbolic_oracle recomputes it).
DERIV_EXAMPLE = (-60.0, -3.0, -175.0 / 3.0)

params_st = st.builds(
    LorenzParams,
    sigma=st.floats(0.1, 20.0),
    r=st.floats(1.05, 30.0),
    beta=st.floats(0.1, 20.0),
)
scaling_st = st.builds(
    ScalingFactors,
    eps_x=st.floats(1.0, 8.0),
    eps_y=st.floats(1.0, 8.0),
    eps_z=st.floats(1.0, 8.0),
)


def test_derivative_zero_at_origin(std_params):
    assert lorenz_derivative((0.0, 0.0, 0.0), std_params) == pytest.approx((0, 0, 0), abs=0)


def test_derivative_example_point(std_params):
    got = lorenz_derivative((1.0, -5.0, 20.0), std_params)
    assert got == pytest.approx(DERIV_EXAMPLE, rel=1e-14)


def test_derivative_matches_symbolic_oracle(std_params):
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")
    sigma, r, beta = sympy.Integer(10), sympy.Integer(12), sympy.Rational(8, 3)
    field = (sigma * (y - x), x * (r - z) - y, x * y - beta * z)
    expected = [float(f.subs({x: 1, y: -5, z: 20})) for f in field]
    got = lorenz_derivative((1.0, -5.0, 20.0), std_params)
    assert got == pytest.approx(expected, rel=1e-14)


@given(params=params_st, scaling=scaling_st)
@settings(max_examples=100, deadline=None)
def test_derivative_vanishes_at_equilibria(params, scaling):
    eq = lorenz_equilibria(params, scaling)
    for point in eq.points:
        residual = np.abs(lorenz_derivative(point, params, scaling)).max()
        assert residual < 1e-12


@given(params=params_st, scaling=scaling_st,
       state=st.tuples(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20)))
@settings(max_examples=100, deadline=None)
def test_derivative_scaling_conjugacy(params, scaling, state):
    # the scaled field is the unscaled one seen through componentwise division
    lhs = lorenz_derivative(scale_state(state, scaling), params, scaling)
    rhs = scale_state(lorenz_derivative(state, params), scaling)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_integration_settles_at_equilibrium_amplitude(std_params):
    traj = integrate_lorenz((1.0, -5.0, 20.0), std_params, horizon=30.0)
    amp = math.sqrt(std_params.beta * (std_params.r - 1.0))
    assert abs(abs(traj.samples[-1, 0]) - amp) < 1e-3


def test_integration_sample_count_and_initial_row(std_params):
    traj = integrate_lorenz((1.0, -5.0, 20.0), std_params, dt=1e-3, horizon=2.0)
    assert traj.samples.shape == (2001, 3)
    assert traj.samples[0] == pytest.approx((1.0, -5.0, 20.0), abs=0)
    assert traj.dt == 1e-3
    assert traj.transient_cutoff == 1000  # half of 2001, rounded down


def test_integration_bitwise_deterministic(std_params):
    a = integrate_lorenz((1.0, -5.0, 20.0), std_params, horizon=5.0)
    b = integrate_lorenz((1.0, -5.0, 20.0), std_params, horizon=5.0)
    assert np.array_equal(a.samples, b.samples)


def test_integration_terminal_state_independent_of_start(std_params):
    # different starts end on the same settled amplitude (possibly other wing)
    a = integrate_lorenz((1.0, -5.0, 20.0), std_params, horizon=30.0)
    b = integrate_lorenz((8.0, 2.0, 1.0), std_params, horizon=30.0)
    assert abs(abs(a.samples[-1, 0]) - abs(b.samples[-1, 0])) < 1e-3


def test_integration_is_fourth_order(std_params):
    # halving dt must cut the terminal error by ~2^4; reference at dt/8
    p0 = (1.0, -5.0, 20.0)
    ref = integrate_lorenz(p0, std_params, dt=0.00125, horizon=1.0).samples[-1]
    e1 = np.abs(integrate_lorenz(p0, std_params, dt=0.01, horizon=1.0).samples[-1] - ref).max()
    e2 = np.abs(integrate_lorenz(p0, std_params, dt=0.005, horizon=1.0).samples[-1] - ref).max()
    assert 8.0 < e1 / e2 < 32.0


def test_integration_scaling_conjugacy(std_params, eps6):
    base = integrate_lorenz((1.0, -5.0, 20.0), std_params, horizon=20.0)
    scaled = integrate_lorenz(
        scale_state((1.0, -5.0, 20.0), eps6), std_params, eps6, horizon=20.0
    )
    assert np.allclose(base.samples / 6.0, scaled.samples, rtol=0, atol=1e-9)


def test_integration_divergence_raises(std_params):
    with pytest.raises(DivergenceError) as exc:
        integrate_lorenz((1e5, 1e5, 1e5), std_params, horizon=1.0)
    assert exc.value.step is not None


def test_integration_from_origin_stays_zero(std_params):
    traj = integrate_lorenz((0.0, 0.0, 0.0), std_params, horizon=1.0)
    assert not traj.samples.any()


def test_steps_for_horizon_rounding():
    assert steps_for_horizon(2.0, 1e-3) == 2000
    assert steps_for_horizon(0.1, 0.1) == 1
    # horizon/dt slightly below an integer due to fp must not lose a step
    assert steps_for_horizon(0.3, 0.1) == 3
    with pytest.raises(ValueError):
        steps_for_horizon(-1.0, 0.1)


def test_steps_for_horizon_needs_a_finite_step_count():
    # finite, and within what an array can index
    assert steps_for_horizon(2.0**62, 1.0) == 2**62
    for horizon, dt in [(math.inf, 1e-3), (1e300, 1e-300), (math.nan, 1e-3), (1.0, math.nan),
                        (2.0**63, 1.0), (1e300, 1e-3), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            steps_for_horizon(horizon, dt)


def test_transient_cutoff_index():
    assert transient_cutoff_index(101, 0.5) == 50
    assert transient_cutoff_index(100, 0.0) == 0
    with pytest.raises(ValueError):
        transient_cutoff_index(100, 1.0)


def test_henon_step_examples():
    assert henon_step((0.0, 0.0), HenonParams(0.2, 0.1)) == (1.0, 0.0)
    assert henon_step((1.0, 0.0), HenonParams(1.4, 0.3)) == pytest.approx((-0.4, 0.3))


def test_henon_iteration_reaches_fixed_point():
    # fixed point of x' = y + 1 - 0.2 x^2, y' = 0.1 x (quadratic-formula value)
    fp = (0.9221443851123801, 0.09221443851123801)
    traj = iterate_henon((0.0, 0.0), HenonParams(0.2, 0.1), n_steps=500)
    assert traj.samples[-1] == pytest.approx(fp, abs=1e-12)
    assert traj.dt == 1.0
    assert traj.samples.shape == (501, 2)


def test_henon_fixed_point_is_stationary():
    fp = (0.9221443851123801, 0.09221443851123801)
    traj = iterate_henon(fp, HenonParams(0.2, 0.1), n_steps=200)
    assert np.abs(traj.samples - np.array(fp)).max() < 1e-12


def test_henon_convergence_inside_stability_boundary():
    # 10% inside the gamma boundary 0.75*(1-delta)^2: still converges
    params = HenonParams(0.9 * 0.75 * 0.81, 0.1)
    traj = iterate_henon((0.0, 0.0), params, n_steps=10_000)
    assert abs(traj.samples[-1, 0] - henon_fixed_point(params)[0]) < 1e-6


def test_henon_no_convergence_outside_stability_boundary():
    # 10% outside the boundary: bounded, but the fixed point no longer attracts
    params = HenonParams(1.1 * 0.75 * 0.81, 0.1)
    traj = iterate_henon((0.0, 0.0), params, n_steps=10_000)
    assert abs(traj.samples[-1, 0] - henon_fixed_point(params)[0]) > 1e-3


def test_henon_divergence_raises():
    with pytest.raises(DivergenceError):
        iterate_henon((10.0, 10.0), HenonParams(1.4, 0.3), n_steps=100)


def test_scale_state_examples(eps6):
    assert scale_state((6.0, -6.0, 12.0), eps6) == pytest.approx((1.0, -1.0, 2.0), abs=0)
    s = (1.3, -0.2, 7.5)
    assert scale_state(s, UNIT_SCALING) == pytest.approx(s, abs=0)
    assert unscale_state(scale_state(s, eps6), eps6) == pytest.approx(s, rel=1e-15)


def test_param_validation():
    with pytest.raises(ValueError):
        LorenzParams(sigma=-1.0)
    with pytest.raises(ValueError):
        LorenzParams(beta=0.0)
    with pytest.raises(ValueError):
        HenonParams(gamma=0.0)
    with pytest.raises(ValueError):
        ScalingFactors(eps_x=0.5)
