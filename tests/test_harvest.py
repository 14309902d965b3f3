import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chaoswpt.dynamics import HenonParams, LorenzParams, ScalingFactors, Trajectory, integrate_lorenz
from chaoswpt.errors import (
    DegenerateSignalError,
    MomentInconsistencyError,
    SaturationWarning,
    UnstableRegimeError,
)
from chaoswpt.harvest import (
    FadingMoments,
    HarvestCoefficients,
    LinkBudget,
    NO_FADING,
    RectennaParams,
    coefficients,
    dbm_to_watts,
    dc_from_moments,
    eta_henon,
    eta_ideal_lorenz,
    eta_scaled_lorenz,
    lorenz_beats_henon,
    lorenz_steady_moments,
    multisine_moments,
    multisine_waveform,
    papr,
    waveform_papr_db,
    with_fading,
)
from chaoswpt.stability import henon_fixed_point, henon_gamma_interval, hurwitz_stable

# Frozen expected values for the default link budget (30 dBm, d=20 m, alpha=4,
# k2=0.0034, k4=0.3829, R=50), derived independently by exact rational
# arithmetic: c2 = 20^-4 * 0.0034 * 50 * 1, c4 = 20^-8 * 0.3829 * 50^2 * 1.
C2_EXPECTED = 1.0625e-06
C4_EXPECTED = 3.7392578125e-08
# c2*m2 + c4*m4 with the settled moments m2 = beta*(r-1)/eps_x^2, m4 = m2^2:
ETA_R12_EPS1 = 6.334090277777777e-05
ETA_R12_EPS6 = 8.905665402091906e-07
# same pipeline with the map's fixed-point amplitude for (gamma, delta) = (0.2, 0.1)
ETA_HENON_02_01 = 9.305355665204397e-07


def test_dbm_to_watts():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)


def test_coefficients_default_link(std_coeff):
    assert std_coeff.c2 == pytest.approx(C2_EXPECTED, rel=1e-12)
    assert std_coeff.c4 == pytest.approx(C4_EXPECTED, rel=1e-12)


def test_coefficients_no_pathloss_at_unit_distance():
    c = coefficients(LinkBudget(pt_dbm=30.0, d_m=1.0), RectennaParams())
    assert c.c2 == pytest.approx(0.0034 * 50.0, rel=1e-12)
    assert c.c4 == pytest.approx(0.3829 * 2500.0, rel=1e-12)


def test_coefficients_power_scaling():
    base = coefficients(LinkBudget(pt_dbm=30.0), RectennaParams())
    louder = coefficients(LinkBudget(pt_dbm=30.0 + 10.0 * math.log10(2)), RectennaParams())
    assert louder.c2 == pytest.approx(2.0 * base.c2, rel=1e-12)
    assert louder.c4 == pytest.approx(4.0 * base.c4, rel=1e-12)


def test_coefficients_consistency_invariant(std_coeff):
    # c4/c2^2 must equal k4/k2^2 regardless of link parameters
    for link in (LinkBudget(), LinkBudget(pt_dbm=17.0, d_m=3.0, alpha=2.5)):
        c = coefficients(link, RectennaParams())
        assert c.c4 / c.c2**2 == pytest.approx(0.3829 / 0.0034**2, rel=1e-12)


def test_dc_from_moments_basics(std_coeff):
    assert dc_from_moments(0.0, 0.0, std_coeff) == 0.0
    assert dc_from_moments(1.0, 1.0, std_coeff) == pytest.approx(
        C2_EXPECTED + C4_EXPECTED, rel=1e-12
    )


def test_dc_from_moments_jensen_violation(std_coeff):
    with pytest.raises(MomentInconsistencyError):
        dc_from_moments(2.0, 1.0, std_coeff)
    with pytest.raises(MomentInconsistencyError):
        dc_from_moments(-1.0, 1.0, std_coeff)
    # NaN compares false both ways, and no waveform has an infinite moment
    for m2, m4 in [(math.nan, 1.0), (math.inf, math.inf)]:
        with pytest.raises(MomentInconsistencyError):
            dc_from_moments(m2, m4, std_coeff)
    # the boundary m4 == m2^2 (a constant-amplitude signal) is legitimate
    dc_from_moments(3.0, 9.0, std_coeff)


def test_dc_saturation_warning(std_coeff):
    with pytest.warns(SaturationWarning):
        dc_from_moments(1.0, 1e4, std_coeff)


def test_dc_no_warning_in_default_regime(std_params, std_coeff, recwarn):
    eta_ideal_lorenz(std_params, std_coeff)
    assert not [w for w in recwarn if issubclass(w.category, SaturationWarning)]


def test_eta_values_frozen(std_params, eps6, std_coeff):
    assert eta_ideal_lorenz(std_params, std_coeff) == pytest.approx(ETA_R12_EPS1, rel=1e-12)
    assert eta_scaled_lorenz(std_params, eps6, std_coeff) == pytest.approx(
        ETA_R12_EPS6, rel=1e-12
    )
    assert eta_henon(HenonParams(0.2, 0.1), std_coeff) == pytest.approx(
        ETA_HENON_02_01, rel=1e-12
    )


def test_eta_ideal_is_unit_scaling(std_params, std_coeff):
    assert eta_ideal_lorenz(std_params, std_coeff) == eta_scaled_lorenz(
        std_params, ScalingFactors(1.0, 1.0, 1.0), std_coeff
    )


def test_eta_equals_moment_pipeline_exactly(std_params, eps6, std_coeff):
    m2, m4 = lorenz_steady_moments(std_params, eps6)
    assert eta_scaled_lorenz(std_params, eps6, std_coeff) == dc_from_moments(m2, m4, std_coeff)


def test_eta_henon_equals_moment_pipeline_exactly(std_coeff):
    p = HenonParams(0.2, 0.1)
    x = henon_fixed_point(p)[0]
    m2 = x * x
    assert eta_henon(p, std_coeff) == dc_from_moments(m2, m2 * m2, std_coeff)


def test_eta_unstable_raises(std_coeff):
    with pytest.raises(UnstableRegimeError):
        eta_scaled_lorenz(LorenzParams(10.0, 30.0, 8.0 / 3.0), ScalingFactors(), std_coeff)
    with pytest.raises(UnstableRegimeError):
        eta_henon(HenonParams(1.4, 0.3), std_coeff)
    with pytest.raises(UnstableRegimeError):
        lorenz_steady_moments(LorenzParams(10.0, 0.5, 8.0 / 3.0))


def test_eta_vanishes_at_pitchfork(std_coeff):
    eta = eta_ideal_lorenz(LorenzParams(10.0, 1.0 + 1e-12, 8.0 / 3.0), std_coeff)
    assert 0.0 < eta < 1e-16


def test_eta_monotone_in_r(std_coeff):
    etas = [
        eta_ideal_lorenz(LorenzParams(10.0, r, 8.0 / 3.0), std_coeff)
        for r in (5.0, 10.0, 15.0, 20.0)
    ]
    assert all(a < b for a, b in zip(etas, etas[1:]))


def test_fading_neutral_is_identity(std_coeff):
    assert with_fading(std_coeff, NO_FADING) == std_coeff


def test_fading_scales_terms(std_params, std_coeff):
    fading = FadingMoments(m2=2.0, m4=8.0)
    m2, m4 = lorenz_steady_moments(std_params)
    expected = std_coeff.c2 * 2.0 * m2 + std_coeff.c4 * 8.0 * m4
    assert eta_ideal_lorenz(std_params, with_fading(std_coeff, fading)) == pytest.approx(expected, rel=1e-14)


def test_fading_moments_validation():
    with pytest.raises(MomentInconsistencyError):
        FadingMoments(m2=2.0, m4=1.0)
    with pytest.raises(ValueError):
        FadingMoments(m2=-1.0, m4=1.0)
    FadingMoments(m2=2.0, m4=4.0)  # boundary is fine


@pytest.mark.parametrize(
    "build",
    [
        lambda: LinkBudget(d_m=math.nan),
        lambda: LinkBudget(alpha=math.nan),
        lambda: RectennaParams(k2=math.nan),
        lambda: RectennaParams(r_ant=math.nan),
        lambda: FadingMoments(m2=math.nan),
        lambda: FadingMoments(m4=math.nan),
        lambda: ScalingFactors(eps_y=math.nan),
        lambda: HenonParams(math.nan, 0.1),
        lambda: HenonParams(0.2, math.nan),
        lambda: HenonParams(math.inf, 0.1),
        lambda: LorenzParams(sigma=math.inf),
        lambda: LorenzParams(r=math.inf),
        lambda: LorenzParams(beta=math.inf),
        lambda: ScalingFactors(math.inf, 1, 1),
        lambda: LinkBudget(pt_dbm=-math.inf),
        lambda: LinkBudget(pt_dbm=math.nan),
        lambda: LinkBudget(d_m=math.inf),
        lambda: LinkBudget(alpha=math.inf),
        lambda: RectennaParams(k2=math.inf),
        lambda: FadingMoments(math.inf, math.inf),
    ],
)
def test_parameter_classes_reject_nan(build):
    # a NaN compares false both ways, so each range check must be stated as
    # "not inside the range" to catch it, and the range must end short of inf
    with pytest.raises(ValueError):
        build()


def test_lorenz_beats_henon_clear_cases():
    # settled flow amplitude sqrt(8/3 * 11) ~ 5.42 vs map fixed point ~ 0.92
    assert lorenz_beats_henon(LorenzParams(10.0, 12.0, 8.0 / 3.0), HenonParams(0.2, 0.1))
    # the large-amplitude map pair (fixed point ~ 9.16) wins against r=12
    assert not lorenz_beats_henon(LorenzParams(10.0, 12.0, 8.0 / 3.0), HenonParams(0.001, 0.9))


def test_lorenz_beats_henon_strict_at_tie():
    # constructed so both amplitudes are exactly 4.0 in floating point:
    # beta*(r-1) = 2*8 = 16, and gamma=1/64, delta=0.8125 give
    # disc = 0.1875^2 + 4/64 = 0.09765625 = 0.3125^2 exactly
    henon = HenonParams(1.0 / 64.0, 0.8125)
    assert henon_fixed_point(henon)[0] == 4.0
    assert not lorenz_beats_henon(LorenzParams(10.0, 9.0, 2.0), henon)


def test_lorenz_beats_henon_requires_pitchfork():
    with pytest.raises(UnstableRegimeError):
        lorenz_beats_henon(LorenzParams(10.0, 0.9, 8.0 / 3.0), HenonParams(0.2, 0.1))


@given(
    r=st.floats(1.1, 24.0),
    delta=st.floats(0.05, 0.95),
    pos=st.floats(0.05, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_beats_predicate_equivalent_to_dc_order(std_coeff, r, delta, pos):
    lorenz = LorenzParams(10.0, r, 8.0 / 3.0)
    lo, hi = henon_gamma_interval(delta)
    gamma = lo + pos * (hi - lo)
    assume(abs(gamma) > 1e-6)
    henon = HenonParams(gamma, delta)
    amp = math.sqrt(lorenz.beta * (lorenz.r - 1.0))
    assume(abs(amp - henon_fixed_point(henon)[0]) > 1e-12)
    wins = lorenz_beats_henon(lorenz, henon)
    with warnings.catch_warnings():
        # tiny gamma gives huge fixed points, where the saturation guard fires;
        # the order equivalence holds regardless
        warnings.simplefilter("ignore", SaturationWarning)
        assert wins == (eta_ideal_lorenz(lorenz, std_coeff) > eta_henon(henon, std_coeff))


def _traj(col, dt=1.0, cutoff=0):
    samples = np.column_stack([col, np.zeros_like(col), np.zeros_like(col)])
    return Trajectory(dt, samples, cutoff)


def test_papr_constant_is_zero_db():
    assert papr(_traj(np.full(100, 3.0))) == 0.0


def test_papr_pure_cosine():
    t = np.arange(4000) / 1000.0
    assert papr(_traj(np.cos(2 * np.pi * t))) == pytest.approx(10 * math.log10(2), abs=1e-9)


def test_papr_uses_post_transient_window():
    col = np.concatenate([np.full(5, 100.0), np.full(95, 2.0)])
    assert papr(_traj(col, cutoff=5)) == 0.0
    assert papr(_traj(col, cutoff=0)) > 10.0


def test_papr_component_selection(std_params):
    traj = integrate_lorenz((1.0, -5.0, 20.0), std_params, horizon=10.0)
    assert papr(traj, "z") == papr(traj, 2)


def test_papr_settles_to_zero_in_stable_regime(std_params):
    traj = integrate_lorenz((1.0, -5.0, 20.0), std_params, horizon=50.0)
    assert papr(traj, "x") < 0.01


def test_papr_degenerate_signals():
    with pytest.raises(DegenerateSignalError):
        papr(_traj(np.zeros(100)))
    with pytest.raises(DegenerateSignalError):
        waveform_papr_db(np.array([1.0]))
    with pytest.raises(DegenerateSignalError):
        waveform_papr_db(np.array([1.0, math.inf]))


def test_multisine_moments_frozen():
    # rectangle-rule quadrature values; m2 is 1 by construction
    for n, m4 in [(1, 1.5), (2, 2.25), (4, 4.625), (8, 9.8125)]:
        got_m2, got_m4 = multisine_moments(n)
        assert got_m2 == pytest.approx(1.0, rel=1e-12)
        assert got_m4 == pytest.approx(m4, rel=1e-12)


def test_multisine_m4_strictly_increasing():
    m4s = [multisine_moments(n)[1] for n in (1, 2, 4, 8, 16)]
    assert all(a < b for a, b in zip(m4s, m4s[1:]))


def test_multisine_quadrature_resolution_independent():
    coarse = multisine_moments(8, samples_per_period=10_000)
    fine = multisine_moments(8, samples_per_period=40_000)
    assert coarse == pytest.approx(fine, rel=1e-12)


def test_multisine_papr_is_coherent_peak():
    # all tones align at t=0: peak power 2N over mean power 1
    for n in (1, 2, 4, 8):
        got = waveform_papr_db(multisine_waveform(n, 10_000))
        assert got == pytest.approx(10 * math.log10(2 * n), abs=1e-9)


@pytest.mark.parametrize("n_tones", [1, 2, 3, 8, 37, 200])
def test_multisine_adds_tones_with_the_bits_of_the_tone_matrix(n_tones):
    # the matrix form the waveform was first built from: numpy's axis-0 sum
    # of a C-contiguous matrix adds its rows in order
    t = np.arange(10_000) / 10_000
    phases = 2.0 * np.pi * np.outer(np.arange(1, n_tones + 1), t)
    expected = math.sqrt(2.0 / n_tones) * np.cos(phases).sum(axis=0)
    assert multisine_waveform(n_tones, 10_000).tobytes() == expected.tobytes()


def test_multisine_memory_does_not_grow_with_the_tone_count():
    # the tone matrix at 4999 tones is 400 MB, its cosine as much again; one
    # period of 10,000 samples is 80 kB
    tracemalloc.start()
    try:
        multisine_waveform(4999, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_multisine_validation():
    with pytest.raises(ValueError):
        multisine_waveform(0, 100)
    with pytest.raises(ValueError):
        multisine_waveform(50, 80)
    with pytest.raises(ValueError):
        multisine_moments(0)


def test_harvest_coefficients_validation():
    with pytest.raises(ValueError):
        HarvestCoefficients(-1.0, 1.0)
    with pytest.raises(ValueError):
        LinkBudget(d_m=0.0)
    with pytest.raises(ValueError):
        RectennaParams(k2=0.0)
