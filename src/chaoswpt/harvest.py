"""Closed-form harvested-DC predictions and waveform power statistics.

The rectenna's DC output is modelled as a truncated even polynomial of the
received voltage: dc = k2 * R * E[v^2] + k4 * R^2 * E[v^4].  With free-space
path loss d^-alpha and transmit power P_t, the transmitted waveform moments
E[x^2], E[x^4] enter through the two coefficients

    c2 = d^-alpha  * k2 * R * P_t
    c4 = d^-2alpha * k4 * R^2 * P_t^2

so every prediction in this module reduces to dc = c2 * m2 + c4 * m4 for the
appropriate steady-state moments.  Flat-fading channels enter as multiplicative
moments folded into (c2, c4).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import HenonParams, LorenzParams, ScalingFactors, Trajectory, UNIT_SCALING
from .errors import (
    DegenerateSignalError,
    MomentInconsistencyError,
    SaturationWarning,
    UnstableRegimeError,
)
from .stability import henon_fixed_point, henon_stable, hurwitz_stable

#: ratio of quartic to quadratic term beyond which the polynomial model is suspect
SATURATION_RATIO = 10.0

#: relative slack on the m4 >= m2^2 check, absorbing floating-point round-off
_MOMENT_SLACK = 1e-9

#: samples per period of the multisine baseline, for its moments and its PAPR
MULTISINE_SAMPLES = 10_000


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power and propagation loss."""

    pt_dbm: float = 30.0
    d_m: float = 20.0
    alpha: float = 4.0

    def __post_init__(self):
        if not self.d_m > 0:
            raise ValueError("distance must be positive")
        if not self.alpha >= 0:
            raise ValueError("path-loss exponent must be >= 0")

    @property
    def pt_watts(self) -> float:
        return dbm_to_watts(self.pt_dbm)

    @property
    def path_gain(self) -> float:
        return self.d_m ** (-self.alpha)


@dataclass(frozen=True)
class RectennaParams:
    """Polynomial rectifier model: quadratic and quartic gains, antenna resistance."""

    k2: float = 0.0034
    k4: float = 0.3829
    r_ant: float = 50.0

    def __post_init__(self):
        if not all(v > 0 for v in (self.k2, self.k4, self.r_ant)):
            raise ValueError("k2, k4, r_ant must all be positive")


@dataclass(frozen=True)
class HarvestCoefficients:
    """Coefficients of dc = c2 * m2 + c4 * m4."""

    c2: float
    c4: float

    def __post_init__(self):
        if self.c2 < 0 or self.c4 < 0:
            raise ValueError("coefficients must be non-negative")


@dataclass(frozen=True)
class FadingMoments:
    """Second and fourth moments of the flat-fading channel gain."""

    m2: float = 1.0
    m4: float = 1.0

    def __post_init__(self):
        if not (self.m2 >= 0 and self.m4 >= 0):
            raise ValueError("channel moments must be non-negative")
        if self.m4 < self.m2 * self.m2 * (1.0 - _MOMENT_SLACK):
            raise MomentInconsistencyError(
                f"channel moments violate m4 >= m2^2: m2={self.m2:g}, m4={self.m4:g}"
            )


NO_FADING = FadingMoments(1.0, 1.0)


@dataclass(frozen=True)
class HarvestReport:
    """Side-by-side closed-form and measured DC for one operating point.

    ``eta_analytic`` is None when no closed form applies (unstable regime, or
    an empirically-characterized waveform); ``eta_empirical`` and ``papr_db``
    are None when no valid realizations were available to measure.
    """

    eta_analytic: float | None
    eta_empirical: float | None
    papr_db: float | None
    stable: bool


def coefficients(link: LinkBudget, rectenna: RectennaParams) -> HarvestCoefficients:
    """Fold link budget and rectifier gains into the two DC coefficients."""
    pt = link.pt_watts
    g = link.path_gain
    return HarvestCoefficients(
        c2=g * rectenna.k2 * rectenna.r_ant * pt,
        c4=g * g * rectenna.k4 * rectenna.r_ant * rectenna.r_ant * pt * pt,
    )


def with_fading(coeff: HarvestCoefficients, fading: FadingMoments) -> HarvestCoefficients:
    """Absorb channel moments into the coefficients (identity for NO_FADING)."""
    return HarvestCoefficients(coeff.c2 * fading.m2, coeff.c4 * fading.m4)


def dc_from_moments(m2: float, m4: float, coeff: HarvestCoefficients) -> float:
    """Harvested DC for measured or predicted waveform moments.

    Raises MomentInconsistencyError when the pair (m2, m4) is not realizable
    (m4 < m2^2 beyond floating-point slack).  Emits SaturationWarning when the
    quartic term dominates the quadratic one by more than SATURATION_RATIO,
    since the truncated polynomial model loses validity there.
    """
    if m2 < 0.0 or m4 < 0.0:
        raise MomentInconsistencyError(f"moments must be non-negative: m2={m2:g}, m4={m4:g}")
    if m4 < m2 * m2 * (1.0 - _MOMENT_SLACK):
        raise MomentInconsistencyError(f"moments violate m4 >= m2^2: m2={m2:g}, m4={m4:g}")
    lin = coeff.c2 * m2
    quad = coeff.c4 * m4
    if quad > SATURATION_RATIO * lin:
        warnings.warn(
            f"quartic term {quad:g} exceeds {SATURATION_RATIO:g}x the quadratic term {lin:g}; "
            "the polynomial rectifier model is outside its trust region",
            SaturationWarning,
            stacklevel=2,
        )
    return lin + quad


def lorenz_steady_moments(params: LorenzParams, scaling: ScalingFactors = UNIT_SCALING) -> tuple[float, float]:
    """(m2, m4) of the x-component once the flow has settled on an equilibrium.

    Only meaningful in the stable regime, where the orbit converges to one of
    the symmetric points with |x| = sqrt(beta*(r-1))/eps_x; requires r > 1.
    """
    if params.r <= 1.0:
        raise UnstableRegimeError(f"no nontrivial equilibrium for r={params.r:g} <= 1")
    m2 = params.beta * (params.r - 1.0) / (scaling.eps_x * scaling.eps_x)
    return m2, m2 * m2


def eta_scaled_lorenz(params: LorenzParams, scaling: ScalingFactors, coeff: HarvestCoefficients) -> float:
    """Predicted DC for the scaled flow in its stable regime."""
    if not hurwitz_stable(params).stable:
        raise UnstableRegimeError(
            f"equilibria not certified stable for sigma={params.sigma:g}, "
            f"r={params.r:g}, beta={params.beta:g}"
        )
    m2, m4 = lorenz_steady_moments(params, scaling)
    return dc_from_moments(m2, m4, coeff)


def eta_ideal_lorenz(params: LorenzParams, coeff: HarvestCoefficients) -> float:
    """Predicted DC for the unscaled flow (all scaling factors equal to 1)."""
    return eta_scaled_lorenz(params, UNIT_SCALING, coeff)


def eta_henon(params: HenonParams, coeff: HarvestCoefficients) -> float:
    """Predicted DC for the map once settled on its attracting fixed point."""
    if not henon_stable(params).stable:
        raise UnstableRegimeError(
            f"fixed point not attracting for gamma={params.gamma:g}, delta={params.delta:g}"
        )
    x = henon_fixed_point(params)[0]
    m2 = x * x
    return dc_from_moments(m2, m2 * m2, coeff)


def lorenz_beats_henon(lorenz: LorenzParams, henon: HenonParams) -> bool:
    """True when the flow's steady |x| strictly exceeds the map's fixed-point x.

    Because dc = c2*m2 + c4*m4 is strictly increasing in the settled amplitude,
    this is equivalent to the unscaled flow harvesting strictly more DC than
    the map under any common link budget.
    """
    if lorenz.r <= 1.0:
        raise UnstableRegimeError(f"no nontrivial equilibrium for r={lorenz.r:g} <= 1")
    amp = math.sqrt(lorenz.beta * (lorenz.r - 1.0))
    return amp > henon_fixed_point(henon)[0]


def waveform_papr_db(samples: np.ndarray) -> float:
    """Peak-to-average power ratio of a sample vector, in dB."""
    w = np.asarray(samples, dtype=float)
    if w.size < 2:
        raise DegenerateSignalError("PAPR needs at least two samples")
    power = w * w
    mean_power = float(power.mean())
    if not mean_power > 1e-30:
        raise DegenerateSignalError(f"mean power {mean_power:g} too small for a PAPR")
    return 10.0 * math.log10(float(power.max()) / mean_power)


def papr(traj: Trajectory, component: int | str = 0) -> float:
    """PAPR of one state component over the post-transient window."""
    idx = "xyz".index(component) if isinstance(component, str) else component
    return waveform_papr_db(traj.steady_samples[:, idx])


def check_tones(n_tones: int, n_samples: int = MULTISINE_SAMPLES) -> None:
    """Raise ValueError unless ``n_samples`` per period resolve ``n_tones`` tones (2n + 1 <= samples)."""
    if n_tones < 1:
        raise ValueError("n_tones must be >= 1")
    if n_samples < 2 * n_tones + 1:
        most = (n_samples - 1) // 2
        raise ValueError(f"{n_samples} samples per period resolve at most {most} tones, got {n_tones}")


def multisine_waveform(n_tones: int, n_samples: int) -> np.ndarray:
    """One period of the N-tone equal-amplitude multisine, unit average power.

    The tones are added into one array in order, one at a time, so memory is
    O(n_samples) whatever the tone count.  The bits are those of summing the
    (n_tones, n_samples) matrix of tones over its rows.
    """
    check_tones(n_tones, n_samples)
    t = np.arange(n_samples) / n_samples
    wave = np.zeros(n_samples)
    for k in range(1, n_tones + 1):
        wave += np.cos(2.0 * np.pi * (k * t))
    return math.sqrt(2.0 / n_tones) * wave


def multisine_moments(n_tones: int, samples_per_period: int = MULTISINE_SAMPLES) -> tuple[float, float]:
    """(m2, m4) of the multisine by rectangle-rule quadrature over one period."""
    return waveform_moments(multisine_waveform(n_tones, samples_per_period))


def waveform_moments(samples: np.ndarray) -> tuple[float, float]:
    """(m2, m4) of a sample vector: the means of its square and of its square's square."""
    p = samples * samples
    return float(p.mean()), float((p * p).mean())
