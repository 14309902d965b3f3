"""Continuous and discrete chaotic sources used as power-transfer waveforms.

The continuous source is a Lorenz-type system with per-axis dynamic-range
scaling: for scaling factors (eps_x, eps_y, eps_z) the state (x, y, z) evolves
as

    dx/dt = sigma * ((eps_y/eps_x) * y - x)
    dy/dt = (eps_x/eps_y) * x * (r - eps_z * z) - y
    dz/dt = (eps_x*eps_y/eps_z) * x * y - beta * z

which is the classical system observed through the change of variables
x -> x/eps_x, y -> y/eps_y, z -> z/eps_z.  The discrete source is the Henon
map x' = y + 1 - gamma*x^2, y' = delta*x.

Integration is fixed-step classical fourth-order Runge-Kutta so that runs are
bit-reproducible for a given (initial point, dt, horizon).  One time-blocked
core, :func:`sample_blocks`, advances every orbit, single orbits and ensembles
alike, one step at a time into a preallocated block of samples.  The Lorenz
step and the map step each run a small C function (``_rk4.c``) that
:mod:`chaoswpt._rk4` compiles on first use and that runs across the orbits at
SIMD width, reading the system's constants through one pointer; without a
compiler the textbook step runs on the row's arrays, or on its Python floats
when it is one orbit wide, and its result is written into the block.  Every
path agrees bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _rk4
from .errors import DivergenceError

DEFAULT_DT = 1e-3
DEFAULT_DIVERGENCE_BOUND = 1e6
DEFAULT_TRANSIENT_FRACTION = 0.5

#: state components of each source
STATE_DIM = {"lorenz": 3, "henon": 2}

#: bytes of samples one block of an ensemble holds; sets the block length
_BLOCK_BYTES = 1 << 18
#: longest block, which bounds the per-row work table of a one-orbit block
_BLOCK_ROWS_MAX = 1024


@dataclass(frozen=True)
class LorenzParams:
    """Parameters of the continuous source."""

    sigma: float = 10.0
    r: float = 12.0
    beta: float = 8.0 / 3.0

    def __post_init__(self):
        if not (self.sigma > 0 and self.beta > 0 and self.r > 0):
            raise ValueError("sigma, r, beta must all be positive")


@dataclass(frozen=True)
class HenonParams:
    """Parameters of the discrete source."""

    gamma: float = 0.2
    delta: float = 0.1

    def __post_init__(self):
        if self.gamma == 0.0:
            raise ValueError("gamma must be nonzero")


@dataclass(frozen=True)
class ScalingFactors:
    """Per-axis dynamic-range compression factors, each >= 1."""

    eps_x: float = 1.0
    eps_y: float = 1.0
    eps_z: float = 1.0

    def __post_init__(self):
        if not all(eps >= 1.0 for eps in (self.eps_x, self.eps_y, self.eps_z)):
            raise ValueError("scaling factors must be >= 1")


UNIT_SCALING = ScalingFactors(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled orbit.

    ``samples`` has one row per time step and one column per state component
    (three for the flow, two for the map).  ``dt`` is the sampling step (1.0
    for maps).  ``transient_cutoff`` is the first row index considered part of
    the steady regime; statistics that assume stationarity should start there.
    """

    dt: float
    samples: np.ndarray
    transient_cutoff: int

    @property
    def steady_samples(self) -> np.ndarray:
        return self.samples[self.transient_cutoff:]


def transient_cutoff_index(n_samples: int, fraction: float = DEFAULT_TRANSIENT_FRACTION) -> int:
    """Row index where the steady-statistics window starts."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("transient fraction must be in [0, 1)")
    return int(fraction * n_samples)


def steps_for_horizon(horizon: float, dt: float) -> int:
    """Number of integration steps covering ``horizon`` time units.

    The map takes one step per time unit (``dt`` 1.0).  A ratio within 1e-9
    below a whole number rounds up to it.  A count beyond ``sys.maxsize``,
    more steps than an array can index, is rejected.
    """
    if not (dt > 0 and horizon > 0 and math.isfinite(horizon / dt)):
        raise ValueError(f"dt and horizon must be positive with a finite ratio, got {dt:g} and {horizon:g}")
    n_steps = int(math.floor(horizon / dt + 1e-9))
    if n_steps > sys.maxsize:
        raise ValueError(f"horizon {horizon:g} at dt {dt:g} is {n_steps:.3g} steps, more than {sys.maxsize}")
    return n_steps


def check_array_size(shape: tuple[int, ...], what: str) -> None:
    """Raise ValueError unless an array of doubles of ``shape`` fits numpy's limit of ``sys.maxsize`` bytes."""
    if 8 * math.prod(shape) > sys.maxsize:
        raise ValueError(f"{what} would take more than {sys.maxsize} bytes, the most an array may hold")


def rate_constants(params: LorenzParams, scaling: ScalingFactors) -> tuple:
    """Precomputed coefficient tuple consumed by lorenz_rates / rk4_step."""
    return (
        params.sigma,
        params.r,
        params.beta,
        scaling.eps_y / scaling.eps_x,
        scaling.eps_x / scaling.eps_y,
        scaling.eps_z,
        scaling.eps_x * scaling.eps_y / scaling.eps_z,
    )


def lorenz_rates(x, y, z, consts):
    """Right-hand side of the scaled flow; works on scalars or arrays alike."""
    sigma, r, beta, ryx, rxy, ez, rxyz = consts
    dx = sigma * (ryx * y - x)
    dy = rxy * x * (r - ez * z) - y
    dz = rxyz * x * y - beta * z
    return dx, dy, dz


def lorenz_step(dt: float, consts: tuple):
    """The flow's ``step(s, work)`` for :func:`sample_blocks`: one :func:`rk4_step`.

    dt and ``consts`` are packed here, once, into the array of doubles the
    compiled kernel reads them from; looking its address up costs about as
    much as a C step of a few hundred orbits, so no step does it.
    """
    packed = np.array((dt, *consts))
    rates = (packed, packed.ctypes.data)

    def step(s, work):
        return rk4_step(s[0], s[1], s[2], dt, consts, work, rates)

    return step


def rk4_step(x, y, z, dt, consts, work, rates):
    """One classical Runge-Kutta step of the block row (x, y, z) into the next row.

    ``rates`` holds dt and ``consts`` as :func:`lorenz_step` packs them for
    the compiled kernel: an array of doubles and its address.  ``work`` is the
    next row's entry from :func:`sample_blocks`: its component arrays and the
    addresses of (x, y, z)'s row and of its own.  The compiled kernel writes
    the new state there; without it the textbook step below is copied in, on
    Python floats when the row is one orbit wide, where a numpy call costs as
    much as ~30 float operations.  Returns the component arrays.
    """
    row = work[0]
    kernel = _rk4.kernel()
    if kernel is not None:
        kernel.step(work[1], work[2], len(x), rates[1])
        return row
    one = len(x) == 1
    if one:
        x, y, z = x.item(), y.item(), z.item()
    h = 0.5 * dt
    w = dt / 6.0
    k1x, k1y, k1z = lorenz_rates(x, y, z, consts)
    k2x, k2y, k2z = lorenz_rates(x + h * k1x, y + h * k1y, z + h * k1z, consts)
    k3x, k3y, k3z = lorenz_rates(x + h * k2x, y + h * k2y, z + h * k2z, consts)
    k4x, k4y, k4z = lorenz_rates(x + dt * k3x, y + dt * k3y, z + dt * k3z, consts)
    new = (
        x + w * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
        y + w * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
        z + w * (k1z + 2.0 * k2z + 2.0 * k3z + k4z),
    )
    if one:
        row[0][0], row[1][0], row[2][0] = new
    else:
        row[0][...], row[1][...], row[2][...] = new
    return row


def lorenz_derivative(
    state: Sequence[float],
    params: LorenzParams,
    scaling: ScalingFactors = UNIT_SCALING,
) -> np.ndarray:
    """Instantaneous rates (dx/dt, dy/dt, dz/dt) at ``state``."""
    x, y, z = state
    return np.array(lorenz_rates(x, y, z, rate_constants(params, scaling)), dtype=float)


def scale_state(state: Sequence[float], scaling: ScalingFactors) -> np.ndarray:
    """Map an unscaled state into compressed coordinates (componentwise division)."""
    x, y, z = state
    return np.array([x / scaling.eps_x, y / scaling.eps_y, z / scaling.eps_z])


def unscale_state(state: Sequence[float], scaling: ScalingFactors) -> np.ndarray:
    """Inverse of :func:`scale_state`."""
    x, y, z = state
    return np.array([x * scaling.eps_x, y * scaling.eps_y, z * scaling.eps_z])


def block_rows(dim: int, width: int) -> int:
    """Samples per block when ``width`` orbits of dimension ``dim`` advance together.

    At least two, so that an in-place step never writes the block row it reads.
    """
    return max(2, min(_BLOCK_ROWS_MAX, _BLOCK_BYTES // (8 * dim * width)))


def sample_blocks(step, state: np.ndarray, n_steps: int, bound: float = DEFAULT_DIVERGENCE_BOUND):
    """Advance ``width`` orbits ``n_steps`` steps; yield their samples block by block.

    ``state`` is a (dim, width) array, one column per orbit.  ``step(s, work)``
    maps the components of a state to those of the next one, as
    :func:`lorenz_step` and :func:`henon_map_step` build it.  ``s`` is the
    ``dim`` component arrays of a block row, and ``work`` is the entry of the
    row that receives the result: its component arrays and the addresses of
    ``s``'s row and of its own.  ``step`` writes the result there and returns
    that row's components.

    Yields ``(k0, samples, bad)``.  ``samples`` has shape (m, dim, width) and
    holds the samples k0 .. k0 + m - 1; the first block is the initial state
    alone.  Every block is a C-contiguous array of doubles, whatever the
    strides of ``state``.  ``bad`` is None, or an (m, width) mask of the
    samples with a component beyond ``bound`` or not finite.  An orbit is dead from its first
    bad sample on: its columns read 0 from the block where that happened, and
    it restarts from the origin at every block boundary.  The buffer behind
    ``samples`` is reused, so a caller must be done with one block before it
    asks for the next.
    """
    dim, width = state.shape
    rows = block_rows(dim, width)
    # step i of a block reads row (i - 1) mod R and writes row i; the start is
    # copied into the last row, so the first step reads it like the rest
    block = np.empty((min(rows, max(n_steps, 2)), dim, width))
    block[-1] = state
    yield 0, block[-1:], None
    dead = np.zeros(width, dtype=bool)
    base, stride = block.ctypes.data, block.strides[0]
    # the components and addresses are looked up once here: a per-step lookup
    # costs as much as half a C step
    works = [(list(row), base + (i - 1) % len(block) * stride, base + i * stride)
             for i, row in enumerate(block)]
    s = works[-1][0]
    k0 = 1
    while k0 <= n_steps:
        m = min(rows, n_steps + 1 - k0)
        samples = block[:m]
        # an orbit that leaves the bound mid-block overflows until the block
        # ends; it is zeroed below
        with np.errstate(over="ignore", invalid="ignore"):
            for work in works[:m]:
                s = step(s, work)
        bad = None
        # NaN fails both comparisons
        if not (samples.max() <= bound and -bound <= samples.min()):
            bad = ~(np.abs(samples) <= bound).all(axis=1)
            dead |= bad.any(axis=0)
        if dead.any():
            samples[:, :, dead] = 0.0
        yield k0, samples, bad
        k0 += m


def integrate_lorenz(
    initial: Sequence[float],
    params: LorenzParams,
    scaling: ScalingFactors = UNIT_SCALING,
    dt: float = DEFAULT_DT,
    horizon: float = 50.0,
    *,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
    transient_fraction: float = DEFAULT_TRANSIENT_FRACTION,
) -> Trajectory:
    """Integrate the scaled flow with fixed-step RK4.

    Args:
        initial: starting state (x, y, z) in scaled coordinates.
        params: system parameters.
        scaling: per-axis compression factors.
        dt: step size.
        horizon: total integration time; floor(horizon/dt) steps are taken.
        divergence_bound: raise DivergenceError as soon as any component
            exceeds this magnitude or becomes non-finite.
        transient_fraction: fraction of samples marked as transient.

    Returns:
        Trajectory with floor(horizon/dt) + 1 rows including the initial state.
    """
    step = lorenz_step(dt, rate_constants(params, scaling))
    n_steps = steps_for_horizon(horizon, dt)

    def diverged(k):
        return DivergenceError(f"state magnitude exceeded {divergence_bound:g} at t={k * dt:g}", step=k)

    out = _collect(step, initial, STATE_DIM["lorenz"], n_steps, divergence_bound, diverged)
    return Trajectory(dt, out, transient_cutoff_index(n_steps + 1, transient_fraction))


def _collect(step, initial, dim, n_steps, bound, diverged) -> np.ndarray:
    """Every sample of one orbit, as an (n_steps + 1, dim) array.

    Raises ``diverged(k)`` for the first step k whose state leaves ``bound``.
    """
    state = np.array([float(v) for v in initial]).reshape(dim, 1)
    out = np.empty((n_steps + 1, dim))
    for k0, samples, bad in sample_blocks(step, state, n_steps, bound):
        if bad is not None:
            raise diverged(k0 + int(np.argmax(bad[:, 0])))
        out[k0:k0 + samples.shape[0]] = samples[:, :, 0]
    return out


def henon_constants(params: HenonParams) -> tuple:
    """gamma and delta packed for the compiled map step: an array of doubles and its address.

    Looking the address up costs about as much as a C step of a few hundred
    orbits, so it is done once per operating point, as :func:`lorenz_step`
    does for the flow.
    """
    packed = np.array((params.gamma, params.delta))
    return packed, packed.ctypes.data


def henon_map_step(params: HenonParams):
    """The map's ``step(s, work)`` for :func:`sample_blocks`: one :func:`henon_step`.

    gamma and delta are packed once, by :func:`henon_constants`.
    """
    consts = henon_constants(params)

    def step(s, work):
        return henon_step(s, params, work, consts)

    return step


def henon_step(state: Sequence[float], params: HenonParams, work=None, consts=None):
    """One application of the map.

    Without ``work`` the new state is returned as a tuple.  ``work`` is a
    block row's entry from :func:`sample_blocks`, and ``consts`` holds gamma
    and delta as :func:`henon_constants` packs them.  The compiled kernel
    writes the new state into that row; without it the textbook map does, on
    Python floats when the row is one orbit wide.  Returns the row's two
    component arrays.
    """
    if work is None:
        x, y = state
        return y + 1.0 - params.gamma * x * x, params.delta * x
    row = work[0]
    kernel = _rk4.kernel()
    if kernel is not None:
        kernel.henon(work[1], work[2], len(row[0]), consts[1])
        return row
    x, y = state
    if len(x) == 1:
        x, y = x.item(), y.item()
        row[0][0], row[1][0] = y + 1.0 - params.gamma * x * x, params.delta * x
    else:
        np.subtract(y + 1.0, params.gamma * x * x, out=row[0])
        np.multiply(params.delta, x, out=row[1])
    return row


def iterate_henon(
    initial: Sequence[float],
    params: HenonParams,
    n_steps: int = 100,
    *,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
    transient_fraction: float = DEFAULT_TRANSIENT_FRACTION,
) -> Trajectory:
    """Iterate the map ``n_steps`` times; returns a Trajectory with dt = 1."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")

    def diverged(k):
        return DivergenceError(f"state magnitude exceeded {divergence_bound:g} at step {k}", step=k)

    out = _collect(henon_map_step(params), initial, STATE_DIM["henon"], n_steps, divergence_bound, diverged)
    return Trajectory(1.0, out, transient_cutoff_index(n_steps + 1, transient_fraction))
