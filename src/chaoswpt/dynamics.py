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
alike, a block of samples at a time into a preallocated buffer, and one
filler, :func:`_fill_block`, writes every block after the start.  The flow and
the map each fill a whole block in one call of a small C function
(``_rk4.c``) that :mod:`chaoswpt._rk4` compiles on first use: it runs across
the orbits at SIMD width, reads the system's constants through one pointer,
flags whether any sample it wrote is beyond the divergence bound or not
finite, and adds the block into an ensemble's tally, its sums and settling
subsample.  Without a compiler each system's one textbook step, a pure function
from a state to the next, advances the block a row at a time, on Python
floats when the block is one orbit wide and on the rows' arrays otherwise,
and the block is written once.  Every path agrees bit for bit.
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

#: bytes of samples every block holds, one orbit's too (10,922 flow rows), so
#: that the Python around each block call is a small share of its steps
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class LorenzParams:
    """Parameters of the continuous source."""

    sigma: float = 10.0
    r: float = 12.0
    beta: float = 8.0 / 3.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.sigma, self.r, self.beta)):
            raise ValueError("sigma, r, beta must all be positive")


@dataclass(frozen=True)
class HenonParams:
    """Parameters of the discrete source."""

    gamma: float = 0.2
    delta: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.delta)):
            raise ValueError("gamma and delta must be finite")
        if self.gamma == 0.0:
            raise ValueError("gamma must be nonzero")


@dataclass(frozen=True)
class ScalingFactors:
    """Per-axis dynamic-range compression factors, each >= 1."""

    eps_x: float = 1.0
    eps_y: float = 1.0
    eps_z: float = 1.0

    def __post_init__(self):
        if not all(1.0 <= eps < math.inf for eps in (self.eps_x, self.eps_y, self.eps_z)):
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
    if not (0 < dt < math.inf and horizon > 0 and math.isfinite(horizon / dt)):
        raise ValueError(f"dt and horizon must be finite and positive with a finite ratio, got {dt:g} and {horizon:g}")
    n_steps = int(math.floor(horizon / dt + 1e-9))
    if n_steps > sys.maxsize:
        raise ValueError(f"horizon {horizon:g} at dt {dt:g} is {n_steps:.3g} steps, more than {sys.maxsize}")
    return n_steps


def check_array_size(shape: tuple[int, ...], what: str) -> None:
    """Raise ValueError unless an array of doubles of ``shape`` fits numpy's limit of ``sys.maxsize`` bytes."""
    if 8 * math.prod(shape) > sys.maxsize:
        raise ValueError(f"{what} would take more than {sys.maxsize} bytes, the most an array may hold")


def rate_constants(params: LorenzParams, scaling: ScalingFactors) -> tuple:
    """Precomputed coefficient tuple consumed by lorenz_rates / lorenz_step."""
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
    """The flow's ``step(samples, work)`` for :func:`sample_blocks`: one :func:`rk4_step` per block.

    dt and ``consts`` are packed here, once, into the array of doubles the
    compiled kernel reads them from, with its address, which costs about as
    much to look up as a C step of a few hundred orbits, and the textbook
    RK4 step on those doubles, so no block builds either.
    """
    packed = np.array((dt, *consts))
    dt, *consts = packed.tolist()
    h = 0.5 * dt
    w = dt / 6.0

    def advance(s):
        x, y, z = s
        k1x, k1y, k1z = lorenz_rates(x, y, z, consts)
        k2x, k2y, k2z = lorenz_rates(x + h * k1x, y + h * k1y, z + h * k1z, consts)
        k3x, k3y, k3z = lorenz_rates(x + h * k2x, y + h * k2y, z + h * k2z, consts)
        k4x, k4y, k4z = lorenz_rates(x + dt * k3x, y + dt * k3y, z + dt * k3z, consts)
        return (x + w * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
                y + w * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
                z + w * (k1z + 2.0 * k2z + 2.0 * k3z + k4z))

    rates = (packed, packed.ctypes.data, advance)

    def step(samples, work, k0):
        return rk4_step(samples[:, 0], work, rates, k0)

    return step


def rk4_step(x, work, rates, k0):
    """:func:`_fill_block` with classical Runge-Kutta steps; ``x`` is the block's (m, width) x components."""
    return _fill_block(x.shape[0], rates, work, k0)


def _fill_block(m, consts, work, k0):
    """Fill a block's m rows, of the flow or the map as the buffer's dim says, and tally them.

    ``work`` is the buffer's entry from :func:`sample_blocks` and ``k0`` the
    block's first sample; row 0 receives the step of the buffer's last row,
    and row i that of row i - 1.  ``consts`` is the system's (packed,
    address, advance): its constants as an array of doubles, the array's
    address and ``advance(s)``, its pure textbook step.  The compiled kernel
    fills and tallies the block in one call.  Without it ``advance`` steps
    one orbit on Python floats, where a numpy call costs as much as ~30 float
    operations, wider blocks on the rows' arrays; the block is written once,
    then added into the tally, an orbit that leaves the bound overflowing
    until the block ends without numpy warnings.  Returns whether any sample
    written is beyond ``work``'s bound or not finite.
    """
    buffer, src, out, bound, tally = work
    _, dim, width = buffer.shape
    kernel = _rk4.kernel()
    if kernel is not None:
        fill = kernel.lorenz_rows if dim == STATE_DIM["lorenz"] else kernel.henon_rows
        return fill(src, out, m, width, consts[1], bound, k0, tally and tally[1])
    advance = consts[2]
    s = buffer[-1]
    s = s[:, 0].tolist() if width == 1 else tuple(s)
    rows = []
    samples = buffer[:m]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m):
            s = advance(s)
            rows.extend(s)
        samples.reshape((len(rows),) + np.shape(s[0]))[...] = rows
        if tally:
            tally[2](samples, k0)
    return _beyond(samples, bound)


def _beyond(samples, bound) -> bool:
    """Whether any of ``samples`` is beyond ``bound`` or not finite; NaN fails both comparisons."""
    return not (samples.max() <= bound and -bound <= samples.min())


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

    As many as :data:`_BLOCK_BYTES` holds at any width, but at least two, so
    that an in-place step never writes the block row it reads.
    """
    return max(2, _BLOCK_BYTES // (8 * dim * width))


def sample_blocks(step, state: np.ndarray, n_steps: int, bound: float = DEFAULT_DIVERGENCE_BOUND, tally=None):
    """Advance ``width`` orbits ``n_steps`` steps; yield their samples block by block.

    ``state`` is a (dim, width) array, one column per orbit.  ``step(samples,
    work, k0)`` fills one block, as :func:`lorenz_step` and
    :func:`henon_map_step` build it.  ``samples`` is the block itself, the
    (m, dim, width) first m rows of a buffer, and ``k0`` its first sample.
    ``work`` holds that buffer, the address of its last row, where the start
    and then each block's last sample lie, the buffer's own address, the
    bound and ``tally``.  ``step`` writes row 0 from the last row and row i
    from row i - 1, adds the block into ``tally``, and returns whether any
    sample written is beyond the bound or not finite.

    ``tally``, None for none, is where an ensemble sums and subsamples its
    orbits, as ``chaoswpt.montecarlo._chunk_tally`` builds it: ``(packed,
    address, add)``, an array that the compiled step reads through
    ``address``, and ``add(samples, k0)``, which does the same in numpy.
    Every sample, the start too, is added once, as it was written: before a
    dead orbit's columns are zeroed.

    Yields ``(k0, samples, first)``.  ``samples`` has shape (m, dim, width)
    and holds the samples k0 .. k0 + m - 1; the first block is the initial
    state alone.  Every block is a C-contiguous array of doubles, whatever the
    strides of ``state``.  ``first``, one (width,) integer array throughout,
    holds each orbit's first sample, the start (0) included, with a component
    beyond ``bound`` or not finite, whatever the bound, an infinite one too,
    or -1 while it has none.  From that sample on the orbit is dead: its
    columns read 0 from the block where that happened, and it restarts from
    the origin at every block boundary.  The buffer behind ``samples`` is
    reused, so a caller must be done with one block before it asks for the
    next.
    """
    dim, width = state.shape
    rows = block_rows(dim, width)
    # beyond the largest double only inf lies, so an infinite bound still
    # holds inf back
    bound = min(bound, sys.float_info.max)
    # every block reads the last row, where the previous one ended; block 0,
    # the start, lies there
    block = np.empty((min(rows, max(n_steps, 2)), dim, width))
    samples = block[-1:]
    samples[0] = state
    if tally:
        with np.errstate(over="ignore"):
            tally[2](samples, 0)
    flagged = _beyond(samples, bound)
    work = (block, block[-1].ctypes.data, block.ctypes.data, bound, tally)
    first = np.full(width, -1)
    dead = None  # the columns to zero, built only once one is bad
    k0 = 0
    while True:
        # an orbit that leaves the bound mid-block overflows until the block
        # ends; it is zeroed here
        if flagged:
            # NaN fails the comparison
            bad = ~(np.abs(samples) <= bound).all(axis=1)
            np.copyto(first, k0 + bad.argmax(axis=0), where=bad.any(axis=0) & (first < 0))
            dead = first >= 0
        if dead is not None:
            samples[:, :, dead] = 0.0
        yield k0, samples, first
        k0 += samples.shape[0]
        if k0 > n_steps:
            return
        samples = block[:min(rows, n_steps + 1 - k0)]
        flagged = step(samples, work, k0)


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

    Raises ``diverged(k)`` for the first step k whose state leaves ``bound``, 0 for the start.
    """
    if len(initial) != dim:
        raise ValueError(f"initial must have {dim} components, got {len(initial)}")
    state = np.array([float(v) for v in initial]).reshape(dim, 1)
    out = np.empty((n_steps + 1, dim))
    for k0, samples, first in sample_blocks(step, state, n_steps, bound):
        if first[0] >= 0:
            raise diverged(int(first[0]))
        out[k0:k0 + samples.shape[0]] = samples[:, :, 0]
    return out


def henon_constants(params: HenonParams) -> tuple:
    """The map's constants for :func:`_fill_block`: gamma and delta packed, their address and the textbook step.

    Looking the address up costs about as much as a C step of a few hundred
    orbits, so it is done once per operating point, as :func:`lorenz_step`
    does for the flow.
    """
    packed = np.array((params.gamma, params.delta))
    return packed, packed.ctypes.data, lambda s: henon_step(s, params)


def henon_map_step(params: HenonParams):
    """The map's ``step(samples, work)`` for :func:`sample_blocks`: one :func:`henon_step` per block.

    Its constants are built once, by :func:`henon_constants`.
    """
    consts = henon_constants(params)

    def step(samples, work, k0):
        return henon_step(samples.transpose(1, 0, 2), params, work, consts, k0)

    return step


def henon_step(state: Sequence[float], params: HenonParams, work=None, consts=None, k0=None):
    """Applications of the map.

    Without ``work``, the textbook step: one application to the state (x,
    y), floats or arrays alike, returned as a tuple.  With it, ``state`` is
    a block's two (m, width) component views and ``consts`` the map's
    constants as :func:`henon_constants` builds them: :func:`_fill_block`
    fills and tallies the block and returns whether a sample is bad.
    """
    if work is None:
        x, y = state
        return y + 1.0 - params.gamma * x * x, params.delta * x
    return _fill_block(len(state[0]), consts, work, k0)


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
