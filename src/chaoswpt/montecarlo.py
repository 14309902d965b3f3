"""Monte Carlo ensembles validating the closed-form DC predictions.

Realizations differ only in their initial point, drawn from a counter-based
RNG stream per realization (Philox keyed by the seed, jumped by the
realization index; see :func:`initial_points`), so realization i's draw
depends only on (seed, i): results are reproducible and independent of chunk
widths or evaluation order.

Realizations are integrated a chunk at a time by the time-blocked core of
single orbits (:func:`chaoswpt.dynamics.sample_blocks`), one call per block;
the core records each orbit's first bad step.  The same call tallies the
block as it writes it: it adds the moment, peak and power sums (in step
order, so the bits do not depend on the block length) and copies a strided,
time-major subsample of each realization, on which one backward scan per
chunk applies :func:`detect_steady_state`'s rule to every realization at
once.  The block calls and the scan run in the compiled library of
:mod:`chaoswpt._rk4` where it builds; otherwise
``chaoswpt.dynamics._fill_block`` steps the block by the textbook step and
tallies it with :func:`_block_moments` and a strided copy, and the scan is
:func:`_quiet_counts`, with the same bits.  Full trajectories are never
stored, and a chunk is as wide as its subsample fits
:data:`_DETECTION_BYTES`, so memory stays bounded up to
41,666 subsample rows of the flow (4,166 time units at the 0.1 spacing) and
62,500 map iterations; beyond that an 8-wide chunk's grows with the horizon.

Each realization leaves one record: its m2, m4, PAPR and settling time.  NaN
is the only mark of what went wrong.  A realization that diverged has NaN
for m2, m4 and PAPR, and one that never certifiably settled has a NaN
settling time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _rk4
from .dynamics import (
    DEFAULT_DIVERGENCE_BOUND,
    DEFAULT_DT,
    DEFAULT_TRANSIENT_FRACTION,
    STATE_DIM,
    HenonParams,
    LorenzParams,
    ScalingFactors,
    Trajectory,
    UNIT_SCALING,
    check_array_size,
    henon_constants,
    henon_step,
    lorenz_step,
    rate_constants,
    sample_blocks,
    steps_for_horizon,
    transient_cutoff_index,
)
from .errors import InvalidSweepError
from .harvest import (
    FadingMoments,
    HarvestCoefficients,
    HarvestReport,
    LinkBudget,
    MULTISINE_SAMPLES,
    NO_FADING,
    RectennaParams,
    check_tones,
    coefficients,
    dc_from_moments,
    eta_henon,
    eta_scaled_lorenz,
    multisine_waveform,
    waveform_moments,
    waveform_papr_db,
    with_fading,
)
from .stability import henon_stable, hurwitz_stable

#: default initial-point boxes, one (low, high) pair per state component
LORENZ_INIT_BOX = ((-20.0, 20.0), (-20.0, 20.0), (0.0, 40.0))
HENON_INIT_BOX = ((-0.5, 0.5), (-0.5, 0.5))

#: target spacing (in time units) of the subsampled settling-detection buffer
_DETECTION_SPACING = 0.1

#: bytes one chunk's settling-detection buffer may take.  The buffer is a
#: second copy of the subsampled orbits (of every sample on the map, whose
#: stride is 1), and budgets from 1 to 16 MB ran a map ensemble equally fast.
#: 8 MB is the least whole-MB budget that keeps 10,001 flow rows (full-scale
#: fig4) 32 orbits wide; at 4 MB (16 wide) fig4 ran about 15% slower than at
#: 32 MB.  The compiled RK4 costs about 20 ns a realization-step 8 orbits wide,
#: where one vector's dependency chain sets the pace, and 3-4 ns from 16 up.
_DETECTION_BYTES = 8 * 10**6


def _detection_grid(n_steps: int, dt: float, dim: int) -> tuple[int, int, int]:
    """Detection stride and rows, and the chunk width: as many 8-orbit vectors as _DETECTION_BYTES holds, at least one."""
    stride = max(1, int(round(_DETECTION_SPACING / dt)))
    n_det = 1 + n_steps // stride
    return stride, n_det, 8 * max(1, _DETECTION_BYTES // (n_det * dim * 8 * 8))


@dataclass(frozen=True)
class EnsembleConfig:
    """Size, seeding, and windowing of one Monte Carlo ensemble, whose arrays fit numpy's ``sys.maxsize`` bytes."""

    n_realizations: int = 1000
    seed: int = 1
    init_box: tuple[tuple[float, float], ...] | None = None
    dt: float = DEFAULT_DT
    horizon: float = 100.0
    steady_state_tol: float = 1e-3
    transient_fraction: float = DEFAULT_TRANSIENT_FRACTION

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        # a flow ensemble's largest arrays, and a map one's (one step per time
        # unit): the initial points and one chunk's detection buffer
        for system, dt in (("lorenz", self.dt), ("henon", 1.0)):
            dim = STATE_DIM[system]
            check_array_size((self.n_realizations, dim), f"the initial points of a {system} ensemble")
            _, n_det, width = _detection_grid(steps_for_horizon(self.horizon, dt), dt, dim)
            check_array_size((n_det, dim, min(self.n_realizations, width)),
                             f"the settling-detection buffer of a {system} ensemble")
        if not 0 < self.steady_state_tol < math.inf:
            raise ValueError("steady_state_tol must be finite and positive")
        transient_cutoff_index(0, self.transient_fraction)
        if self.init_box is not None:
            if len(self.init_box) not in STATE_DIM.values():
                raise ValueError(f"init_box must have 2 (map) or 3 (flow) pairs, got {len(self.init_box)}")
            for lo, hi in self.init_box:
                if not -math.inf < lo <= hi < math.inf:
                    raise ValueError(f"init_box bounds must be finite and in order: ({lo:g}, {hi:g})")


@dataclass(frozen=True)
class SystemConfig:
    """Everything one operating point needs: source, channel, and ensemble."""

    system: str = "lorenz"
    lorenz: LorenzParams = LorenzParams()
    henon: HenonParams = HenonParams()
    scaling: ScalingFactors = UNIT_SCALING
    link: LinkBudget = LinkBudget()
    rectenna: RectennaParams = RectennaParams()
    fading: FadingMoments = NO_FADING
    ensemble: EnsembleConfig = EnsembleConfig()
    n_tones: int = 4

    def __post_init__(self):
        if self.system not in ("lorenz", "henon", "multisine"):
            raise ValueError(f"unknown system {self.system!r}")
        check_tones(self.n_tones)
        _dc_coefficients(self)


@dataclass(frozen=True)
class SweepSpec:
    """One parameter swept over explicit values, everything else fixed."""

    parameter: str
    values: tuple
    fixed: SystemConfig


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregate statistics of one ensemble (or one deterministic waveform).

    Moment statistics are per-realization time averages over the
    post-transient window, averaged across non-diverged realizations; stderr
    fields are standard errors of those across-realization means.  They are
    read from per-realization records in which NaN marks a diverged
    realization (and a settling time that was never certified), so statistics
    are NaN when every realization diverged.  ``fraction_converged`` counts
    realizations whose settling was certified by detect_steady_state (diverged
    realizations count as non-converged).
    """

    config: SystemConfig
    report: HarvestReport
    m2_mean: float
    m2_stderr: float
    m4_mean: float
    m4_stderr: float
    papr_db_mean: float
    papr_db_stderr: float
    n_realizations: int
    n_diverged: int
    fraction_converged: float
    mean_convergence_time: float


def initial_points(cfg: EnsembleConfig, box: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Draw one initial point per realization from independent keyed streams.

    Row i holds ``Generator(Philox(key=seed).jumped(i)).uniform(lo, hi)``: a
    jump adds i to the third word of the counter, and the first draw of the
    jumped stream is the Philox block of counter ``[1, 0, i, 0]``, which
    :func:`_philox_blocks` computes for every row at once.
    """
    bounds = np.asarray(box, dtype=float)
    raw = _philox_blocks(cfg.seed, 0, cfg.n_realizations)[:, :bounds.shape[0]]
    # Generator.uniform: lo + (hi - lo) * (53 random bits scaled to [0, 1))
    u = (raw >> np.uint64(11)) * 2.0**-53
    return bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * u


#: Philox4x64's round multipliers of counter words 0 and 2 and its key
#: increments (Salmon et al., SC'11), as columns that broadcast over a
#: (2, n) pair of words, and the multipliers' 32-bit halves
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_MASK32 = np.uint64(2**32 - 1)
_SHIFT32 = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> _SHIFT32


def _philox_blocks(seed: int, first: int, n: int) -> np.ndarray:
    """Philox4x64-10 of the counters ``[1, 0, i, 0]``, i = first .. first + n - 1, under key ``[seed, 0]``.

    Returns an (n, 4) array of uint64, one output block a row, as numpy's
    ``Philox`` computes them, for all rows at once. Words 0 and 2 of every
    counter travel as one (2, n) array x and words 1 and 3 as y; a round
    multiplies x by its two multipliers in one pass, and Random123's round,
    ``[hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)]``,
    reads the products' halves in reverse. The high halves are assembled
    from 32-bit halves: with m = m_hi 2^32 + m_lo and x = x1 2^32 + x0, no
    partial sum exceeds 2^64 - 1, as each product of halves is at most
    2^64 - 2^33 + 1. The key wraps mod 2^64 as it advances.
    """
    x = np.stack((np.ones(n, dtype=np.uint64), np.arange(n, dtype=np.uint64) + np.uint64(first)))
    y = np.zeros((2, n), dtype=np.uint64)
    key = np.array([[seed], [0]], dtype=np.uint64)
    for _ in range(_PHILOX_ROUNDS):
        x0, x1 = x & _MASK32, x >> _SHIFT32
        low = _M_LO * x0
        mid = _M_HI * x0 + (low >> _SHIFT32)
        mid2 = _M_LO * x1 + (mid & _MASK32)
        hi = _M_HI * x1 + (mid >> _SHIFT32) + (mid2 >> _SHIFT32)
        x, y = hi[::-1] ^ y ^ key, (_PHILOX_M * x)[::-1]
        key += _PHILOX_W
    return np.stack((x[0], y[0], x[1], y[1]), axis=1)


def initial_box(config: SystemConfig) -> tuple[tuple[float, float], ...]:
    """The box an ensemble of ``config.system`` draws its initial points from."""
    box = config.ensemble.init_box or (LORENZ_INIT_BOX if config.system == "lorenz" else HENON_INIT_BOX)
    dim = STATE_DIM[config.system]
    if len(box) != dim:
        raise ValueError(f"init_box must have {dim} (low, high) pairs for {config.system}")
    return box


def _min_window(n: int) -> int:
    """Rows a certifying suffix of ``n`` rows must hold: 10% of them, and two."""
    return max(2, int(math.ceil(0.1 * n)))


def detect_steady_state(traj: Trajectory, tol: float = EnsembleConfig.steady_state_tol) -> int | None:
    """Index where the orbit has settled, or None if it never certifiably does.

    That is the first row from which every component's remaining excursion is
    <= tol, provided the suffix it starts holds at least 10% of the rows (and
    no fewer than two); otherwise detection is refused.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    samples = traj.samples
    rev = samples[::-1]
    hi = np.maximum.accumulate(rev, axis=0)[::-1]
    lo = np.minimum.accumulate(rev, axis=0)[::-1]
    variation = (hi - lo).max(axis=1)
    quiet = variation <= tol
    if not quiet.any():
        return None
    first = int(np.argmax(quiet))
    n = samples.shape[0]
    return first if n - first >= _min_window(n) else None


def _first_quiet_index(det: np.ndarray, tol: float) -> np.ndarray:
    """:func:`detect_steady_state`'s index for each orbit of a chunk, -1 for None.

    ``det`` is (n, dim, width), one column per orbit of the map or the flow:
    dim 2 or 3, else ValueError.  The compiled library counts each orbit's
    quiet rows where it loads, :func:`_quiet_counts` otherwise; both give the
    same counts.
    """
    n, dim, width = det.shape
    if dim not in STATE_DIM.values():
        raise ValueError(f"a settling scan takes 2 or 3 state components, got {dim}")
    kernel = _rk4.kernel()
    if kernel is not None:
        det = np.ascontiguousarray(det, dtype=float)
        count = np.empty(width, dtype=np.intp)
        work = np.empty((2, dim, width))
        kernel.quiet(det.ctypes.data, n, dim, width, tol, work.ctypes.data, count.ctypes.data)
    else:
        count = _quiet_counts(det, tol)
    return np.where(count >= _min_window(n), n - count, -1)


def _quiet_counts(det: np.ndarray, tol: float) -> np.ndarray:
    """How many of its last rows each orbit of ``det`` stays within ``tol``, as ``chaoswpt_quiet_rows`` does.

    The rows are scanned backwards with a running max and min per orbit; an
    orbit's suffix excursion only grows as the suffix extends back, so its
    quiet rows are the last ones, and the scan stops at the first row where
    no orbit is quiet.  A NaN makes its orbit's span NaN, never quiet, and so
    does inf - inf, the span of an orbit that overflowed.  This is the
    library's numpy fallback, and the reference its tests check it against.
    """
    width = det.shape[2]
    hi = det[-1].copy()
    lo = det[-1].copy()
    span = np.empty_like(hi)
    quiet = np.empty(width, dtype=bool)
    count = np.zeros(width, dtype=np.intp)
    with np.errstate(invalid="ignore"):  # inf - inf
        for row in det[::-1]:
            np.maximum(hi, row, out=hi)
            np.minimum(lo, row, out=lo)
            np.subtract(hi, lo, out=span)
            np.less_equal(span.max(axis=0), tol, out=quiet)
            if not quiet.any():
                break
            count += quiet
    return count


def run_ensemble(config: SystemConfig) -> EnsembleResult:
    """Integrate one ensemble and compare measured moments with the closed form."""
    if config.system not in STATE_DIM:
        raise ValueError(f"run_ensemble applies to lorenz/henon, not {config.system!r}")
    ens = config.ensemble
    box = initial_box(config)
    dim = len(box)
    if config.system == "lorenz":
        dt = ens.dt
        verdict = hurwitz_stable(config.lorenz)
        step = lorenz_step(dt, rate_constants(config.lorenz, config.scaling))
    else:
        dt = 1.0
        verdict = henon_stable(config.henon)
        consts = henon_constants(config.henon)

        # henon_map_step's step, but calling this module's henon_step, which
        # perfbench's tracer wraps to count each block's realization-steps
        def step(samples, work, k0):
            return henon_step(samples.transpose(1, 0, 2), config.henon, work, consts, k0)

    n_steps = steps_for_horizon(ens.horizon, dt)
    stride, n_det, chunk = _detection_grid(n_steps, dt, dim)
    n_samples = n_steps + 1
    cutoff = transient_cutoff_index(n_samples, ens.transient_fraction)
    # Chaotic (unstable) regimes have no settling point; measure PAPR once the
    # orbit has had 10% of the horizon to reach the attractor.
    papr_start = cutoff if verdict.stable else min(cutoff, max(1, int(0.1 * n_samples)))
    m_count = n_samples - cutoff
    p_count = n_samples - papr_start

    pts = initial_points(ens, box)
    n = ens.n_realizations
    m2, m4, papr_db, conv_time = np.empty((4, n))
    # one settling-detection buffer, sized for the widest chunk, serves every
    # chunk: one freed and allocated afresh per chunk can come back from
    # malloc as new pages while the freed ones stay resident, which doubled
    # the peak memory of a 5000-realization map ensemble in some runs
    det_buf = np.empty(n_det * dim * min(n, chunk))

    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        width = sl.stop - sl.start
        acc = np.zeros((4, width))
        det = det_buf[:n_det * dim * width].reshape(n_det, dim, width)
        tally = _chunk_tally(cutoff, papr_start, stride, acc, det)
        # each block's step adds the block into acc and det
        for _, _, first in sample_blocks(step, pts[sl].T, n_steps, DEFAULT_DIVERGENCE_BOUND, tally):
            pass

        # a diverged realization's record is NaN; psum >= pmax, so a zero
        # psum gives 0/0, NaN too
        acc[:, first >= 0] = np.nan
        s2, s4, psum, pmax = acc
        m2[sl] = s2 / m_count
        m4[sl] = s4 / m_count
        with np.errstate(divide="ignore", invalid="ignore"):
            papr_db[sl] = 10.0 * np.log10(pmax / (psum / p_count))
        idx = _first_quiet_index(det, ens.steady_state_tol)
        conv_time[sl] = np.where((first < 0) & (idx >= 0), idx * stride * dt, np.nan)

    return _aggregate(config, verdict.stable, m2, m4, papr_db, conv_time)


def _chunk_tally(cutoff: int, papr_start: int, stride: int, acc: np.ndarray, det: np.ndarray) -> tuple:
    """A chunk's tally for :func:`chaoswpt.dynamics.sample_blocks`, packed once per chunk.

    Sample k is added into ``acc``, rows (s2, s4, psum, pmax), as
    :func:`_block_moments` says: into the power sums from k = ``papr_start``
    on, and into the moment sums too from k = ``cutoff`` >= ``papr_start``
    on, the only windows the compiled block steps add.  Every ``stride``-th
    sample is copied into row k / ``stride`` of ``det``.  The
    windows, the stride and the two arrays' addresses are packed into an
    array of ``uintp``, as the compiled block steps read ``_rk4.c``'s
    ``struct tally``; ``add(samples, k0)`` does the same in numpy for a
    block whose first sample is k0.
    """
    packed = np.array((cutoff, papr_start, stride, acc.ctypes.data, det.ctypes.data), dtype=np.uintp)

    def add(samples, k0):
        _block_moments(samples, max(cutoff - k0, 0), max(papr_start - k0, 0), acc)
        # every stride-th sample, consecutive rows of det
        j = -k0 % stride
        kept = samples[j::stride]
        row = (k0 + j) // stride
        det[row:row + kept.shape[0]] = kept

    return packed, packed.ctypes.data, add


def _block_moments(samples: np.ndarray, c: int, p: int, acc: np.ndarray) -> None:
    """Add one block into ``acc``, rows (s2, s4, psum, pmax), as the compiled block steps do.

    From row ``c`` of ``samples`` on, the first component's square is added
    into s2 and its square's square into s4; from row ``p`` on, the square is
    added into psum and raises pmax.  This is the library's numpy fallback,
    and the reference its tests check it against.
    """
    s2, s4, psum, pmax = acc
    x2 = samples[:, 0] * samples[:, 0]
    if c < x2.shape[0]:
        _running_sum(s2, x2[c:])
        _running_sum(s4, x2[c:] * x2[c:])
    if p < x2.shape[0]:
        np.maximum(pmax, x2[p:].max(axis=0), out=pmax)
        _running_sum(psum, x2[p:])


def _running_sum(total: np.ndarray, rows: np.ndarray) -> None:
    """Add each row of ``rows`` into ``total`` in turn, in place.

    The additions and their order are those of a per-step ``total += row``;
    a sum over the rows would pair them instead.  An accumulate costs about
    50 ns per column and an add about 0.6 us per call, so a block of a few
    wide rows is added row by row and any other block is accumulated.
    """
    if 10 * rows.shape[0] < rows.shape[1]:
        for row in rows:
            total += row
    else:
        buf = np.concatenate((total[None], rows))
        total[...] = np.add.accumulate(buf, axis=0, out=buf)[-1]


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    k = values.size
    if k == 0:
        return float("nan"), float("nan")
    if k == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(k))


def _aggregate(config, stable, m2, m4, papr_db, conv_time) -> EnsembleResult:
    """Summarise one value per realization and array, where NaN marks a missing one.

    A realization stayed bounded when its m2 is finite (a diverged one's m2,
    m4 and PAPR are NaN) and certifiably settled when its settling time is.
    """
    n = m2.size
    bounded = np.isfinite(m2)
    m2_mean, m2_se = _mean_stderr(m2[bounded])
    m4_mean, m4_se = _mean_stderr(m4[bounded])
    papr_mean, papr_se = _mean_stderr(papr_db[np.isfinite(papr_db)])

    papr = papr_mean if math.isfinite(papr_mean) else None
    times = conv_time[np.isfinite(conv_time)]
    return EnsembleResult(
        config=config,
        report=_report(config, stable, m2_mean, m4_mean, papr),
        m2_mean=m2_mean,
        m2_stderr=m2_se,
        m4_mean=m4_mean,
        m4_stderr=m4_se,
        papr_db_mean=papr_mean,
        papr_db_stderr=papr_se,
        n_realizations=n,
        n_diverged=n - int(bounded.sum()),
        fraction_converged=times.size / n,
        mean_convergence_time=float(times.mean()) if times.size else float("nan"),
    )


def _dc_coefficients(config: SystemConfig) -> HarvestCoefficients:
    """``config``'s DC coefficients, its link, rectenna and fading folded in."""
    return with_fading(coefficients(config.link, config.rectenna), config.fading)


def _report(config: SystemConfig, stable: bool, m2: float, m4: float, papr_db) -> HarvestReport:
    """Closed-form and measured DC of a waveform with moments (m2, m4), priced under ``config``.

    A multisine's closed form is priced from its exact moments and nothing is
    measured; an unstable source has no closed form.
    """
    coeff = _dc_coefficients(config)
    if config.system == "multisine":
        return HarvestReport(dc_from_moments(m2, m4, coeff), None, papr_db, stable)
    if not stable:
        eta_analytic = None
    elif config.system == "lorenz":
        eta_analytic = eta_scaled_lorenz(config.lorenz, config.scaling, coeff)
    else:
        eta_analytic = eta_henon(config.henon, coeff)
    eta_empirical = dc_from_moments(m2, m4, coeff) if math.isfinite(m2) else None
    return HarvestReport(eta_analytic, eta_empirical, papr_db, stable)


def multisine_result(config: SystemConfig) -> EnsembleResult:
    """Deterministic multisine baseline presented in the same result shape.

    One period is built once; its moments and PAPR are all read from it.
    """
    wave = multisine_waveform(config.n_tones, MULTISINE_SAMPLES)
    m2, m4 = waveform_moments(wave)
    papr = waveform_papr_db(wave)
    return EnsembleResult(
        config=config,
        report=_report(config, True, m2, m4, papr),
        m2_mean=m2,
        m2_stderr=0.0,
        m4_mean=m4,
        m4_stderr=0.0,
        papr_db_mean=papr,
        papr_db_stderr=0.0,
        n_realizations=1,
        n_diverged=0,
        fraction_converged=1.0,
        mean_convergence_time=float("nan"),
    )


def with_link(result: EnsembleResult, link: LinkBudget) -> EnsembleResult:
    """Re-price an already-run result under a different link budget.

    The waveform statistics do not depend on the link, so only the coefficients
    of the DC model change; no re-integration happens.
    """
    cfg = replace(result.config, link=link)
    report = _report(cfg, result.report.stable, result.m2_mean, result.m4_mean, result.report.papr_db)
    return replace(result, config=cfg, report=report)


#: which swept parameter applies to which system
_SWEEPABLE = {
    "r": ("lorenz",),
    "sigma": ("lorenz",),
    "beta": ("lorenz",),
    "eps": ("lorenz",),
    "gamma": ("henon",),
    "delta": ("henon",),
    "n_tones": ("multisine",),
    "pt_dbm": ("lorenz", "henon", "multisine"),
}


def patched_config(base: SystemConfig, parameter: str, value) -> SystemConfig:
    """Copy of ``base`` with one swept parameter replaced."""
    if parameter not in _SWEEPABLE:
        raise InvalidSweepError(f"unknown sweep parameter {parameter!r}")
    if base.system not in _SWEEPABLE[parameter]:
        raise InvalidSweepError(
            f"parameter {parameter!r} does not apply to system {base.system!r}"
        )
    if parameter in ("r", "sigma", "beta"):
        return replace(base, lorenz=replace(base.lorenz, **{parameter: value}))
    if parameter == "eps":
        return replace(base, scaling=ScalingFactors(value, value, value))
    if parameter in ("gamma", "delta"):
        return replace(base, henon=replace(base.henon, **{parameter: value}))
    if parameter == "n_tones":
        if not float(value).is_integer():
            raise InvalidSweepError(f"n_tones must be a whole number, got {value!r}")
        return replace(base, n_tones=int(value))
    return replace(base, link=replace(base.link, pt_dbm=value))


def sweep(spec: SweepSpec) -> list[EnsembleResult]:
    """One result per swept value, in order; a bad value fails before anything runs.

    A ``pt_dbm`` sweep evaluates once and re-prices with :func:`with_link`.
    """
    if not spec.values:
        raise InvalidSweepError("sweep requires at least one value")
    cfgs = [patched_config(spec.fixed, spec.parameter, v) for v in spec.values]
    evaluate = multisine_result if spec.fixed.system == "multisine" else run_ensemble
    if spec.parameter != "pt_dbm":
        return [evaluate(cfg) for cfg in cfgs]
    first = evaluate(cfgs[0])
    return [first] + [with_link(first, cfg.link) for cfg in cfgs[1:]]
