"""YAML experiment configuration: validation, defaults, manifest echo.

The dataclasses are the schema.  A field's annotation says what the document
may hold there, the class default is the default (so the empty document is a
valid config), and the ``__post_init__`` of the class, or of the domain class
the value feeds, is the only statement of a range rule.  Every violation is
reported at once, each as ``block.key: <the class's own reason>``.  Rules that
tie blocks together are checked once the blocks are valid.

:func:`harvest_files` is the one statement of the sweeps each harvest
experiment runs.  The runner evaluates that list, and validation checks
``ensemble.init_box`` against every ensemble in it.

Each run writes ``manifest.yaml``, the fully resolved configuration.  Feeding
the manifest back in as the config reproduces the run.
"""

from __future__ import annotations

import functools
import itertools
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

import yaml

from .dynamics import (
    DEFAULT_DT,
    STATE_DIM,
    HenonParams,
    LorenzParams,
    ScalingFactors,
    check_array_size,
    steps_for_horizon,
)
from .errors import ChaosWptError, ConfigError
from .montecarlo import _SWEEPABLE, SweepSpec, SystemConfig, initial_box, patched_config

# libyaml reads and writes the same documents several times faster than the
# pure-Python classes, which stand in when PyYAML was built without it
if yaml.__with_libyaml__:
    _LOADER, _DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _LOADER, _DUMPER = yaml.SafeLoader, yaml.SafeDumper

EXPERIMENTS = ("trajectory", "stability-scan", "fig2", "fig3", "fig4", "sweep")


@dataclass(frozen=True)
class TrajectorySpec:
    """Single-orbit experiment: one initial point, one integration."""

    p_in: tuple[float, ...] = (1.0, -5.0, 20.0)
    dt: float = DEFAULT_DT
    horizon: float = 50.0

    def __post_init__(self):
        if len(self.p_in) not in STATE_DIM.values():
            raise ValueError(f"p_in must be a state of the flow or the map, got {list(self.p_in)}")
        # the flow's samples, and the map's (one step per time unit)
        for system, dt in (("lorenz", self.dt), ("henon", 1.0)):
            n_steps = steps_for_horizon(self.horizon, dt)
            check_array_size((n_steps + 1, STATE_DIM[system]), f"a {system} trajectory")


@dataclass(frozen=True)
class ScanSpec:
    """Stability-certificate grid over (sigma, beta, r)."""

    sigma_values: tuple[float, ...] = (10.0,)
    beta_values: tuple[float, ...] = (8.0 / 3.0,)
    r_values: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 24.7, 24.8, 30.0)

    def __post_init__(self):
        for sigma in self.sigma_values:
            LorenzParams(sigma=sigma)
        for beta in self.beta_values:
            LorenzParams(beta=beta)
        for r in self.r_values:
            LorenzParams(r=r)


@dataclass(frozen=True)
class Fig2Spec:
    """DC-versus-r curves, one per scaling factor, analytic next to measured."""

    r_values: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0)
    eps_values: tuple[float, ...] = (1.0, 2.0, 6.0)

    def __post_init__(self):
        for r in self.r_values:
            LorenzParams(r=r)
        for eps in self.eps_values:
            ScalingFactors(eps, eps, eps)


@dataclass(frozen=True)
class Fig3Spec:
    """PAPR-versus-r curves in the chaotic band, one file per (sigma, eps), one orbit per point."""

    r_values: tuple[float, ...] = (26.0, 28.0, 30.0, 32.0, 34.0, 36.0, 38.0, 40.0)
    eps_values: tuple[float, ...] = (1.0, 6.0)
    sigma_values: tuple[float, ...] = (10.0, 14.0)
    p_in: tuple[float, ...] = (0.1, 10.0, 0.1)
    n_realizations: int = 1

    def __post_init__(self):
        for r in self.r_values:
            LorenzParams(r=r)
        for eps in self.eps_values:
            ScalingFactors(eps, eps, eps)
        for sigma in self.sigma_values:
            LorenzParams(sigma=sigma)
        if len(self.p_in) != STATE_DIM["lorenz"]:
            raise ValueError(f"p_in must be a state of the flow, got {list(self.p_in)}")
        if self.n_realizations != 1:
            raise ValueError(f"n_realizations must be 1 (one orbit per point), got {self.n_realizations}")


@dataclass(frozen=True)
class Fig4Spec:
    """Harvested DC versus transmit power for all three waveform families."""

    pt_dbm_values: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0)
    lorenz_r_values: tuple[float, ...] = (12.0,)
    henon_params: tuple[tuple[float, float], ...] = ((0.2, 0.1), (0.001, 0.9))
    n_tones_values: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self):
        for r in self.lorenz_r_values:
            LorenzParams(r=r)
        for gamma, delta in self.henon_params:
            HenonParams(gamma, delta)
        for n in self.n_tones_values:
            SystemConfig(n_tones=n)


@dataclass(frozen=True)
class SweepSettings:
    """Generic one-parameter sweep of the configured system."""

    parameter: str = "r"
    values: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0)

    def __post_init__(self):
        if self.parameter not in _SWEEPABLE:
            raise ValueError(f"parameter must be one of {', '.join(sorted(_SWEEPABLE))}, got {self.parameter!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: the experiment, its output directory, and every block it reads."""

    experiment: str = "trajectory"
    out_dir: str = "results"
    base: SystemConfig = field(default=SystemConfig(), metadata={"flatten": True})
    trajectory: TrajectorySpec = TrajectorySpec()
    scan: ScanSpec = ScanSpec()
    fig2: Fig2Spec = Fig2Spec()
    fig3: Fig3Spec = Fig3Spec()
    fig4: Fig4Spec = Fig4Spec()
    sweep: SweepSettings = SweepSettings()

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {', '.join(EXPERIMENTS)}, got {self.experiment!r}")
        if not self.out_dir:
            raise ValueError("out_dir must be a non-empty path")
        if "\0" in self.out_dir:
            raise ValueError("out_dir must not contain a NUL character")


#: stands in for a value that failed its check while parsing goes on
_BAD = object()
#: what a class raises for a value it rejects
_REJECTED = (ValueError, ChaosWptError)
_NOUNS = {float: "a number", int: "an integer", str: "a string"}
_hints = functools.cache(typing.get_type_hints)


def _join(label: str, key: str) -> str:
    return f"{label}.{key}" if label else key


def _say(label: str, message) -> str:
    return f"{label}: {message}" if label else str(message)


def _reason(build, *args, **kwargs):
    """What ``build`` raises for these arguments, or None if it accepts them."""
    try:
        build(*args, **kwargs)
    except _REJECTED as exc:
        return exc
    return None


def _parse(cls, raw, label: str, problems: list[str]):
    """``cls`` built from the mapping ``raw``, or _BAD once its problems are recorded."""
    if not isinstance(raw, dict):
        problems.append(_say(label, "must be a mapping"))
        return _BAD
    hints, kwargs, known = _hints(cls), {}, set()
    for f in fields(cls):
        hint = hints[f.name]
        if f.metadata.get("flatten"):
            sub = {k: v for k, v in raw.items() if k in _hints(hint)}
            known.update(sub)
            kwargs[f.name] = _parse(hint, sub, label, problems)
            continue
        known.add(f.name)
        value = raw.get(f.name)
        # a missing key, or a null block or list, keeps the class default
        if value is None and (f.name not in raw or is_dataclass(hint) or typing.get_origin(hint) is tuple):
            continue
        kwargs[f.name] = _convert(hint, value, _join(label, f.name), problems)
    problems.extend(_say(label, f"unknown key {k!r}") for k in raw if k not in known)
    if _BAD in kwargs.values():
        return _BAD
    try:
        return cls(**kwargs)
    except _REJECTED as exc:
        whole = exc
    # blame each key the class also rejects alone on the defaults; one such key,
    # or none (a rule only the combination breaks), gets the whole block's reason
    alone = {key: _reason(cls, **{key: value}) for key, value in kwargs.items()}
    blamed = [key for key, exc in alone.items() if exc is not None]
    if len(blamed) > 1:
        problems.extend(f"{_join(label, key)}: {alone[key]}" for key in blamed)
    else:
        problems.append(_say(_join(label, *blamed) if blamed else label, whole))
    return _BAD


def _convert(hint, raw, label: str, problems: list[str]):
    """``raw`` checked against the annotation ``hint``, or _BAD once a problem is recorded."""
    if is_dataclass(hint):
        return _parse(hint, raw, label, problems)
    args = typing.get_args(hint)
    if type(None) in args:  # ``X | None``
        return None if raw is None else _convert(args[0], raw, label, problems)
    if typing.get_origin(hint) is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(raw, (list, tuple)) or not raw or not (variadic or len(raw) == len(args)):
            want = "a non-empty list" if variadic else f"a list of {len(args)}"
            problems.append(f"{label}: must be {want}")
            return _BAD
        items = tuple(
            _convert(args[0 if variadic else i], v, f"{label}[{i}]", problems) for i, v in enumerate(raw)
        )
        return _BAD if _BAD in items else items
    if isinstance(raw, bool) or not isinstance(raw, (int, float) if hint is float else hint):
        problems.append(f"{label}: must be {_NOUNS[hint]}")
        return _BAD
    if hint is float:
        # an int is kept an int, so that its manifest bytes do not change
        try:
            finite = math.isfinite(raw)
        except OverflowError:
            problems.append(f"{label}: must be a number within double range")
            return _BAD
        if not finite:
            problems.append(f"{label}: must be a finite number")
            return _BAD
    return raw


def harvest_files(cfg: ExperimentConfig) -> list[tuple[str, list[SweepSpec]]]:
    """Each harvest CSV the experiment writes, with the sweeps whose rows it holds, in order.

    Experiments that write no harvest CSV get an empty list.
    """
    base = cfg.base
    if cfg.experiment == "fig2":
        specs = []
        for eps in cfg.fig2.eps_values:
            fixed = replace(base, system="lorenz", scaling=ScalingFactors(eps, eps, eps))
            specs.append(SweepSpec("r", cfg.fig2.r_values, fixed))
        return [("fig2.csv", specs)]
    if cfg.experiment == "fig3":
        f3 = cfg.fig3
        # one orbit per point, drawn from the zero-width box at p_in
        box = tuple((float(v), float(v)) for v in f3.p_in)
        ensemble = replace(base.ensemble, n_realizations=f3.n_realizations, init_box=box)
        files = []
        for sigma, eps in itertools.product(f3.sigma_values, f3.eps_values):
            lorenz, scaling = replace(base.lorenz, sigma=sigma), ScalingFactors(eps, eps, eps)
            fixed = replace(base, system="lorenz", lorenz=lorenz, scaling=scaling, ensemble=ensemble)
            files.append((f"fig3_sigma{sigma:g}_eps{eps:g}.csv", [SweepSpec("r", f3.r_values, fixed)]))
        return files
    if cfg.experiment == "fig4":
        f4 = cfg.fig4
        waveforms = (
            [replace(base, system="lorenz", lorenz=replace(base.lorenz, r=r)) for r in f4.lorenz_r_values]
            + [replace(base, system="henon", henon=HenonParams(g, d)) for g, d in f4.henon_params]
            + [replace(base, system="multisine", n_tones=n) for n in f4.n_tones_values]
        )
        return [("fig4.csv", [SweepSpec("pt_dbm", f4.pt_dbm_values, w) for w in waveforms])]
    if cfg.experiment == "sweep":
        return [("sweep.csv", [SweepSpec(cfg.sweep.parameter, cfg.sweep.values, base)])]
    return []


def _cross_block(cfg: ExperimentConfig) -> list[str]:
    """Violations of the rules that tie blocks together, for the chosen experiment."""
    base, problems = cfg.base, []
    if cfg.experiment == "trajectory":
        dim = STATE_DIM.get(base.system)
        if dim is None:
            problems.append(f"trajectory: needs system {' or '.join(STATE_DIM)}, got {base.system!r}")
        elif len(cfg.trajectory.p_in) != dim:
            problems.append(f"trajectory.p_in: needs {dim} components for system {base.system!r}")
    elif cfg.experiment == "sweep":
        parameter = cfg.sweep.parameter
        if base.system not in _SWEEPABLE[parameter]:
            problems.append(f"sweep.parameter: {parameter!r} does not apply to system {base.system!r}")
        else:
            for value in cfg.sweep.values:
                if exc := _reason(patched_config, base, parameter, value):
                    problems.append(f"sweep.values: {exc}")
    # every ensemble the run will draw; each distinct problem once
    drawn = [spec.fixed for _, specs in harvest_files(cfg) for spec in specs]
    reasons = [exc for fixed in drawn if fixed.system in STATE_DIM and (exc := _reason(initial_box, fixed))]
    problems.extend(dict.fromkeys(f"ensemble.init_box: {exc}" for exc in reasons))
    return problems


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML config, reporting every violation at once."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError([f"not valid YAML: {exc}"]) from exc
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise ConfigError(["document must be a mapping"])
    problems: list[str] = []
    cfg = _parse(ExperimentConfig, doc, "", problems)
    problems = problems or _cross_block(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file, which is UTF-8 whatever the locale."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"not valid UTF-8: {exc}"]) from None
    return validate_config(text)


def to_document(cfg):
    """Fully-resolved plain-python echo of a config (the manifest content)."""
    if isinstance(cfg, tuple):
        return [to_document(v) for v in cfg]
    if not is_dataclass(cfg):
        return cfg
    doc = {}
    for f in fields(cfg):
        value = to_document(getattr(cfg, f.name))
        doc.update(value if f.metadata.get("flatten") else {f.name: value})
    return doc


def manifest_text(cfg: ExperimentConfig) -> str:
    return yaml.dump(to_document(cfg), Dumper=_DUMPER, sort_keys=True, default_flow_style=False)


def apply_overrides(
    cfg: ExperimentConfig,
    seed: int | None = None,
    out_dir: str | None = None,
    n_realizations: int | None = None,
) -> ExperimentConfig:
    """Fold command-line overrides into a validated config.

    A value the config's own classes reject is reported under its flag.
    """
    flag = "--seed"
    try:
        if seed is not None:
            cfg = replace(cfg, base=replace(cfg.base, ensemble=replace(cfg.base.ensemble, seed=seed)))
        flag = "--realizations"
        if n_realizations is not None:
            ensemble = replace(cfg.base.ensemble, n_realizations=n_realizations)
            cfg = replace(cfg, base=replace(cfg.base, ensemble=ensemble))
        flag = "--out"
        if out_dir is not None:
            cfg = replace(cfg, out_dir=out_dir)
    except ValueError as exc:
        raise ConfigError([f"{flag}: {exc}"]) from None
    return cfg
