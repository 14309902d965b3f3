"""Config-driven experiment runner.

``chaoswpt run <config.yaml>`` executes the experiment named in the config and
writes its CSV outputs plus ``manifest.yaml`` (the fully resolved config) into
the output directory.  Exit status: 0 on success, 2 for an invalid or
unreadable config, 3 for a runtime failure (divergence, undefined quantity,
an output that cannot be written).

All results are computed before anything is written.  The outputs are staged
in a temp directory inside the output directory and renamed into place once
all are written, manifest last; a failure removes every one of them.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, apply_overrides, load_config, manifest_text
from .dynamics import (
    HenonParams, LorenzParams, ScalingFactors, integrate_lorenz, iterate_henon, steps_for_horizon
)
from .errors import ChaosWptError, ConfigError
from .io_utils import (
    HARVEST_HEADER,
    SCAN_HEADER,
    csv_text,
    harvest_row,
    trajectory_csv,
    write_text_atomic,
)
from .montecarlo import SweepSpec, sweep
from .stability import hurwitz_stable


def _point_box(point) -> tuple:
    return tuple((float(v), float(v)) for v in point)


def _run_trajectory(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    base = cfg.base
    tr = cfg.trajectory
    if base.system == "lorenz":
        traj = integrate_lorenz(tr.p_in, base.lorenz, base.scaling, dt=tr.dt, horizon=tr.horizon)
    else:
        traj = iterate_henon(tr.p_in, base.henon, n_steps=steps_for_horizon(tr.horizon, 1.0))
    return [("trajectory.csv", trajectory_csv(traj))]


def _run_scan(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    rows = []
    for sigma, beta, r in itertools.product(
        cfg.scan.sigma_values, cfg.scan.beta_values, cfg.scan.r_values
    ):
        verdict = hurwitz_stable(LorenzParams(sigma=sigma, r=r, beta=beta))
        d1, d2, d3 = verdict.minors
        rows.append([sigma, beta, r, verdict.stable, d1, d2, d3])
    return [("stability_scan.csv", csv_text(SCAN_HEADER, rows))]


def _harvest_file(name: str, specs: list[SweepSpec]) -> tuple[str, str]:
    """One harvest CSV holding the rows of each sweep in turn."""
    rows = [harvest_row(res) for spec in specs for res in sweep(spec)]
    return (name, csv_text(HARVEST_HEADER, rows))


def _run_fig2(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    specs = []
    for eps in cfg.fig2.eps_values:
        base = replace(cfg.base, system="lorenz", scaling=ScalingFactors(eps, eps, eps))
        specs.append(SweepSpec("r", cfg.fig2.r_values, base))
    return [_harvest_file("fig2.csv", specs)]


def _run_fig3(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    f3 = cfg.fig3
    ens = replace(
        cfg.base.ensemble,
        n_realizations=f3.n_realizations,
        init_box=_point_box(f3.p_in),
    )
    files = []
    for sigma, eps in itertools.product(f3.sigma_values, f3.eps_values):
        base = replace(
            cfg.base,
            system="lorenz",
            lorenz=replace(cfg.base.lorenz, sigma=sigma),
            scaling=ScalingFactors(eps, eps, eps),
            ensemble=ens,
        )
        spec = SweepSpec("r", f3.r_values, base)
        files.append(_harvest_file(f"fig3_sigma{sigma:g}_eps{eps:g}.csv", [spec]))
    return files


def _run_fig4(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    f4, base = cfg.fig4, cfg.base
    waveforms = (
        [replace(base, system="lorenz", lorenz=replace(base.lorenz, r=r)) for r in f4.lorenz_r_values]
        + [replace(base, system="henon", henon=HenonParams(g, d)) for g, d in f4.henon_params]
        + [replace(base, system="multisine", n_tones=n) for n in f4.n_tones_values]
    )
    return [_harvest_file("fig4.csv", [SweepSpec("pt_dbm", f4.pt_dbm_values, w) for w in waveforms])]


def _run_sweep(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    return [_harvest_file("sweep.csv", [SweepSpec(cfg.sweep.parameter, cfg.sweep.values, cfg.base)])]


_RUNNERS = {
    "trajectory": _run_trajectory,
    "stability-scan": _run_scan,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "sweep": _run_sweep,
}


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Execute one experiment; returns the paths written (manifest last)."""
    outputs = _RUNNERS[cfg.experiment](cfg)
    outputs.append(("manifest.yaml", manifest_text(cfg)))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staged-", dir=out_dir))
    written = []
    try:
        for name, text in outputs:
            write_text_atomic(stage / name, text)
        for name, _ in outputs:
            os.replace(stage / name, out_dir / name)
            written.append(out_dir / name)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoswpt",
        description="Chaotic-waveform power-transfer experiments from a YAML config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the experiment described by a config file")
    run.add_argument("config", type=Path, help="path to the YAML config")
    run.add_argument("--seed", type=int, default=None, help="override ensemble.seed")
    run.add_argument("--out", type=str, default=None, help="override out_dir")
    run.add_argument("--realizations", type=int, default=None,
                     help="override ensemble.n_realizations; fig3 integrates one orbit per point")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(
            cfg, seed=args.seed, out_dir=args.out, n_realizations=args.realizations
        )
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        written = run_experiment(cfg)
    except (ChaosWptError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0
