"""Config-driven experiment runner.

``chaoswpt run <config.yaml>`` executes the experiment named in the config and
writes its CSV outputs plus ``manifest.yaml`` (the fully resolved config) into
the output directory.  Exit status: 0 on success, 2 for an invalid or
unreadable config, 3 for a runtime failure (divergence, undefined quantity,
an output that cannot be written, too little memory).

The harvest experiments (fig2, fig3, fig4, sweep) share one runner: it
evaluates the sweeps :func:`chaoswpt.config.harvest_files` lists for each
file and writes their rows in that order.

All results are computed, as the files' bytes, before anything is written.
They are staged in a temp directory inside the output directory and renamed
into place once all are written, manifest last; a failure removes them all.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import sys
import tempfile
from pathlib import Path

from .config import ExperimentConfig, apply_overrides, harvest_files, load_config, manifest_text
from .dynamics import LorenzParams, integrate_lorenz, iterate_henon, steps_for_horizon
from .errors import ChaosWptError, ConfigError
from .io_utils import (
    HARVEST_HEADER,
    SCAN_HEADER,
    csv_text,
    harvest_row,
    trajectory_csv,
    write_text_atomic,
)
from .montecarlo import sweep
from .stability import hurwitz_stable


def _run_trajectory(cfg: ExperimentConfig) -> list[tuple[str, bytes]]:
    base = cfg.base
    tr = cfg.trajectory
    if base.system == "lorenz":
        traj = integrate_lorenz(tr.p_in, base.lorenz, base.scaling, dt=tr.dt, horizon=tr.horizon)
    else:
        traj = iterate_henon(tr.p_in, base.henon, n_steps=steps_for_horizon(tr.horizon, 1.0))
    return [("trajectory.csv", trajectory_csv(traj))]


def _run_scan(cfg: ExperimentConfig) -> list[tuple[str, bytes]]:
    rows = []
    for sigma, beta, r in itertools.product(
        cfg.scan.sigma_values, cfg.scan.beta_values, cfg.scan.r_values
    ):
        verdict = hurwitz_stable(LorenzParams(sigma=sigma, r=r, beta=beta))
        d1, d2, d3 = verdict.minors
        rows.append([sigma, beta, r, verdict.stable, d1, d2, d3])
    return [("stability_scan.csv", csv_text(SCAN_HEADER, rows))]


def _run_harvest(cfg: ExperimentConfig) -> list[tuple[str, bytes]]:
    """Each harvest CSV, holding the rows of its sweeps in turn."""
    return [
        (name, csv_text(HARVEST_HEADER, [harvest_row(res) for spec in specs for res in sweep(spec)]))
        for name, specs in harvest_files(cfg)
    ]


_RUNNERS = {"trajectory": _run_trajectory, "stability-scan": _run_scan}


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Execute one experiment; returns the paths written (manifest last)."""
    outputs = _RUNNERS.get(cfg.experiment, _run_harvest)(cfg)
    outputs.append(("manifest.yaml", manifest_text(cfg)))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staged-", dir=out_dir))
    written = []
    try:
        for name, data in outputs:
            write_text_atomic(stage / name, data)
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
    except (ChaosWptError, OSError, MemoryError) as exc:
        print(f"run failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0
