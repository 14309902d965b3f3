"""Per-operating-point correctness checks on one run's written files.

An operating point is one CSV row (one ensemble or width-1 orbit) or one
trajectory.  Each check compares the row against a result computed another
way: the closed form, or the scalar integrator for a width-1 orbit.
Imported only after chaoswpt is on ``sys.path``.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from chaoswpt import (
    HenonParams,
    LorenzParams,
    ScalingFactors,
    coefficients,
    eta_henon,
    integrate_lorenz,
    with_fading,
)

#: the paper's accuracy claim for settled ensembles
SETTLED_GAP = 0.01
#: width-1 orbit versus scalar orbit, time-averaged x^2
ORBIT_RTOL = 1e-9
#: closed form recomputed here versus the one the run wrote
CLOSED_FORM_RTOL = 1e-12


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_row(cfg, row: dict, result) -> tuple[list[str], float | None]:
    """Problems with one harvest row, and its eta gap if it is settled."""
    problems = []
    gap = None
    if row["stable"] == "true":
        if not row["eta_analytic"] or not row["eta_empirical"]:
            return ["settled row without eta_analytic or eta_empirical"], None
        analytic = float(row["eta_analytic"])
        gap = _rel(float(row["eta_empirical"]), analytic)
        if not gap < SETTLED_GAP:
            problems.append(f"eta gap {gap:.3g} not below {SETTLED_GAP}")
        if result.n_diverged:
            problems.append(f"{result.n_diverged} realizations diverged")
        if row["system"] == "henon":
            base = cfg.base
            coeff = with_fading(coefficients(base.link, base.rectenna), base.fading)
            oracle = eta_henon(HenonParams(float(row["r_or_gamma"]), float(row["delta"])), coeff)
            if not _rel(analytic, oracle) <= CLOSED_FORM_RTOL:
                problems.append(f"eta_analytic {analytic!r} != eta_henon {oracle!r}")
    elif row["eta_analytic"]:
        problems.append("chaotic row has an eta_analytic")
    return problems, gap


def _check_orbit(cfg, row: dict) -> list[str]:
    """A width-1 fig3 row against the scalar orbit from the same p_in."""
    (sigma,) = cfg.fig3.sigma_values
    eps = float(row["eps"])
    ens = cfg.base.ensemble
    traj = integrate_lorenz(
        cfg.fig3.p_in,
        LorenzParams(sigma=sigma, r=float(row["r_or_gamma"]), beta=cfg.base.lorenz.beta),
        ScalingFactors(eps, eps, eps),
        dt=ens.dt,
        horizon=ens.horizon,
        transient_fraction=ens.transient_fraction,
    )
    m2 = float(np.mean(traj.steady_samples[:, 0] ** 2))
    rel = _rel(float(row["m2_emp"]), m2)
    return [] if rel <= ORBIT_RTOL else [f"m2 {row['m2_emp']} vs scalar orbit {m2!r}"]


def _check_trajectory(cfg, path: Path) -> list[str]:
    tr = cfg.trajectory
    want = integrate_lorenz(tr.p_in, cfg.base.lorenz, cfg.base.scaling, dt=tr.dt,
                            horizon=tr.horizon).samples
    lines = path.read_text().splitlines()
    if lines[0] != "t,x,y,z" or len(lines) != want.shape[0] + 1:
        return [f"{len(lines) - 1} rows, expected {want.shape[0]}"]
    got = np.array([line.split(",")[1:] for line in lines[1:]], dtype=float)
    return [] if np.array_equal(got, want) else ["samples differ from integrate_lorenz"]


def check(cfg, written: list[Path], results: list) -> list[dict]:
    """One record per operating point: {"op", "ok", "problems", "gap"}."""
    ops = []
    if cfg.experiment == "trajectory":
        problems = _check_trajectory(cfg, written[0])
        return [{"op": written[0].name, "ok": not problems, "problems": problems, "gap": None}]
    rows = []
    for path in written[:-1]:  # the manifest is last
        for i, row in enumerate(csv.DictReader(io.StringIO(path.read_text()))):
            rows.append((f"{path.name}:{i}", row))
    if len(rows) != len(results):
        return [{"op": name, "ok": False, "gap": None,
                 "problems": [f"{len(rows)} rows for {len(results)} ensembles"]} for name, _ in rows]
    for (name, row), result in zip(rows, results):
        problems, gap = _check_row(cfg, row, result)
        if cfg.experiment == "fig3":
            problems += _check_orbit(cfg, row)
        ops.append({"op": name, "ok": not problems, "problems": problems, "gap": gap})
    return ops
