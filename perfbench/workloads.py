"""The benchmark's workloads: YAML configs generated from a seed.

Each workload is a list of config documents, each one ``run_experiment``
call.  The seed picks operating points inside a regime (never across a
regime boundary) and the ensemble seed, so every seed exercises the same
layers with the same amount of work.  Only stdlib ``random`` is used, so the
same seed gives the same documents on every platform.
"""

from __future__ import annotations

import math
import random


def _settled_ensemble(rng: random.Random) -> list[dict]:
    # fig2-style grid in the settled regime (r < 24.74), one 1000-wide chunk
    # per ensemble.  r stays at or below 12 so every ensemble settles well
    # inside the horizon and the closed form is met to far better than 1%.
    return [{
        "experiment": "fig2",
        "out_dir": "results/fig2",
        "fig2": {"r_values": [round(rng.uniform(4.0, 12.0), 3)], "eps_values": [1.0, 6.0]},
        "ensemble": {
            "n_realizations": 1000,
            "dt": 0.002,
            "horizon": 16.0,
            "seed": rng.randrange(2**32),
        },
    }]


def _chaotic_orbit(rng: random.Random) -> list[dict]:
    # fig3-style width-1 orbits in the chaotic band, plus one long scalar
    # trajectory whose CSV is a few MB of text.
    r_values = [
        round(rng.uniform(26.0, 30.0), 3),
        round(rng.uniform(30.0, 35.0), 3),
        round(rng.uniform(35.0, 40.0), 3),
    ]
    p_in = [round(rng.uniform(-5.0, 5.0), 3), round(rng.uniform(5.0, 15.0), 3),
            round(rng.uniform(0.0, 5.0), 3)]
    traj_p_in = [round(rng.uniform(-5.0, 5.0), 3), round(rng.uniform(-5.0, 5.0), 3),
                 round(rng.uniform(15.0, 25.0), 3)]
    return [
        {
            "experiment": "fig3",
            "out_dir": "results/fig3",
            "fig3": {
                "r_values": r_values,
                "eps_values": [1.0, 6.0],
                "sigma_values": [10.0],
                "p_in": p_in,
                "n_realizations": 1,
            },
            "ensemble": {"horizon": 3.0, "seed": rng.randrange(2**32)},
        },
        {
            "experiment": "trajectory",
            "out_dir": "results/trajectory",
            "system": "lorenz",
            "lorenz": {"sigma": 10.0, "r": 28.0, "beta": 8.0 / 3.0},
            "trajectory": {"p_in": traj_p_in, "dt": 0.001, "horizon": 50.0},
        },
    ]


def _map_ensemble(rng: random.Random) -> list[dict]:
    # Henon sweep over gamma at delta = 0.9: one attracting fixed point
    # (gamma < 3(1-delta)^2/4 = 0.0075, spectral radius <= 0.97) and one
    # chaotic pair, many realizations over several chunks, long horizon.
    gamma_values = [round(rng.uniform(0.001, 0.003), 5), round(rng.uniform(0.18, 0.22), 5)]
    return [{
        "experiment": "sweep",
        "out_dir": "results/sweep",
        "system": "henon",
        "henon": {"gamma": gamma_values[0], "delta": 0.9},
        "sweep": {"parameter": "gamma", "values": gamma_values},
        "ensemble": {
            # three 2048-wide engine chunks, the last one partial
            "n_realizations": 5000,
            "horizon": 1000.0,
            "seed": rng.randrange(2**32),
        },
    }]


WORKLOADS = {
    "settled-ensemble": _settled_ensemble,
    "chaotic-orbit": _chaotic_orbit,
    "map-ensemble": _map_ensemble,
}


def documents(workload: str, seed: int) -> list[dict]:
    """Config documents of ``workload`` for ``seed``, in run order."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def _lorenz_steps(horizon: float, dt: float) -> int:
    return int(math.floor(horizon / dt + 1e-9))


def realization_steps(doc: dict) -> int:
    """Sum of realizations x steps one config document asks for."""
    ens = doc.get("ensemble", {})
    dt = ens.get("dt", 1e-3)
    horizon = ens.get("horizon", 100.0)
    n = ens.get("n_realizations", 1000)
    kind = doc["experiment"]
    if kind == "fig2":
        f2 = doc["fig2"]
        return len(f2["r_values"]) * len(f2["eps_values"]) * n * _lorenz_steps(horizon, dt)
    if kind == "fig3":
        f3 = doc["fig3"]
        points = len(f3["r_values"]) * len(f3["eps_values"]) * len(f3["sigma_values"])
        return points * f3["n_realizations"] * _lorenz_steps(horizon, dt)
    if kind == "trajectory":
        tr = doc["trajectory"]
        return _lorenz_steps(tr["horizon"], tr["dt"])
    if kind == "sweep":
        return len(doc["sweep"]["values"]) * n * int(math.floor(horizon))
    raise ValueError(f"no step count for experiment {kind!r}")


def operating_points(doc: dict) -> int:
    """CSV rows plus trajectories one config document writes."""
    kind = doc["experiment"]
    if kind == "fig2":
        return len(doc["fig2"]["r_values"]) * len(doc["fig2"]["eps_values"])
    if kind == "fig3":
        f3 = doc["fig3"]
        return len(f3["r_values"]) * len(f3["eps_values"]) * len(f3["sigma_values"])
    if kind == "trajectory":
        return 1
    if kind == "sweep":
        return len(doc["sweep"]["values"])
    raise ValueError(f"no operating points for experiment {kind!r}")
