"""One repetition of a workload in a fresh interpreter.

    python3 child.py ROOT RESULT_JSON [--trace] [--check] [--setup-only] CONFIG.yaml...

Imports chaoswpt from ROOT/src, loads the configs (set-up), runs every
experiment through ``chaoswpt.cli.run_experiment`` (wall time) between two
timings of a fixed reference computation, then hashes the written files and,
with ``--check``, checks every operating point.  The
working directory is the repetition's own directory: the configs' relative
``out_dir`` resolves there, so the manifest bytes do not depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

from spans import Tracer


def _environment(np) -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        simd = []
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "simd": simd,
    }


def _reference_s(np) -> float:
    """Time of a fixed computation in benchmark code, a gauge of machine speed.

    It mixes the kinds of work the workloads do: width-1000 ufunc chains,
    width-1 ufunc calls, float formatting, Philox jumps and running-extremum
    scans.  The host's speed drifts by up to 1.7x over minutes; timed right
    before and after the workload, this tracks that drift, and does not
    change when chaoswpt does.
    """
    t = time.perf_counter()
    a = np.linspace(0.0, 1.0, 1000)
    b = np.ones(1000)
    for _ in range(600):
        b = 0.5 * (b + a) - 1e-3 * b * b
    x = np.ones(1)
    for _ in range(6000):
        x = x * 0.999 + 0.001 * x
    "\n".join("%.17g,%.17g" % (k * 0.1, k * 0.3) for k in range(20000))
    root = np.random.Philox(key=7)
    for i in range(600):
        np.random.Generator(root.jumped(i)).uniform(-1.0, 1.0, 2)
    samples = np.ones((201, 2))
    for _ in range(600):
        np.maximum.accumulate(samples[::-1], axis=0)
    return time.perf_counter() - t


def main() -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("root", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("configs", nargs="+")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import chaoswpt

    if Path(chaoswpt.__file__).resolve().parent != src / "chaoswpt":
        print(f"chaoswpt imported from {chaoswpt.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np
    from chaoswpt import cli, config, dynamics, montecarlo
    from chaoswpt.errors import SaturationWarning

    t_load = time.perf_counter()
    cfgs = [config.apply_overrides(config.load_config(path)) for path in args.configs]
    t_setup = time.perf_counter()
    record = {"setup_s": t_setup - t0, "config_load_s": t_setup - t_load}
    if args.setup_only:
        args.result.write_text(json.dumps(record))
        return 0

    # Keep every ensemble result: the CSVs do not carry n_diverged.
    results = []
    run_ensemble = montecarlo.run_ensemble

    def keep_result(cfg):
        res = run_ensemble(cfg)
        results.append(res)
        return res

    montecarlo.run_ensemble = cli.run_ensemble = keep_result
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(cli, montecarlo, dynamics)
        warnings.simplefilter("always", SaturationWarning)
        warnings.showwarning = tracer.count_warning

    reference_before = _reference_s(np)
    written, result_ranges = [], []
    t1 = time.perf_counter()
    for cfg in cfgs:
        before = len(results)
        written.append(cli.run_experiment(cfg))
        result_ranges.append((before, len(results)))
    record["wall_s"] = time.perf_counter() - t1
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["reference_s"] = 0.5 * (reference_before + _reference_s(np))

    record["files"] = {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for paths in written for path in paths
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["layers"]["config.load_s"] = [record["config_load_s"], "s"]
        tracer.dump(args.result.with_name("spans.json"))
    if args.check:
        import oracles

        record["env"] = _environment(np)
        record["ops"] = [
            op
            for cfg, paths, (lo, hi) in zip(cfgs, written, result_ranges)
            for op in oracles.check(cfg, paths, results[lo:hi])
        ]
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
