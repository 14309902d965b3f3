"""chaoswpt benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's YAML configs are
generated from ``--seed``; each repetition is a fresh single-threaded
interpreter (``child.py``) that imports chaoswpt from ``src/``, loads the
configs and runs them through ``chaoswpt.cli.run_experiment``.  Repetitions
continue until ``--seconds`` have passed (at least three), and every timing
reported is a median over them.  Every operating point is checked; a failed
check makes the exit status 1.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer metrics
measured by the span wrappers in ``spans.py``.  Both print a table of every
metric first; the last line of stdout is one JSON object.  The full record,
spans of the last traced repetition included, is left in
``.perfbench_out/<workload>/``.

``--record-digests`` stores the SHA-256 of every file this run wrote in
``digests.json``, keyed by platform, workload and seed.  Later runs on a
matching platform and seed must write the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
MIN_REPS = 3
MIN_SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150
#: one thread per process: the workloads are sized for a 2-core machine and
#: every repetition runs alone
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class ChildFailed(RuntimeError):
    pass


def _run_child(root: Path, repdir: Path, configs: list[Path], *flags: str) -> dict:
    repdir.mkdir(parents=True)
    result = repdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(root), str(result), *map(str, configs), *flags]
    with open(repdir / "log.txt", "w") as log:
        proc = subprocess.run(cmd, cwd=repdir, stdout=log, stderr=subprocess.STDOUT,
                              env={**os.environ, **THREAD_ENV}, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                          + (repdir / "log.txt").read_text()[-4000:])
    return json.loads(result.read_text())


def _fingerprint(env: dict) -> str:
    return (f"{env['machine']} python {env['python']} numpy {env['numpy']} "
            f"simd {' '.join(env['simd']) or 'none'}")


def _bad_files(files: dict, want: dict) -> set[str]:
    return {Path(f).name for f in set(files) | set(want) if files.get(f) != want.get(f)}


def _failed_ops(ops: list[dict], bad: set[str]) -> int:
    """Operating points that failed their oracle or whose file bytes differ."""
    if any(name == "manifest.yaml" for name in bad):
        return len(ops)
    return sum(1 for op in ops if not op["ok"] or op["op"].split(":")[0] in bad)


def _exact_layers(traced: list[dict], problems: list[str]) -> dict:
    """Median of each timing over traced repetitions; counts must repeat exactly."""
    layers = {}
    for name, (value, unit) in traced[0]["layers"].items():
        values = [rep["layers"].get(name, [None])[0] for rep in traced]
        if unit in ("count", "bytes", "MB", "ratio"):
            if len(set(values)) != 1:
                problems.append(f"{name} differs across traced repetitions: {values}")
            layers[name] = [value, unit]
        else:
            layers[name] = [statistics.median(values), unit]
    return layers


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<56} {shown:>14} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "chaoswpt" / "__init__.py").is_file():
        print(f"no chaoswpt source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    docs = workloads.documents(args.workload, args.seed)
    workdir = root / ".perfbench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    configs = []
    for i, doc in enumerate(docs):
        path = workdir / f"config{i}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=True))
        configs.append(path)

    # Untraced repetitions measure the end-to-end metrics; with --trace 1,
    # traced ones alternate with them so the overhead is measured under the
    # same conditions.  The first repetition also runs the oracles.
    plain, traced, setup = [], [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    try:
        while k < (2 * MIN_REPS if args.trace else MIN_REPS) or time.perf_counter() < deadline:
            trace = args.trace and k % 2 == 1
            flags = ["--trace"] if trace else (["--check"] if k == 0 else [])
            rep = _run_child(root, workdir / f"rep{k}", configs, *flags)
            (traced if trace else plain).append(rep)
            setup.append(rep["setup_s"])
            k += 1
        while len(setup) < MIN_SETUP_SAMPLES:
            rep = _run_child(root, workdir / f"setup{len(setup)}", configs, "--setup-only")
            setup.append(rep["setup_s"])
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    first = plain[0]
    env = first["env"]
    fingerprint = _fingerprint(env)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    want = recorded.get(fingerprint, {}).get(args.workload, {}).get(str(args.seed))
    if args.record_digests:
        want = first["files"]
        recorded.setdefault(fingerprint, {}).setdefault(args.workload, {})[str(args.seed)] = want
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    problems = [f"{op['op']}: {'; '.join(op['problems'])}" for op in first["ops"] if not op["ok"]]
    n_ops = sum(workloads.operating_points(doc) for doc in docs)
    if len(first["ops"]) != n_ops:
        problems.append(f"{len(first['ops'])} operating points checked, {n_ops} expected")
    bad_by_rep = [_bad_files(rep["files"], want or first["files"]) for rep in plain + traced]
    bad = set().union(*bad_by_rep)
    if bad:
        problems.append(f"bytes differ from the {'recorded' if want else 'first'} run: {sorted(bad)}")
    missing = max(0, n_ops - len(first["ops"]))
    failed = sum(_failed_ops(first["ops"], b) + missing for b in bad_by_rep)
    attempted = n_ops * len(bad_by_rep)

    walls = [rep["wall_s"] for rep in plain]
    wall = statistics.median(walls)
    gaps = [op["gap"] for op in first["ops"] if op["gap"] is not None]
    steps = sum(workloads.realization_steps(doc) for doc in docs)
    e2e = {
        "wall_s": [wall, "s"],
        "wall_ref": [statistics.median(rep["wall_s"] / rep["reference_s"] for rep in plain), "ref"],
        "setup_s": [statistics.median(setup), "s"],
        "realization_steps_per_s": [steps / wall, "1/s"],
        "peak_rss_mb": [statistics.median(rep["peak_rss_mb"] for rep in plain), "MB"],
        "failed_ops_frac": [failed / attempted, "ratio"],
        "eta_gap_max": [max(gaps) if gaps else None, "ratio"],
    }
    print(f"workload {args.workload}  seed {args.seed}  untraced repetitions {len(plain)}  "
          f"traced {len(traced)}  set-up samples {len(setup)}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"wall_s over {len(walls)} repetitions: min {min(walls):.4f} s, median "
          f"{wall:.4f} s, max {max(walls):.4f} s")
    print(f"byte digests: {'checked against ' + DIGESTS.name if want else 'none recorded for this seed and platform'}")
    _print_table("end to end (untraced medians):", e2e)
    record = {"workload": args.workload, "seed": args.seed, "env": env, "end_to_end": e2e,
              "samples": {"wall_s": walls, "reference_s": [rep["reference_s"] for rep in plain],
                          "setup_s": setup,
                          "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain]},
              "ops": first["ops"], "problems": problems}

    if args.trace:
        layers = _exact_layers(traced, problems)
        layers["trace.overhead_s"] = [statistics.median(r["wall_s"] for r in traced) - wall, "s"]
        _print_table("per layer (traced medians):", layers)
        total = layers["cli.run_experiment.busy_s"][0]
        shares = sorted(((v[0] / total, n[:-7]) for n, v in layers.items() if n.endswith(".self_s")),
                        reverse=True)
        print("largest self-time shares: " + ", ".join(f"{n} {s:.1%}" for s, n in shares[:4]))
        record["layers"] = layers
        shutil.copy(workdir / f"rep{2 * len(traced) - 1}" / "spans.json", workdir / "spans.json")
        wanted, section = layers, spec["per_layer"]
    else:
        wanted, section = e2e, spec["end_to_end"]

    for problem in problems:
        print(f"FAILED {problem}")
    correct = not problems
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": wanted[m["name"]][0], "unit": m["unit"]} for m in section},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
