"""The traced run's counters repeat exactly across two runs on one seed.

    python3 -m pytest perfbench/test_counts.py

Run from the checkout root.  Takes about 35 s per workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parents[1]
SEED = 5
#: the counters a performance change may quote; each must repeat exactly
NAMED = (
    "montecarlo.realization_steps",
    "montecarlo.detection.calls",
    "montecarlo.detection.certified",
    "montecarlo.n_diverged",
    "io_utils.bytes_written",
)


def _traced_layers(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
    record = json.loads((ROOT / ".perfbench_out" / workload / "record.json").read_text())
    return record["layers"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, second = _traced_layers(workload), _traced_layers(workload)
    counts = {name: v for name, v in first.items() if v[1] in ("count", "bytes")}
    assert all(name in counts for name in NAMED)
    assert any(name.endswith(".calls") for name in counts)
    assert counts == {name: second[name] for name in counts}

    # every step the configs ask for is taken exactly once
    docs = workloads.documents(workload, SEED)
    assert counts["dynamics.step.realization_steps"][0] == sum(
        workloads.realization_steps(doc) for doc in docs)
