"""Span recorder wrapped around chaoswpt's public calls, for the traced run.

A span is (id, parent id, name, start, end) plus an optional tag computed
from the call's arguments and result after the clock stops.  Spans stay in
memory until the run ends.  A layer's self time is its spans' time minus
the time of their direct children; calls nest strictly (one thread), so the
children never overlap.

The wrappers replace module attributes of the imported package, so the
program itself is unchanged: each call site that looks a function up in its
module namespace goes through the wrapper.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

#: harvest functions the ensemble engine calls to price a result
_PRICING = ("coefficients", "with_fading", "dc_from_moments", "eta_scaled_lorenz", "eta_henon")


def _width(args, _result):
    return getattr(args[0], "size", 1)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, tag]
        self._stack = [-1]
        self.names: list[str] = []  # span names in install order
        self.saturation_warnings = 0

    def wrap(self, name, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if tag is not None:
                rec[4] = tag(args, result)
            return result

        return traced

    def install(self, cli, montecarlo, dynamics) -> None:
        """Wrap the calls of every layer the benchmark reports on."""

        def patch(owners, attr, name, tag=None):
            if name not in self.names:
                self.names.append(name)
            traced = self.wrap(name, getattr(owners[0], attr), tag)
            for mod in owners:
                setattr(mod, attr, traced)

        def ensemble_tag(args, result):
            cfg = args[0]
            ens = cfg.ensemble
            if cfg.system == "lorenz":
                steps = dynamics.steps_for_horizon(ens.horizon, ens.dt)
            else:
                steps = int(ens.horizon)
            return ens.n_realizations * steps, result.n_diverged

        def detection_tag(args, result):
            buf = args[0] if args[0].base is None else args[0].base
            return result is not None, buf.nbytes

        patch([cli], "run_experiment", "cli.run_experiment")
        patch([cli], "manifest_text", "config.manifest_text")
        patch([cli], "csv_text", "io_utils.csv_text")
        patch([cli], "trajectory_csv", "io_utils.trajectory_csv")
        patch([cli], "write_text_atomic", "io_utils.write_text_atomic",
              lambda args, _: os.path.getsize(args[0]))
        patch([cli], "integrate_lorenz", "dynamics.integrate_lorenz")
        patch([dynamics, montecarlo], "rk4_step", "dynamics.rk4_step", _width)
        patch([montecarlo], "henon_step", "dynamics.henon_step",
              lambda args, _: getattr(args[0][0], "size", 1))
        patch([montecarlo, cli], "run_ensemble", "montecarlo.run_ensemble", ensemble_tag)
        patch([montecarlo], "initial_points", "montecarlo.initial_points",
              lambda args, _: args[0].n_realizations)
        # the engine's per-realization call into the code behind detect_steady_state
        patch([montecarlo], "_first_quiet_index", "montecarlo.detection", detection_tag)
        patch([montecarlo], "hurwitz_stable", "stability.hurwitz_stable")
        patch([montecarlo], "henon_stable", "stability.henon_stable")
        for attr in _PRICING:
            patch([montecarlo], attr, "harvest.pricing")

    def count_warning(self, *args, **kwargs) -> None:
        """Stand-in for ``warnings.showwarning`` that counts and stays quiet."""
        self.saturation_warnings += 1

    def dump(self, path) -> None:
        rows = [[i, parent, name, start, end] for i, (name, parent, start, end, _) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": rows}, fh)

    def layer_metrics(self) -> dict[str, list]:
        """Per-layer metrics as {name: [value, unit]}."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        tags = defaultdict(list)
        rk4_by_width = defaultdict(lambda: [0, 0.0])
        for i, (name, parent, start, end, tag) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += end - start - child_time[i]
            if tag is not None:
                tags[name].append(tag)
            if name == "dynamics.rk4_step":
                rk4_by_width[tag][0] += 1
                rk4_by_width[tag][1] += end - start

        out: dict[str, list] = {}
        for name in self.names:
            out[f"{name}.calls"] = [calls[name], "count"]
            out[f"{name}.busy_s"] = [busy[name], "s"]
            out[f"{name}.self_s"] = [self_s[name], "s"]
        for width, (n, t) in sorted(rk4_by_width.items()):
            out[f"dynamics.rk4_step.ns_per_realization_step.w{width}"] = [t / (n * width) * 1e9, "ns"]

        step_busy = busy["dynamics.rk4_step"] + busy["dynamics.henon_step"]
        step_work = sum(tags["dynamics.rk4_step"]) + sum(tags["dynamics.henon_step"])
        out["dynamics.step.busy_s"] = [step_busy, "s"]
        out["dynamics.step.realization_steps"] = [step_work, "count"]
        out["dynamics.step.ns_per_realization_step"] = [
            step_busy / step_work * 1e9 if step_work else 0.0, "ns"]

        drawn = sum(tags["montecarlo.initial_points"])
        out["montecarlo.initial_points.us_per_realization"] = [
            busy["montecarlo.initial_points"] / drawn * 1e6 if drawn else 0.0, "us"]
        detections = tags["montecarlo.detection"]
        certified = sum(1 for ok, _ in detections if ok)
        out["montecarlo.detection.certified"] = [certified, "count"]
        out["montecarlo.detection.certified_ratio"] = [
            certified / len(detections) if detections else 0.0, "ratio"]
        out["montecarlo.detection_buffer_mb"] = [
            max((nbytes for _, nbytes in detections), default=0) / 2**20, "MB"]
        ensembles = tags["montecarlo.run_ensemble"]
        out["montecarlo.realization_steps"] = [sum(s for s, _ in ensembles), "count"]
        out["montecarlo.n_diverged"] = [sum(d for _, d in ensembles), "count"]

        out["stability.busy_s"] = [busy["stability.hurwitz_stable"] + busy["stability.henon_stable"], "s"]
        out["harvest.saturation_warnings"] = [self.saturation_warnings, "count"]
        out["io_utils.csv_busy_s"] = [busy["io_utils.csv_text"] + busy["io_utils.trajectory_csv"], "s"]
        out["io_utils.write_busy_s"] = [busy["io_utils.write_text_atomic"], "s"]
        out["io_utils.bytes_written"] = [sum(tags["io_utils.write_text_atomic"]), "bytes"]
        return out
