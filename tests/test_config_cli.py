import math
import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import chaoswpt
from chaoswpt import cli, config, montecarlo
from chaoswpt.cli import main, run_experiment
from chaoswpt.config import (
    ExperimentConfig,
    apply_overrides,
    manifest_text,
    to_document,
    validate_config,
)
from chaoswpt.dynamics import (
    HenonParams,
    LorenzParams,
    check_array_size,
    integrate_lorenz,
    iterate_henon,
    steps_for_horizon,
)
from chaoswpt.errors import ConfigError
from chaoswpt.io_utils import (
    HARVEST_HEADER,
    csv_text,
    fmt_value,
    harvest_row,
    trajectory_csv,
    write_text_atomic,
)
from chaoswpt.montecarlo import multisine_result, run_ensemble, with_link


def test_empty_document_resolves_to_defaults():
    cfg = validate_config("")
    assert cfg.experiment == "trajectory"
    assert cfg.base.system == "lorenz"
    assert cfg.base.lorenz == LorenzParams(10.0, 12.0, 8.0 / 3.0)
    assert cfg.base.link.pt_dbm == 30.0 and cfg.base.link.d_m == 20.0 and cfg.base.link.alpha == 4.0
    assert cfg.base.rectenna.k2 == 0.0034 and cfg.base.rectenna.k4 == 0.3829
    assert cfg.base.ensemble.n_realizations == 1000
    assert cfg.base.ensemble.dt == 1e-3 and cfg.base.ensemble.horizon == 100.0
    assert cfg.trajectory.horizon == 50.0


def test_all_violations_reported_together():
    doc = """
lorenz: {beta: -1}
scaling: {eps_x: 0.5}
ensemble: {n_realizations: 0}
"""
    with pytest.raises(ConfigError) as exc:
        validate_config(doc)
    text = str(exc.value)
    assert "lorenz.beta" in text
    assert "scaling.eps_x" in text
    assert "ensemble.n_realizations" in text


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key 'volume'"):
        validate_config("volume: 11")
    with pytest.raises(ConfigError, match="lorenz: unknown key 'sgima'"):
        validate_config("lorenz: {sgima: 10}")


def test_bad_yaml_reported_as_config_error():
    with pytest.raises(ConfigError, match="not valid YAML"):
        validate_config("experiment: [unclosed")


def test_bad_experiment_and_system_names():
    with pytest.raises(ConfigError, match="experiment"):
        validate_config("experiment: warmup")
    with pytest.raises(ConfigError, match="system"):
        validate_config("system: duffing")


def test_trajectory_p_in_dimension_checked():
    with pytest.raises(ConfigError, match="p_in"):
        validate_config("trajectory: {p_in: [1, 2]}")  # lorenz needs 3
    cfg = validate_config("system: henon\ntrajectory: {p_in: [0.1, 0.2]}")
    assert cfg.trajectory.p_in == (0.1, 0.2)


def test_fading_moment_inequality_checked():
    with pytest.raises(ConfigError, match="fading"):
        validate_config("fading: {m2: 2, m4: 1}")


def test_sweep_system_compatibility_checked():
    doc = "experiment: sweep\nsystem: lorenz\nsweep: {parameter: gamma, values: [0.1]}"
    with pytest.raises(ConfigError, match="does not apply"):
        validate_config(doc)
    # same sweep block is fine when it is not the selected experiment
    validate_config(doc.replace("experiment: sweep", "experiment: stability-scan"))


def test_seed_range_checked():
    with pytest.raises(ConfigError, match="seed"):
        validate_config(f"ensemble: {{seed: {2**64}}}")


def test_manifest_round_trip():
    doc = """
experiment: fig2
system: lorenz
lorenz: {r: 17.5, beta: 2.6666666666666665}
scaling: {eps_x: 6, eps_y: 2, eps_z: 1.5}
fading: {m2: 1.2, m4: 3.1}
ensemble: {n_realizations: 77, seed: 123456789, dt: 0.002, horizon: 31.5,
           init_box: [[-1, 1], [-2, 2], [0, 4]]}
fig2: {r_values: [5, 7.25], eps_values: [1, 3]}
"""
    cfg = validate_config(doc)
    echoed = validate_config(manifest_text(cfg))
    assert echoed == cfg
    # and the echo is stable: a second round trip produces identical text
    assert manifest_text(echoed) == manifest_text(cfg)


def test_to_document_is_pure_yaml_types():
    doc = to_document(ExperimentConfig())
    yaml.safe_dump(doc)  # must not need python-specific tags
    assert doc["lorenz"]["sigma"] == 10.0
    assert doc["ensemble"]["init_box"] is None


def test_apply_overrides():
    cfg = apply_overrides(ExperimentConfig(), seed=99, out_dir="elsewhere", n_realizations=5)
    assert cfg.base.ensemble.seed == 99
    assert cfg.base.ensemble.n_realizations == 5
    assert cfg.fig3.n_realizations == 1
    assert cfg.out_dir == "elsewhere"
    with pytest.raises(ConfigError):
        apply_overrides(ExperimentConfig(), n_realizations=0)


def test_fmt_value_rendering():
    assert fmt_value(None) == ""
    assert fmt_value(True) == "true" and fmt_value(False) == "false"
    assert fmt_value(42) == "42"
    assert fmt_value(float("nan")) == ""
    assert float(fmt_value(math.pi)) == math.pi  # 17 significant digits round-trip
    assert float(fmt_value(1.0 / 3.0)) == 1.0 / 3.0


def test_csv_text_layout():
    data = csv_text(["a", "b"], [[1, None], [2.5, True]])
    assert data == b"a,b\n1,\n2.5,true\n"


def test_trajectory_csv_round_trip(std_params):
    traj = integrate_lorenz((1.0, -5.0, 20.0), std_params, horizon=0.5)
    lines = bytes(trajectory_csv(traj)).strip().split(b"\n")
    assert lines[0] == b"t,x,y,z"
    parsed = np.array([[float(v) for v in line.split(b",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 1:], traj.samples)
    assert parsed[0, 0] == 0.0 and parsed[-1, 0] == pytest.approx(0.5, rel=1e-12)


def test_trajectory_csv_map_text():
    # every state of this orbit is a short binary fraction, so the text is exact
    traj = iterate_henon((0.0, 0.0), HenonParams(0.5, 0.5), n_steps=4)
    assert trajectory_csv(traj) == b"n,x,y\n0,0,0\n1,1,0\n2,0.5,0.5\n3,1.375,0.25\n4,0.3046875,0.6875\n"


def test_trajectory_csv_map_header():
    traj = iterate_henon((0.0, 0.0), HenonParams(0.2, 0.1), n_steps=3)
    lines = bytes(trajectory_csv(traj)).strip().split(b"\n")
    assert lines[0] == b"n,x,y"
    assert lines[1].startswith(b"0,")
    assert lines[-1].startswith(b"3,")


def test_write_text_atomic(tmp_path):
    # a new file, created once; an existing one is an error and keeps its bytes
    target = tmp_path / "file.txt"
    write_text_atomic(target, b"payload")
    assert target.read_bytes() == b"payload"
    with pytest.raises(FileExistsError):
        write_text_atomic(target, b"replaced")
    assert target.read_bytes() == b"payload"
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_cli_outputs_get_the_umask_default_mode(tmp_path, umask):
    doc = "experiment: stability-scan\nscan: {r_values: [10, 30]}\n"
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["run", str(_write(tmp_path, doc)), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert modes == dict.fromkeys(["stability_scan.csv", "manifest.yaml"], 0o666 & ~umask)


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_cli_trajectory_roundtrip(tmp_path):
    cfg = _write(tmp_path, "experiment: trajectory\ntrajectory: {horizon: 2}\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    csv = (out / "trajectory.csv").read_text()
    assert csv.startswith("t,x,y,z\n")
    assert len(csv.strip().split("\n")) == 2002
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["out_dir"] == str(out)
    # rerunning from the manifest reproduces the file byte for byte
    out2 = tmp_path / "out2"
    assert main(["run", str(out / "manifest.yaml"), "--out", str(out2)]) == 0
    assert (out2 / "trajectory.csv").read_bytes() == (out / "trajectory.csv").read_bytes()


def test_cli_trajectory_shorter_than_a_step_writes_its_start(tmp_path):
    cfg = _write(tmp_path, "experiment: trajectory\ntrajectory: {p_in: [1, -5, 20], horizon: 0.0001}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "trajectory.csv").read_text() == "t,x,y,z\n0,1,-5,20\n"


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "lorenz: {beta: -1}\nscaling: {eps_x: 0.2}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "lorenz.beta" in err and "scaling.eps_x" in err


@pytest.mark.parametrize(
    "content,label",
    [
        (b"experiment: trajectory\n# caf\xff\n", "not valid UTF-8"),
        (b'out_dir: "a\\0b"\n', "out_dir"),
    ],
    ids=["undecodable", "nul-out-dir"],
)
def test_cli_config_the_run_cannot_read_or_write_is_a_config_error(tmp_path, capsys, content, label):
    path = tmp_path / "cfg.yaml"
    path.write_bytes(content)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n  - ") == 1 and f"\n  - {label}: " in err


def test_cli_reads_a_utf8_config_under_an_ascii_locale(tmp_path):
    doc = "# résumé: two points of the scan\nexperiment: stability-scan\nscan: {r_values: [10, 30]}\n"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(doc, encoding="utf-8")
    src = str(Path(chaoswpt.__file__).resolve().parents[1])
    locales = {
        "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        "utf8": {"LC_ALL": "C.UTF-8"},
    }
    written = {}
    for name, env in locales.items():
        cwd = tmp_path / name
        cwd.mkdir()
        run = subprocess.run(
            [sys.executable, "-m", "chaoswpt", "run", str(cfg), "--out", "out"],
            cwd=cwd, env={**os.environ, **env, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        written[name] = {p.name: p.read_bytes() for p in (cwd / "out").iterdir()}
    assert sorted(written["ascii"]) == ["manifest.yaml", "stability_scan.csv"]
    assert written["ascii"] == written["utf8"]


def test_cli_an_out_dir_no_file_name_holds_is_a_config_error(tmp_path, capsys):
    # a lone surrogate has no encoding, not even through surrogateescape
    cfg = _write(tmp_path, "experiment: trajectory\ntrajectory: {horizon: 1}\n")
    assert main(["run", str(cfg), "--out", f"{tmp_path}/\ud800x"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n  - ") == 1 and "\n  - --out: out_dir must be encodable as a file name" in err
    assert os.listdir(tmp_path) == ["cfg.yaml"]


def test_cli_an_out_dir_the_ascii_locale_cannot_encode_is_a_config_error(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("experiment: trajectory\ntrajectory: {horizon: 1}\nout_dir: résults\n", encoding="utf-8")
    cwd = tmp_path / "run"
    cwd.mkdir()
    env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(chaoswpt.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "chaoswpt", "run", str(cfg)],
                         cwd=cwd, env={**os.environ, **env}, capture_output=True, text=True)
    assert run.returncode == 2, run.stderr
    assert run.stderr.count("\n  - ") == 1 and "\n  - out_dir: out_dir must be encodable" in run.stderr
    assert os.listdir(cwd) == []


def test_cli_missing_config_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_runtime_error_exit_code_and_no_partial_output(tmp_path, capsys):
    doc = """
experiment: trajectory
system: henon
henon: {gamma: 1.4, delta: 0.3}
trajectory: {p_in: [10, 10], horizon: 50}
"""
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "run failed" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_cli_unwritable_out_dir_exit_code(tmp_path, capsys):
    # the output directory cannot be created under a regular file
    (tmp_path / "blocker").write_text("")
    doc = f"experiment: trajectory\ntrajectory: {{horizon: 1}}\nout_dir: {tmp_path / 'blocker' / 'sub'}\n"
    assert main(["run", str(_write(tmp_path, doc))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and err.count("\n") == 1
    assert (tmp_path / "blocker").is_file()


_MULTISINE_SWEEP = """
experiment: sweep
system: multisine
sweep: {parameter: n_tones, values: [1, 2]}
"""


def test_cli_failed_rename_leaves_no_output(tmp_path, capsys):
    # the manifest cannot replace a directory, so the run fails after the
    # CSV is already renamed into place
    out = tmp_path / "out"
    (out / "manifest.yaml").mkdir(parents=True)
    assert main(["run", str(_write(tmp_path, _MULTISINE_SWEEP)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == ["manifest.yaml"]
    assert (out / "manifest.yaml").is_dir()


def test_cli_failed_staging_leaves_no_output(tmp_path, capsys, monkeypatch):
    write = cli.write_text_atomic

    def fail_on_manifest(path, data):
        if Path(path).name == "manifest.yaml":
            raise OSError("disk full")
        write(path, data)

    monkeypatch.setattr(cli, "write_text_atomic", fail_on_manifest)
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, _MULTISINE_SWEEP)), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "run failed: disk full\n"
    assert list(out.iterdir()) == []


def test_cli_renames_each_output_once(tmp_path, monkeypatch):
    renames = []
    replace_ = os.replace

    def counting_replace(src, dst):
        renames.append(Path(dst).name)
        replace_(src, dst)

    monkeypatch.setattr(os, "replace", counting_replace)
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, _MULTISINE_SWEEP)), "--out", str(out)]) == 0
    assert renames == ["sweep.csv", "manifest.yaml"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.yaml", "sweep.csv"]


def test_cli_seed_and_realizations_override_manifest(tmp_path):
    doc = """
experiment: sweep
system: multisine
sweep: {parameter: n_tones, values: [1, 2]}
"""
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--seed", "42", "--realizations", "7"]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["ensemble"]["seed"] == 42
    assert manifest["ensemble"]["n_realizations"] == 7


_FIG3 = """
experiment: fig3
fig3: {r_values: [28], eps_values: [6], sigma_values: [10], n_realizations: 1}
ensemble: {horizon: 5}
"""


def test_cli_fig3_rejects_more_than_one_realization(tmp_path, capsys):
    doc = _FIG3.replace("n_realizations: 1", "n_realizations: 7")
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, doc)), "--out", str(out)]) == 2
    assert "  - fig3.n_realizations: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps_values", ["[6, 6.0000001]", "[6, 6]"], ids=["alike", "equal"])
def test_cli_fig3_points_that_print_alike_are_a_config_error(tmp_path, capsys, eps_values):
    # both points' files would be named fig3_sigma10_eps6.csv
    doc = _FIG3.replace("eps_values: [6]", f"eps_values: {eps_values}").replace("horizon: 5", "horizon: 2")
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, doc)), "--out", str(out)]) == 2
    assert "  - fig3: two points write the same file fig3_sigma10_eps6.csv" in capsys.readouterr().err
    assert not out.exists()


def test_cli_integer_beyond_double_range_is_a_config_error(tmp_path, capsys):
    # used to run a whole ensemble, then fail pricing it with an OverflowError
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, f"link: {{pt_dbm: {_HUGE}}}\n")), "--out", str(out)]) == 2
    assert "  - link.pt_dbm: must be a number within double range" in capsys.readouterr().err
    assert not out.exists()


def test_cli_non_finite_number_is_a_config_error(tmp_path, capsys):
    # used to run, writing blank cells for .nan and inf cells for .inf
    out = tmp_path / "out"
    doc = "experiment: sweep\nsystem: multisine\nsweep: {parameter: pt_dbm, values: [.nan, 10]}\n"
    assert main(["run", str(_write(tmp_path, doc)), "--out", str(out)]) == 2
    problems = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  - ")]
    assert problems == ["  - sweep.values[0]: must be a finite number"]
    assert not out.exists()


def test_cli_link_budget_beyond_double_range_is_a_config_error(tmp_path, capsys):
    # used to run the flow and the map, then exit 1 with an OverflowError from
    # pricing; a fig4 pt_dbm value is first patched in at run time
    out = tmp_path / "out"
    doc = ("experiment: fig4\nfig4: {pt_dbm_values: [4000], n_tones_values: [1], lorenz_r_values: [12], "
           "henon_params: [[0.2, 0.1]]}\n")
    assert main(["run", str(_write(tmp_path, doc)), "--out", str(out)]) == 2
    problems = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  - ")]
    assert problems == ["  - fig4.pt_dbm_values: DC coefficients must be finite, non-negative doubles"]
    assert not out.exists()


@pytest.mark.parametrize("ensemble", [f"{{n_realizations: {10**20}}}", "{horizon: 1.0e+300}"])
def test_cli_sizes_no_run_can_hold_are_config_errors(tmp_path, capsys, ensemble):
    # used to end in a raw ValueError from np.empty, with exit status 1
    out = tmp_path / "out"
    cfg = _write(tmp_path, f"experiment: fig2\nensemble: {ensemble}\n")
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "  - ensemble." in capsys.readouterr().err
    assert not out.exists()


#: configs within every count's bound whose arrays exceed sys.maxsize bytes:
#: the samples of a flow trajectory, a flow ensemble's initial points, and a
#: flow ensemble chunk's settling-detection buffer
_TOO_BIG = [
    pytest.param("experiment: trajectory\ntrajectory: {horizon: 1.0e+15}", "trajectory.horizon",
                 id="trajectory-samples"),
    pytest.param(f"experiment: fig2\nensemble: {{n_realizations: {2**62}}}", "ensemble.n_realizations",
                 id="initial-points"),
    pytest.param("experiment: fig2\nensemble: {n_realizations: 10, horizon: 9.0e+15}", "ensemble.horizon",
                 id="detection-buffer"),
]


@pytest.mark.parametrize("doc,label", _TOO_BIG)
def test_cli_arrays_no_platform_can_allocate_are_config_errors(tmp_path, capsys, doc, label):
    # numpy refuses these with a raw "array is too big" ValueError; validation
    # must name the key first
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, doc)), "--out", str(out)]) == 2
    assert f"  - {label}: " in capsys.readouterr().err
    assert not out.exists()


def test_arrays_within_numpys_limit_are_accepted():
    # 10 flow orbits over 1e15 time units keep a 2.08 EiB detection buffer:
    # within sys.maxsize bytes, so the run starts and fails for want of memory
    validate_config("experiment: fig2\nensemble: {n_realizations: 10, horizon: 1.0e+15}")
    check_array_size((sys.maxsize // 8,), "an array")
    with pytest.raises(ValueError, match="an array would take more than"):
        check_array_size((sys.maxsize // 8 + 1,), "an array")


def test_cli_running_out_of_memory_is_a_run_failure(tmp_path, capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(montecarlo, "initial_points", no_memory)
    out = tmp_path / "out"
    doc = "experiment: fig2\nfig2: {r_values: [5], eps_values: [1]}\n"
    assert main(["run", str(_write(tmp_path, doc)), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "run failed: MemoryError\n"
    assert not out.exists()


def test_cli_realizations_flag_leaves_fig3_unchanged(tmp_path):
    cfg = _write(tmp_path, _FIG3)
    plain, sized = tmp_path / "plain", tmp_path / "sized"
    assert main(["run", str(cfg), "--out", str(plain)]) == 0
    assert main(["run", str(cfg), "--out", str(sized), "--realizations", "7"]) == 0
    csvs = sorted(p.name for p in plain.glob("*.csv"))
    assert csvs == ["fig3_sigma10_eps6.csv"]
    assert all((plain / name).read_bytes() == (sized / name).read_bytes() for name in csvs)


def test_map_trajectory_horizon_rounds_like_the_flow(tmp_path):
    horizon = 3 - 1e-12
    assert steps_for_horizon(horizon, 1.0) == 3
    doc = f"system: henon\ntrajectory: {{p_in: [0.1, 0.2], horizon: {horizon!r}}}\n"
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, doc)), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 and lines[-1].startswith("3,")


def test_cli_stability_scan(tmp_path):
    doc = """
experiment: stability-scan
scan:
  sigma_values: [10]
  beta_values: [2.6666666666666665]
  r_values: [24.7, 24.8]
"""
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "stability_scan.csv").read_text().strip().split("\n")
    assert lines[0] == "sigma,beta,r,stable,minor1,minor2,minor3"
    row_stable = lines[1].split(",")
    row_unstable = lines[2].split(",")
    assert row_stable[3] == "true" and row_unstable[3] == "false"
    assert float(row_stable[5]) > 0 > float(row_unstable[5])


def test_cli_sweep_multisine(tmp_path):
    doc = """
experiment: sweep
system: multisine
sweep: {parameter: n_tones, values: [1, 4]}
"""
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(HARVEST_HEADER)
    first = dict(zip(HARVEST_HEADER, lines[1].split(",")))
    assert first["system"] == "multisine"
    assert first["r_or_gamma"] == "1"
    assert first["eta_empirical"] == ""  # deterministic baseline: nothing measured
    assert float(first["eta_analytic"]) > 0
    assert float(first["papr_db"]) == pytest.approx(10 * math.log10(2), abs=1e-9)


def test_cli_sweep_prices_no_start_beyond_the_bound(rk4_path, tmp_path):
    # a horizon shorter than one map step measures the starts alone; a start
    # beyond the divergence bound is a diverged realization, not a bounded one
    doc = """
experiment: sweep
system: henon
sweep: {parameter: gamma, values: [0.2]}
ensemble: {n_realizations: 3, horizon: 0.5, init_box: [[2000000.0, 2000000.0], [0, 0]]}
"""
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, doc)), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    row = dict(zip(HARVEST_HEADER, lines[1].split(",")))
    assert (row["eta_empirical"], row["m2_emp"], row["m4_emp"]) == ("", "", "")
    assert float(row["eta_analytic"]) > 0


def test_cli_fig2_small(tmp_path):
    doc = """
experiment: fig2
fig2: {r_values: [5], eps_values: [1, 2]}
ensemble: {n_realizations: 4, horizon: 10}
"""
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "fig2.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + one row per (eps, r)
    rows = [dict(zip(HARVEST_HEADER, line.split(","))) for line in lines[1:]]
    assert [row["eps"] for row in rows] == ["1", "2"]
    for row in rows:
        assert row["stable"] == "true"
        assert float(row["eta_analytic"]) > 0
        assert float(row["m2_emp"]) > 0


def test_cli_fig3_small(tmp_path):
    doc = """
experiment: fig3
fig3:
  r_values: [26, 30]
  eps_values: [1]
  sigma_values: [10]
  n_realizations: 1
ensemble: {horizon: 10}
"""
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "fig3_sigma10_eps1.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    rows = [dict(zip(HARVEST_HEADER, line.split(","))) for line in lines[1:]]
    for row in rows:
        assert row["stable"] == "false"
        assert row["eta_analytic"] == ""  # no closed form in the chaotic band
        assert float(row["papr_db"]) > 0


def test_cli_fig4_small(tmp_path):
    doc = """
experiment: fig4
fig4:
  pt_dbm_values: [20, 30]
  lorenz_r_values: [12]
  henon_params: [[0.2, 0.1]]
  n_tones_values: [2]
ensemble: {n_realizations: 4, horizon: 10}
"""
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "fig4.csv").read_text().strip().split("\n")
    assert len(lines) == 7  # header + 3 waveforms x 2 power levels
    rows = [dict(zip(HARVEST_HEADER, line.split(","))) for line in lines[1:]]
    assert [row["system"] for row in rows] == ["lorenz"] * 2 + ["henon"] * 2 + ["multisine"] * 2
    for low, high in zip(rows[::2], rows[1::2]):
        assert float(low["eta_analytic"]) < float(high["eta_analytic"])
    # re-priced rows share one ensemble: measured moments identical across power
    assert rows[0]["m2_emp"] == rows[1]["m2_emp"]


def test_fig4_rows_match_run_then_reprice():
    # reference rows: each waveform evaluated once at the base link, then
    # re-priced at every power with with_link
    cfg = validate_config("""
experiment: fig4
fig4:
  pt_dbm_values: [10, 25]
  lorenz_r_values: [5, 12]
  henon_params: [[0.2, 0.1], [0.001, 0.9]]
  n_tones_values: [1, 4]
ensemble: {n_realizations: 5, horizon: 20}
""")
    base, f4 = cfg.base, cfg.fig4
    results = [
        run_ensemble(replace(base, system="lorenz", lorenz=replace(base.lorenz, r=r)))
        for r in f4.lorenz_r_values
    ]
    results += [
        run_ensemble(replace(base, system="henon", henon=HenonParams(g, d)))
        for g, d in f4.henon_params
    ]
    results += [multisine_result(replace(base, system="multisine", n_tones=n)) for n in f4.n_tones_values]
    rows = [
        harvest_row(with_link(res, replace(res.config.link, pt_dbm=pt)))
        for res in results
        for pt in f4.pt_dbm_values
    ]
    assert cli._run_harvest(cfg) == [("fig4.csv", csv_text(HARVEST_HEADER, rows))]


def test_run_experiment_returns_written_paths(tmp_path):
    cfg = validate_config(f"out_dir: {tmp_path / 'r'}\ntrajectory: {{horizon: 1}}")
    paths = run_experiment(cfg)
    assert [p.name for p in paths] == ["trajectory.csv", "manifest.yaml"]
    assert all(p.exists() for p in paths)


# One invalid document per field of every block, plus one per rule that ties
# blocks together, each with the label its problem must start with.
#: an integer that no double can hold
_HUGE = "1" + "0" * 400

_INVALID = [
    ("experiment: warmup", "experiment"),
    ("out_dir: ''", "out_dir"),
    ("system: duffing", "system"),
    ("n_tones: 0", "n_tones"),
    ("n_tones: 5000", "n_tones"),
    ("lorenz: {sigma: 0}", "lorenz.sigma"),
    ("lorenz: {r: -1}", "lorenz.r"),
    ("lorenz: {beta: -1}", "lorenz.beta"),
    ("henon: {gamma: 0}", "henon.gamma"),
    ("henon: {delta: small}", "henon.delta"),
    ("scaling: {eps_x: 0.5}", "scaling.eps_x"),
    ("scaling: {eps_y: 0.5}", "scaling.eps_y"),
    ("scaling: {eps_z: 0.5}", "scaling.eps_z"),
    ("link: {pt_dbm: loud}", "link.pt_dbm"),
    ("link: {d_m: 0}", "link.d_m"),
    ("link: {alpha: -1}", "link.alpha"),
    ("rectenna: {k2: 0}", "rectenna.k2"),
    ("rectenna: {k4: -1}", "rectenna.k4"),
    ("rectenna: {r_ant: 0}", "rectenna.r_ant"),
    ("fading: {m2: -1}", "fading.m2"),
    ("fading: {m4: -1}", "fading.m4"),
    ("fading: {m2: 2, m4: 3.9}", "fading"),
    ("ensemble: {n_realizations: 0}", "ensemble.n_realizations"),
    ("ensemble: {seed: -1}", "ensemble.seed"),
    ("ensemble: {init_box: [[1, 0], [0, 1], [0, 1]]}", "ensemble.init_box"),
    ("ensemble: {init_box: [[0, 1]]}", "ensemble.init_box"),
    ("ensemble: {dt: 0}", "ensemble.dt"),
    ("ensemble: {horizon: -1}", "ensemble.horizon"),
    ("ensemble: {steady_state_tol: 0}", "ensemble.steady_state_tol"),
    ("ensemble: {transient_fraction: 1}", "ensemble.transient_fraction"),
    ("trajectory: {p_in: [1]}", "trajectory.p_in"),
    ("trajectory: {dt: 0}", "trajectory.dt"),
    ("trajectory: {horizon: 0}", "trajectory.horizon"),
    ("scan: {sigma_values: [0]}", "scan.sigma_values"),
    ("scan: {beta_values: [-1]}", "scan.beta_values"),
    ("scan: {r_values: []}", "scan.r_values"),
    ("fig2: {r_values: [-5]}", "fig2.r_values"),
    ("fig2: {eps_values: [0.5]}", "fig2.eps_values"),
    ("fig3: {r_values: [0]}", "fig3.r_values"),
    ("fig3: {eps_values: [0.9]}", "fig3.eps_values"),
    ("fig3: {sigma_values: [-10]}", "fig3.sigma_values"),
    ("fig3: {p_in: [1, 2, 3, 4]}", "fig3.p_in"),
    ("fig3: {n_realizations: 0}", "fig3.n_realizations"),
    ("fig4: {pt_dbm_values: [loud]}", "fig4.pt_dbm_values"),
    ("fig4: {lorenz_r_values: [0]}", "fig4.lorenz_r_values"),
    ("fig4: {henon_params: [[0, 0.1]]}", "fig4.henon_params"),
    ("fig4: {n_tones_values: [0]}", "fig4.n_tones_values"),
    ("fig4: {n_tones_values: [5000]}", "fig4.n_tones_values"),
    ("sweep: {parameter: volume}", "sweep.parameter"),
    ("sweep: {values: []}", "sweep.values"),
    # rules across blocks
    ("trajectory: {p_in: [1, 2]}", "trajectory.p_in"),
    ("system: henon\ntrajectory: {p_in: [1, 2, 3]}", "trajectory.p_in"),
    ("system: multisine", "trajectory"),
    ("experiment: sweep\nsweep: {parameter: gamma, values: [0.1]}", "sweep.parameter"),
    ("fig3: {p_in: [1, 2]}", "fig3.p_in"),
    # integers too large for a double in float fields
    pytest.param(f"ensemble: {{horizon: {_HUGE}}}", "ensemble.horizon", id="huge-horizon"),
    pytest.param(f"link: {{pt_dbm: {_HUGE}}}", "link.pt_dbm", id="huge-pt_dbm"),
    pytest.param(f"scan: {{sigma_values: [10, -{_HUGE}]}}", "scan.sigma_values[1]", id="huge-sigma"),
    pytest.param(f"lorenz: {{r: {_HUGE}}}", "lorenz.r", id="huge-r"),
    # numbers that are not finite, in float fields and their lists
    pytest.param("experiment: sweep\nsystem: multisine\nsweep: {parameter: pt_dbm, values: [.nan, .inf, 10]}",
                 "sweep.values[0]: must be a finite number", id="nan-sweep-value"),
    pytest.param("experiment: sweep\nsystem: multisine\nsweep: {parameter: pt_dbm, values: [10, .inf]}",
                 "sweep.values[1]: must be a finite number", id="inf-sweep-value"),
    pytest.param("fig2: {eps_values: [.inf]}", "fig2.eps_values[0]: must be a finite number", id="inf-eps"),
    pytest.param("link: {pt_dbm: 1.0e+400}", "link.pt_dbm: must be a finite number", id="overflowing-pt_dbm"),
    pytest.param("ensemble: {steady_state_tol: .inf}", "ensemble.steady_state_tol: must be a finite number",
                 id="inf-tol"),
    pytest.param("rectenna: {k4: .inf}", "rectenna.k4: must be a finite number", id="inf-k4"),
    pytest.param("ensemble: {init_box: [[-.inf, 1], [0, 1], [0, 1]]}",
                 "ensemble.init_box[0][0]: must be a finite number", id="inf-init-box"),
    # finite link budgets whose DC coefficients are not finite doubles: the
    # first three used to exit 1 with an OverflowError, the last to write inf
    pytest.param("experiment: fig4\nfig4: {pt_dbm_values: [4000], n_tones_values: [1], lorenz_r_values: [12], "
                 "henon_params: [[0.2, 0.1]]}", "fig4.pt_dbm_values: DC coefficients", id="overflowing-fig4-pt_dbm"),
    pytest.param("experiment: sweep\nsystem: multisine\nsweep: {parameter: pt_dbm, values: [10, 4000]}",
                 "sweep.values: DC coefficients", id="overflowing-sweep-pt_dbm"),
    pytest.param("experiment: fig2\nlink: {d_m: 1.0e-200}", "link: DC coefficients", id="overflowing-d_m"),
    pytest.param("experiment: sweep\nsystem: multisine\nsweep: {parameter: pt_dbm, values: [2000]}",
                 "sweep.values: DC coefficients", id="inf-coefficient"),
    # sizes no array can index
    pytest.param(f"ensemble: {{n_realizations: {10**20}}}", "ensemble.n_realizations", id="huge-n"),
    pytest.param("ensemble: {horizon: 1.0e+300}", "ensemble.horizon", id="huge-ensemble-steps"),
    pytest.param("ensemble: {dt: 10, horizon: 5.0e+19}", "ensemble", id="huge-map-steps"),
    pytest.param("trajectory: {horizon: 1.0e+300}", "trajectory.horizon", id="huge-trajectory-steps"),
    pytest.param("trajectory: {dt: 10, horizon: 5.0e+19}", "trajectory", id="huge-map-trajectory-steps"),
    *_TOO_BIG,
]


@pytest.mark.parametrize("doc,label", _INVALID)
def test_each_invalid_field_rejected_under_its_label(doc, label):
    with pytest.raises(ConfigError) as exc:
        validate_config(doc)
    assert any(p.startswith(label) for p in exc.value.problems), exc.value.problems


@pytest.mark.parametrize(
    "doc",
    [
        "fading: {m2: 1.5, m4: 2.25}",  # m4 == m2^2 exactly
        f"ensemble: {{seed: {2**64 - 1}}}",
        "ensemble: {init_box: null}",
        "ensemble: {transient_fraction: 0}",
        "fig2: {r_values: null}",  # a null list keeps its default
    ],
)
def test_edge_values_accepted_and_round_trip(doc):
    cfg = validate_config(doc)
    text = manifest_text(cfg)
    assert validate_config(text) == cfg
    assert manifest_text(validate_config(text)) == text


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"
#: a non-ASCII path, a negative zero, exponents both ways and the largest seed
_EDGE_DOCUMENT = """\
out_dir: résultats/été
link: {pt_dbm: -0.0, d_m: 1.0e+16}
ensemble: {steady_state_tol: 1.0e-7, seed: 18446744073709551615}
"""


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("name", [*sorted(p.name for p in _CONFIGS.glob("*.yaml")), "edge"])
def test_libyaml_and_the_pure_python_classes_give_the_same_manifest(monkeypatch, name):
    # the README promises the same manifest bytes whichever classes PyYAML has
    text = _EDGE_DOCUMENT if name == "edge" else (_CONFIGS / name).read_text(encoding="utf-8")
    # repr tells -0.0 from 0.0
    assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(yaml.load(text, Loader=yaml.SafeLoader))
    manifests = []
    for loader, dumper in ((yaml.CSafeLoader, yaml.CSafeDumper), (yaml.SafeLoader, yaml.SafeDumper)):
        monkeypatch.setattr(config, "_LOADER", loader)
        monkeypatch.setattr(config, "_DUMPER", dumper)
        manifests.append(manifest_text(validate_config(text)))
    assert manifests[0] == manifests[1]


def test_readme_configuration_block_matches_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert validate_config(block) == ExperimentConfig()


@pytest.mark.parametrize(
    "doc,label",
    [
        ("system: lorenz\nsweep: {parameter: r, values: [5, -1]}", "sweep.values"),
        ("system: lorenz\nsweep: {parameter: eps, values: [0.5]}", "sweep.values"),
        ("system: henon\nsweep: {parameter: gamma, values: [0]}", "sweep.values"),
        ("system: multisine\nsweep: {parameter: n_tones, values: [0]}", "sweep.values"),
        ("system: multisine\nsweep: {parameter: n_tones, values: [2.5]}", "sweep.values"),
        ("system: multisine\nsweep: {parameter: n_tones, values: [5000]}", "sweep.values"),
        ("system: henon\nsweep: {parameter: delta, values: [0.1]}\n"
         "ensemble: {init_box: [[0, 1], [0, 1], [0, 1]]}", "ensemble.init_box"),
    ],
)
def test_cli_sweep_values_the_run_rejects_are_config_errors(tmp_path, capsys, doc, label):
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, "experiment: sweep\n" + doc)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"  - {label}: " in err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment,box",
    [
        ("fig2", "[[0, 1], [0, 1]]"),  # the flow needs three pairs
        ("fig4", "[[0, 1], [0, 1], [0, 1]]"),  # fig4 also runs the map
        ("fig4", "[[0, 1], [0, 1]]"),
    ],
)
def test_cli_init_box_that_does_not_fit_the_run_is_a_config_error(tmp_path, capsys, experiment, box):
    doc = f"experiment: {experiment}\nensemble: {{n_realizations: 2, horizon: 1, init_box: {box}}}\n"
    assert main(["run", str(_write(tmp_path, doc)), "--out", str(tmp_path / "out")]) == 2
    assert "  - ensemble.init_box: " in capsys.readouterr().err


def test_init_box_that_fits_the_run_is_accepted():
    validate_config("experiment: fig2\nensemble: {init_box: [[0, 1], [0, 1], [0, 1]]}")
    validate_config("experiment: sweep\nsystem: henon\nsweep: {parameter: delta, values: [0.1]}\n"
                    "ensemble: {init_box: [[0, 1], [0, 1]]}")
    # fig3 draws from a box around its own p_in, and a trajectory has no ensemble
    validate_config("experiment: fig3\nensemble: {init_box: [[0, 1], [0, 1]]}")
    validate_config("experiment: trajectory\nensemble: {init_box: [[0, 1], [0, 1]]}")


def test_largest_resolvable_tone_count_is_accepted():
    validate_config("n_tones: 4999")
    validate_config("fig4: {n_tones_values: [4999]}")
    validate_config("experiment: sweep\nsystem: multisine\nsweep: {parameter: n_tones, values: [4999]}")


def test_override_rejections_name_the_flag():
    with pytest.raises(ConfigError, match="--seed: "):
        apply_overrides(ExperimentConfig(), seed=2**64)
    with pytest.raises(ConfigError, match="--realizations: "):
        apply_overrides(ExperimentConfig(), n_realizations=0)
    with pytest.raises(ConfigError, match="--out: "):
        apply_overrides(ExperimentConfig(), out_dir="")
