"""Experiment harness: config validation, suite runs, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from hslag import cli
from hslag.cli import ExperimentConfig, main
from hslag.errors import ConfigError
from hslag.fieldio import load_field, load_manifest, read_csv


def run_cli(*args):
    return main(list(args))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_round_trip():
    cfg = ExperimentConfig(suite="sweep", seed=3, t=0.04)
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"suite": "sweep", "bogus": 1})


def test_config_rejects_bad_suite():
    with pytest.raises(ConfigError, match="unknown suite"):
        ExperimentConfig.from_dict({"suite": "frobnicate"})


def test_config_rejects_nonpositive_tolerance():
    with pytest.raises(ConfigError, match="must be positive"):
        ExperimentConfig.from_dict(
            {"suite": "sweep", "tolerances": {"solve_residual": 0.0}}
        )
    with pytest.raises(ConfigError, match="unknown tolerance"):
        ExperimentConfig.from_dict({"suite": "sweep", "tolerances": {"nope": 1.0}})


def test_config_rejects_t_beyond_bound():
    with pytest.raises(ConfigError, match="outside"):
        ExperimentConfig.from_dict({"suite": "reduce", "t": 0.2})
    # raising the bound makes the same t legal
    cfg = ExperimentConfig.from_dict({"suite": "reduce", "t": 0.2, "t_max": 0.25})
    assert cfg.t == 0.2


def test_config_rejects_odd_grid():
    with pytest.raises(ConfigError, match="grid_size"):
        ExperimentConfig.from_dict({"suite": "sweep", "grid_size": 31})


def test_config_file_errors_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert run_cli("sweep", "--config", missing) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("sweep", "--config", str(bad)) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"suite": "sweep", "wat": 1}))
    assert run_cli("sweep", "--config", str(unknown)) == 2


def test_t_override_validation_exit_2(tmp_path):
    assert run_cli("reduce", "--t", "0.5", "--out", str(tmp_path / "r")) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "3", "--grid", "8"],  # two radii for a 3-torus
        ["reduce", "--n", "3"],
        ["spectrum", "--n", "3"],
        ["verify-models", "--n", "3"],  # circle-sphere grids need n = 2
        ["spectrum", "--model", "ln", "--n", "3"],
    ],
)
def test_unservable_shape_exit_2(tmp_path, argv):
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "config",
    [
        {"suite": "sweep", "seeds": 5},
        {"suite": "sweep", "radii": 1.0},
        {"suite": "sweep", "t_values": [0.01, "a"]},
        {"suite": "sweep", "tolerances": [1]},
    ],
    ids=["seeds", "radii", "t_values", "tolerances"],
)
def test_config_value_of_wrong_type_exit_2(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli("sweep", "--config", str(path), "--out", str(out)) == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("suite", ["sweep", "estimates"])
@pytest.mark.parametrize("t_values", [[], [0.05], [0.05, 0.05]], ids=["none", "one", "repeated"])
def test_scaling_suites_need_two_distinct_t_exit_2(tmp_path, suite, t_values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suite": suite, "t_values": t_values}))
    out = tmp_path / "run"
    assert run_cli(suite, "--config", str(path), "--out", str(out)) == 2
    assert not (out / "manifest.json").exists()


def test_unexpected_error_writes_failure_manifest(tmp_path, monkeypatch):
    def broken(config, out):
        raise ValueError("synthetic defect")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "verify-models", broken)
    out = str(tmp_path / "broken")
    assert run_cli("verify-models", "--out", out) == 1
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is False
    assert manifest["error_type"] == "ValueError"
    assert manifest["error"] == "synthetic defect"
    # the runner lives outside the package, so the innermost hslag frame is the caller
    assert manifest["stage"] == "cli.run_suite"


def test_numerical_failure_manifest_names_stage(tmp_path, monkeypatch):
    from hslag.reduction import SolveSettings, build_context, projected_solve, random_frame_state

    def starved(config, out):
        ctx = build_context(grid_size=16, solve=SolveSettings(max_iterations=1))
        projected_solve(ctx, 0.05, random_frame_state(ctx, seed=1))

    monkeypatch.setitem(cli._SUITE_RUNNERS, "reduce", starved)
    out = str(tmp_path / "starved")
    assert run_cli("reduce", "--out", out) == 1
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is False
    assert manifest["error_type"] == "NonContractionError"
    assert manifest["stage"] == "reduction.projected_solve"


def test_module_entry_point_runs_without_warning():
    """`python -m hslag.cli` must not find hslag.cli already imported by the package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hslag.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# fast suites end to end
# ---------------------------------------------------------------------------


def test_verify_models_suite(tmp_path):
    out = str(tmp_path / "vm")
    assert run_cli("verify-models", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    names = {c["name"] for c in manifest["checks"]}
    assert names == {"torus_hs_residual", "ln_hs_residual"}
    assert all(c["value"] <= c["threshold"] for c in manifest["checks"])
    header, rows = read_csv(os.path.join(out, "model_checks.csv"))
    assert header[0] == "model" and len(rows) == 2


def test_verify_models_deterministic_bytes(tmp_path):
    out = tmp_path / "det"
    assert run_cli("verify-models", "--out", str(out)) == 0
    first = (out / "manifest.json").read_bytes()
    first_csv = (out / "model_checks.csv").read_bytes()
    assert run_cli("verify-models", "--out", str(out)) == 0
    assert (out / "manifest.json").read_bytes() == first
    assert (out / "model_checks.csv").read_bytes() == first_csv


def test_spectrum_suite_circle_sphere(tmp_path):
    out = str(tmp_path / "sp")
    assert run_cli("spectrum", "--model", "ln", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    assert manifest["payload"]["kernel_dimension"] == 7
    header, rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert header == ["k", "l", "multiplicity", "analytic", "numeric", "abs_diff", "rel_diff"]
    ks = {row[0] for row in rows}
    ls = {row[1] for row in rows}
    assert max(ks) == 4 and max(ls) == 4
    assert all((row[0] + row[1]) % 2 == 0 for row in rows)


def test_spectrum_suite_circle_sphere_beyond_dense_size(tmp_path):
    out = str(tmp_path / "sp50")
    assert run_cli("spectrum", "--model", "ln", "--grid", "50", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["payload"]["kernel_dimension"] == 7


def test_estimates_suite(tmp_path):
    out = str(tmp_path / "es")
    assert run_cli("estimates", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    by_name = {c["name"]: c for c in manifest["checks"]}
    for k in (0, 1, 2):
        assert by_name[f"estimate_ratio_k{k}"]["value"] <= 2.0
    assert by_name["moser_pullback"]["value"] <= 1e-6
    assert by_name["moser_identity"]["value"] <= 1e-8


def test_sweep_suite_and_plot_round_trip(tmp_path):
    out = str(tmp_path / "sw")
    assert run_cli("sweep", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    assert manifest["payload"]["slope"] >= 0.8

    plot_out = str(tmp_path / "pd")
    assert run_cli("plot-data", "--run", out, "--out", plot_out) == 0
    _, sweep_rows = read_csv(os.path.join(out, "sweep.csv"))
    _, plot_rows = read_csv(os.path.join(plot_out, "plot.csv"))
    # every numeric entry survives the trip through plot.csv bit for bit
    source = {(f"sweep:{name}", row[0]): row[j] for row in sweep_rows
              for j, name in enumerate(["t", "f_norm", "residual_norm",
                                        "iterations", "init_agreement"]) if j > 0}
    assert len(plot_rows) == len(source)
    for series, x, y in plot_rows:
        assert source[(series, x)] == y


def test_plot_data_empty_dir_exit_2(tmp_path):
    run_dir = tmp_path / "empty"
    run_dir.mkdir()
    plot_out = tmp_path / "pd"
    assert run_cli("plot-data", "--run", str(run_dir), "--out", str(plot_out)) == 2
    assert not (plot_out / "plot.csv").exists()


def test_plot_data_requires_run_dir(tmp_path):
    assert run_cli("plot-data", "--out", str(tmp_path / "pd")) == 2
    missing = str(tmp_path / "does-not-exist")
    assert run_cli("plot-data", "--run", missing, "--out", str(tmp_path / "pd2")) == 2


# ---------------------------------------------------------------------------
# reduce suite (slow: one full frame optimization)
# ---------------------------------------------------------------------------


def test_reduce_suite_end_to_end(tmp_path):
    out = str(tmp_path / "rd")
    assert run_cli("reduce", "--seed", "7", "--t", "0.05", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    by_name = {c["name"]: c for c in manifest["checks"]}
    assert by_name["gradient_norm"]["value"] <= 1e-8
    assert by_name["geometric_residual_rel"]["value"] <= 1e-5
    assert by_name["converged"]["passed"]
    payload = manifest["payload"]
    assert payload["is_minimum"] is True
    assert payload["saddle_restarts"] == 0
    assert payload["converged"] is True
    # config echo and per-iteration traces are present
    assert manifest["config"]["seed"] == 7
    _, trace_rows = read_csv(os.path.join(out, "trace.csv"))
    assert len(trace_rows) > 5
    assert any(row[1] == "polish" for row in trace_rows) or by_name[
        "gradient_norm"
    ]["value"] <= 1e-8
    _, contraction = read_csv(os.path.join(out, "contraction.csv"))
    assert contraction[-1][1] <= 1e-10
    # the solved potential field reloads exactly
    field = load_field(os.path.join(out, "potential.json"))
    assert field.grid.sizes == (32, 32)
    frame = payload["final_frame"]
    assert len(frame["point"]) == 4 and len(frame["coords"]) == 8
