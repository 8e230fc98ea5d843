"""Experiment harness: config validation, suite runs, determinism, exit codes."""

import dataclasses
import json
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import rigidity_prediction

from hslag import cli
from hslag.cli import ExperimentConfig, main
from hslag.errors import ConfigError
from hslag.fieldio import load_field, load_manifest, read_csv
from hslag.models import TorusModel


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


def test_config_refuses_tolerances_exit_2(tmp_path, capsys):
    """Check bounds belong to the package: a config cannot set them."""
    tolerances = {"suite": "sweep", "tolerances": {"solve_residual": 1.0}}
    with pytest.raises(ConfigError, match=r"unknown config keys: \['tolerances'\]"):
        ExperimentConfig.from_dict(tolerances)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tolerances))
    out = tmp_path / "run"
    assert run_cli("sweep", "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("config error: unknown config keys")
    assert not out.exists()


def test_config_rejects_t_beyond_bound():
    with pytest.raises(ConfigError, match="outside"):
        ExperimentConfig.from_dict({"suite": "reduce", "t": 0.2})
    # the bound is the package's, not a config key
    with pytest.raises(ConfigError, match=r"unknown config keys: \['t_max'\]"):
        ExperimentConfig.from_dict({"suite": "reduce", "t": 0.2, "t_max": 0.25})


def test_config_rejects_odd_grid():
    with pytest.raises(ConfigError, match="grid_size"):
        ExperimentConfig.from_dict({"suite": "sweep", "grid_size": 31})


_NUMBERS = st.one_of(st.integers(-3, 40), st.floats(allow_nan=True, allow_infinity=True))
_VALUES = st.one_of(
    _NUMBERS,
    st.text(max_size=4),
    st.lists(st.one_of(_NUMBERS, st.text(max_size=2)), max_size=4),
    st.none(),
    st.booleans(),
    st.sampled_from(cli.SUITES + ("torus", "ln")),
)

_DEFAULTS = ExperimentConfig(suite="sweep").to_dict()


@given(
    st.sampled_from(cli.SUITES),
    # up to three keys, each value the key's default or of any type, so that
    # some documents are accepted
    st.lists(st.sampled_from(sorted(_DEFAULTS)), max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries(
            {key: st.one_of(st.just(_DEFAULTS[key]), _VALUES) for key in keys}
        )
    ),
)
def test_config_is_refused_or_well_typed(suite, drawn):
    """Any config document either raises ConfigError or gives a config whose
    echo is strict JSON and whose integer fields are ints."""
    try:
        config = ExperimentConfig.from_dict({"suite": suite, **drawn})
    except ConfigError:
        return
    json.dumps(config.to_dict(), allow_nan=False)
    assert all(type(getattr(config, key)) is int for key in ("n", "grid_size", "num_waves", "seed"))


def _readme_commands():
    """The `hslag` lines of README's quick-start bash block, as argv lists."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as handle:
        text = handle.read()
    block = text.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hslag ")]


def test_readme_commands_parse():
    """Every documented command parses and gives a valid config, with no
    suite run."""
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = cli._build_parser()
    for argv in commands:
        config = cli._config_from_args(parser.parse_args(argv))
        assert config.suite == argv[0]


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


@pytest.mark.parametrize("under", [False, True], ids=["existing-file", "under-a-file"])
def test_unusable_out_exit_2(tmp_path, capsys, under):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "run" if under else taken
    assert run_cli("verify-models", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["taken"]


def test_radii_override_sets_an_n3_torus():
    args = cli._build_parser().parse_args(["reduce", "--n", "3", "--radii", "1", "1.3", "1.6"])
    config = cli._config_from_args(args)
    assert (config.n, config.radii) == (3, (1.0, 1.3, 1.6))


@pytest.mark.parametrize(
    "radii, message",
    [
        (["--n", "3", "--radii", "1", "1.3"], "one radius per complex dimension"),
        (["--radii", "1", "1.3", "1.6"], "one radius per complex dimension"),  # n defaults to 2
        (["--radii", "1", "0"], "radii must be positive"),
        (["--n", "3", "--radii", "1", "-1.3", "1.6"], "radii must be positive"),
    ],
    ids=["short", "long", "zero", "negative"],
)
def test_radii_override_errors_exit_2(tmp_path, capsys, radii, message):
    out = tmp_path / "run"
    assert run_cli("reduce", *radii, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "config",
    [
        {"suite": "sweep", "seeds": [1, 2, 3]},  # no config key: unknown, whatever its type
        {"suite": "sweep", "radii": 1.0},
        {"suite": "sweep", "t_values": [0.01, "a"]},
        {"suite": "sweep", "tolerances": [1]},
        {"suite": "sweep", "amplitude": float("nan")},
        {"suite": "sweep", "radii": [1.0, float("nan")]},
        {"suite": "sweep", "out_dir": 5},
        {"suite": "sweep", "seed": -1},
        {"suite": "sweep", "seed": 1.5},
        {"suite": "sweep", "grid_size": 32.0},
    ],
    ids=[
        "seeds", "radii", "t_values", "tolerances", "nan-amplitude", "nan-radius",
        "int-out_dir", "negative-seed", "float-seed", "float-grid_size",
    ],
)
def test_config_value_of_wrong_type_exit_2(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli("sweep", "--config", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "override",
    [
        ["--seed", "-1"],
        ["--amplitude", "nan"],
        ["--amplitude", "inf"],
        ["--radii", "1", "inf"],
        ["--t", "nan"],
        ["--amplitude", "1e6"],  # finite, but past the metric's series cap
    ],
    ids=["negative-seed", "nan-amplitude", "inf-amplitude", "inf-radius", "nan-t", "huge-amplitude"],
)
def test_override_of_unservable_value_exit_2(tmp_path, capsys, override):
    """Overrides pass the config's own checks: each exits 2 at once, with one
    line on stderr and no output directory, nor the parent it would create."""
    out = tmp_path / "runs" / "run"
    assert run_cli("estimates", *override, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_config_error_in_a_suite_keeps_an_existing_output_directory(tmp_path):
    """Only directories the run itself created are removed on a config error."""
    out = tmp_path / "run"
    out.mkdir()
    assert run_cli("estimates", "--amplitude", "1e6", "--out", str(out)) == 2
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("suite", ["sweep", "estimates"])
@pytest.mark.parametrize("t_values", [[], [0.05], [0.05, 0.05]], ids=["none", "one", "repeated"])
def test_scaling_suites_need_two_distinct_t_exit_2(tmp_path, suite, t_values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suite": suite, "t_values": t_values}))
    out = tmp_path / "run"
    assert run_cli(suite, "--config", str(path), "--out", str(out)) == 2
    assert not out.exists()


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
    from hslag import reduction

    def starved(config, out):
        ctx = reduction.build_context(grid_size=16)
        reduction.projected_solve(ctx, 0.05, reduction.random_frame_state(ctx, seed=1))

    monkeypatch.setattr(reduction, "_MAX_SOLVE_ITERATIONS", 1)
    monkeypatch.setitem(cli._SUITE_RUNNERS, "reduce", starved)
    out = str(tmp_path / "starved")
    assert run_cli("reduce", "--out", out) == 1
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is False
    assert manifest["error_type"] == "NonContractionError"
    assert manifest["stage"] == "reduction.projected_solve"


def _python(*args):
    """A fresh interpreter with the package's source on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_module_entry_point_runs_without_warning():
    """`python -m hslag.cli` must not find hslag.cli already imported by the package."""
    proc = _python("-W", "error::RuntimeWarning", "-m", "hslag.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_cli_import_loads_no_unused_scipy():
    """At run time the package needs numpy only; scipy, which tests use as
    an oracle, stays unloaded, every module of it."""
    code = "import sys, hslag.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The CLI's main in an interpreter whose import system refuses scipy and
# every module under it; exits 99 if the refusal does not take.
_WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy.fft
except ImportError:
    pass
else:
    sys.exit(99)
from hslag.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "args, manifest_check",
    [
        (("reduce", "--grid", "16", "--seed", "1"), "geometric_residual_rel"),
        (("spectrum", "--grid", "8"), "spectrum_rel_error"),
    ],
    ids=["reduce", "spectrum"],
)
def test_runs_without_scipy(tmp_path, args, manifest_check):
    """Runs complete with scipy unimportable.  Both exit 1, as with scipy
    present: each writes its manifest, and the one check that a coarse grid
    misses (grid 16's geometric residual, grid 8's spectrum) fails."""
    out = tmp_path / "run"
    proc = _python("-c", _WITHOUT_SCIPY, *args, "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    manifest = load_manifest(str(out / "manifest.json"))
    failed = [c["name"] for c in manifest["checks"] if not c["passed"]]
    assert failed == [manifest_check]


def test_torus_spectrum_at_n3_runs_without_traceback(tmp_path):
    """The spectrum suite probes the torus symbol at any n: an n = 3 torus
    runs to its 13-dimensional kernel."""
    out = tmp_path / "run"
    proc = _python(
        "-m", "hslag.cli", "spectrum", "--n", "3", "--radii", "1", "1.3", "1.6",
        "--grid", "16", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    manifest = load_manifest(str(out / "manifest.json"))
    model = TorusModel(radii=(1.0, 1.3, 1.6), grid_size=16)
    assert manifest["payload"]["kernel_dimension"] == 13 == rigidity_prediction(model)


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


def test_spectrum_suite_torus(tmp_path):
    out = str(tmp_path / "st")
    assert run_cli("spectrum", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    assert all(c["passed"] for c in manifest["checks"])
    assert manifest["payload"]["kernel_dimension"] == 7
    header, rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert header == ["k1", "k2", "multiplicity", "analytic", "numeric", "abs_diff", "rel_diff"]
    assert len(rows) == 81


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
    header, trace_rows = read_csv(os.path.join(out, "trace.csv"))
    assert header == list(cli.TRACE_COLUMNS)
    assert len(trace_rows) == payload["solver_evaluations"] > 1
    outcomes = [row[-1] for row in trace_rows]
    assert outcomes[0] == "anchor"
    assert set(outcomes) <= {"anchor", "ratio", "gradient", "rejected"}
    assert "ratio" in outcomes
    _, contraction = read_csv(os.path.join(out, "contraction.csv"))
    assert contraction[-1][1] <= 1e-10
    # the solved potential field reloads exactly
    field = load_field(os.path.join(out, "potential.json"))
    assert field.grid.sizes == (32, 32)
    frame = payload["final_frame"]
    assert len(frame["point"]) == 4 and len(frame["coords"]) == 8


def test_reduce_suite_with_a_generic_metric(tmp_path):
    """Four waves at n = 2 have rank 2n = 4, so K keeps only the diagonal
    torus as symmetry (2 columns) and the search runs over 6 quotient
    columns, where the default three waves leave one translation (3 and 5).
    Measured: 25 solver evaluations, |dK| 1.5e-10, smallest frame
    eigenvalue 1.4e-6."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suite": "reduce", "num_waves": 4, "seed": 1}))
    out = str(tmp_path / "rd")
    assert run_cli("reduce", "--config", str(path), "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    assert all(check["passed"] for check in manifest["checks"])
    ctx = cli._reduction_context(ExperimentConfig.from_file(str(path)))
    assert (ctx.symmetries.shape[1], ctx.quotient.shape[1]) == (2, 6)
    assert len(manifest["payload"]["hessian_eigenvalues"]) == 6
    default = cli._reduction_context(ExperimentConfig(suite="reduce", seed=1))
    assert (default.symmetries.shape[1], default.quotient.shape[1]) == (3, 5)
