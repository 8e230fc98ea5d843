"""Experiment harness: config validation, suite runs, determinism, exit codes."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import rigidity_prediction

from hslag import cli
from hslag.cli import ExperimentConfig, main
from hslag.errors import ConfigError
from hslag.fieldio import load_field, load_manifest, read_csv, write_manifest
from hslag.models import TorusModel
from hslag.reduction import OptimizeSettings, optimize_frame


def run_cli(*args):
    return main(list(args))


DATA = Path(__file__).resolve().parent / "data"


def assert_matches_stored(run_dir, name, tmp_path):
    """Every output of a run equals its stored copy in tests/data/<name>
    byte for byte; the manifest is compared without config.out_dir, the one
    value that names the run's own directory, and without config.run when
    it names a directory (plot-data's source run, itself in tmp_path).

    To regenerate a stored run, make it with the invocation of the test that
    calls this, copy its files into tests/data/<name>, and rewrite the
    manifest through `write_manifest` with those values deleted.  That is
    a data change: list every moved value and its size in CHANGES.md."""
    stored = sorted(path.name for path in (DATA / name).iterdir())
    assert sorted(path.name for path in Path(run_dir).iterdir()) == stored
    for file_name in stored:
        fresh = Path(run_dir) / file_name
        if file_name == "manifest.json":
            manifest = load_manifest(fresh)
            del manifest["config"]["out_dir"]
            if manifest["config"]["run"] is not None and os.path.isdir(manifest["config"]["run"]):
                del manifest["config"]["run"]
            text = write_manifest(tmp_path / file_name, manifest)
        else:
            text = fresh.read_text()
        assert text == (DATA / name / file_name).read_text(), file_name


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_round_trip():
    cfg = ExperimentConfig(suite="reduce", seed=3, t=0.04)
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
    echo is strict JSON, whose integer fields are ints, and which differs
    from the defaults only in the fields its suite reads."""
    try:
        config = ExperimentConfig.from_dict({"suite": suite, **drawn})
    except ConfigError:
        return
    echo = config.to_dict()
    json.dumps(echo, allow_nan=False)
    assert all(type(getattr(config, key)) is int for key in ("n", "grid_size", "num_waves", "seed"))
    row = {"suite", "out_dir", *cli._READS[suite]}
    assert {key for key in echo if echo[key] != _DEFAULTS[key]} <= row


# A value other than the default for each config field besides suite and out_dir.
_OTHER_VALUES = {
    "model": "ln",
    "n": 3,
    "radii": [1.0, 1.5],
    "grid_size": 16,
    "t": 0.01,
    "t_values": [0.1, 0.05],
    "amplitude": 0.04,
    "num_waves": 4,
    "seed": 5,
    "run": "x",
}
_UNREAD = [
    (suite, key) for suite in cli.SUITES for key in _OTHER_VALUES if key not in cli._READS[suite]
]


def _document(suite, **values):
    """A config document for suite; plot-data's names the run it needs."""
    return {"suite": suite, **({"run": "x"} if suite == "plot-data" else {}), **values}


@pytest.mark.parametrize(
    "config, key",
    [(_document(suite, **{key: _OTHER_VALUES[key]}), key) for suite, key in _UNREAD]
    + [({"suite": "spectrum", "model": "ln", "radii": [1.0, 1.5]}, "radii")],
    ids=[f"{suite}-{key}" for suite, key in _UNREAD] + ["spectrum-ln-radii"],
)
def test_value_outside_the_suite_row_exit_2(tmp_path, capsys, config, key):
    """Every (suite, field) outside `_READS`, at a value other than the
    default, is refused by the config and by the command line, which writes
    nothing; the circle-sphere spectrum reads no radii."""
    message = f"the {config['suite']} suite reads no {key}"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig.from_dict(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli(config["suite"], "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("suite", cli.SUITES)
def test_default_valued_lists_are_accepted(suite):
    """The config echo of a manifest, with its radii as a JSON list, is
    accepted by every suite, read there or not, and so is [1, 1.3]."""
    config = ExperimentConfig.from_dict(_document(suite))
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    assert ExperimentConfig.from_dict(_document(suite, radii=[1, 1.3])) == config
    if suite == "spectrum":
        ln = _document(suite, model="ln", radii=[1.0, 1.3])
        assert ExperimentConfig.from_dict(ln).radii == (1.0, 1.3)


# The flags of each subcommand besides --config and --out: those of its row.
_ROW_FLAGS = {
    "verify-models": {"--n", "--radii", "--grid"},
    "spectrum": {"--model", "--n", "--radii", "--grid"},
    "estimates": {"--n", "--amplitude", "--seed"},
    "reduce": {"--n", "--radii", "--grid", "--t", "--amplitude", "--seed", "--run"},
    "sweep": {"--n", "--radii", "--grid", "--amplitude", "--seed"},
    "plot-data": {"--run"},
}


@pytest.mark.parametrize("suite", cli.SUITES)
def test_help_lists_only_the_flags_of_the_suite_row(capsys, suite):
    assert run_cli(suite, "--help") == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out))
    assert flags == {"--help", "--config", "--out", *_ROW_FLAGS[suite]}


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--t", "0.01"], ["estimates", "--grid", "64"], ["plot-data", "--seed", "5"]],
    ids=["sweep-t", "estimates-grid", "plot-data-seed"],
)
def test_flag_outside_the_suite_row_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not out.exists()


def _readme_text():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as handle:
        return handle.read()


def _readme_commands():
    """The `hslag` lines of README's quick-start bash block, as argv lists."""
    block = _readme_text().split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hslag ")]


def test_readme_key_table_is_the_reads_table():
    """README's per-suite key table is `cli._READS`, row by row."""
    header = "| suite | keys it reads |\n| --- | --- |\n"
    table = _readme_text().split(header, 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        suite, keys = (cell.strip() for cell in line.strip("|").split("|"))
        rows[suite.strip("`")] = tuple(key.strip("`") for key in keys.split(", "))
    assert rows == cli._READS


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
    assert run_cli("reduce", *override, "--out", str(out)) == 2
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


@pytest.mark.parametrize(
    "config",
    [
        {"suite": "verify-models", "run": "x"},
        {"suite": "spectrum", "run": "x"},
        {"suite": "estimates", "run": "x"},
        {"suite": "sweep", "run": "x"},
        {"suite": "verify-models", "t_values": [0.1]},
        {"suite": "spectrum", "t_values": [0.1, 0.05]},
        {"suite": "reduce", "t_values": [0.1, 0.05]},
        {"suite": "plot-data", "run": "x", "t_values": [0.1, 0.05]},
    ],
    ids=[
        "verify-models-run", "spectrum-run", "estimates-run", "sweep-run",
        "verify-models-t_values", "spectrum-t_values", "reduce-t_values", "plot-data-t_values",
    ],
)
def test_value_a_suite_never_reads_exit_2(tmp_path, capsys, config):
    """`run` is read by plot-data and reduce alone, and `t_values` by sweep
    and estimates alone: elsewhere each is refused, not ignored."""
    key = "run" if "t_values" not in config else "t_values"
    with pytest.raises(ConfigError, match=f"the {config['suite']} suite reads no {key}"):
        ExperimentConfig.from_dict(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli(config["suite"], "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("suite", [suite for suite in cli.SUITES if suite != "spectrum"])
def test_model_outside_spectrum_exit_2(tmp_path, capsys, suite):
    """Only spectrum reads `model`: elsewhere a model other than the default
    torus is refused, not ignored, and the default itself is accepted."""
    with pytest.raises(ConfigError, match=f"the {suite} suite reads no model"):
        ExperimentConfig.from_dict(_document(suite, model="ln"))
    assert ExperimentConfig.from_dict(_document(suite, model="torus")).model == "torus"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_document(suite, model="ln")))
    out = tmp_path / "out"
    assert run_cli(suite, "--config", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_run_flag_only_on_suites_that_read_it(capsys):
    parser = cli._build_parser()
    for suite in cli.SUITES:
        if suite in ("plot-data", "reduce"):
            assert parser.parse_args([suite, "--run", "x"]).run == "x"
        else:
            with pytest.raises(SystemExit):
                parser.parse_args([suite, "--run", "x"])
            assert "unrecognized arguments: --run" in capsys.readouterr().err


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
        ctx = reduction.build_context(TorusModel((1.0, 1.3), grid_size=16))
        reduction.projected_solve(ctx, 0.05, reduction.random_frame_state(ctx, seed=1))

    monkeypatch.setattr(reduction, "_MAX_SOLVE_ITERATIONS", 1)
    monkeypatch.setitem(cli._SUITE_RUNNERS, "reduce", starved)
    out = str(tmp_path / "starved")
    assert run_cli("reduce", "--out", out) == 1
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is False
    assert manifest["error_type"] == "NonContractionError"
    assert manifest["stage"] == "reduction.projected_solve"


def test_sweep_with_vanishing_fields_fails_with_a_manifest(tmp_path, capsys):
    """At amplitude 0 every solved field is zero, so the sweep has no log-log
    slope to fit: it exits 1 with a failure manifest naming its stage, and
    prints no traceback."""
    out = str(tmp_path / "flat")
    assert run_cli("sweep", "--amplitude", "0", "--grid", "16", "--out", out) == 1
    assert "Traceback" not in capsys.readouterr().err
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is False
    assert manifest["error_type"] == "HslagError"
    assert manifest["stage"] == "cli._suite_sweep"


def _python(*args):
    """A fresh interpreter with the package's source on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_failure_stage_under_module_entry_point(tmp_path):
    """Run as `python -m hslag.cli`, cli's frames carry the module name
    `__main__`; the failure manifest still names the stage by the import
    name, as the in-process `main` does."""
    out = str(tmp_path / "flat")
    proc = _python("-m", "hslag.cli", "sweep", "--amplitude", "0", "--grid", "16", "--out", out)
    assert proc.returncode == 1, proc.stderr
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["error_type"] == "HslagError"
    assert manifest["stage"] == "cli._suite_sweep"


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
    "args, failing",
    [
        (("reduce", "--grid", "16", "--seed", "1"), ["geometric_residual_rel"]),
        (("spectrum", "--grid", "8"), []),
    ],
    ids=["reduce", "spectrum"],
)
def test_runs_without_scipy(tmp_path, args, failing):
    """Runs complete with scipy unimportable and exit as with scipy present,
    each with its manifest: grid 16's reduce exits 1 on the one check its
    coarse grid misses, the geometric residual; grid 8's spectrum passes."""
    out = tmp_path / "run"
    proc = _python("-c", _WITHOUT_SCIPY, *args, "--out", str(out))
    assert proc.returncode == (1 if failing else 0), proc.stderr
    assert "Traceback" not in proc.stderr
    manifest = load_manifest(str(out / "manifest.json"))
    failed = [c["name"] for c in manifest["checks"] if not c["passed"]]
    assert failed == failing


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
    assert_matches_stored(out, "verify_models", tmp_path)


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
    assert_matches_stored(out, "spectrum_torus", tmp_path)


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
    assert_matches_stored(out, "spectrum_ln", tmp_path)


def test_spectrum_suite_circle_sphere_beyond_dense_size(tmp_path):
    out = str(tmp_path / "sp50")
    assert run_cli("spectrum", "--model", "ln", "--grid", "50", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["payload"]["kernel_dimension"] == 7


@pytest.mark.parametrize(
    "args",
    [(), ("--model", "ln"), ("--n", "3", "--radii", "1", "1.3", "1.6")],
    ids=["torus", "ln", "torus-n3"],
)
def test_spectrum_suite_at_grid_8(tmp_path, args):
    """At grid 8 the band drops |k| = 4, its Nyquist mode, so the analytic
    tables stop at wave number 3 and no entry is matched to another mode."""
    out = str(tmp_path / "s8")
    assert run_cli("spectrum", *args, "--grid", "8", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    _, rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert max(abs(k) for row in rows for k in row[:-5]) == 3


def test_estimates_suite_flat_metric(tmp_path):
    """At amplitude 0 the chart metrics are flat to roundoff, and every
    ratio is 1, not the t_max / t_min of roundoff divided by t."""
    out = str(tmp_path / "es0")
    assert run_cli("estimates", "--amplitude", "0", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    assert manifest["payload"]["ratios"] == {"0": 1.0, "1": 1.0, "2": 1.0}


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
    assert_matches_stored(out, "estimates_seed0", tmp_path)


def test_sweep_suite_and_plot_round_trip(tmp_path):
    out = str(tmp_path / "sw")
    assert run_cli("sweep", "--out", out) == 0
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert manifest["passed"] is True
    assert manifest["payload"]["slope"] >= 0.8
    assert_matches_stored(out, "sweep_seed0", tmp_path)

    plot_out = str(tmp_path / "pd")
    assert run_cli("plot-data", "--run", out, "--out", plot_out) == 0
    assert_matches_stored(plot_out, "plot_sweep_seed0", tmp_path)
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


def test_plot_data_out_at_its_run_exit_2(tmp_path, capsys):
    """plot-data with --out at its --run directory exits 2 with one
    `config error:` line and leaves the stored run byte for byte as it was."""
    run = _sweep_run(tmp_path, None)
    before = {path.name: path.read_bytes() for path in Path(run).iterdir()}
    capsys.readouterr()
    assert run_cli("plot-data", "--run", run, "--out", run) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "is the run directory" in err
    assert {path.name: path.read_bytes() for path in Path(run).iterdir()} == before


def test_plot_data_requires_run_dir(tmp_path):
    assert run_cli("plot-data", "--out", str(tmp_path / "pd")) == 2
    missing = str(tmp_path / "does-not-exist")
    assert run_cli("plot-data", "--run", missing, "--out", str(tmp_path / "pd2")) == 2


# ---------------------------------------------------------------------------
# reduce suite (slow: one full frame optimization)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reduce_run(tmp_path_factory):
    """One `reduce --seed 7` run directory, shared by the tests below."""
    out = str(tmp_path_factory.mktemp("reduce") / "rd")
    assert run_cli("reduce", "--seed", "7", "--t", "0.05", "--out", out) == 0
    return out


def test_reduce_suite_end_to_end(reduce_run, tmp_path):
    out = reduce_run
    assert_matches_stored(out, "reduce_seed7", tmp_path)
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


@pytest.mark.parametrize("grid", [32, 48])
def test_reduce_run_recertifies_at_any_grid(tmp_path, reduce_run, grid):
    """Started at a stored run's final frame, the search takes no step: its
    one solve and the certificates re-certify the torus at the new grid."""
    out = str(tmp_path / "again")
    argv = ["reduce", "--seed", "7", "--t", "0.05", "--run", reduce_run, "--grid", str(grid)]
    assert run_cli(*argv, "--out", out) == 0
    stored = load_manifest(os.path.join(reduce_run, "manifest.json"))
    manifest = load_manifest(os.path.join(out, "manifest.json"))
    assert len(manifest["checks"]) == 7 and all(c["passed"] for c in manifest["checks"])
    assert manifest["payload"]["solver_evaluations"] == 1
    K, stored_K = manifest["payload"]["K"], stored["payload"]["K"]
    assert abs(K - stored_K) <= 1e-13 * abs(stored_K)
    assert manifest["config"]["run"] == reduce_run


def test_reduce_run_certifies_the_stored_point_in_place(tmp_path, monkeypatch, reduce_run):
    """`reduce --run` searches with no saddle escape, so a stored saddle is
    certified as a saddle; a fresh search keeps the default escapes."""
    seen = []

    def spy(ctx, t, init, settings=None):
        seen.append(settings)
        return optimize_frame(ctx, t, init, settings)

    monkeypatch.setattr(cli, "optimize_frame", spy)
    argv = ["reduce", "--seed", "7", "--t", "0.05", "--run", reduce_run]
    assert run_cli(*argv, "--out", str(tmp_path / "again")) == 0
    fresh = str(tmp_path / "fresh")
    assert run_cli("reduce", "--seed", "7", "--grid", "16", "--out", fresh) in (0, 1)
    default = OptimizeSettings().max_saddle_restarts
    assert [default if s is None else s.max_saddle_restarts for s in seen] == [0, default]


def _edited_run(edit):
    """A run directory builder: the stored run's manifest, edited."""

    def build(tmp_path, run):
        manifest = load_manifest(os.path.join(run, "manifest.json"))
        edit(manifest)
        directory = tmp_path / "stored"
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps(manifest))
        return str(directory)

    return build


def _sweep_run(tmp_path, run):
    out = str(tmp_path / "sweep")
    assert run_cli("sweep", "--grid", "8", "--seed", "7", "--out", out) in (0, 1)
    return out


def _empty_run(tmp_path, run):
    (tmp_path / "empty").mkdir()
    return str(tmp_path / "empty")


def _failed(manifest):
    """The manifest of a run that failed in its pipeline: no payload."""
    del manifest["payload"]
    manifest.update(checks=[], passed=False, error="synthetic", error_type="NonContractionError")


@pytest.mark.parametrize(
    "build, flags, message",
    [
        (None, ["--seed", "8"], "made with other seed"),
        (None, ["--seed", "8", "--amplitude", "0.04"], "made with other amplitude, seed"),
        (None, ["--out", None], "is the run directory"),
        (_sweep_run, [], "holds no reduce run"),
        (_edited_run(_failed), [], "stored no final frame"),
        (_edited_run(lambda m: m["payload"]["final_frame"]["point"].__setitem__(0, None)),
         [], "not finite"),
        (_edited_run(lambda m: m["payload"]["final_frame"]["coords"].pop()), [], "shapes"),
        (_edited_run(lambda m: m["payload"]["final_frame"]["matrix"].__setitem__(0, "a")),
         [], "stored no final frame"),
        (_empty_run, [], "cannot read manifest"),
    ],
    ids=[
        "other-seed", "two-fields", "out-is-run", "sweep-run", "failure-manifest",
        "non-finite", "wrong-shape", "non-numeric", "no-manifest",
    ],
)
def test_reduce_run_refusals_exit_2(tmp_path, capsys, reduce_run, build, flags, message):
    """A run directory reduce cannot start from exits 2, with one
    `config error:` line, no output directory, and the run left as it was."""
    run = reduce_run if build is None else build(tmp_path, reduce_run)
    out = str(tmp_path / "out")
    flags = [run if flag is None else flag for flag in flags]  # --out at the run itself
    before = {path.name: path.read_bytes() for path in Path(run).iterdir()}
    capsys.readouterr()
    argv = ["reduce", "--seed", "7", "--t", "0.05", "--run", run, "--out", out, *flags]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not os.path.exists(out)
    assert {path.name: path.read_bytes() for path in Path(run).iterdir()} == before


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
