"""Reproducible experiment harness.

Five experiment suites (verify-models, spectrum, estimates, reduce, sweep)
plus a plot-data emitter, driven by a JSON config with CLI overrides; each
suite takes only the config fields (and flags) of its row in `_READS`.  Every
suite writes a deterministic ``manifest.json`` (config echo, per-assertion
report, suite payload) and CSV traces into the output directory; identical
config and seed give byte-identical manifests in serial runs.  Exit codes:
0 all assertions pass, 1 assertion or pipeline failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import itertools
import math
import os
import sys
import traceback
from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ambient import EuclideanMetric, default_perturbed_metric, estimate_sweep, unitary_frame
from .errors import ConfigError, HslagError
from .fieldio import (
    _load_object,
    load_manifest,
    read_csv,
    save_field,
    write_csv,
    write_long_csv,
    write_manifest,
)
from .geomcore import ScalarField, hs_residual
from .models import (
    CircleSphereModel,
    TorusModel,
    circle_sphere_lagrangian,
    circle_sphere_spectrum,
    clifford_torus,
)
from .operators import (
    assemble_flat_operator,
    kernel_dimension,
    probe_flat_operator,
    torus_multiplier,
)
from .moser import QuadraticPerturbedForm, moser_flow
from .reduction import (
    FrameState,
    OptimizeSettings,
    build_context,
    optimize_frame,
    projected_solve,
    random_frame_state,
    second_variation_Q,
)

__all__ = ["ExperimentConfig", "run_suite", "main", "SUITES"]

# The config fields each suite reads besides suite and out_dir; others keep their defaults.
_READS = {
    "verify-models": ("n", "radii", "grid_size"),
    "spectrum": ("model", "n", "radii", "grid_size"),
    "estimates": ("n", "t_values", "amplitude", "num_waves", "seed"),
    "reduce": ("n", "radii", "grid_size", "t", "amplitude", "num_waves", "seed", "run"),
    "sweep": ("n", "radii", "grid_size", "t_values", "amplitude", "num_waves", "seed"),
    "plot-data": ("run",),
}
SUITES = tuple(_READS)

# The bound of every check, fixed by the package: each manifest check
# records the threshold it was held to.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "model_residual": 1e-8,
    "spectrum_rel": 1e-4,
    "stability": 1e-6,
    "estimate_ratio": 2.0,
    "moser_pullback": 1e-6,
    "moser_identity": 1e-8,
    "solve_residual": 1e-10,
    "scaling_slope": 0.8,
    "uniqueness": 1e-9,
    "kernel_overlap": 1e-10,
    "gradient_norm": 1e-8,
    "geometric_residual": 1e-5,
    "transverse_rel": 0.1,
    "cross_rel": 1e-3,
    "frame_eig_floor": 1e-8,
}

# Every scale t lies in (0, T_MAX].
T_MAX = 0.1


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _finite_tuple(name: str, values) -> Tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or not all(_is_finite(v) for v in values):
        raise ConfigError(f"{name} must be a list of finite numbers, got {values!r}")
    return tuple(float(v) for v in values)


@dataclass
class ExperimentConfig:
    """One experiment run: suite, model and metric descriptors, seed, output."""

    suite: str
    model: str = "torus"
    n: int = 2
    radii: Tuple[float, ...] = (1.0, 1.3)
    grid_size: int = 32
    t: float = 0.05
    t_values: Optional[Tuple[float, ...]] = None
    amplitude: float = 0.05
    num_waves: int = 3
    seed: int = 0
    out_dir: str = "runs"
    run: Optional[str] = None

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; expected one of {SUITES}")
        if self.model not in ("torus", "ln"):
            raise ConfigError(f"unknown model {self.model!r}; expected 'torus' or 'ln'")
        for name in ("n", "grid_size", "num_waves", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.run, (str, type(None))):
            raise ConfigError(f"run must be a string, got {self.run!r}")
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if self.grid_size < 8 or self.grid_size % 2:
            raise ConfigError("grid_size must be even and at least 8")
        if self.num_waves < 1:
            raise ConfigError("num_waves must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not _is_finite(self.amplitude):
            raise ConfigError(f"amplitude must be a finite number, got {self.amplitude!r}")
        if self.t_values is not None:
            self.t_values = _finite_tuple("t_values", self.t_values)
        for t in (self.t, *(self.t_values or ())):
            if not (_is_finite(t) and 0 < t <= T_MAX):
                raise ConfigError(f"t value {t!r} outside (0, {T_MAX}]")
        self.radii = _finite_tuple("radii", self.radii)
        if any(r <= 0 for r in self.radii):
            raise ConfigError("radii must be positive")
        # a value the suite never reads is refused, not ignored; compared once
        # normalized, so a JSON list equal to the default radii passes
        reads = {"suite", "out_dir", *_READS[self.suite]}
        if self.model == "ln":  # the circle-sphere spectrum reads no radii
            reads.discard("radii")
        for field in dataclasses.fields(self):
            if field.name not in reads and getattr(self, field.name) != field.default:
                raise ConfigError(f"the {self.suite} suite reads no {field.name}")
        if "radii" in reads and len(self.radii) != self.n:
            raise ConfigError(
                f"the {self.suite} suite needs one radius per complex dimension for its torus: "
                f"n = {self.n}, radii = {self.radii}"
            )
        builds_circle_sphere = self.suite == "verify-models" or self.model == "ln"
        if builds_circle_sphere and self.n != 2:
            raise ConfigError(f"the {self.suite} suite needs n = 2 for its circle-sphere grid")
        if self.suite == "plot-data" and not self.run:
            raise ConfigError("plot-data requires a run directory (--run)")
        # no suite writes over the run it reads
        if self.run is not None and os.path.realpath(self.out_dir) == os.path.realpath(self.run):
            raise ConfigError(f"the output directory is the run directory {self.run!r}")
        # the sweep fits a slope and the estimates compare constants across t
        scale_t = {"sweep": self.sweep_t_values, "estimates": self.estimate_t_values}
        if self.suite in scale_t and len(set(scale_t[self.suite]())) < 2:
            raise ConfigError(f"the {self.suite} suite needs at least two distinct t_values")

    def sweep_t_values(self) -> Tuple[float, ...]:
        return self.t_values if self.t_values is not None else (0.08, 0.04, 0.02)

    def estimate_t_values(self) -> Tuple[float, ...]:
        return self.t_values if self.t_values is not None else (0.1, 0.05, 0.025)

    def ambient_metric(self):
        return default_perturbed_metric(
            self.n, amplitude=self.amplitude, seed=self.seed, num_waves=self.num_waves
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "suite" not in data:
            raise ConfigError("config must name a suite")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(_load_object(path, "config"))

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["radii"] = list(self.radii)
        if self.t_values is not None:
            data["t_values"] = list(self.t_values)
        return data


def _check(name: str, value: float, threshold: float, comparison: str = "<=") -> dict:
    value = float(value)
    passed = value <= threshold if comparison == "<=" else value >= threshold
    return {
        "name": name,
        "value": value,
        "threshold": float(threshold),
        "comparison": comparison,
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _model_instances(config: ExperimentConfig):
    return (
        ("torus", TorusModel(config.radii, grid_size=config.grid_size), clifford_torus),
        ("ln", CircleSphereModel(config.n, grid_size=config.grid_size), circle_sphere_lagrangian),
    )


def _suite_verify_models(config: ExperimentConfig, out: str):
    checks, rows, payload = [], [], {}
    for name, model, build in _model_instances(config):
        certificate = hs_residual(build(model), EuclideanMetric(model.n))
        defect = float(np.max(np.abs(certificate.defect.values)))
        vol, alpha = certificate.volume, certificate.alpha_norm
        checks.append(_check(f"{name}_hs_residual", defect, DEFAULT_TOLERANCES["model_residual"]))
        rows.append((name, config.grid_size, defect, vol, alpha))
        payload[name] = {"max_residual": defect, "volume": vol, "alpha_h_norm": alpha}
    write_csv(
        os.path.join(out, "model_checks.csv"),
        ["model", "grid", "max_residual", "volume", "alpha_h_norm"],
        rows,
    )
    return checks, ["model_checks.csv"], payload


def _nearest(values: np.ndarray, target: float) -> float:
    return float(values[np.argmin(np.abs(values - target))])


def _suite_spectrum(config: ExperimentConfig, out: str):
    if config.model == "ln":
        model = CircleSphereModel(config.n, grid_size=config.grid_size)
        index_names = ["k", "l"]
        analytic = circle_sphere_spectrum(config.n, 4, 4)
        operator = assemble_flat_operator(model)
    else:
        model = TorusModel(config.radii, grid_size=config.grid_size)
        index_names = [f"k{j + 1}" for j in range(config.n)]
        modes = list(itertools.product(range(-4, 5), repeat=config.n))
        values = torus_multiplier(config.radii, np.array(modes).T)
        analytic = [(*k, 1, float(eig)) for k, eig in zip(modes, values)]
        # the probed symbol, not the analytic one: the suite certifies that the
        # discrete volume reproduces the analytic multiplier
        operator = probe_flat_operator(model)
    eigs = operator.sorted_modes()[0]
    rows, worst = [], 0.0
    for *index, mult, eig in analytic:
        numeric = _nearest(eigs, eig)
        diff = abs(numeric - eig)
        rel = diff / abs(eig) if abs(eig) > 1e-8 else diff
        worst = max(worst, rel)
        rows.append((*index, mult, eig, numeric, diff, rel))
    checks = [
        _check("spectrum_rel_error", worst, DEFAULT_TOLERANCES["spectrum_rel"]),
        _check("min_eigenvalue", -float(np.min(eigs)), DEFAULT_TOLERANCES["stability"]),
    ]
    write_csv(
        os.path.join(out, "spectrum.csv"),
        index_names + ["multiplicity", "analytic", "numeric", "abs_diff", "rel_diff"],
        rows,
    )
    payload = {
        "kernel_dimension": kernel_dimension(eigs),
        "min_eigenvalue": float(np.min(eigs)),
        "max_rel_error": worst,
    }
    return checks, ["spectrum.csv"], payload


def _suite_estimates(config: ExperimentConfig, out: str):
    tol = DEFAULT_TOLERANCES
    metric = config.ambient_metric()
    rng = np.random.default_rng(config.seed)
    frames = [
        unitary_frame(metric, rng.uniform(0.0, 2.0 * np.pi, size=2 * config.n), seed=config.seed + i)
        for i in range(3)
    ]
    t_values = config.estimate_t_values()
    report = estimate_sweep(metric, frames, t_values, seed=config.seed)
    checks = [
        _check(f"estimate_ratio_k{k}", report.ratios[k], tol["estimate_ratio"])
        for k in sorted(report.ratios)
    ]
    bounded = all(check["passed"] for check in checks)
    rows = [
        (t, k, report.constants[k][i])
        for k in sorted(report.constants)
        for i, t in enumerate(report.t_values)
    ]
    write_csv(os.path.join(out, "estimates.csv"), ["t", "k", "constant"], rows)

    moser = moser_flow(QuadraticPerturbedForm(config.n, c=0.1), config.n, seed=config.seed)
    checks.append(_check("moser_pullback", moser.pullback_defect, tol["moser_pullback"]))
    checks.append(_check("moser_origin", moser.origin_defect, tol["moser_identity"]))
    checks.append(_check("moser_identity", moser.identity_defect, tol["moser_identity"]))
    columns = ("steps", "pullback_defect", "origin_defect", "identity_defect", "closedness_defect")
    write_csv(os.path.join(out, "moser.csv"), columns, [[getattr(moser, c) for c in columns]])
    payload = {
        "ratios": {str(k): report.ratios[k] for k in report.ratios},
        "bounded": bounded,
        "moser_steps": moser.steps,
    }
    return checks, ["estimates.csv", "moser.csv"], payload


def _reduction_context(config: ExperimentConfig):
    return build_context(
        radii=config.radii, grid_size=config.grid_size, metric=config.ambient_metric()
    )


# One row per solve of the frame search (see `optimize_frame`).
TRACE_COLUMNS = ("step", "K", "residual_norm", "gradient_norm", "radius", "ratio", "outcome")
_FRAME_KEYS = ("point", "matrix", "coords")  # a manifest's final_frame: FrameState's fields


def _start_frame(config: ExperimentConfig, ctx) -> FrameState:
    """A random frame or, with config.run, the final frame of that reduce run,
    made with this config but for grid_size.  Started there the search takes
    no step, so `reduce --run` re-certifies the stored torus at this grid."""
    run = config.run
    if run is None:
        return random_frame_state(ctx, seed=config.seed)
    manifest = load_manifest(os.path.join(run, "manifest.json"))
    echo, mine = manifest.get("config"), config.to_dict()
    if manifest.get("suite") != "reduce" or not isinstance(echo, dict):
        raise ConfigError(f"{run!r} holds no reduce run")
    keys = (set(echo) | set(mine)) - {"grid_size", "out_dir", "run"}
    if differ := sorted(key for key in keys if echo.get(key) != mine.get(key)):
        raise ConfigError(f"the run in {run!r} was made with other {', '.join(differ)}")
    try:
        frame = manifest["payload"]["final_frame"]
        arrays = [np.array(frame[key], dtype=float) for key in _FRAME_KEYS]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"the run in {run!r} stored no final frame: {exc!r}") from exc
    shapes = [(2 * ctx.n,), (2 * ctx.n, 2 * ctx.n), (ctx.num_frame_coords,)]
    if [a.shape for a in arrays] != shapes or not all(np.isfinite(a).all() for a in arrays):
        raise ConfigError(f"the final frame in {run!r} is not finite with shapes {shapes}")
    return FrameState(*arrays)


def _suite_reduce(config: ExperimentConfig, out: str):
    ctx = _reduction_context(config)
    # a stored critical point is certified where it is: a saddle is not escaped
    settings = None if config.run is None else OptimizeSettings(max_saddle_restarts=0)
    result = optimize_frame(ctx, config.t, _start_frame(config, ctx), settings)
    report = second_variation_Q(ctx, result.state, frame_block=result.hessian)

    tol = DEFAULT_TOLERANCES
    checks = [
        _check("gradient_norm", result.gradient_norm, tol["gradient_norm"]),
        _check("stabilizer_gradient_norm", result.stabilizer_gradient_norm, tol["gradient_norm"]),
        _check("geometric_residual_rel", result.residual_relative, tol["geometric_residual"]),
        _check("transverse_hessian_rel", report.transverse_relative_error, tol["transverse_rel"]),
        _check("cross_block_rel", report.cross_relative, tol["cross_rel"]),
        _check(
            "frame_min_eigenvalue",
            float(np.min(report.frame_eigenvalues)),
            -tol["frame_eig_floor"],
            comparison=">=",
        ),
        _check("converged", 1.0 if result.state.converged else 0.0, 1.0, comparison=">="),
    ]

    rows = [[e[name] for name in TRACE_COLUMNS] for e in result.trace]
    write_csv(os.path.join(out, "trace.csv"), TRACE_COLUMNS, rows)
    history = list(enumerate(result.start_history))
    write_csv(os.path.join(out, "contraction.csv"), ["iteration", "residual_norm"], history)
    save_field(os.path.join(out, "potential.json"), result.state.f)

    payload = {
        "converged": result.state.converged,
        "K": result.state.K_value,
        "iterations": result.state.iterations,
        "solver_evaluations": result.solver_evaluations,
        "gradient_norm": result.gradient_norm,
        "stabilizer_gradient_norm": result.stabilizer_gradient_norm,
        "geometric_residual_rel": result.residual_relative,
        "geometric_residual_abs": result.residual_absolute,
        "is_minimum": result.is_minimum,
        "saddle_restarts": result.saddle_restarts,
        "anchor_rounds": result.anchor_rounds,
        "hessian_eigenvalues": [float(v) for v in result.hessian_eigenvalues],
        "final_frame": dict(zip(_FRAME_KEYS, (a.tolist() for a in astuple(result.state.frame)))),
        "second_variation": {
            "transverse_fd": [float(v) for v in report.transverse_fd],
            "transverse_model": [float(v) for v in report.transverse_model],
            "transverse_relative_error": report.transverse_relative_error,
            "frame_eigenvalues": [float(v) for v in report.frame_eigenvalues],
            "cross_relative": report.cross_relative,
        },
    }
    return checks, ["trace.csv", "contraction.csv", "potential.json"], payload


def _suite_sweep(config: ExperimentConfig, out: str):
    ctx = _reduction_context(config)
    frame = random_frame_state(ctx, seed=config.seed)
    mesh = ctx.grid.meshgrid()
    alt_values = 0.01 * np.cos(3.0 * mesh[0]) * np.cos(mesh[1])
    alt_init = ScalarField(ctx.grid, alt_values, check=False)

    rows, norms, checks = [], {}, []
    worst_residual = 0.0
    worst_overlap = 0.0
    worst_agreement = 0.0
    for t in config.sweep_t_values():
        state = projected_solve(ctx, t, frame)
        other = projected_solve(ctx, t, frame, init=alt_init)
        agreement = ctx.vol_norm(
            ScalarField(ctx.grid, state.f.values - other.f.values, check=False)
        )
        norms[t] = ctx.vol_norm(state.f)
        worst_residual = max(worst_residual, state.residual_norm)
        worst_overlap = max(worst_overlap, state.kernel_overlap(ctx))
        worst_agreement = max(worst_agreement, agreement)
        rows.append((t, norms[t], state.residual_norm, state.iterations, agreement))

    ts = sorted(norms)
    vanishing = [t for t in ts if not norms[t] > 0.0]
    if vanishing:
        raise HslagError(f"no scaling slope: the solved |f| is not above 0 at t = {vanishing}")
    log_t = np.log([t for t in ts])
    log_n = np.log([norms[t] for t in ts])
    slope = float(np.polyfit(log_t, log_n, 1)[0])

    tol = DEFAULT_TOLERANCES
    checks.append(_check("solve_residual", worst_residual, tol["solve_residual"]))
    checks.append(_check("kernel_overlap", worst_overlap, tol["kernel_overlap"]))
    checks.append(_check("uniqueness", worst_agreement, tol["uniqueness"]))
    checks.append(_check("scaling_slope", slope, tol["scaling_slope"], comparison=">="))
    write_csv(
        os.path.join(out, "sweep.csv"),
        ["t", "f_norm", "residual_norm", "iterations", "init_agreement"],
        rows,
    )
    payload = {"slope": slope, "norms": {repr(t): norms[t] for t in ts}}
    return checks, ["sweep.csv"], payload


def _suite_plot_data(config: ExperimentConfig, out: str):
    if not os.path.isdir(config.run):
        raise ConfigError(f"run directory {config.run!r} does not exist")
    traces = sorted(glob.glob(os.path.join(config.run, "*.csv")))
    traces = [p for p in traces if os.path.basename(p) != "plot.csv"]
    if not traces:
        raise ConfigError(f"run directory {config.run!r} contains no CSV traces")
    long_rows: List[Tuple[str, float, float]] = []
    for path in traces:
        stem = os.path.splitext(os.path.basename(path))[0]
        header, rows = read_csv(path)
        if len(header) < 2:
            continue
        for row in rows:
            x = row[0]
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                continue
            for j in range(1, len(header)):
                y = row[j]
                if not isinstance(y, (int, float)) or isinstance(y, bool):
                    continue
                long_rows.append((f"{stem}:{header[j]}", float(x), float(y)))
    write_long_csv(os.path.join(out, "plot.csv"), long_rows)
    payload = {"traces": [os.path.basename(p) for p in traces], "rows": len(long_rows)}
    return [], ["plot.csv"], payload


_SUITE_RUNNERS = {
    "verify-models": _suite_verify_models,
    "spectrum": _suite_spectrum,
    "estimates": _suite_estimates,
    "reduce": _suite_reduce,
    "sweep": _suite_sweep,
    "plot-data": _suite_plot_data,
}


def _failure_stage(exc: BaseException) -> str:
    """`module.function` of the innermost hslag frame in the traceback, by
    import name: under `python -m hslag.cli`, cli's frames are `__main__`'s."""
    stage = ""
    tb = exc.__traceback__
    while tb is not None:
        spec = tb.tb_frame.f_globals.get("__spec__")
        module = spec.name if spec is not None else tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("hslag."):
            stage = f"{module[len('hslag.'):]}.{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return stage


def run_suite(config: ExperimentConfig) -> int:
    """Execute a suite; write manifest + traces; return the exit code."""
    out = config.out_dir
    # the directories this run creates, deepest first: a config error raised
    # inside the suite removes them again while they are empty
    created, missing = [], os.path.abspath(out)
    while not os.path.exists(missing):
        created.append(missing)
        missing = os.path.dirname(missing)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from exc
    manifest = {
        "config": config.to_dict(),
        "suite": config.suite,
        "seed": config.seed,
    }
    try:
        checks, artifacts, payload = _SUITE_RUNNERS[config.suite](config, out)
    except ConfigError:
        for path in created:
            if os.listdir(path):
                break
            os.rmdir(path)
        raise
    except Exception as exc:
        # Any failure leaves a manifest.  An exception outside the package's
        # own types is a bug, so its traceback goes to stderr as well.
        if not isinstance(exc, HslagError):
            traceback.print_exc()
        manifest.update(
            checks=[],
            passed=False,
            artifacts=[],
            error=str(exc),
            error_type=type(exc).__name__,
            stage=_failure_stage(exc),
        )
        write_manifest(os.path.join(out, "manifest.json"), manifest)
        print(f"suite failed: {exc}", file=sys.stderr)
        return 1
    passed = all(c["passed"] for c in checks)
    manifest.update(
        {
            "checks": checks,
            "passed": passed,
            "artifacts": sorted(artifacts),
            "payload": payload,
        }
    )
    write_manifest(os.path.join(out, "manifest.json"), manifest)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


# Each override flag: its config field and argparse options; a subcommand takes its row's.
_FLAGS = {
    "--out": ("out_dir", dict(help="output directory")),
    "--seed": ("seed", dict(type=int, help="seed override")),
    "--t": ("t", dict(type=float, help="scale parameter override")),
    "--amplitude": ("amplitude", dict(type=float, help="metric perturbation amplitude")),
    "--model": ("model", dict(choices=["torus", "ln"], help="model override")),
    "--n": ("n", dict(type=int, help="complex dimension override")),
    "--radii": ("radii", dict(type=float, nargs="+", metavar="A", help="torus radii, one per n")),
    "--grid": ("grid_size", dict(type=int, help="grid size override")),
    "--run": ("run", dict(help="plot-data's trace directory, or the reduce run to re-certify")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hslag",
        description="Experiment suites for discrete Hamiltonian stationary Lagrangian geometry.",
    )
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUITES:
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--config", help="JSON config file")
        for flag, (field, options) in _FLAGS.items():
            if field in ("out_dir", *_READS[name]):
                p.add_argument(flag, **options)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's config, if any, run as the subcommand's suite with the
    flags set over it: the file is checked on its own, the result as a whole."""
    data = ExperimentConfig.from_file(args.config).to_dict() if args.config else {}
    data["suite"] = args.suite
    for flag, (field, _) in _FLAGS.items():
        if getattr(args, flag[2:], None) is not None:
            data[field] = getattr(args, flag[2:])
    return ExperimentConfig.from_dict(data)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_suite(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
