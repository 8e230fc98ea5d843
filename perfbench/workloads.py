"""The three benchmark workloads and their correctness gates.

Each workload function takes a ``Probe`` (see ``probe.py``), the workload
seed, the measuring window in seconds and the size mode, and returns an
``Outcome``.  Every operation is checked against thresholds read from
``hslag.cli.DEFAULT_TOLERANCES``; a failed check or an exception counts the
operation as failed and the remaining operations still run.

Problem sizes.  The package default (grid 32, t = 0.05) needs 13 s per
``build_context`` and 65-100 s per located torus on one core, and the
search length varies 2x from seed to seed, which no steady benchmark of a
few tens of seconds can hold.  ``locate`` and ``transverse`` therefore run at
grid 24 (4.5 s per context), where the contraction reaches its 1e-12
tolerance for t <= 0.02; ``spectrum`` stays at grid 32, so the two sizes
together show how assembly time and memory grow with the grid.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

import numpy as np

from hslag import cli, reduction
from hslag.cli import DEFAULT_TOLERANCES, ExperimentConfig
from hslag.fieldio import load_manifest
from hslag.geomcore import ScalarField
from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")  # run records, traces and suite manifests; not committed

# The `hslag reduce --seed 1` problem (radii, amplitude, metric seed) at the
# benchmark's grid and scale; anchor.json holds a torus located in it.
LOCATE = {"radii": [1.0, 1.3], "grid_size": 24, "t": 0.02, "amplitude": 0.05, "seed": 1}
TRANSVERSE_GRID = 24
TRANSVERSE_T = (0.01, 0.005, 0.0025)
SPECTRUM_GRID = {"full": 32, "small": 16}
SPECTRUM_KERNEL_DIM = 7
SETUP_REPEATS = {"full": 5, "small": 1}
# The fixed loop units (tori, frames of six solves, pairs of spectra) every
# run measures first.  volume_evals counts only these, so it does not depend on
# how many more units the --seconds window lets a machine run.
FIXED_UNITS = {
    "full": {"locate": 2, "transverse": 10, "spectrum": 1},
    "small": {"locate": 1, "transverse": 1, "spectrum": 1},
}


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    setup_s: List[float]  # reference time of each set-up (see speed.py)
    op_s: List[float]  # reference time of each timed operation
    setup_wall_s: List[float]  # wall time less the speed kernel's
    op_wall_s: List[float]
    speed: float  # the machine's speed relative to the reference
    attempted: int  # operations: tori, solves or spectra
    failed: int
    units: int  # loop units run: tori, frames or spectrum pairs
    counts: List[dict]  # exact counts per unit, for the determinism check
    volume_evals: float  # graph_volume_and_gradient calls per operation of the fixed units
    report: List[tuple] = field(default_factory=list)  # (name, value, unit, note)


def locate_config() -> ExperimentConfig:
    return ExperimentConfig(
        suite="reduce",
        seed=LOCATE["seed"],
        radii=tuple(LOCATE["radii"]),
        grid_size=LOCATE["grid_size"],
        t=LOCATE["t"],
        amplitude=LOCATE["amplitude"],
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _volume_evals(counts: List[dict], fixed: int, ops_per_unit: int) -> float:
    """Graph volume evaluations per operation over the first `fixed` units."""
    return sum(c["volume_evals"] for c in counts[:fixed]) / (fixed * ops_per_unit)


def _speed(probe) -> Speed:
    """A speed record for one pass; untraced passes also sample it from inside
    the operations, where the samples would count in the traced layers' times."""
    speed = Speed()
    if not probe.tracing:
        probe.tick = speed.tick
    return speed


def _set_up(make: Callable[[], object], repeats: int, speed: Speed):
    """Run a set-up `repeats` times; return the last result, every wall time and
    every reference time."""
    wall, scaled, result = [], [], None
    for _ in range(repeats):
        mark, start = speed.mark(), speed.clock()
        result = make()
        wall.append(speed.clock() - start)
        scaled += speed.rescale(wall[-1:], mark)
    return result, wall, scaled


def _units(seconds: float, fixed: int, units: Optional[int], step: int = 1) -> Iterator[int]:
    """Loop indices: exactly `units` when given, else the `fixed` first units and
    then more, `step` at a time, while `step` more units of median length still
    fit in the window."""
    start = time.perf_counter()
    lengths: List[float] = []
    index = 0
    while True:
        if units is not None:
            if index >= units:
                return
        elif index >= fixed and index % step == 0 and (
            time.perf_counter() - start + step * statistics.median(lengths) > seconds
        ):
            return
        begin = time.perf_counter()
        yield index
        lengths.append(time.perf_counter() - begin)
        index += 1


def _failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# locate
# ---------------------------------------------------------------------------


def _load_anchor():
    with open(os.path.join(HERE, "anchor.json")) as handle:
        anchor = json.load(handle)
    if anchor["problem"] != LOCATE:
        raise RuntimeError("anchor.json belongs to another problem; run make_anchor.py")
    return np.array(anchor["point"]), np.array(anchor["matrix"])


def _torus_passes(result, report) -> bool:
    tol = DEFAULT_TOLERANCES
    return bool(
        result.gradient_norm <= tol["gradient_norm"]
        and result.stabilizer_gradient_norm <= tol["gradient_norm"]
        and result.residual_relative <= tol["geometric_residual"]
        and report.transverse_relative_error <= tol["transverse_rel"]
        and report.cross_relative <= tol["cross_rel"]
        and np.min(report.frame_eigenvalues) >= -tol["frame_eig_floor"]
        and result.state.converged
    )


def run_locate(probe, seed: int, seconds: float, size: str, repeats: int, units=None) -> Outcome:
    """Locate and certify tori from seed-chosen parametrizations of a known torus.

    Each start is the anchor frame turned by seed-drawn phases along the
    diagonal torus that fixes the model: the same geometric torus, sampled
    at other grid nodes, so the optimizer re-converges on a slightly
    different discrete problem.  Saddle escapes are off: the torus's softest
    Hessian eigenvalue (about 7e-6) sits near the 1e-6 saddle test, and
    finite-difference noise would otherwise trigger escape searches that make
    one torus take 12 to 60 s depending on the seed.

    The run locates a fixed set of tori and, while the window allows, the
    whole set again, so each torus weighs the same in the median time.
    """
    config = locate_config()
    point, matrix = _load_anchor()
    speed = _speed(probe)
    ctx, setup_wall, setup = _set_up(lambda: cli._reduction_context(config), repeats, speed)
    settings = reduction.OptimizeSettings(max_saddle_restarts=0)
    fixed = FIXED_UNITS[size]["locate"]
    wall, times, counts, failed, evaluations = [], [], [], 0, []
    for index in _units(seconds, fixed, units, step=fixed):
        probe.operation = index
        rng = np.random.default_rng([seed, index % fixed])
        delta = np.zeros(ctx.num_frame_coords)
        delta[ctx.stabilizer_indices] = rng.uniform(0.0, 2.0 * np.pi, size=ctx.n)
        start = reduction.FrameState(point, matrix, np.zeros(ctx.num_frame_coords)).shifted(delta)
        before = probe.volume_calls
        mark, began = speed.mark(), speed.clock()
        solver_evaluations = None
        try:
            result = reduction.optimize_frame(ctx, config.t, start, settings)
            report = reduction.second_variation_Q(ctx, result.state, frame_block=result.hessian)
            ok = _torus_passes(result, report)
            solver_evaluations = result.solver_evaluations
            evaluations.append(solver_evaluations)
        except Exception:
            _failure(f"locate torus {index}")
            ok = False
        wall.append(speed.clock() - began)
        times += speed.rescale(wall[-1:], mark)
        counts.append(
            {"volume_evals": probe.volume_calls - before, "solver_evaluations": solver_evaluations}
        )
        failed += 0 if ok else 1
    probe.operation = -1
    tori = len(times)
    outcome = Outcome(
        setup_s=setup,
        op_s=times,
        setup_wall_s=setup_wall,
        op_wall_s=wall,
        speed=speed.relative(),
        attempted=tori,
        failed=failed,
        units=tori,
        counts=counts,
        volume_evals=_volume_evals(counts, fixed, 1),
    )
    outcome.report = [
        ("locate_s", statistics.median(times), "s", f"median of {tori} tori from {fixed} starts"),
        ("solver_evaluations", statistics.mean(evaluations) if evaluations else 0.0, "count", "mean per torus"),
    ]
    return outcome


# ---------------------------------------------------------------------------
# transverse
# ---------------------------------------------------------------------------


def run_transverse(probe, seed: int, seconds: float, size: str, repeats: int, units=None) -> Outcome:
    """Cold projected solves on fresh random frames, from zero and from the
    sweep suite's alternative initial field, checked as the sweep checks."""
    tol = DEFAULT_TOLERANCES
    config = ExperimentConfig(
        suite="sweep", seed=seed, grid_size=TRANSVERSE_GRID, t_values=TRANSVERSE_T
    )
    speed = _speed(probe)
    ctx, setup_wall, setup = _set_up(lambda: cli._reduction_context(config), repeats, speed)
    # The alternative initial field of the sweep suite, copied from
    # hslag.cli._suite_sweep, which builds it inline.
    mesh = ctx.grid.meshgrid()
    alt_init = ScalarField(ctx.grid, 0.01 * np.cos(3.0 * mesh[0]) * np.cos(mesh[1]), check=False)
    fixed = FIXED_UNITS[size]["transverse"]
    wall, times, iterations, counts, failed = [], [], [], [], 0
    for index in _units(seconds, fixed, units):
        probe.operation = index
        frame = reduction.random_frame_state(ctx, seed * 100_000 + index)
        before = probe.volume_calls
        mark = speed.mark()
        frame_iterations, frame_wall = [], []
        for t in config.sweep_t_values():
            states = []
            for init in (None, alt_init):
                began = speed.clock()
                try:
                    state = reduction.projected_solve(ctx, t, frame, init=init)
                except Exception:
                    _failure(f"transverse frame {index} t={t}")
                    state = None
                frame_wall.append(speed.clock() - began)
                if state is not None:
                    iterations.append(state.iterations)
                    frame_iterations.append(state.iterations)
                    if not (
                        state.converged
                        and state.residual_norm <= tol["solve_residual"]
                        and state.kernel_overlap(ctx) <= tol["kernel_overlap"]
                    ):
                        state = None
                states.append(state)
            zero, alt = states
            if zero is not None and alt is not None:
                gap = ScalarField(ctx.grid, zero.f.values - alt.f.values, check=False)
                if ctx.vol_norm(gap) > tol["uniqueness"]:
                    alt = None  # the pair disagrees: the second solve fails
            failed += (zero is None) + (alt is None)
        counts.append({"volume_evals": probe.volume_calls - before, "iterations": frame_iterations})
        wall += frame_wall
        times += speed.rescale(frame_wall, mark)
    probe.operation = -1
    solves = len(times)
    outcome = Outcome(
        setup_s=setup,
        op_s=times,
        setup_wall_s=setup_wall,
        op_wall_s=wall,
        speed=speed.relative(),
        attempted=solves,
        failed=failed,
        units=len(counts),
        counts=counts,
        volume_evals=_volume_evals(counts, fixed, 2 * len(config.sweep_t_values())),
    )
    ordered = sorted(times)
    tail = ("n/a", f"fewer than 11 of {solves} solves")
    if solves >= 11:
        tail = (1e3 * ordered[solves - 11], f"p{100.0 * (solves - 10) / solves:.0f} of {solves} solves")
    outcome.report = [
        ("solve_ms", 1e3 * statistics.median(times), "ms", f"median of {solves} cold solves"),
        ("solve_ms_tail", tail[0], "ms", tail[1]),
        ("solve_iters", statistics.mean(iterations) if iterations else 0.0, "count", "mean per cold solve"),
    ]
    return outcome


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _import_time(src: str) -> float:
    env = dict(os.environ, PYTHONPATH=src)
    began = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hslag"], env=env, check=True)
    return time.perf_counter() - began


def run_spectrum(probe, seed: int, seconds: float, size: str, repeats: int, units=None) -> Outcome:
    """Flat-operator spectra of the torus and circle-sphere models through the
    spectrum suite, which compares them with the analytic spectra.

    The inputs are the two models the suite checks; the seed changes nothing.
    Set-up is importing hslag in a fresh interpreter, the one cost a user
    pays before the first spectrum."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    speed = _speed(probe)
    _, setup_wall, setup = _set_up(lambda: _import_time(src), repeats, speed)
    grid = SPECTRUM_GRID[size]
    fixed = FIXED_UNITS[size]["spectrum"]
    wall, times, counts, failed = [], [], [], 0
    for index in _units(seconds, fixed, units):
        probe.operation = index
        before = probe.volume_calls
        mark, began = speed.mark(), speed.clock()
        for model in ("torus", "ln"):
            target = os.path.join(OUT, f"spectrum-{model}")
            try:
                config = ExperimentConfig(suite="spectrum", model=model, grid_size=grid, out_dir=target)
                code = cli.run_suite(config)
                payload = load_manifest(os.path.join(target, "manifest.json"))["payload"]
                ok = code == 0 and payload["kernel_dimension"] == SPECTRUM_KERNEL_DIM
            except Exception:
                _failure(f"spectrum {model} {index}")
                ok = False
            failed += 0 if ok else 1
        wall.append(speed.clock() - began)
        times += speed.rescale(wall[-1:], mark)
        counts.append({"volume_evals": probe.volume_calls - before})
    probe.operation = -1
    pairs = len(times)
    outcome = Outcome(
        setup_s=setup,
        op_s=times,
        setup_wall_s=setup_wall,
        op_wall_s=wall,
        speed=speed.relative(),
        attempted=2 * pairs,
        failed=failed,
        units=pairs,
        counts=counts,
        volume_evals=_volume_evals(counts, fixed, 1),
    )
    outcome.report = [
        ("spectrum_s", statistics.median(times), "s", f"median of {pairs} pairs of spectra at grid {grid}"),
    ]
    return outcome


WORKLOADS = {"locate": run_locate, "transverse": run_transverse, "spectrum": run_spectrum}
