"""Benchmark of hslag: time to a certified stationary torus, cold transverse
solves, and flat-operator spectra.

    python3 perfbench/run.py --workload locate --seed 1 --seconds 30 --trace 0

Workloads (each in its own process, BLAS pinned to one thread):

- ``locate``: ``optimize_frame`` + ``second_variation_Q`` on the
  ``hslag reduce`` problem (radii 1.0, 1.3; amplitude 0.05; metric seed 1) at
  grid 24 and t = 0.02, started from seed-chosen parametrizations of a located
  torus (``anchor.json``); every torus must pass the reduce suite's checks.
- ``transverse``: cold ``projected_solve`` calls on random frames seeded
  from ``--seed``, at t = 0.01, 0.005, 0.0025, each from zero and from the sweep
  suite's alternative field; checked for residual, kernel overlap and
  uniqueness as the sweep suite checks.
- ``spectrum``: the spectrum suite for the torus and circle-sphere models
  at grid 32, with its analytic comparison and a kernel of dimension 7.  It
  is not in BENCHMARK.json: three workloads with runs long enough to be
  steady on a shared two-core machine do not fit the benchmark's time
  budget, and locate and transverse already time operator assembly and
  eigensolve in their set-up.

Set-up (``build_context`` for locate and transverse, importing hslag for
spectrum) runs five times and reports the median.  Operations then run for
``--seconds`` seconds: first a fixed set (two tori, ten frames of six solves,
or one pair of spectra), then more while they fit in the window; locate
repeats its whole set of tori, the others take fresh units.  ``volume_evals``
counts the fixed set only, so it does not depend on the machine's speed.
Times are reported in seconds at a reference machine speed: a fixed numpy
kernel, run every 0.3 s within and between operations, measures the machine's
speed, and each unit of work is scaled by the kernel's median time over it
(see ``speed.py``).  The table also prints the wall times, less the kernel's.
With ``--trace 0`` the last output line carries the end-to-end
metrics of BENCHMARK.json.  With ``--trace 1`` the workload runs once
untraced and then again on the same inputs with every layer wrapped (see
``probe.py``); the last line carries the per-layer metrics, exact counts of
the two passes must agree, and the spans go to ``perfbench/out``.

``--small`` shrinks every workload to one operation (spectrum at grid 16) and
one set-up; only the benchmark's own test uses it.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and put the checkout's own hslag first on the path.

    Must run before numpy is imported."""
    if not os.path.isfile(os.path.join(SRC, "hslag", "__init__.py")):
        raise FileNotFoundError(f"no hslag sources under {SRC}")
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, SRC)


def machine_record(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {variable: os.environ.get(variable) for variable in BLAS_VARIABLES},
        "workload": workload,
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(outcome, rss_mb: float) -> dict:
    return {
        "setup_s": _metric(statistics.median(outcome.setup_s), "s"),
        "op_ms": _metric(1e3 * statistics.median(outcome.op_s), "ms"),
        "volume_evals": _metric(outcome.volume_evals, "count"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def per_layer(probe, untraced, traced) -> dict:
    metrics = {}
    for layer, totals in probe.layer_totals().items():
        metrics[f"{layer}.calls"] = _metric(totals["calls"], "count")
        metrics[f"{layer}.self_s"] = _metric(totals["self_s"], "s")
    solves = probe.solves
    total = solves.cold + solves.warm
    prefix = "reduction.projected_solve"
    metrics[f"{prefix}.cold_calls"] = _metric(solves.cold, "count")
    metrics[f"{prefix}.warm_calls"] = _metric(solves.warm, "count")
    metrics[f"{prefix}.iterations"] = _metric(solves.iterations, "count")
    metrics[f"{prefix}.contraction_factor"] = _metric(solves.contraction_factor(), "ratio")
    metrics[f"{prefix}.repeats"] = _metric(solves.repeats, "count")
    metrics[f"{prefix}.repeat_frac"] = _metric(solves.repeats / total if total else 0.0, "ratio")
    # Wall times: the traced pass samples the speed kernel only between units,
    # too seldom to scale its times as well as the untraced pass's.
    overhead = statistics.median(traced.op_wall_s) - statistics.median(untraced.op_wall_s)
    metrics["trace.overhead_ms"] = _metric(1e3 * overhead, "ms")
    return metrics


def count_mismatches(first: list, second: list) -> int:
    """Units whose exact counts differ between two runs on the same inputs."""
    return sum(1 for a, b in zip(first, second) if a != b)


def code_digest() -> str:
    """Hash of the hslag sources and the benchmark's own files, so exact counts
    are compared only between runs of the same code."""
    digest = hashlib.sha256()
    paths = glob.glob(os.path.join(SRC, "hslag", "*.py")) + glob.glob(os.path.join(HERE, "*.py"))
    for path in sorted(paths + [os.path.join(HERE, "anchor.json")]):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_against_earlier(path: str, counts: list) -> int:
    """Compare exact counts with an earlier run of the same code, workload and
    seed in this checkout, then keep the longer record."""
    earlier = []
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
    mismatches = count_mismatches(earlier, counts)
    with open(path, "w") as handle:
        json.dump(counts if len(counts) >= len(earlier) else earlier, handle)
    return mismatches


def _print_table(rows) -> None:
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        print(f"  {name:<44} {shown:>14} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("locate", "transverse", "spectrum"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="one operation per workload (for the benchmark's test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        prepare()
    except FileNotFoundError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2

    import hslag
    from probe import Probe
    from workloads import OUT, SETUP_REPEATS, WORKLOADS, peak_rss_mb

    if os.path.dirname(os.path.abspath(hslag.__file__)) != os.path.join(SRC, "hslag"):
        print(f"hslag imported from {hslag.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    size = "small" if args.small else "full"
    tag = f"{args.workload}-seed{args.seed}-{size}"
    run = WORKLOADS[args.workload]
    machine = machine_record(args.workload, args.seed)
    print("machine " + json.dumps(machine, sort_keys=True))

    with Probe(tracing=False) as probe:
        untraced = run(probe, args.seed, args.seconds, size, 1 if args.trace else SETUP_REPEATS[size])
    rss_mb = peak_rss_mb()
    mismatches = check_against_earlier(
        os.path.join(OUT, f"counts-{tag}-{code_digest()}.json"), untraced.counts
    )
    attempted, failed = untraced.attempted, untraced.failed

    if args.trace:
        with Probe(tracing=True, run_id=f"{tag}-{os.getpid()}") as probe:
            traced = run(probe, args.seed, args.seconds, size, 1, units=untraced.units)
        mismatches += count_mismatches(untraced.counts, traced.counts)
        attempted += traced.attempted
        failed += traced.failed
        probe.write_spans(os.path.join(OUT, f"spans-{tag}.json"))
        metrics = per_layer(probe, untraced, traced)
    else:
        metrics = end_to_end(untraced, rss_mb)
    failed = min(attempted, failed + mismatches)

    print(f"{args.workload}, seed {args.seed}, trace {args.trace}:")
    rows = [
        ("speed", untraced.speed, "ratio", "machine speed relative to the reference (speed.py)"),
        ("setup_s", statistics.median(untraced.setup_s), "s", f"median of {len(untraced.setup_s)} set-ups"),
        ("setup_wall_s", statistics.median(untraced.setup_wall_s), "s", "the same in wall time"),
        ("op_wall_ms", 1e3 * statistics.median(untraced.op_wall_s), "ms", "median operation in wall time"),
    ]
    rows += untraced.report
    rows += [
        ("volume_evals", untraced.volume_evals, "count", "graph volume evaluations per operation of the fixed set"),
        ("peak_rss_mb", rss_mb, "MB", "peak resident memory of the untraced pass"),
        ("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} operations failed"),
    ]
    if mismatches:
        rows.append(("count_mismatches", mismatches, "count", "exact counts differ from a run on the same inputs"))
    if args.trace:
        rows += [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
    _print_table(rows)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w") as handle:
        json.dump({"machine": machine, "report": rows, "op_s": untraced.op_s, "setup_s": untraced.setup_s,
                   "op_wall_s": untraced.op_wall_s, "setup_wall_s": untraced.setup_wall_s, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
