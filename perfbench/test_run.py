"""End-to-end check of the benchmark in its reduced-size mode (about 90 s).

    python3 -m pytest perfbench/test_run.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
# spectrum is not in BENCHMARK.json but prints the same metrics.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["spectrum"]

# The end-to-end metrics under their per-workload names; each workload's table
# prints the ones that apply to it.
TABLE_METRICS = {
    "setup_s": "s",
    "locate_s": "s",
    "volume_evals": "count",
    "solve_ms": "ms",
    "solve_ms_tail": "ms",
    "solve_iters": "count",
    "spectrum_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def runs():
    """Reduced-size run of every workload, untraced and traced, on seed 1."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"])
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            table = {}
            for line in lines[2:-1]:
                name, value, unit, *_ = line.split()
                table[name] = (value, unit)
            out[workload, trace] = (json.loads(lines[-1]), table)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_carries_every_metric_with_its_unit(runs, workload, trace):
    result, _ = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_tables_print_every_named_metric_with_its_unit(runs):
    printed = {}
    for workload in WORKLOADS:
        table = runs[workload, 0][1]
        assert float(table["failed_frac"][0]) == 0.0
        printed.update({name: unit for name, (_, unit) in table.items()})
    assert {name: printed.get(name) for name in TABLE_METRICS} == TABLE_METRICS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "spectrum", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
