"""Smoke test of the benchmark: every workload at tiny size, in both modes.

    python3 -m pytest perfbench/test_smoke.py -q

Each run is a subprocess of ``run.py`` exactly as the benchmark is invoked,
with ``--size tiny`` so that a whole run takes a second or two.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace=0, *extra, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "0.3",
           "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=root)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None), lines


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc, result, _ = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    kind = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in metrics.items()} == declared(kind)
    if trace:
        assert metrics["mesh.ledger_matches_closed_form"]["value"] == 1
        assert metrics["trace.self_cover"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in metrics.values())
        assert metrics["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_op_counts_as_failed(workload):
    proc, result, lines = run(workload, 0, "--perturb-op", "1")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    attempted = result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == (attempted - 1) / attempted
    assert json.loads(lines[-2])["detail"]["failed_frac"] == 1 / attempted


def test_layer_map_names_declared_metrics():
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    assert sorted(layers["workloads"]) == sorted(WORKLOADS)
    per_layer, end_to_end = declared("per_layer"), declared("end_to_end")
    for entry in layers["map"]:
        assert set(entry["per_layer"]) <= set(per_layer)
        assert set(entry["moves"]) <= set(end_to_end)
        assert set(entry["on"] + entry["unchanged_on"]) <= set(WORKLOADS)


def test_fails_without_the_package():
    stripped = os.path.join(ROOT, ".perfbench_out", f"stripped-{os.getpid()}")
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        proc, result, _ = run(WORKLOADS[0], 0, root=stripped)
        assert proc.returncode != 0
        assert result is None
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
