"""Smoke test of the benchmark in its fast mode.

    python3 -m pytest bench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted, that traced self
times are non-negative and add up to no more than the traced op time, that
a deliberately corrupted integral raises fail_ratio, and that the benchmark
refuses to run without the program's sources.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, *extra: str):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert res.returncode == 0, res.stderr[-2000:]
    *_, detail, result = res.stdout.splitlines()
    return json.loads(detail), json.loads(result)


def assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", ["certify", "cold_cli"])
def test_end_to_end_metrics_emitted(workload):
    detail, result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 20
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["samples"] >= 20 and detail["op_tail_percentile"] > 0
    # Each timing is its wall-clock value divided by the host-speed factor.
    m, raw, host = result["metrics"], detail["unscaled"], detail["host_speed"]
    lo, hi = host["op_factor_min"], host["op_factor_max"]
    for name in ("op_p50_ms", "op_tail_ms"):
        assert lo * (1 - 1e-9) <= raw[name] / m[name]["value"] <= hi * (1 + 1e-9)
    assert lo * (1 - 1e-9) <= m["ops_per_s"]["value"] / raw["ops_per_s"] <= hi * (1 + 1e-9)


@pytest.mark.parametrize("workload,busy_layer", [
    ("certify", "brackets.involution.calls"),
    ("orbits", "dynamics.steps"),
    ("cold_cli", "config.load.calls"),
])
def test_traced_run_layers(workload, busy_layer):
    detail, result = run(workload, 1)
    assert result["correct"], detail["failures"]
    assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"][busy_layer]["value"] > 0
    trace = detail["trace"]
    assert all(v >= 0.0 for v in trace["self_s"].values())
    assert sum(trace["self_s"].values()) <= trace["op_s"]
    assert 0.0 < result["metrics"]["trace.overhead_ratio"]["value"] <= 1.5


def test_orbits_trace_counts_gl2_iterations():
    _, result = run("orbits", 1)
    m = result["metrics"]
    # Two stages per fixed-point sweep, at least two sweeps per step.
    assert m["dynamics.grad_evals_per_step"]["value"] >= 4.0
    assert m["dynamics.monitor_evals"]["value"] > 0
    assert m["brackets.involution.calls"]["value"] == 0


def test_corrupted_integral_raises_fail_ratio():
    _, clean = run("certify", 0)
    detail, corrupt = run("certify", 0, "--corrupt")
    assert not corrupt["correct"] and corrupt["failed"] > 0
    assert corrupt["metrics"]["fail_ratio"]["value"] > clean["metrics"]["fail_ratio"]["value"]
    assert any("bracket residual" in f for f in detail["failures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
