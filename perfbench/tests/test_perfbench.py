"""Tests of the benchmark itself, on short smoke runs of every workload.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SCHEMA = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SCHEMA["workloads"]]


def bench(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc, json.loads(lines[-1])


def assert_reported(proc, result, metrics: list[dict]) -> None:
    expected = {m["name"]: m["unit"] for m in metrics}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        line = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)"
        assert re.search(line, proc.stdout, re.M), f"{name} not printed in {unit}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc, result = bench("--workload", workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert_reported(proc, result, SCHEMA["end_to_end"])
    assert re.search(r"^\s+run_fail_share\s+0 ratio", proc.stdout, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc, result = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True and result["attempted"] == 3
    assert_reported(proc, result, SCHEMA["per_layer"])
    assert "unattributed" in proc.stdout
    assert result["metrics"]["engine.events"]["value"] > 0


def test_tampered_fingerprint_fails_the_run(tmp_path):
    tampered = tmp_path / "fingerprints.json"
    tampered.write_text(json.dumps({"peak_poisson:0:smoke": "0" * 64}))
    proc, result = bench("--workload", "peak_poisson", "--fingerprints", str(tampered))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "!= committed" in proc.stdout


def test_recorded_fingerprint_is_checked_on_the_next_run(tmp_path):
    recorded = tmp_path / "fingerprints.json"
    args = ("--workload", "peak_poisson", "--seed", "3", "--fingerprints", str(recorded))
    proc, result = bench(*args, "--record-fingerprint")
    assert proc.returncode == 0 and result["correct"] is True
    assert list(json.loads(recorded.read_text())) == ["peak_poisson:3:smoke"]
    proc, result = bench(*args)
    assert proc.returncode == 0 and result["correct"] is True


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SCHEMA))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "peak_poisson"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "no repro sources" in proc.stderr
    assert '"correct"' not in proc.stdout


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    return tracing, workloads


def test_untraced_run_installs_no_wrapper(bench_modules):
    tracing, workloads = bench_modules
    assert tracing.installed_wrappers() == 0
    workloads.run_workload("peak_poisson", 0, smoke=True)
    assert tracing.installed_wrappers() == 0
    saved = tracing.install(tracing.SpanRecorder())
    try:
        assert tracing.installed_wrappers() == len(tracing.TARGETS)
    finally:
        tracing.uninstall(saved)
    assert tracing.installed_wrappers() == 0


def test_output_checks_catch_a_broken_result(bench_modules):
    _, workloads = bench_modules
    record = workloads.run_workload("peak_poisson", 0, smoke=True)
    assert workloads.check_outputs(record) == []
    result = record.results[0]
    result.total_cost += 1.0
    result.unserved_requests += 1
    result.slo_compliance = 1.5
    assert len(workloads.check_outputs(record)) == 3


def test_predictions_cover_every_per_layer_metric():
    predicted = json.loads((BENCH / "predictions.json").read_text())["per_layer"]
    assert set(predicted) == {m["name"] for m in SCHEMA["per_layer"]}
    for entry in predicted.values():
        assert set(entry["on"]) <= set(WORKLOADS)
        assert set(entry.get("unchanged_on", [])) <= set(WORKLOADS)
