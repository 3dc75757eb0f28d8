"""Tiny runs of every workload, plain and traced, against BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_with_repeatable_counts(workload):
    package = run.load_package()
    wl = run.workloads.WORKLOADS[workload](package)
    items = wl.round(11)[: {"verify": 1, "equiv_mix": 6, "classify_stream": 40}[workload]]
    first, attempted, failed, extra, _ = run.run_traced(wl, package, 11, items)
    second, *_ = run.run_traced(wl, package, 11, items)
    assert attempted == len(items) and failed == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in first.items()} == expected
    calls = {name: value for name, (value, _) in first.items() if name.endswith(".calls")}
    assert calls == {name: value for name, (value, _) in second.items() if name.endswith(".calls")}
    self_ms = sum(value for name, (value, _) in first.items() if name.endswith(".self_ms"))
    assert self_ms <= first["trace.traced_s"][0] * 1e3
    assert (ROOT / extra["spans"]).is_file()


def test_run_without_the_package_fails_without_a_result():
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
        proc = _bench(bare, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
