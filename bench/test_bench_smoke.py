"""Smoke test of the benchmark: every workload at toy size, untraced and traced,
and the pooling of several measuring processes.

Run with `python -m pytest bench/test_bench_smoke.py`.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "mc-bulk", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pooled_run_fails_a_process_whose_outputs_differ():
    import run
    part = {"pass_s": [1.0], "reference_s": [0.5], "pass_scaled_s": [1.0], "peak_rss_mb": 100.0,
            "attempted": 1, "failed": 0, "errors": [], "digests": ["a"]}
    assert run._pool([part, dict(part)])["failed"] == 0
    pooled = run._pool([part, dict(part), dict(part, digests=["b"])])
    assert pooled["failed"] == 1 and pooled["attempted"] == 3
    assert pooled["pass_s"] == [1.0, 1.0, 1.0]
