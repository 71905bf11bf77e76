"""Smoke test: every workload at a tiny size, traced and untraced.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

Checks that the last output line is the result object, that it names
exactly the metrics BENCHMARK.json declares, and that the failed-op count
equals the documented baseline (README.md, "Known defect").
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# failed ops per pass at the baseline commit: the four verify calls after
# synth at delta = 1 - 1e-6 exit 2 ("profile distribution sums to 1.00...")
BASELINE_FAILED_PER_PASS = {
    "verify-limit": 0,
    "roundtrip-discounted": 4,
    "probe-finite": 0,
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(workload, trace):
    stdout, result = _run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"  {metric['name']} " in stdout
    passes = 2 if trace else 1  # traced runs repeat the untraced passes
    assert result["correct"] is True
    assert result["failed"] == BASELINE_FAILED_PER_PASS[workload] * passes
    if trace:
        assert "tracing overhead" in stdout
    else:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] != 0


def test_refuses_without_program(tmp_path):
    """Without the package sources the benchmark exits non-zero and
    prints no result."""
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"),
        encoding="utf-8")
    (bare / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(
            path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-limit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
