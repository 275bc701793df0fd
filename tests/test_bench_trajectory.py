"""scripts/bench_trajectory.py summarizes collect.py's raw runs."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "bench_trajectory.py"


def _run(value, correct=True, failed=0):
    return {"correct": correct, "attempted": 25, "failed": failed,
            "metrics": {"run_s": {"value": value, "unit": "s"},
                        "peak_rss_mb": {"value": 70.0, "unit": "MB"}}}


def test_trajectory_from_a_synthetic_collect_file(tmp_path):
    runs = [_run(1.0), _run(4.0), _run(3.0, correct=False, failed=2),
            _run(2.0)]
    (tmp_path / "collect-coeff-trace0.json").write_text(json.dumps(runs))
    (tmp_path / "collect-coeff-trace1.json").write_text("not read")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--results", str(tmp_path), "--sha",
         "0123456789abcdef", "--out", str(tmp_path)],
        capture_output=True, text=True, check=True)
    path = tmp_path / "BENCH_0123456789ab.json"
    assert proc.stdout.strip() == str(path)
    record = json.loads(path.read_text())
    assert record["schema"] == 1 and record["sha"] == "0123456789abcdef"
    assert {"cpu_count", "python"} <= set(record)
    assert "numpy" not in record
    (name, coeff), = record["workloads"].items()
    assert name == "coeff"
    assert (coeff["runs"], coeff["correct"], coeff["failed"],
            coeff["attempted"]) == (4, 3, 2, 100)
    q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4)
    assert coeff["metrics"]["run_s"] == {"unit": "s", "median": 2.5,
                                         "q1": q1, "q3": q3}
    assert coeff["metrics"]["peak_rss_mb"]["median"] == 70.0


def test_trajectory_refuses_an_empty_results_directory(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--results", str(tmp_path), "--sha",
         "0123456789abcdef", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 1 and "no collect-" in proc.stderr
    assert not list(tmp_path.iterdir())
