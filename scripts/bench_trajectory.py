#!/usr/bin/env python3
"""Write one point of the benchmark trajectory, BENCH_<sha>.json, from the
raw runs that `python3 bench/collect.py --seeds 1-10` keeps.

collect.py writes each workload's untraced runs to
bench/results/collect-<workload>-trace0.json: a list of run records, each
with `correct`, `attempted`, `failed` and `metrics` (name -> value, unit).
This script reads every such file in the results directory and writes

- `schema` (the version of this layout), `sha`, `cpu_count` and `python`
  (the version of the interpreter running this script, so run it with the
  one that ran collect.py);
- per workload: `runs`, `correct` (runs whose checks all passed),
  `failed` and `attempted` (calls, summed over the runs), and per metric
  its `unit`, `median`, `q1` and `q3` (statistics.quantiles, n=4, as
  collect.py prints them; one run gives q1 = q3 = median).

A later file taken on the same machine is compared against this one.

Usage: python3 scripts/bench_trajectory.py [--results DIR] [--sha SHA]
                                           [--out DIR]
--results defaults to bench/results of this checkout, --sha to its
`git rev-parse HEAD` (pass it when the runs come from an unpacked copy
with no .git), --out to the repository root.  The file is named after the
first 12 characters of the sha.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SCHEMA = 1
ROOT = Path(__file__).resolve().parent.parent
PREFIX, SUFFIX = "collect-", "-trace0.json"


def summarize(runs: list[dict]) -> dict:
    """One workload's counts and per-metric median and quartiles."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) \
            if len(values) >= 2 else (med, med, med)
        metrics[name] = {"unit": first["unit"], "median": med, "q1": q1,
                         "q3": q3}
    return {"runs": len(runs),
            "correct": sum(1 for r in runs if r["correct"]),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics}


def trajectory(results: Path, sha: str) -> dict:
    files = sorted(results.glob(f"{PREFIX}*{SUFFIX}"))
    if not files:
        raise SystemExit(f"no {PREFIX}<workload>{SUFFIX} under {results}")
    return {"schema": SCHEMA, "sha": sha, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "workloads": {f.name[len(PREFIX):-len(SUFFIX)]:
                          summarize(json.loads(f.read_text()))
                          for f in files}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results", type=Path,
                        default=ROOT / "bench" / "results")
    parser.add_argument("--sha")
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    sha = args.sha or subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
        text=True, check=True).stdout.strip()
    path = args.out / f"BENCH_{sha[:12]}.json"
    path.write_text(json.dumps(trajectory(args.results, sha), indent=1)
                    + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
