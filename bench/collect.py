"""Run the benchmark on several seeds and summarize every metric.

    python3 bench/collect.py --seeds 1-10 [--workloads coeff,...] [--trace]

Each run is a fresh `python3 bench/run.py` process, one after another.
For each workload and metric this prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
and checks each spread against the bound in BENCHMARK.json.  With
--trace it makes one traced run per seed and prints the median of each
per-layer metric.  The reference figures in bench/README.md come from this
command; the raw runs are kept in bench/results/collect-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    trace = int(args.trace)
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            runs.append(one_run(workload, seed, bench["run_seconds"], trace))
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()
                if k in bounds), file=sys.stderr, flush=True)
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        with open(os.path.join(HERE, "results",
                               f"collect-{workload}-trace{trace}.json"),
                  "w") as out:
            json.dump(runs, out, indent=1)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct
        print(f"## {workload}: {len(runs)} runs, correct={correct}, "
              f"failed/attempted={sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            line = (f"| {name} | {unit} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                    f"| {spread:.3f} |")
            if name in bounds and name != "setup_s":
                within = spread <= bounds[name] / 3
                ok &= spread <= bounds[name]
                line += f" bound {bounds[name]}" + \
                    ("" if within else " (above a third of it)")
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
