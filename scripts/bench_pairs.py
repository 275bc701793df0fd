#!/usr/bin/env python3
"""Compare one benchmark workload between an earlier revision and the
working tree, in alternating pairs of runs.

REV (with `git archive`) and the working tree (its tracked files and its
untracked files that are not ignored, as they are on disk) are unpacked
into two sibling temporary directories, `parent` and `change`, whose names
have equal length: `peak_rss_mb` moves with the length of the checkout's
path.  Pair i runs `bench/run.py --workload W --seed SEED+i --trace 0` in
each directory, one process at a time; REV runs first in even pairs and
the working tree in odd ones.  The directories are removed afterwards.

For each end-to-end metric of BENCHMARK.json this prints each side's
median and quartiles (statistics.quantiles, n=4), the pairs the working
tree won and lost (ties count for neither), and whether a gain may be
claimed: the working tree wins at least nine tenths of the pairs, and its
median is better than REV's by more than REV's quartile distance.

Standard library only.

Usage: python3 scripts/bench_pairs.py REV --workload W [--pairs N]
                                      [--seed SEED]
Exit status: 0 when every run is correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value gives q1 = q3 = median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(parent: list[float], change: list[float],
              better: str) -> dict:
    """One metric over pairs of runs (parent[i], change[i]): each side's
    quartiles, the change's wins and losses, and whether the pairs rule
    for claiming a gain holds."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (p_q[1] - c_q[1])
    return {"parent": p_q, "change": c_q, "wins": wins, "losses": losses,
            "pairs": len(parent),
            "claim": 10 * wins >= 9 * len(parent) and gap > p_q[2] - p_q[0]}


def unpack(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def copy_tree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a deleted tracked file is not copied
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(checkout: Path, workload: str, seed: int,
             seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout.name}: bench/run.py exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses SEED+i")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    values = {side: {m: [] for m in metrics} for side in ("parent", "change")}
    incorrect = 0
    with tempfile.TemporaryDirectory(prefix="egc-pairs-") as tmp:
        dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        unpack(args.rev, dirs["parent"])
        copy_tree(dirs["change"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            line = []
            for side in order:
                out = run_once(dirs[side], args.workload, args.seed + i,
                               bench["run_seconds"])
                incorrect += not out["correct"]
                for m in metrics:
                    values[side][m].append(out["metrics"][m]["value"])
                line.append(f"{side} run_s "
                            f"{out['metrics']['run_s']['value']:.3f}")
            print(f"pair {i + 1} (seed {args.seed + i}): " + ", ".join(line),
                  flush=True)
    print(f"{args.workload}: {args.pairs} pairs, {args.rev} against the "
          f"working tree; median [q1, q3]")
    for m, better in metrics.items():
        s = summarize(values["parent"][m], values["change"][m], better)
        p, c = s["parent"], s["change"]
        print(f"  {m:12} parent {p[1]:.3f} [{p[0]:.3f}, {p[2]:.3f}]  "
              f"change {c[1]:.3f} [{c[0]:.3f}, {c[2]:.3f}]  "
              f"wins {s['wins']}/{s['pairs']}, losses {s['losses']}  "
              f"gain claimable: {'yes' if s['claim'] else 'no'}")
    if incorrect:
        print(f"{incorrect} runs were not correct")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
