#!/usr/bin/env python3
"""Check that a refactor keeps egc's output byte-identical to an earlier
revision.

Runs the same commands against the source of REV and against the working
tree, and prints every command whose stdout or exit code differs:

- `egc j --format json` on each rung of the benchmark ladder
  (`bench/workloads.LADDER`, read from the working tree);
- `egc j` on a structural zero with rho inside lambda, on rho outside
  lambda, and on an incompatible flag (exit 1);
- `egc j --format json` on the two inputs of
  `tests/test_pipeline.INCOMPATIBLE_XI` that are not ladder rungs, where
  the raw conjugate flag is incompatible with nu' and `xi_flag` falls back
  to the normal form;
- `egc verify --suite all --max-size 3 --seed 0 --format json`;
- `egc verify --suite decompose --trials 0 --max-size 4 --flag-range -2:3
  --window -2:3 --format json`, the exhaustive split/merge bijection on
  the inputs of the `verify_exhaustive` benchmark workload;
- every `egc verify` call of the `verify_sampled` benchmark workload
  (`bench/workloads.SAMPLED`, read from the working tree) at seed 0, which
  runs the theorem and pi suites at size 5;
- `egc verify --suite theorem --max-size 5 --flag-range -3:3 --trials 1
  --seed 0 --format json`, the flag range of acceptance criterion 6, where
  the lower halves reach wider conjugate flags than the sampled run;
- `egc tableaux`, with an explicit window and with the default one, on
  the one-cell shape over the window 1:12, wider than any the suites use,
  and on (2,1) under the flag (2,4) over the window -2:4;
- `egc perm --oneline`, and `egc perm --word` on a short word and on the
  one letter 20000, whose normalisation keeps one far-off transposition;
- `egc perm --format json` on two wide windows: the word 0,2000 (two
  far-apart letters, not vexillary) and the one-line transposition
  (0 2000), a vexillary hook with 1,999 rows.

REV's `src/` is unpacked with `git archive` into a temporary directory,
which is removed afterwards; nothing is registered in the repository.
Standard library only.

Usage: python3 scripts/same_output.py REV
Exit status: 0 when every output is identical, 1 otherwise.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OTHERS = [
    ["j", "--lambda", "1", "--phi", "0", "--rho", "", "--format", "json"],
    ["j", "--lambda", "1", "--phi", "1", "--rho", "2"],
    ["j", "--lambda", "1,1", "--phi", "1,5", "--rho", "1"],
    ["j", "--lambda", "5,3,1", "--phi", "-4,-1,2", "--rho", "5,2,1",
     "--format", "json"],
    ["j", "--lambda", "7,3", "--phi", "-6,-3", "--rho", "4,2", "--format",
     "json"],
    ["verify", "--suite", "all", "--max-size", "3", "--seed", "0",
     "--format", "json"],
    ["verify", "--suite", "decompose", "--trials", "0", "--max-size", "4",
     "--flag-range", "-2:3", "--window", "-2:3", "--format", "json"],
    ["verify", "--suite", "theorem", "--max-size", "5", "--flag-range",
     "-3:3", "--trials", "1", "--seed", "0", "--format", "json"],
    ["tableaux", "--lambda", "1,1", "--mu", "1", "--flag", "1,2", "--sign",
     "positive", "--window", "1:2"],
    ["tableaux", "--lambda", "2,1"],
    ["tableaux", "--lambda", "1", "--window", "1:12"],
    ["tableaux", "--lambda", "2,1", "--flag", "2,4", "--window", "-2:4"],
    ["perm", "--oneline", "3,4,5,1,6,2", "--base", "1"],
    ["perm", "--word", "0,1,-1"],
    ["perm", "--word", "20000", "--format", "json"],
    ["perm", "--word", "0,2000", "--format", "json"],
    ["perm", "--oneline", ",".join(map(str, [2000, *range(1, 2000), 0])),
     "--base", "0", "--format", "json"],
]


def commands() -> list[list[str]]:
    sys.dont_write_bytecode = True  # leave nothing under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import LADDER, SAMPLED
    return [rung.argv() for rung in LADDER] + OTHERS \
        + [run.argv(0) for run in SAMPLED]


def unpack_src(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev, "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run(src: Path, argv: list[str]) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "egc.cli", *argv],
                          env=env, capture_output=True)
    return proc.returncode, proc.stdout


def show_first_difference(old: bytes, new: bytes, rev: str) -> None:
    a, b = old.splitlines(), new.splitlines()
    k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    print(f"  first difference at line {k + 1} "
          f"({len(a)} lines at {rev}, {len(b)} now):")
    for side, lines in ((rev, a), ("now", b)):
        print(f"  {side}: {lines[k].decode() if k < len(lines) else '<end>'}")


def main(rev: str) -> int:
    differ, argvs = 0, commands()
    with tempfile.TemporaryDirectory(prefix="egc-same-output-") as tmp:
        unpack_src(rev, Path(tmp))
        for argv in argvs:
            old = run(Path(tmp) / "src", argv)
            new = run(ROOT / "src", argv)
            line = "egc " + " ".join(
                a if len(a) <= 60 else a[:28] + "..." + a[-28:] for a in argv)
            if old == new:
                print(f"same  {line}")
                continue
            differ += 1
            print(f"DIFF  {line}")
            if old[0] != new[0]:
                print(f"  exit code {old[0]} at {rev}, {new[0]} now")
            if old[1] != new[1]:
                show_first_difference(old[1], new[1], rev)
    print(f"{differ} of {len(argvs)} outputs differ from {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[-2])
    sys.exit(main(sys.argv[1]))
