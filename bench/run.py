"""Run one benchmark workload once, in this fresh interpreter, and print
its metrics as the last line of standard output.

    python3 bench/run.py --workload coeff --seed 1 --seconds 15 --trace 0

Workloads: coeff, verify_sampled, verify_exhaustive (see workloads.py).
With --trace 0 the metrics are end to end: setup_s, run_s, peak_rss_mb.
With --trace 1 the run first starts an untraced run of the same workload
and seed in a child process, then runs the workload with spans around the
public functions of every egc module and prints the per-layer metrics,
including trace.overhead_s (traced run_s minus the child's run_s).

The program is imported from src/ of the checkout this file sits in.  Run
details and spans are written under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time

import checks
from workloads import EXHAUSTIVE, RUNNERS, WORKED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


def process_age() -> float:
    """Seconds since this process started (Linux: /proc/self/stat)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="nominal length of one pass; a run measures "
                        "one whole pass and warns when it is far off")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",")) if text else ()


def check(workload: str, calls, seed: int) -> tuple[int, list[str]]:
    """Failed calls and problems that make the run incorrect.

    A coefficient rung marked known_fault that comes out wrong counts as a
    failed call but not as a problem; any other wrong output is both.
    """
    failed, problems = 0, []
    if workload == "coeff":
        rng = random.Random(f"coeff-check:{seed}")
        for call in calls:
            rung = call.spec
            found = checks.check_coefficient(
                call.stdout, call.code, ints(rung.lam), ints(rung.phi),
                ints(rung.rho), rng, expect=WORKED.get(rung.label))
            if found:
                failed += 1
                if not rung.known_fault:
                    problems += [f"{rung.label}: {p}" for p in found]
    elif workload == "verify_sampled":
        for call in calls:
            run = call.spec
            found = checks.check_verify_output(
                call.stdout, call.code, run.suite, run.max_size,
                run.flag_range)
            if found:
                failed += 1
                problems += [f"{run.suite}: {p}" for p in found]
    else:
        (call,) = calls
        found = checks.check_report(call.value, "decompose",
                                    EXHAUSTIVE["max_size"],
                                    EXHAUSTIVE["flag_range"])
        if found:
            failed += 1
            problems += [f"decompose: {p}" for p in found]
        problems += checks.check_tableau_counts(checks.SMALL_SHAPES,
                                                checks.egc_tableau_count)
    return failed, problems


def save(args, record: dict):
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as out:
        json.dump(record, out, indent=1)


def run_pass(args, tracer=None):
    """Import egc, run the workload once, check it.  Returns the import
    time, the calls, the peak RSS in MB, the setup time and the checks."""
    start = time.perf_counter()
    import egc.cli  # noqa: F401  (numpy and every egc module)
    import_s = time.perf_counter() - start
    import egc
    if os.path.dirname(os.path.dirname(egc.__file__)) != SRC:
        raise SystemExit(f"egc imported from {egc.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install()
    setup_s = process_age()
    calls = RUNNERS[args.workload](args.seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    failed, problems = check(args.workload, calls, args.seed)
    return import_s, calls, rss_mb, setup_s, failed, problems


def untraced_child(args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"untraced run exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "egc", "__init__.py")):
        print(f"error: no egc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.trace:
        import tracing
        child = untraced_child(args)
        tracer = tracing.Tracer()
        import_s, calls, _, _, failed, problems = run_pass(args, tracer)
        run_s = sum(c.seconds for c in calls)
        metrics = tracing.layer_metrics(tracer, import_s)
        metrics["trace.overhead_s"] = (
            run_s - child["metrics"]["run_s"]["value"], "s")
        correct = child["correct"] and not problems
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write_spans(os.path.join(
            RESULTS, f"{args.workload}-seed{args.seed}.spans.jsonl.gz"))
    else:
        import_s, calls, rss_mb, setup_s, failed, problems = run_pass(args)
        run_s = sum(c.seconds for c in calls)
        metrics = {"setup_s": (setup_s, "s"), "run_s": (run_s, "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
        correct = not problems
        if not args.seconds / 2 <= run_s <= args.seconds * 2:
            print(f"warning: the pass took {run_s:.1f} s against a nominal "
                  f"{args.seconds} s", file=sys.stderr)

    save(args, {"workload": args.workload, "seed": args.seed,
                "trace": args.trace, "run_s": run_s, "import_s": import_s,
                "calls": [[c.key, c.seconds] for c in calls],
                "failed": failed, "problems": problems})
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": len(calls), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
