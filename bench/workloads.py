"""The three benchmark workloads: their inputs and their timed calls.

Every workload is a closed loop with one caller: each call into egc starts
after the previous one has returned, in a fixed order, once per run.  The
inputs are fixed except for what the run seed chooses (sample points of the
verify suites and of the output checks).
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Rung:
    """One (lambda, phi, rho) of the coefficient ladder, as CLI strings."""

    label: str
    lam: str
    phi: str
    rho: str
    known_fault: bool = False  # the symbolic coefficient is wrong today

    def argv(self) -> list[str]:
        return ["j", "--lambda", self.lam, "--phi", self.phi,
                "--rho", self.rho, "--format", "json"]


# Monomial counts at the time the ladder was fixed are in the labels.
LADDER = (
    # the paper's three worked coefficients, each a single monomial
    Rung("worked-1", "2", "1", "1"),
    Rung("worked-2", "1,1", "-2,-1", "1"),
    Rung("worked-3", "1,1", "1,2", "1"),
    # the conjugate flag xi is incompatible with nu' (ROADMAP item 1)
    Rung("fault-32", "5,3", "-4,-1", "5,3", known_fault=True),
    Rung("fault-160", "6,3", "-7,-4", "5,3", known_fault=True),
    Rung("fault-128", "5,3,1", "-5,-2,-1", "4,3,1", known_fault=True),
    # an empty positive sum (the README example): value 0, exit 0
    Rung("mixed-0", "7,4,2,2,1", "-1,0,1,2,4", "5,4,2,1,1"),
    # mixed flags
    Rung("mixed-96", "5,3,1", "-3,-1,2", "4,3,1"),
    Rung("mixed-144", "4,1,1,1,1,1", "-2,2,3,4,5,6", "3,1,1"),
    Rung("mixed-160", "5,1,1,1,1", "-5,0,1,2,3", "5,1,1,1"),
    Rung("mixed-240", "1,1,1,1,1,1,1,1,1", "-1,0,1,2,3,4,4,5,6",
         "1,1,1,1,1,1,1"),
    Rung("mixed-320", "3,1,1,1,1,1,1", "-2,1,2,3,4,4,5", "3,1,1,1,1"),
    Rung("mixed-804", "6,1,1,1", "-5,1,2,3", "4,1,1"),
    # nonpositive flags
    Rung("neg-126", "3,3,1", "-7,-6,-6", "3,3"),
    Rung("neg-352", "5,3,2", "-5,-5,-4", "3,2,2"),
    Rung("neg-1920", "4,2,2,2", "-6,-5,-5,-4", "4,2,2,1"),
    Rung("neg-2048", "6,3,1", "-6,-5,-5", "6,3,1"),
    Rung("neg-10080", "2,2,2,1,1", "-6,-6,-6,-6,-5", "2,2,1,1"),
    Rung("neg-24960", "3,2,2,2,1", "-5,-5,-5,-5,-4", "3,2,1"),
    # positive flags
    Rung("pos-640", "5,2,1", "4,5,6", "3,2,1"),
    Rung("pos-1164", "7,1,1,1", "3,5,6,7", "1,1,1"),
    Rung("pos-2304", "3,3,2,2", "5,6,6,6", "3,2,2,1"),
    Rung("pos-7168", "9,1", "6,6", "6,1"),
    Rung("pos-16128", "10", "6", "5"),
    Rung("pos-24192", "7,1,1,1", "5,6,6,6", "2,1"),
)

# Worked coefficients from the paper: label -> the single expected monomial.
WORKED = {
    "worked-1": [[1, 2]],
    "worked-2": [[-1, 0]],
    "worked-3": [[2, 0]],
}


@dataclass(frozen=True)
class SuiteRun:
    """One `egc verify` call of the sampled workload."""

    suite: str
    max_size: int | None = None
    flag_range: tuple[int, int] | None = None
    trials: int = 1

    def argv(self, seed: int) -> list[str]:
        out = ["verify", "--suite", self.suite, "--trials", str(self.trials),
               "--seed", str(seed), "--jobs", "1", "--format", "json"]
        if self.max_size is not None:
            out += ["--max-size", str(self.max_size)]
        if self.flag_range is not None:
            out += ["--flag-range", "%d:%d" % self.flag_range]
        return out


# Reduced from the acceptance sizes (size 5, flags [-3, 3], 5 trials).
SAMPLED = (
    SuiteRun("theorem", max_size=5, flag_range=(-2, 2)),
    SuiteRun("omega", max_size=3, trials=3),
    SuiteRun("gvex", trials=3),
    SuiteRun("pi", max_size=5, trials=2),
    SuiteRun("ring"),
)

# Criterion 4 runs size 4, flags [-2, 3] and window [-3, 3]; the window is
# narrowed by one value at the bottom.
EXHAUSTIVE = dict(max_size=4, flag_range=(-2, 3), window=(-2, 3))


@dataclass
class Call:
    """One timed call, its input and what it returned."""

    key: str
    seconds: float
    spec: object = None  # the Rung or SuiteRun called
    code: int | None = None
    stdout: str = ""
    value: object = None


def _call_cli(cli, argv: list[str]) -> tuple[float, int, str]:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return time.perf_counter() - start, code, buf.getvalue()


def run_coeff(seed: int) -> list[Call]:
    from egc import cli
    calls = []
    for rung in LADDER:
        dt, code, out = _call_cli(cli, rung.argv())
        calls.append(Call(rung.label, dt, rung, code, out))
    return calls


def run_verify_sampled(seed: int) -> list[Call]:
    from egc import cli
    calls = []
    for run in SAMPLED:
        dt, code, out = _call_cli(cli, run.argv(seed))
        calls.append(Call(run.suite, dt, run, code, out))
    return calls


def run_verify_exhaustive(seed: int) -> list[Call]:
    # `egc verify` refuses --trials 0, so the exhaustive-only bijection
    # check is reached through the library entry point, as criterion 4
    # of the acceptance tests does.
    from egc import verify
    start = time.perf_counter()
    report = verify.verify_identities("decompose", seed=seed, trials=0,
                                      **EXHAUSTIVE)
    dt = time.perf_counter() - start
    return [Call("decompose", dt, value=report)]


RUNNERS = {
    "coeff": run_coeff,
    "verify_sampled": run_verify_sampled,
    "verify_exhaustive": run_verify_exhaustive,
}
