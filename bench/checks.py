"""Output checks made apart from the code under test.

Each check returns a list of problems (empty when the output is right).
The coefficient evaluator, the positivity order, the instance counts, the
2143-avoidance search and the tableau count below are written here from
their definitions; they share no code with egc.  The only program code a
check calls is the numeric route `j_numeric`, the second route the
symbolic coefficient is compared with, and `enumerate_tableaux`, whose
count is compared with a brute-force count.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import combinations, permutations, product

PRIME = 2**61 - 1
Y_RANGE = range(-24, 25)  # every y index a ladder rung can read


# ---------------------------------------------------------------------------
# Coefficients


def _order_key(i: int) -> tuple[int, int]:
    """The order 1 < 2 < ... < -2 < -1 < 0."""
    return (0, i) if i >= 1 else (1, i)


def _factor_type(i: int, j: int) -> int:
    if 0 < i < j:
        return 1
    if i < j <= 0:
        return 2
    return 3


def sample_y(rng: random.Random, p: int = PRIME) -> tuple[int, dict]:
    """beta and y values with 1 + beta*y_j invertible for every index."""
    while True:
        beta = rng.randrange(1, p)
        ys = {j: rng.randrange(1, p) for j in Y_RANGE}
        if all((1 + beta * v) % p for v in ys.values()):
            return beta, ys


def eval_monomials(monomials: list[dict], beta: int, ys: dict,
                   p: int = PRIME) -> int:
    """Sum of mult * prod beta*(y_i (-) y_j), with a (-) b = (a-b)/(1+beta b).

    The value of each distinct factor is computed once per point.
    """
    table: dict[tuple[int, int], int] = {}
    total = 0
    for mono in monomials:
        val = mono["mult"] % p
        for i, j in mono["factors"]:
            f = table.get((i, j))
            if f is None:
                yi, yj = ys.get(i, 0), ys.get(j, 0)
                f = beta * (yi - yj) * pow(1 + beta * yj, -1, p) % p
                table[(i, j)] = f
            val = val * f % p
        total = (total + val) % p
    return total


def coefficient_properties(payload: dict, lam, rho) -> list[str]:
    """What the theorem guarantees of every printed coefficient."""
    problems = []
    if payload.get("normalization_beta_exp") != sum(lam) - sum(rho):
        problems.append("normalization exponent is not |lambda| - |rho|")
    seen = set()
    for mono in payload["monomials"]:
        factors = [tuple(f) for f in mono["factors"]]
        key = tuple(sorted(factors))
        if key in seen:
            problems.append(f"monomial {factors} printed twice")
        seen.add(key)
        mult = mono["mult"]
        if not isinstance(mult, int) or mult < 1:
            problems.append(f"multiplicity {mult!r} is not a positive integer")
        for i, j in factors:
            if not _order_key(i) < _order_key(j):
                problems.append(f"factor {(i, j)} violates i < j in the order "
                                "1 < 2 < ... < -1 < 0")
        types = {_factor_type(i, j) for i, j in factors}
        if {1, 2} <= types:
            problems.append(f"monomial {factors} mixes Type 1 and Type 2")
        for f, m in Counter(factors).items():
            cap = 2 if _factor_type(*f) == 3 else 1
            if m > cap:
                problems.append(f"factor {f} of type {_factor_type(*f)} "
                                f"appears {m} times")
    return problems


def coefficient_value(payload: dict, lam, phi, rho, rng: random.Random
                      ) -> list[str]:
    """The printed sum equals beta^{|lam|-|rho|} * j_numeric at a point."""
    from egc.pipeline import j_numeric
    from egc.ring import EvaluationPoint
    from egc.shapes import Flag, Partition
    beta, ys = sample_y(rng)
    lhs = eval_monomials(payload["monomials"], beta, ys)
    point = EvaluationPoint.make(PRIME, beta, {}, ys)
    raw = j_numeric(Partition(lam), Flag(phi), Partition(rho), point)
    rhs = pow(beta, sum(lam) - sum(rho), PRIME) * raw % PRIME
    if lhs != rhs:
        return ["symbolic and numeric values differ at a sampled point"]
    return []


def check_coefficient(stdout: str, code: int, lam, phi, rho,
                      rng: random.Random, expect: list | None = None
                      ) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if [payload.get(k) for k in ("lambda", "phi", "rho")] != \
            [list(lam), list(phi), list(rho)]:
        return ["output names other inputs"]
    problems = coefficient_properties(payload, lam, rho)
    if expect is not None and payload["monomials"] != \
            [{"factors": expect, "mult": 1}]:
        problems.append(f"expected the single monomial {expect}")
    return problems + coefficient_value(payload, lam, phi, rho, rng)


# ---------------------------------------------------------------------------
# Instance counts of the verify suites


def partitions(max_size: int) -> list[tuple[int, ...]]:
    """Nonempty partitions of size <= max_size, from compositions."""
    out = set()
    for size in range(1, max_size + 1):
        for cuts in product((0, 1), repeat=size - 1):
            parts, run = [], 1
            for c in cuts:
                if c:
                    parts.append(run)
                    run = 1
                else:
                    run += 1
            parts.append(run)
            out.add(tuple(sorted(parts, reverse=True)))
    return sorted(out)


def flags(lam: tuple[int, ...], lo: int, hi: int) -> list[tuple[int, ...]]:
    """Weakly increasing flags in [lo, hi] with
    phi_{i+1} - phi_i <= lam_i - lam_{i+1} + 1."""
    out = []
    for phi in product(range(lo, hi + 1), repeat=len(lam)):
        if all(0 <= phi[i + 1] - phi[i] <= lam[i] - lam[i + 1] + 1
               for i in range(len(lam) - 1)):
            out.append(phi)
    return out


def pair_count(max_size: int, lo: int, hi: int) -> int:
    return sum(len(flags(lam, lo, hi)) for lam in partitions(max_size))


def avoids_2143(line: tuple[int, ...]) -> bool:
    return not any(line[b] < line[a] < line[d] < line[c]
                   for a, b, c, d in combinations(range(len(line)), 4))


def vexillary_count(n: int) -> int:
    return sum(1 for line in permutations(range(n)) if avoids_2143(line))


# ring suite: 100 telescoping trials, the factor pairs on [-10, 10]^2, 100
# operator trials and the 24 permutations of S_4
RING_INSTANCES = 100 + 21 * 21 + 100 + 24


def expected_instances(suite: str, max_size: int | None,
                       flag_range: tuple[int, int] | None) -> int:
    """The instance count of a suite from the CLI defaults and the sizes."""
    max_size = 4 if max_size is None else max_size
    lo, hi = (-2, 3) if flag_range is None else flag_range
    if suite in ("theorem", "decompose"):
        return pair_count(max_size, lo, hi)
    if suite == "pi":
        return pair_count(max_size, 0, max(1, hi)) + 1  # plus the worked case
    if suite == "omega":
        return len(partitions(min(max_size, 4)))
    if suite == "gvex":
        return vexillary_count(6)  # support [-2, 3]
    if suite == "ring":
        return RING_INSTANCES
    raise ValueError(f"unknown suite {suite!r}")


def check_report(report: dict, suite: str, max_size, flag_range) -> list[str]:
    problems = []
    if report.get("suite") != suite:
        problems.append(f"report is for suite {report.get('suite')!r}")
    if report.get("failures"):
        problems.append(f"{len(report['failures'])} failures, first: "
                        f"{report['failures'][0]}")
    if report.get("ok") is not True:
        problems.append("report is not ok")
    want = expected_instances(suite, max_size, flag_range)
    if report.get("instances") != want:
        problems.append(f"{report.get('instances')} instances, expected "
                        f"{want}")
    if not report.get("checks", 0) > 0:
        problems.append("no checks made")
    return problems


def check_verify_output(stdout: str, code: int, suite: str, max_size,
                        flag_range) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    return check_report(report, suite, max_size, flag_range)


# ---------------------------------------------------------------------------
# Flagged set-valued tableaux by brute force


def _subsets(values: list[int]) -> list[tuple[int, ...]]:
    return [c for k in range(1, len(values) + 1)
            for c in combinations(values, k)]


def brute_tableaux(outer, inner, flag, sign: str, window) -> int:
    """Count fillings of outer/inner by nonempty sets: weak rows and strict
    columns at set level, values in the window, the sign range and, in row
    r, at most flag[r-1]."""
    lo, hi = window
    if sign == "positive":
        lo = max(lo, 1)
    elif sign == "nonpositive":
        hi = min(hi, 0)
    cells = [(r, c) for r in range(1, len(outer) + 1)
             for c in range((inner[r - 1] if r <= len(inner) else 0) + 1,
                            outer[r - 1] + 1)]
    choices = []
    for r, _ in cells:
        top = hi if flag is None else min(hi, flag[r - 1])
        choices.append(_subsets(list(range(lo, top + 1))))
    return sum(1 for filling in product(*choices)
               if _semistandard(dict(zip(cells, filling))))


def _semistandard(grid: dict) -> bool:
    for (r, c), v in grid.items():
        right, below = grid.get((r, c + 1)), grid.get((r + 1, c))
        if right is not None and max(v) > min(right):
            return False
        if below is not None and max(v) >= min(below):
            return False
    return True


# (outer, inner, flag, sign, window); each has at most 4 cells
SMALL_SHAPES = (
    ((2, 1), (), (1, 2), "any", (-1, 2)),
    ((2, 2), (1,), (2, 3), "positive", (1, 3)),
    ((1, 1, 1), (), (0, 0, 1), "any", (-2, 1)),
    ((3, 1), (1,), (2, 2), "any", (-1, 2)),
    ((2, 1, 1), (), (-1, 0, 0), "nonpositive", (-3, 0)),
    ((3,), (), None, "any", (-1, 1)),
    ((2, 2), (), (1, 2), "any", (0, 2)),
)


def check_tableau_counts(shapes, enumerate_count) -> list[str]:
    """enumerate_count(outer, inner, flag, sign, window) is the program's
    count; compare it with brute force on each shape."""
    problems = []
    for outer, inner, flag, sign, window in shapes:
        want = brute_tableaux(outer, inner, flag, sign, window)
        got = enumerate_count(outer, inner, flag, sign, window)
        if got != want:
            problems.append(f"{outer}/{inner} flag {flag} {sign} {window}: "
                            f"enumerate_tableaux yields {got}, brute force "
                            f"counts {want}")
    return problems


def egc_tableau_count(outer, inner, flag, sign, window) -> int:
    from egc.shapes import Flag, Partition, SkewShape
    from egc.tableaux import EnumSpec, enumerate_tableaux
    spec = EnumSpec(SkewShape(Partition(outer), Partition(inner)),
                    None if flag is None else Flag(flag), sign, window)
    return sum(1 for _ in enumerate_tableaux(spec))
