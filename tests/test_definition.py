"""Each coefficient solved from its definition, one ρ at a time.

The coefficients j^{λ,φ}_ρ are defined by the expansion
G_{λ,φ} = Σ_{ρ ⊆ λ} j_ρ · G_ρ of the skew flagged double β-Grothendieck
function in double stable Grothendieck functions.  At a fixed β and y, K =
N + 2 points that differ only in x give K linear equations in the N values
j_ρ, solved over F_p.  The G_ρ are linearly independent (Buch 2002), so a
random point set is singular with probability at most degree/p; a singular
draw is a resample.  The two extra rows check that the expansion holds.

Each solved value is compared with the numeric route, `j_numeric`, and
with the symbolic one, β^{−(|λ|−|ρ|)} · `eval_graham(j_coefficient)`.  The
solve reads neither route's ν or structural-zero decision, so when the
three disagree the odd one out names the faulty side.  The two routes
agreeing on a value the solve refutes points at what they share: the
`build_context` record of (λ, φ, ρ), whose ν and case the failure line
shows.  Each (λ, φ) draws from its own named stream, so a failure
reproduces alone through `_check_instance`.
"""

import random

from egc.grothendieck import g_eval
from egc.pipeline import contexts, j_coefficient, j_numeric
from egc.ring import (DEFAULT_PRIME, EvaluationError, EvaluationPoint,
                      eval_graham, field_inv, sample_point)
from egc.shapes import Flag, Partition, SkewShape
from egc.verify import _pairs

P = DEFAULT_PRIME
SEED = "definition"
DRAWS = 3  # point sets tried per (λ, φ) before a singular system fails


def _points(lam: Partition, phi: Flag, rng: random.Random, count: int):
    """A point with β and y only, and count points that add x to it: each
    draws x_i for the ℓ(λ) + 4 indices up to m = min(0, φ₁) and sets
    x_i := y_i for every i > m, up to the top of the y support."""
    m = min(0, phi.entry(1))
    top = max(1, phi.entry(len(lam))) + lam.part(1)
    base = sample_point(P, rng, (), range(m - len(lam) - 3, top + 1))
    above = {i: base.y_val(i) for i in range(m + 1, top + 1)}
    points = []
    while len(points) < count:
        x = {i: rng.randrange(1, P) for i in range(m - len(lam) - 3, m + 1)}
        try:
            points.append(EvaluationPoint.make(P, base.beta, x | above,
                                               dict(base.y)))
        except EvaluationError:  # 1 + βx_i vanished: draw x again
            continue
    return base, points


def _solve(rows: list[list[int]], rhs: list[int]):
    """(values, consistent) for rows · values = rhs over F_p: the values
    that n independent rows fix, and whether every other row agrees with
    them; None when the n columns are dependent."""
    n = len(rows[0])
    a = [row + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = field_inv(a[col][col], P)
        a[col] = [v * inv % P for v in a[col]]
        for r in range(len(a)):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(v - f * w) % P for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)], not any(a[r][n] for r in
                                                 range(n, len(a)))


def _odd_one_out(values: dict[str, int]) -> str | None:
    """None when the three named values agree, else which one differs."""
    if len(set(values.values())) == 1:
        return None
    for name in values:
        a, b = (other for other in values if other != name)
        if values[a] == values[b]:
            return f"the {a} and {b} values agree, the {name} value differs"
    return "the {} values all differ".format(", ".join(values))


def _check_instance(lam: Partition, phi: Flag) -> list[str]:
    key = f"lam={lam.parts} phi={phi.bounds}"
    records = list(contexts(lam, phi))
    rng = random.Random(f"{SEED}:{key}")
    for _ in range(DRAWS):
        base, points = _points(lam, phi, rng, len(records) + 2)
        rows = [[g_eval(SkewShape(rho), Flag((0,) * len(rho)), "any", pt)
                 for rho, _ in records] for pt in points]
        solution = _solve(rows, [g_eval(SkewShape(lam), phi, "any", pt)
                                 for pt in points])
        if solution is not None:
            break
    else:
        return [f"{key}: singular at each of {DRAWS} point sets"]
    solved, consistent = solution
    failures = [] if consistent else [
        f"{key}: the expansion does not hold at the two extra points"]
    for (rho, ctx), value in zip(records, solved):
        shift = field_inv(pow(base.beta, lam.size - rho.size, P), P)
        symbolic = eval_graham(j_coefficient(lam, phi, rho), base) * shift % P
        verdict = _odd_one_out({"symbolic": symbolic, "numeric": j_numeric(
            lam, phi, rho, base), "solved": value})
        if verdict:
            nu = ctx.nu.parts if ctx.nu is not None else None
            failures.append(f"{key} rho={rho.parts} (nu={nu}, "
                            f"case={ctx.case}): {verdict}")
    return failures


def test_odd_one_out_names_the_route():
    def verdict(symbolic, numeric, solved):
        return _odd_one_out({"symbolic": symbolic, "numeric": numeric,
                             "solved": solved})
    assert verdict(3, 3, 3) is None
    assert verdict(1, 3, 3) == \
        "the numeric and solved values agree, the symbolic value differs"
    assert verdict(3, 1, 3) == \
        "the symbolic and solved values agree, the numeric value differs"
    assert verdict(3, 3, 1) == \
        "the symbolic and numeric values agree, the solved value differs"
    assert verdict(1, 2, 3) == \
        "the symbolic, numeric, solved values all differ"


def test_solve_refuses_dependent_columns():
    assert _solve([[1, 2], [2, 4], [3, 6]], [1, 2, 3]) is None
    assert _solve([[1, 0], [0, 1], [1, 1]], [2, 3, 5]) == ([2, 3], True)
    assert _solve([[1, 0], [0, 1], [1, 1]], [2, 3, 6]) == ([2, 3], False)


def test_coefficients_solve_their_definition():
    """Every (λ, φ) with |λ| <= 4 and flags in [−2, 2], every ρ ⊆ λ."""
    instances = _pairs(4, -2, 2)
    assert len(instances) == 129
    failures = [f for parts, bounds in instances
                for f in _check_instance(Partition(parts), Flag(bounds))]
    assert failures == []
