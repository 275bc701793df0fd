"""Randomized and exhaustive verification suites for the identities behind
the coefficient pipeline: the split/merge decomposition, the value-shifting
permutation identity, backstable comparisons, the structural theorem on
coefficients, the omega_1 weight identity (with the F_p transfer DP
checked against enumeration), and the operator algebra.

Each suite draws its randomness from a named stream derived from one seed,
walks its instances in a canonical order, and reports failures as strings
rather than raising, so a run always produces a complete report.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import chain, groupby, permutations as iter_permutations
from operator import le

from .grothendieck import (ORBIT_PRIME, ascent_chain, field_sum, g_eval,
                           grothendieck_poly, gvex_checker)
from .perms import Permutation
from .pipeline import j_coefficient, j_numeric, j_plus_numeric, pi_chain
from .ring import (DEFAULT_PRIME, EvaluationPoint, SparsePoly, code_factor,
                   eval_graham, factor_type, is_prime, isobaric,
                   omega1_factor, prec, sample_point)
from .shapes import (Flag, Partition, SkewShape, compatible_flags,
                     disconnected_inners, flag_split, q_of, subpartitions)
from .tableaux import (COUNTS, EnumSpec, SetValuedTableau,
                       enumerate_tableaux, fillings, merge_rows,
                       omega1_inverse, omega1_tableau, r_weight_eval,
                       split_rows, tableau_sum, weight_eval)

SUITES = ("decompose", "pi", "gvex", "theorem", "omega", "ring")


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run reads: the field, the random streams,
    the number of sampled points per instance, the instance ranges and the
    worker count.  The only place these options get defaults and checks."""

    prime: int = DEFAULT_PRIME
    seed: int = 0
    trials: int = 5
    max_size: int = 4
    flag_range: tuple[int, int] = (-2, 3)
    window: tuple[int, int] = (-3, 3)
    jobs: int = 1

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.max_size < 1:
            raise ValueError(f"max_size must be at least 1, got "
                             f"{self.max_size}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        for lo, hi in (self.window, self.flag_range):
            if lo > hi:
                raise ValueError(f"empty range {lo}:{hi}")


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def partitions_up_to(max_size: int) -> list[Partition]:
    """All nonempty partitions of size at most max_size, canonically ordered."""
    out = []

    def build(remaining, cap, parts):
        for first in range(min(remaining, cap), 0, -1):
            out.append(Partition(parts + [first]))
            build(remaining - first, first, parts + [first])

    build(max_size, max_size, [])
    return sorted(out, key=lambda p: (p.size, p.parts))


def _pairs(max_size: int, lo: int, hi: int) -> list[tuple]:
    """(λ, φ) instance keys: every nonempty λ of size at most max_size with
    each flag compatible with it whose entries lie in [lo, hi]."""
    return [(lam.parts, phi.bounds) for lam in partitions_up_to(max_size)
            for phi in compatible_flags(lam, lo, hi)]


def _count(spec: EnumSpec) -> int:  # a cell's largest value M: 2^{M-lb} sets
    return tableau_sum(spec, COUNTS, lambda m, d: 1, lambda m, d: 2)


# ---------------------------------------------------------------------------
# Suite: decompose — split/merge bijection and the flagged decomposition.


def _decompose_group(cfg: RunConfig, group) -> tuple[int, list[str]]:
    prime, lam, flags = cfg.prime, Partition(group[0]), group[1]
    shape = SkewShape(lam)
    checks, failures, tally = 0, [], {}
    count = lru_cache(maxsize=None)(_count)  # flags of λ share many specs

    # split/merge are mutually inverse, and each flag's shape pairs match
    # the product counts.  A flag caps row maxima, so each tableau is split
    # once, under the pointwise largest flag (itself compatible), and
    # tallied by its row maxima.  The round trip runs on rows and builds no
    # tableau: a merge result equal to the semistandard T needs no checks
    # of its own.  Enumeration is exponential: small shapes only.
    run_bijection = lam.size <= 4
    if run_bijection:
        top = Flag(tuple(map(max, zip(*flags))))
        for rows in fillings(EnumSpec(shape, top, "any", cfg.window)):
            parts = split_rows(lam.parts, rows)
            maxima = tuple(row[-1][-1] for row in rows)
            checks += 1
            # a failure names the least flag admitting T, an instance too
            if merge_rows(*parts) != (shape, rows):
                least = map(min, zip(*(b for b in flags
                                       if all(map(le, maxima, b)))))
                text = SetValuedTableau(shape, rows).to_text()
                failures.append(f"lam={lam.parts} phi={tuple(least)}: "
                                f"merge(split(T)) != T for {text!r}")
            k = maxima, (parts[0].outer.parts, parts[1].inner.parts)
            tally[k] = tally.get(k, 0) + 1

    lo, hi = min(cfg.window[0], 1 - lam.part(1)), cfg.window[1]
    for phi in map(Flag, flags):
        key = f"lam={lam.parts} phi={phi.bounds}"
        phi_minus, phi_plus = flag_split(phi)
        if run_bijection:
            left, right = {}, {}
            for (maxima, pair), n in tally.items():
                if all(map(le, maxima, phi.bounds)):
                    left[pair] = left.get(pair, 0) + n
            for nu in subpartitions(lam):
                n_minus = count(EnumSpec(SkewShape(nu), phi_minus,
                                         "nonpositive", cfg.window))
                if not n_minus:
                    continue
                for mu in disconnected_inners(nu):
                    if n_plus := count(EnumSpec(SkewShape(lam, mu), phi,
                                                "positive", cfg.window)):
                        right[(nu.parts, mu.parts)] = n_minus * n_plus
            checks += 1
            if left != right:
                failures.append(f"{key}: shape-pair counts differ "
                                f"(left {sorted(left.items())}, "
                                f"right {sorted(right.items())})")

        # numeric decomposition at sampled points, at exact windows; the skew
        # factor under phi_+ (a row with phi_r <= 0 is empty under phi too).
        rng = _stream(cfg.seed, f"decompose:{key}")
        for _ in range(cfg.trials):
            pt = sample_point(prime, rng, range(1, hi + 1), range(1, hi + 1))
            rhs = sum(outer * j_plus_numeric(lam, phi_plus, nu, pt)
                      for nu in subpartitions(lam)
                      if (outer := g_eval(SkewShape(nu), phi_minus,
                                          "nonpositive", pt))) % prime
            checks += 1
            if g_eval(shape, phi, "any", pt) != rhs:
                failures.append(f"{key}: decomposition mismatch at {pt}")

        # flag symmetry: swapping x_i, x_{i+1} leaves the sum unchanged
        # whenever no row's flag separates the two indices.
        for _ in range(cfg.trials):
            pt = sample_point(prime, rng, range(lo, hi + 1), range(1, hi + 1))
            base = g_eval(shape, phi, "any", pt)
            for i in range(lo, hi):
                if i in phi.bounds:
                    continue
                sw = dict(pt.x)
                sw[i], sw[i + 1] = sw.get(i + 1, 0), sw.get(i, 0)
                pt2 = EvaluationPoint.make(prime, pt.beta, sw, dict(pt.y))
                checks += 1
                if g_eval(shape, phi, "any", pt2) != base:
                    failures.append(f"{key}: not symmetric in x_{i}, "
                                    f"x_{i + 1}")
    return checks, failures


def suite_decompose(cfg: RunConfig) -> dict:
    # a unit of work is one λ with its flags
    pairs = _pairs(cfg.max_size, *cfg.flag_range)
    groups = [(lam, [phi for _, phi in g])
              for lam, g in groupby(pairs, key=lambda inst: inst[0])]
    return {**_collect("decompose", _decompose_group, groups, cfg),
            "instances": len(pairs)}


# ---------------------------------------------------------------------------
# Suite: pi — the value-shifting permutation identity and flag chain.


def _pi_instance(cfg: RunConfig, inst) -> tuple[int, list[str]]:
    lam, phi = Partition(inst[0]), Flag(inst[1])
    key = f"lam={lam.parts} phi={phi.bounds}"
    checks, failures = 0, []
    psi, pis = pi_chain(lam, phi)
    # chi^(i) = (psi_1..psi_i, phi_{i+1}..phi_ell) runs from phi to psi
    chis = [Flag(psi.bounds[:i] + phi.bounds[i:]) for i in range(len(pis))]
    nmax = max([1] + list(phi.bounds))
    q, parts = q_of(lam), lam.parts
    rng = _stream(cfg.seed, f"pi:{key}")
    # each part that j_plus sums below the row cut at q, once
    for beta in subpartitions(Partition(parts[q:])):
        lower = SkewShape(lam, Partition(parts[:q] + beta.parts))
        if not lower.size:
            continue
        for _ in range(cfg.trials):
            base = sample_point(cfg.prime, rng, (),
                                range(1 - len(lam) - 1, nmax + lam.part(1) + 1))
            vals = [g_eval(lower, chis[i], "positive",
                           base.with_x_to_y(pis[i], nmax))
                    for i in range(len(pis))]
            checks += 1
            if len(set(vals)) != 1:
                failures.append(f"{key} mu={lower.inner.parts}: "
                                f"interpolating chain values differ: {vals}")
    return checks, failures


def suite_pi(cfg: RunConfig) -> dict:
    instances = _pairs(cfg.max_size, 0, max(1, cfg.flag_range[1]))
    # the large worked instance exercises a nontrivial pi with three moves
    instances.append(((4, 4, 4, 4, 4, 2, 1), (3, 4, 4, 5, 6, 6, 8)))
    return _collect("pi", _pi_instance, instances, cfg)


# ---------------------------------------------------------------------------
# Suite: gvex — backstable approximation vs. flagged tableau sum.


def all_vexillary(lo: int, hi: int) -> list[Permutation]:
    """All vexillary permutations with support inside [lo, hi]."""
    ws = (Permutation.from_one_line(images, lo)
          for images in iter_permutations(range(lo, hi + 1)))
    return sorted((w for w in ws if w.is_vexillary()),
                  key=lambda w: (w.length(), w.one_line(lo, hi)))


GVEX_P0 = 4  # shifts support [-2,3] into [2,7]; x is read on indices -3..3
GVEX_N = 7


@lru_cache(maxsize=4)
def gvex_points(prime: int, seed: int, trials: int
                ) -> tuple[EvaluationPoint, ...]:
    """The shared point set of the backstable sweep: distinct nonzero x on
    the full visible index range, y supported on {1, 2}.  Built once per
    process for each (prime, seed, trials)."""
    rng = _stream(seed, "gvex:points")
    return tuple(sample_point(prime, rng,
                              range(1 - GVEX_P0, GVEX_N - GVEX_P0 + 1),
                              (1, 2), distinct_x=True) for _ in range(trials))


def _gvex_instance(cfg: RunConfig, inst) -> tuple[int, list[str]]:
    images, base = inst
    w = Permutation.from_one_line(images, base)
    key = f"w={','.join(map(str, images))}@{base}" if images else "w=id"
    points = gvex_points(cfg.prime, cfg.seed, cfg.trials)
    try:
        check = gvex_checker(w, p=GVEX_P0, n=GVEX_N)
    except ValueError as exc:
        return len(points), [f"{key}: {exc}"] * len(points)
    failures = []
    for pt in points:
        try:
            if not check(pt):
                failures.append(f"{key}: backstable and tableau values differ")
        except Exception as exc:  # report, keep sweeping
            failures.append(f"{key}: {exc}")
    return len(points), failures


def suite_gvex(cfg: RunConfig) -> dict:
    # the orbit engine's old int64 bound, kept so reports keep their bytes
    if cfg.prime ** 2 >= 2**63:
        cfg = replace(cfg, prime=ORBIT_PRIME)
    # every Grassmannian w_lam with |lam| <= 3 sits inside this sweep; depth
    # first in the orbit tree, each point's table computes each entry once
    ws = sorted(all_vexillary(-2, 3), key=lambda w: ascent_chain(
        w.iota(GVEX_P0).one_line(1, GVEX_N)))
    return {**_collect("gvex", _gvex_instance,
                       [(w.images, w.lo) for w in ws], cfg),
            "prime": cfg.prime}


# ---------------------------------------------------------------------------
# Suite: theorem — structure and cross-representation of the coefficients.


def _theorem_instance(cfg: RunConfig, inst) -> tuple[int, list[str]]:
    """The checks of one (λ, φ) over every ρ ⊆ λ.  Each trial's point is
    drawn once and shared by every ρ: each check keeps its false-pass bound
    degree/p, not independently."""
    prime = cfg.prime
    lam, phi = Partition(inst[0]), Flag(inst[1])
    key = f"lam={lam.parts} phi={phi.bounds}"
    checks, failures = 0, []
    rng = _stream(cfg.seed, f"theorem:{key}")
    ylo = min([0] + list(phi.bounds)) - len(lam) - 1
    yhi = max([1] + list(phi.bounds)) + lam.part(1) + 1
    points = [sample_point(prime, rng, (), range(ylo, yhi))
              for _ in range(cfg.trials)]
    for rho in subpartitions(lam):
        rkey = f"{key} rho={rho.parts}"
        j = j_coefficient(lam, phi, rho)
        if j.beta_exp != 0:
            failures.append(f"{rkey}: beta exponent != factor count")
        # each distinct factor once, decoded (not read from its type bits):
        # its type, None when it breaks the order prec
        facts = {}
        for code in set(chain.from_iterable(j.terms)):
            f = code_factor(code)
            facts[code] = f, factor_type(f) if prec(*f) else None
        unordered = {code for code, (_, t) in facts.items() if t is None}
        type1 = {code for code, (_, t) in facts.items() if t == 1}
        type2 = {code for code, (_, t) in facts.items() if t == 2}
        for codes, coeff in sorted(j.terms.items()):
            checks += 1
            if coeff <= 0:
                failures.append(f"{rkey}: nonpositive coefficient {coeff}")
            if not unordered.isdisjoint(codes):
                failures.append(f"{rkey}: factor violates the order")
            if len(set(codes)) < len(codes):  # a run of equal codes
                for code, run in groupby(codes):
                    (f, ftype), m = facts[code], len(list(run))
                    if m > (2 if ftype == 3 else 1):
                        failures.append(f"{rkey}: factor {f} of type "
                                        f"{ftype} appears {m} times")
            if not (type1.isdisjoint(codes) or type2.isdisjoint(codes)):
                failures.append(f"{rkey}: monomial mixes Type 1 and Type 2")
        if rho.size == lam.size:
            checks += 1
            empty_coeff = j.terms.get((), 0)
            if empty_coeff != 1:  # rho <= lam with |rho| = |lam|: rho = lam
                failures.append(f"{rkey}: beta=0 specialization is "
                                f"{empty_coeff}, expected 1")
        norm = lam.size - rho.size
        for pt in points:
            checks += 1
            lhs = eval_graham(j, pt)
            rhs = pow(pt.beta, norm, prime) * j_numeric(lam, phi, rho, pt) \
                % prime
            if lhs != rhs:
                failures.append(f"{rkey}: structural and windowed values "
                                "differ")
    return checks, failures


def suite_theorem(cfg: RunConfig) -> dict:
    return _collect("theorem", _theorem_instance,
                    _pairs(cfg.max_size, *cfg.flag_range), cfg)


# ---------------------------------------------------------------------------
# Suite: omega — conjugation-negation on tableaux and its weight identity,
# and the transfer DP against enumeration at the omega_1 points.


OMEGA_WINDOW = (-2, 2)  # the suite's own value range, as gvex keeps its sweep


def _omega_instance(cfg: RunConfig, inst) -> tuple[int, list[str]]:
    lam = Partition(inst)
    key = f"lam={lam.parts}"
    checks, failures = 0, []
    window = OMEGA_WINDOW
    rng = _stream(cfg.seed, f"omega:{key}")
    pts = [sample_point(cfg.prime, rng, range(window[0], window[1] + 1),
                        range(window[0] - len(lam), window[1] + lam.part(1)))
           for _ in range(cfg.trials)]
    pairs = [(pt, pt.omega1()) for pt in pts]
    sums = [0] * len(pairs)  # per point: the enumerated weights at pt.omega1()
    spec = EnumSpec(SkewShape(lam), None, "any", window)
    for t in enumerate_tableaux(spec):
        u = omega1_tableau(t)
        checks += 1
        if omega1_inverse(u).rows != t.rows:
            failures.append(f"{key}: roundtrip failed for {t.to_text()!r}")
        for k, (pt, pt_omega) in enumerate(pairs):
            checks += 1
            w = weight_eval(t, pt_omega)
            sums[k] = (sums[k] + w) % cfg.prime
            if r_weight_eval(u, pt) != w:
                failures.append(f"{key}: weight identity failed for "
                                f"{t.to_text()!r}")
    # the same sums by the F_p transfer DP: enumeration is its oracle
    for k, ((_, pt_omega), total) in enumerate(zip(pairs, sums)):
        checks += 1
        if field_sum(spec, pt_omega) != total:
            failures.append(f"{key}: DP and enumeration sums differ at "
                            f"trial {k}")
    return checks, failures


def suite_omega(cfg: RunConfig) -> dict:
    instances = [lam.parts for lam in partitions_up_to(min(cfg.max_size, 4))]
    return _collect("omega", _omega_instance, instances, cfg)


# ---------------------------------------------------------------------------
# Suite: ring — base arithmetic and the operator algebra.


def _random_poly(rng, n, prime, terms=6, degree=3):
    f = SparsePoly.const(0, n, prime)
    for _ in range(terms):
        expo = tuple(rng.randrange(degree + 1) for _ in range(n))
        mono = SparsePoly.const(rng.randrange(1, prime), n, prime)
        for i, e in enumerate(expo, start=1):
            for _ in range(e):
                mono = mono * SparsePoly.var(i, n, prime)
        f = f + mono
    return f


def _ring_checks(cfg: RunConfig, unit) -> tuple[int, list[str]]:
    prime = cfg.prime
    checks, failures = 0, []
    rng = _stream(cfg.seed, "ring")

    for k in range(100):
        a, b, c = (rng.randrange(prime) for _ in range(3))
        beta = rng.randrange(prime)
        try:  # the (-) of every route: EvaluationPoint.ominus
            pt = EvaluationPoint.make(prime, beta)
            ab, bc = pt.ominus(a, b), pt.ominus(b, c)
            lhs = (ab + bc + beta * ab % prime * bc) % prime
            checks += 1
            if lhs != pt.ominus(a, c):
                failures.append(f"ominus telescoping failed at trial {k}")
        except ArithmeticError:
            continue  # unlucky denominator; identity not at stake

    for i in range(-10, 11):
        for j in range(-10, 11):
            if not prec(i, j):
                continue
            f = (i, j)
            g = omega1_factor(f)
            checks += 1
            if omega1_factor(g) != f or not prec(*g):
                failures.append(f"omega1 not an order-preserving involution "
                                f"on {f}")
            expected = {1: 2, 2: 1, 3: 3}[factor_type(f)]
            if factor_type(g) != expected:
                failures.append(f"omega1 type action wrong on {f}")

    for k in range(100):
        n = rng.randrange(2, 5)
        beta = rng.randrange(prime)
        f = _random_poly(rng, n, prime)
        i = rng.randrange(1, n)
        d = f.divided_difference(i)
        checks += 3
        if not d.divided_difference(i).is_zero():
            failures.append(f"d_i^2 != 0 at trial {k}")
        pi_f = isobaric(f, i, beta)
        if isobaric(pi_f, i, beta) != pi_f.scale(-beta):
            failures.append(f"pi_i^2 != -beta pi_i at trial {k}")
        if n >= 3:
            i = rng.randrange(1, n - 1)
            lhs = isobaric(isobaric(isobaric(f, i, beta), i + 1, beta), i, beta)
            rhs = isobaric(isobaric(isobaric(f, i + 1, beta), i, beta),
                           i + 1, beta)
            if lhs != rhs:
                failures.append(f"braid relation failed at trial {k}")
        if n >= 4:
            lhs = isobaric(isobaric(f, 1, beta), 3, beta)
            if lhs != isobaric(isobaric(f, 3, beta), 1, beta):
                failures.append(f"commutation failed at trial {k}")

    # every reduced word yields the same Grothendieck polynomial
    def words_of(v):
        if v.is_identity():
            yield ()
            return
        for i in v.descents():
            for rest in words_of(v.times_s(i)):
                yield rest + (i,)

    pt = sample_point(prime, rng, (), range(1, 4))
    for images in iter_permutations((1, 2, 3, 4)):
        w = Permutation.from_one_line(images, 1)
        v = w.inverse() * Permutation(1, (4, 3, 2, 1))
        polys = {grothendieck_poly(w, 4, pt, word=word)
                 for word in words_of(v)}
        checks += 1
        if len(polys) != 1:
            failures.append(f"word dependence for w = {images}")
    return checks, failures


def suite_ring(cfg: RunConfig) -> dict:
    checks, failures = _guarded("ring", _ring_checks, cfg, f"seed={cfg.seed}")
    return _report("ring", 100 + 441 + 100 + 24, checks, failures)


# ---------------------------------------------------------------------------
# Assembly


def _guarded(name, fn, cfg, unit):
    """fn(cfg, unit), with an exception reported as the unit's failure."""
    try:
        return fn(cfg, unit)
    except Exception as exc:  # report, keep running the other units
        return 0, [f"{name} {unit}: {type(exc).__name__}: {exc}"]


def _collect(name, fn, instances, cfg):
    """Run fn(cfg, unit) on every unit of work, in a process pool when
    cfg.jobs, the CPU count and the unit count all exceed one."""
    run = partial(_guarded, name, fn, cfg)
    workers = min(cfg.jobs, os.cpu_count() or 1, len(instances))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # on first use
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, instances))
    else:
        results = [run(key) for key in instances]
    return _report(name, len(instances), sum(c for c, _ in results),
                   [f for _, fs in results for f in fs])


def _report(name, instances, checks, failures):
    return {"suite": name, "instances": instances, "checks": checks,
            "failures": failures, "ok": not failures}


def verify_identities(suite: str, **options) -> dict:
    """Run one verification suite (or all of them) and return a report.

    The options are RunConfig's fields; a value it rejects raises
    ValueError before any instance runs.  Failures are collected, not
    raised; the report's "ok" field is true exactly when every check passed.
    """
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {SUITES + ('all',)}")
    cfg = RunConfig(**options)
    # looked up at call time, so a wrapper put on suite_<name> sees the run
    if suite == "all":
        reports = [globals()[f"suite_{s}"](cfg) for s in SUITES]
        return {"suite": "all", "suites": reports,
                "ok": all(r["ok"] for r in reports)}
    return globals()[f"suite_{suite}"](cfg)
