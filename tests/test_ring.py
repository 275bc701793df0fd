"""Field arithmetic, Graham monomials and sums, sparse polynomials."""

import io
import json
import random

import pytest

from egc.ring import (DEFAULT_PRIME, MILLER_RABIN_BASES, MILLER_RABIN_BOUND,
                      EvaluationError, EvaluationPoint, GrahamMonomial, GrahamSum, SparsePoly,
                      code_factor, eval_graham, factor_code, factor_sort_key,
                      factor_type, field_inv, is_prime, isobaric, ominus,
                      omega1_factor, prec, sample_point)
from egc.perms import Permutation
from egc.verify import RunConfig

P = 101


def test_is_prime():
    assert is_prime(2) and is_prime(101) and is_prime(DEFAULT_PRIME)
    assert not is_prime(1) and not is_prime(91)


def test_is_prime_matches_trial_division():
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(10**4) if is_prime(n)] == \
        [n for n in range(10**4) if by_division(n)]


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # 561 is a Carmichael number; the others are the least strong
    # pseudoprimes to the prime bases up to 7, 23 and 37, so a Miller-Rabin
    # test with fewer bases passes them
    assert not is_prime(n)
    assert not is_prime(n)  # and again, from the cache


def test_is_prime_refuses_what_it_cannot_decide():
    # the bound is 1,287,836,182,261 * 2,575,672,364,521, the least strong
    # pseudoprime to the thirteen bases 2..41: it passes every base tried,
    # so from it on the test would call composites prime
    assert MILLER_RABIN_BOUND == 1287836182261 * 2575672364521
    assert MILLER_RABIN_BASES == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                  41)
    d, s = MILLER_RABIN_BOUND - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, MILLER_RABIN_BOUND)
        assert x in (1, MILLER_RABIN_BOUND - 1) or MILLER_RABIN_BOUND - 1 in (
            pow(x, 2 ** i, MILLER_RABIN_BOUND) for i in range(1, s))
    for n in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 2, 2**89 - 1):
        for _ in range(2):  # a refusal is never cached as an answer
            with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
                is_prime(n)
    # below the bound it still decides; bound - 2 is divisible by 17
    assert not is_prime(MILLER_RABIN_BOUND - 2)


def test_composite_prime_rejected_every_time():
    for n in (91, 318665857834031151167461, MILLER_RABIN_BOUND):
        for _ in range(2):  # the second call finds is_prime's cache warm
            with pytest.raises(ValueError):
                EvaluationPoint(n, 1)
            with pytest.raises(ValueError):
                RunConfig(prime=n)


@pytest.mark.parametrize("p", [101, 2**31 - 1, DEFAULT_PRIME])
def test_field_inv_matches_fermat(p):
    rng = random.Random(p)
    for a in [1, p - 1] + [rng.randrange(1, p) for _ in range(200)]:
        assert field_inv(a, p) == pow(a, p - 2, p)
        assert field_inv(a + 3 * p, p) == field_inv(a, p)
    for zero in (0, p, -2 * p):
        with pytest.raises(EvaluationError):
            field_inv(zero, p)


def test_point_ominus_matches_ominus():
    rng = random.Random(4)
    pt = sample_point(P, rng, range(-2, 3), range(-3, 4))
    values = [0] + [v for _, v in pt.x + pt.y]
    for _ in range(2):  # the second pass reads the point's inverse table
        for a in values:
            for b in values:
                assert pt.ominus(a, b) == ominus(a, b, pt.beta, P)
    b = (P - 1) * field_inv(pt.beta, P) % P  # 1 + beta*b = 0
    for _ in range(2):
        with pytest.raises(EvaluationError):
            pt.ominus(1, b)


def test_ominus_basics():
    assert ominus(5, 5, 7, P) == 0
    assert ominus(9, 4, 0, P) == 5
    assert ominus(0, 0, 3, P) == 0


def test_ominus_telescoping():
    rng = random.Random(1)
    for _ in range(100):
        a, b, c, beta = (rng.randrange(P) for _ in range(4))
        if (1 + beta * b) % P == 0 or (1 + beta * c) % P == 0:
            continue
        ab, bc = ominus(a, b, beta, P), ominus(b, c, beta, P)
        assert (ab + bc + beta * ab * bc) % P == ominus(a, c, beta, P)


def test_ominus_rejects_zero_denominator():
    with pytest.raises(ArithmeticError):
        ominus(1, P - 1, 1, P)  # 1 + beta*b = 0


def test_field_inv():
    for a in range(1, 20):
        assert a * field_inv(a, P) % P == 1


def test_prec_order():
    assert prec(1, 2) and prec(5, -3) and prec(-1, 0)
    assert not prec(0, -1) and not prec(2, 1) and not prec(1, 1)


def test_factor_types():
    assert factor_type((1, 2)) == 1
    assert factor_type((-2, 0)) == 2
    assert factor_type((2, 0)) == 3
    with pytest.raises(ValueError):
        factor_type((2, 1))


def test_omega1_factor():
    assert omega1_factor((1, 2)) == (-1, 0)
    assert omega1_factor((2, 0)) == (1, -1)
    for i in range(-10, 11):
        for j in range(-10, 11):
            if prec(i, j):
                assert omega1_factor(omega1_factor((i, j))) == (i, j)
                assert prec(*omega1_factor((i, j)))


def test_graham_monomial_sorting():
    m = GrahamMonomial(((2, 0), (1, 2), (1, 2)))
    assert m.factors == ((1, 2), (1, 2), (2, 0))
    with pytest.raises(ValueError):
        GrahamMonomial(((2, 1),))


def test_graham_monomial_boundary():
    with pytest.raises(ValueError):  # an index the codes cannot hold
        GrahamMonomial(((1, (1 << 20) + 1),))
    with pytest.raises(ValueError):
        factor_code((-(1 << 20), 0))
    with pytest.raises(ValueError):  # out of the order 1 < 2 < ... < 0
        GrahamMonomial(((0, -1),))


def test_factor_codes_sort_canonically():
    factors = [(i, j) for i in range(-6, 7) for j in range(-6, 7)
               if prec(i, j)] + [(1 - (1 << 20), 0), (1, 1 << 20),
                                 (1 << 20, 1 - (1 << 20))]
    by_code = sorted(factors, key=factor_code)
    assert by_code == sorted(factors, key=factor_sort_key)
    for f in factors:
        assert code_factor(factor_code(f)) == f


def gsum(monomials, beta_exp=0):
    """The sum of {factors: multiplicity}, times beta^beta_exp."""
    return GrahamSum({GrahamMonomial(f).key: c for f, c in monomials.items()},
                     beta_exp)


def dumped(s, norm, extra):
    out = io.StringIO()
    s.to_json(norm, extra, out)
    return out.getvalue()


def test_graham_sum_product_and_shift():
    a = gsum({((1, 2),): 1})
    b = gsum({((2, 0),): 2}, 1)
    prod = a * b
    ((mono, coeff),) = prod.canonical()
    assert mono.factors == ((1, 2), (2, 0))
    assert prod.beta_exp == 1 and coeff == 2
    assert (prod * GrahamSum.one()).beta_exp == 1
    assert (prod * b).beta_exp == 2


JSON_EXTRA = {"lambda": [2, 1], "phi": [-1, 2], "rho": [], "nu": None,
              "q": 1, "case": "both"}


@pytest.mark.parametrize("monomials", [
    {},  # the zero sum
    {(): 1},  # the constant monomial
    {((1, 2), (1, 2)): 2, ((2, 0),): 5},  # multiplicities above 1
    {((1, 3), (-2, 0), (4, -1)): 1, ((-5, -3), (2, -7)): 7, (): 3,
     ((-1, 0),): 1},  # all three types, negative indices
    {((1, k),): k for k in range(2, 9000)},  # more than one written chunk
])
@pytest.mark.parametrize("extra", [{}, JSON_EXTRA])
def test_graham_sum_json_matches_dumps(monomials, extra):
    s = gsum(monomials)
    payload = {"normalization_beta_exp": 3, "monomials": [
        {"factors": [list(f) for f in m.factors], "mult": c}
        for m, c in s.canonical()], **extra}
    assert dumped(s, 3, extra) == json.dumps(payload, indent=1)


def test_eval_graham():
    assert eval_graham(GrahamSum.zero(), _pt()) == 0
    assert eval_graham(GrahamSum.one(), _pt()) == 1
    s = gsum({((1, 2),): 1})
    pt = EvaluationPoint.make(P, 1, {}, {1: 3, 2: 1})
    assert eval_graham(s, pt) == 1  # 1*(3-1)/(1+1)
    # beta^-1 times beta*(y_1 (-) y_2), at beta = 2: 2*(3-1)/(1+2)/2
    s = gsum({((1, 2),): 1}, -1)
    pt = EvaluationPoint.make(P, 2, {}, {1: 3, 2: 1})
    assert eval_graham(s, pt) == 2 * field_inv(3, P) % P


def _pt():
    return EvaluationPoint.make(P, 1, {}, {1: 3, 2: 1})


def test_evaluation_point():
    pt = EvaluationPoint.make(P, 2, {1: 5, -1: 7}, {0: 3})
    assert pt.x_val(1) == 5 and pt.x_val(2) == 0
    assert pt.y_val(0) == 3 and pt.y_val(9) == 0
    assert pt.x_support == frozenset({1, -1})
    sub = pt.with_x_to_y()
    assert sub.x_val(0) == 3 and sub.x_val(1) == 0


def test_evaluation_point_omega1():
    pt = EvaluationPoint.make(P, 2, {1: 5}, {0: 3, 2: 4})
    w = pt.omega1()
    assert w.x_val(0) == ominus(0, 5, 2, P)
    assert w.y_val(1) == ominus(0, 3, 2, P)
    assert w.omega1() == pt


def test_derived_points_match_the_checked_constructor():
    # with_x_to_y, its x_i := y_{sigma(i)} form (the pi suite's chain
    # points) and omega1 skip the constructor's sorting and checks; each
    # must build the point the constructor builds, with the same (-)
    rng = random.Random(21)
    for prime in (P, DEFAULT_PRIME):
        for _ in range(40):
            pt = sample_point(prime, rng, range(-3, 4), range(-4, 6))
            images = list(range(-4, 8))
            rng.shuffle(images)
            sigma, n = Permutation.from_one_line(images, -4), rng.randrange(8)
            x, y, beta = dict(pt.x), dict(pt.y), pt.beta
            expected = [
                (pt.with_x_to_y(), EvaluationPoint(prime, beta, pt.y, pt.y)),
                (pt.with_x_to_y(sigma, n), EvaluationPoint.make(
                    prime, beta, {i: pt.y_val(sigma(i))
                                  for i in range(1, n + 1)}, y)),
                (pt.omega1(), EvaluationPoint.make(
                    prime, beta,
                    {1 - i: ominus(0, v, beta, prime) for i, v in x.items()},
                    {1 - j: ominus(0, v, beta, prime) for j, v in y.items()}))]
            for derived, checked in expected:
                assert derived == checked
                assert (derived.x, derived.y) == (checked.x, checked.y)
                assert [(derived.x_val(i), derived.y_val(i))
                         for i in range(-8, 10)] == \
                    [(checked.x_val(i), checked.y_val(i))
                     for i in range(-8, 10)]
                a = rng.randrange(prime)
                for b in (v for _, v in checked.x + checked.y):
                    assert derived.ominus(a, b) == checked.ominus(a, b) == \
                        ominus(a, b, beta, prime)


def test_sample_point_distinct():
    rng = random.Random(0)
    pt = sample_point(P, rng, range(-2, 3), (1, 2), distinct_x=True)
    vals = [pt.x_val(i) for i in range(-2, 3)]
    assert len(set(vals)) == 5 and 0 not in vals


def test_divided_difference_fixtures():
    x1 = SparsePoly.var(1, 2, P)
    x2 = SparsePoly.var(2, 2, P)
    one = SparsePoly.const(1, 2, P)
    assert x1.divided_difference(1) == one
    assert (x1 * x2).divided_difference(1).is_zero()
    assert (x1 * x1).divided_difference(1) == x1 + x2
    d = (x1 * x1 * x2).divided_difference(1)
    assert d.divided_difference(1).is_zero()


def test_isobaric_fixtures():
    one = SparsePoly.const(1, 2, P)
    beta = 7
    assert isobaric(one, 1, beta) == one.scale(-beta)
    rng = random.Random(2)
    f = SparsePoly.var(1, 3, P) * SparsePoly.var(1, 3, P) \
        + SparsePoly.var(2, 3, P).scale(rng.randrange(1, P))
    pi_f = isobaric(f, 1, beta)
    assert isobaric(pi_f, 1, beta) == pi_f.scale(-beta)
    lhs = isobaric(isobaric(isobaric(f, 1, beta), 2, beta), 1, beta)
    rhs = isobaric(isobaric(isobaric(f, 2, beta), 1, beta), 2, beta)
    assert lhs == rhs
