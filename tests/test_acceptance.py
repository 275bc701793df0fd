"""End-to-end acceptance checks, one test per criterion.

Each test states its tolerance (exact equality unless noted) and its
runtime budget.  Expensive suite reports are computed once per session and
shared between the criteria that read them.
"""

import json
import time
from functools import lru_cache
from pathlib import Path

from egc.grothendieck import backstable_approx, g_eval
from egc.perms import Permutation, code_shape_flag
from egc.pipeline import j_coefficient, j_numeric, pi_chain, unique_nu
from egc.ring import (DEFAULT_PRIME, EvaluationPoint, GrahamMonomial,
                      GrahamSum, eval_graham, sample_point)
from egc.shapes import (DeltaSeq, Flag, Partition, SkewShape,
                        compatible_flags, delta_seq, diagonal_split,
                        flags_equivalent, psi_flag)
from egc.verify import partitions_up_to, verify_identities

import random

P = DEFAULT_PRIME
FIXTURES = Path(__file__).parent / "fixtures"

_wall = {}


def _timed_report(key, name, **kwargs):
    start = time.perf_counter()
    report = verify_identities(name, **kwargs)
    _wall[key] = time.perf_counter() - start
    return report


@lru_cache(maxsize=None)
def decompose_bijection_report():
    # trials=0 keeps the exhaustive split/merge bijection and count checks
    # while skipping the sampled numeric identities
    return _timed_report("bijection", "decompose", trials=0, max_size=4,
                         flag_range=(-2, 3), window=(-3, 3))


@lru_cache(maxsize=None)
def decompose_full_report():
    return _timed_report("decompose", "decompose", trials=5, max_size=5,
                         flag_range=(-3, 3), window=(-3, 3))


@lru_cache(maxsize=None)
def pi_report():
    return _timed_report("pi", "pi", trials=5, max_size=5)


@lru_cache(maxsize=None)
def omega_report():
    return _timed_report("omega", "omega", trials=5, max_size=5)


@lru_cache(maxsize=None)
def theorem_report():
    return _timed_report("theorem", "theorem", trials=5, max_size=5,
                         flag_range=(-3, 3))


def best_of_three(fn):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_criterion_1_shift_algorithm_fixture():
    lam = Partition((4, 4, 4, 4, 4, 2, 1))
    phi = Flag((3, 4, 4, 5, 6, 6, 8))

    def compute():  # pi_chain uncached, so the budget times the derivation
        return (psi_flag(lam, phi), delta_seq(lam, phi),
                pi_chain.__wrapped__(lam, phi)[1])

    psi, delta, seq = compute()
    assert psi == Flag((-3, -2, -1, 0, 1, 4, 6))
    assert delta == DeltaSeq((6, 6, 5, 5, 5, 2, 2))
    assert seq[5].one_line(1, 8) == (6, 1, 2, 3, 4, 5, 7, 8)
    assert seq[6].one_line(1, 8) == (6, 3, 4, 5, 1, 2, 7, 8)
    assert seq[7].one_line(1, 8) == (6, 3, 4, 5, 7, 8, 1, 2)
    assert best_of_three(compute) < 1e-3


def test_criterion_2_vexillary_data_fixture():
    w = Permutation.from_one_line((3, 4, 5, 1, 6, 2), 1)

    def compute():
        return code_shape_flag(w)

    csf = compute()
    assert w.is_vexillary()
    assert csf.shape == Partition((2, 2, 2, 1))
    assert csf.flag == Flag((3, 3, 3, 5))
    assert flags_equivalent(csf.shape, csf.flag, Flag((1, 2, 3, 5)))
    assert best_of_three(compute) < 1e-3


def test_criterion_3_unique_middle_partition_fixtures():
    lam = Partition((7, 4, 2, 2, 1))

    def compute():
        return (unique_nu(lam, Flag((-1, 0, 1, 2, 4)),
                          Partition((5, 4, 2, 1, 1))),
                unique_nu(lam, Flag((-2, -1, 1, 2, 3)),
                          Partition((4, 2, 2, 1))))

    first, second = compute()
    assert first == Partition((7, 4, 2, 1, 1))
    assert second == Partition((7, 4, 2, 1))
    assert best_of_three(compute) < 1e-3


def test_criterion_4_decomposition_bijection():
    report = decompose_bijection_report()
    assert report["failures"] == []
    assert report["ok"] and report["checks"] > 0
    assert _wall["bijection"] <= 60


def test_criterion_5_identity_suites():
    reports = [decompose_full_report(), pi_report(), omega_report(),
               theorem_report()]
    for report in reports:
        assert report["failures"] == [], report["suite"]

    # diagonal factorization: a diagonal-free skew sum is the product of
    # its strictly-upper and strictly-lower parts
    start = time.perf_counter()
    rng = random.Random(5)
    cases = [((2, 1, 1), (1,), (2, 2, 3)), ((3, 1), (1,), (1, 2)),
             ((3, 2, 1), (2, 2), (1, 2, 3))]
    for parts, inner, bounds in cases:
        shape = SkewShape(Partition(parts), Partition(inner))
        upper, lower = diagonal_split(shape)
        phi = Flag(bounds)
        for _ in range(5):
            pt = sample_point(P, rng, (), range(-2, 5)).with_x_to_y()
            whole = g_eval(shape, phi, "positive", pt)
            up = g_eval(upper, phi, "positive", pt)
            down = g_eval(lower, phi, "positive", pt)
            assert whole == up * down % P
    extra = time.perf_counter() - start

    total = sum(_wall[n] for n in ("decompose", "pi", "omega", "theorem"))
    assert total + extra <= 300


def test_criterion_6_coefficient_structure_sweep():
    report = theorem_report()
    assert report["failures"] == []
    assert report["ok"] and report["instances"] > 400


def test_criterion_7_operator_algebra():
    report = verify_identities("ring")
    assert report["failures"] == []
    assert report["ok"] and report["checks"] >= 100


def test_criterion_8_backstable_sweep_fixture():
    payload = json.loads((FIXTURES / "gvex_sweep.json").read_text())
    prime, n = payload["prime"], payload["n"]
    points = [EvaluationPoint.make(
        prime, rec["beta"],
        {int(k): v for k, v in rec["x"].items()},
        {int(k): v for k, v in rec["y"].items()})
        for rec in payload["points"]]
    assert len(payload["instances"]) > 500
    for rec in payload["instances"]:
        inst = rec["instance"]
        w = Permutation.from_one_line(tuple(inst["oneline"]), inst["base"]) \
            if inst["oneline"] else Permutation.identity()
        shape = SkewShape(Partition(tuple(inst["shape"])))
        flag = Flag(tuple(inst["flag"]))
        window = tuple(rec["window"])
        assert rec["p0"] >= 1  # per-instance recorded shift
        for pt, expect in zip(points, rec["values"]):
            lhs = backstable_approx(w, rec["p0"], pt, n=n)
            rhs = g_eval(shape, flag, "any", pt, window)
            assert lhs == expect and rhs == expect


def test_criterion_9_worked_coefficients_and_beta_zero():
    fixtures = [(((2,), (1,), (1,)), ((1, 2),)),
                (((1, 1), (-2, -1), (1,)), ((-1, 0),)),
                (((1, 1), (1, 2), (1,)), ((2, 0),))]
    rng = random.Random(21)
    for (parts, bounds, rparts), factors in fixtures:
        lam, phi, rho = Partition(parts), Flag(bounds), Partition(rparts)
        j = j_coefficient(lam, phi, rho)
        assert j == GrahamSum({GrahamMonomial(factors).key: 1})
        for _ in range(5):
            pt = sample_point(P, rng, (), range(-4, 5))
            lhs = eval_graham(j, pt)
            rhs = pow(pt.beta, lam.size - rho.size, P) \
                * j_numeric(lam, phi, rho, pt) % P
            assert lhs == rhs

    # at beta=0 with |rho| = |lam| the coefficient collapses to the
    # empty-monomial constant: 1 at rho = lam, 0 elsewhere
    empty = GrahamMonomial(())
    for lam in partitions_up_to(5):
        peers = [rho for rho in partitions_up_to(lam.size)
                 if rho.size == lam.size]
        for phi in compatible_flags(lam, -3, 3):
            for rho in peers:
                j = j_coefficient(lam, phi, rho)
                constant = dict(j.canonical()).get(empty, 0)
                assert constant == (1 if rho == lam else 0)
