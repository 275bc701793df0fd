"""The benchmark's output checks accept real outputs and reject corrupted
ones: a multiplicity bumped, a factor flipped, an instance dropped, a
tableau count off by one.

    python3 -m pytest -q bench
"""

import contextlib
import copy
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from egc import cli  # noqa: E402
from egc.verify import verify_identities  # noqa: E402


def coefficient(lam, phi, rho):
    buf = io.StringIO()
    argv = ["j", "--lambda", ",".join(map(str, lam)),
            "--phi", ",".join(map(str, phi)),
            "--rho", ",".join(map(str, rho)), "--format", "json"]
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check(payload, lam, phi, rho, expect=None, code=0):
    return checks.check_coefficient(json.dumps(payload), code, lam, phi,
                                    rho, random.Random(1), expect)


INPUT = ((5, 2, 1), (4, 5, 6), (3, 2, 1))  # 640 monomials, positive flag


def test_coefficient_accepted():
    code, out = coefficient(*INPUT)
    assert check(json.loads(out), *INPUT) == []
    assert code == 0


def test_multiplicity_bumped():
    payload = json.loads(coefficient(*INPUT)[1])
    payload["monomials"][7]["mult"] += 1
    assert check(payload, *INPUT) == \
        ["symbolic and numeric values differ at a sampled point"]


def test_factor_flipped():
    payload = json.loads(coefficient(*INPUT)[1])
    factors = payload["monomials"][3]["factors"]
    factors[0] = factors[0][::-1]
    problems = check(payload, *INPUT)
    assert any("violates" in p for p in problems)
    assert problems[-1] == \
        "symbolic and numeric values differ at a sampled point"


def test_monomial_dropped():
    payload = json.loads(coefficient(*INPUT)[1])
    del payload["monomials"][0]
    assert check(payload, *INPUT) != []


def test_structure_violations():
    lam, phi, rho = (1, 1), (1, 2), (1,)
    base = {"lambda": [1, 1], "phi": [1, 2], "rho": [1],
            "normalization_beta_exp": 1}
    cases = {
        "mixes": [[1, 2], [-1, 0]],       # Type 1 with Type 2
        "appears 2 times": [[1, 2], [1, 2]],  # Type 1 twice
        "appears 3 times": [[2, 0]] * 3,  # Type 3 three times
    }
    for needle, factors in cases.items():
        payload = dict(base, monomials=[{"factors": factors, "mult": 1}])
        assert any(needle in p for p in checks.coefficient_properties(
            payload, lam, rho)), needle
    zero_mult = dict(base, monomials=[{"factors": [[2, 0]], "mult": 0}])
    assert checks.coefficient_properties(zero_mult, lam, rho)


def test_worked_coefficients():
    worked = [((2,), (1,), (1,), [[1, 2]]),
              ((1, 1), (-2, -1), (1,), [[-1, 0]]),
              ((1, 1), (1, 2), (1,), [[2, 0]])]
    for lam, phi, rho, expect in worked:
        payload = json.loads(coefficient(lam, phi, rho)[1])
        assert check(payload, lam, phi, rho, expect) == []
        wrong = copy.deepcopy(payload)
        wrong["monomials"][0]["factors"] = [expect[0][::-1]]
        assert check(wrong, lam, phi, rho, expect)
    assert check(payload, lam, phi, rho, code=1) == ["exit code 1"]


def test_evaluator_matches_definition():
    beta, ys = checks.sample_y(random.Random(3))
    p = checks.PRIME
    i, j = 2, -1
    want = beta * (ys[i] - ys[j]) * pow(1 + beta * ys[j], p - 2, p) % p
    mono = [{"factors": [[i, j], [i, j]], "mult": 3}]
    assert checks.eval_monomials(mono, beta, ys) == 3 * want * want % p


def test_instance_counts():
    assert checks.vexillary_count(4) == 23  # S_4 minus 2143
    assert checks.vexillary_count(6) == 513
    sizes = {"theorem": (3, (-1, 2)), "decompose": (2, (-1, 1)),
             "pi": (3, (-2, 2)), "omega": (3, None)}
    for suite, (max_size, flag_range) in sizes.items():
        kw = {"max_size": max_size, "trials": 1}
        if flag_range is not None:
            kw["flag_range"] = flag_range
        report = verify_identities(suite, **kw)
        assert checks.check_report(report, suite, max_size, flag_range) == []
        dropped = dict(report, instances=report["instances"] - 1)
        assert checks.check_report(dropped, suite, max_size, flag_range)
        failing = dict(report, ok=False, failures=["x"])
        assert len(checks.check_report(failing, suite, max_size,
                                       flag_range)) == 2


def test_tableau_counts():
    shapes = checks.SMALL_SHAPES
    assert checks.check_tableau_counts(shapes, checks.egc_tableau_count) == []

    def off_by_one(outer, inner, flag, sign, window):
        n = checks.egc_tableau_count(outer, inner, flag, sign, window)
        return n - 1 if outer == (2, 2) else n
    assert len(checks.check_tableau_counts(shapes, off_by_one)) == 2
