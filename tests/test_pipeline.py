"""The coefficient pipeline: unique middle partition, the value-shifting
algorithm, and the j-coefficients with their numeric cross-check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egc import pipeline
from egc.grothendieck import g_eval
from egc.perms import Permutation, all_vexillary, code_shape_flag
from egc.pipeline import (build_context, contexts, flag_record, half_sum,
                          j_coefficient, j_minus, j_numeric,
                          j_of_permutation, j_plus, pi_chain, unique_nu)
from egc.ring import (DEFAULT_PRIME, GrahamMonomial, GrahamSum, add_terms,
                      eval_graham, factor_code, mul_terms, omega1_factor,
                      sample_point)
from egc.shapes import (Flag, Partition, SkewShape, compatible_flags,
                        diagonal_split, disconnected_inners, is_compatible,
                        normal_flag, q_of, subpartitions)
from egc.tableaux import EnumSpec, enumerate_tableaux
from egc.verify import partitions_up_to, verify_identities

P = DEFAULT_PRIME


def mono(*factors):
    return GrahamMonomial(tuple(factors))


def gsum(monomials, beta_exp=0):
    return GrahamSum({m.key: c for m, c in monomials.items()}, beta_exp)


def test_q_of():
    assert q_of(Partition(())) == 0
    assert q_of(Partition((1,))) == 1
    assert q_of(Partition((4, 4, 4, 4, 4, 2, 1))) == 4


def test_unique_nu_fixtures():
    lam = Partition((7, 4, 2, 2, 1))
    assert unique_nu(lam, Flag((-1, 0, 1, 2, 4)),
                     Partition((5, 4, 2, 1, 1))) == Partition((7, 4, 2, 1, 1))
    assert unique_nu(lam, Flag((-2, -1, 1, 2, 3)),
                     Partition((4, 2, 2, 1))) == Partition((7, 4, 2, 1))
    assert unique_nu(Partition((1,)), Flag((0,)), Partition(())) is None


def test_unique_nu_zero_row():
    # a cell in a zero-flag row kills the coefficient
    assert unique_nu(Partition((2, 1)), Flag((0, 1)),
                     Partition((1, 1))) is None


def test_pi_algorithm_fixture():
    lam = Partition((4, 4, 4, 4, 4, 2, 1))
    seq = pi_chain(lam, Flag((3, 4, 4, 5, 6, 6, 8)))[1]
    assert seq[5].one_line(1, 8) == (6, 1, 2, 3, 4, 5, 7, 8)
    assert seq[6].one_line(1, 8) == (6, 3, 4, 5, 1, 2, 7, 8)
    assert seq[7].one_line(1, 8) == (6, 3, 4, 5, 7, 8, 1, 2)


def test_pi_algorithm_literal_flag():
    # with the flag value 6 in the last row the final step has no room to
    # move anything, so pi_7 repeats pi_6
    lam = Partition((4, 4, 4, 4, 4, 2, 1))
    seq = pi_chain(lam, Flag((3, 4, 4, 5, 6, 6, 6)))[1]
    assert seq[5].one_line(1, 8) == (6, 1, 2, 3, 4, 5, 7, 8)
    assert seq[6].one_line(1, 8) == (6, 3, 4, 5, 1, 2, 7, 8)
    assert seq[7] == seq[6]


def test_pi_algorithm_small():
    psi, seq = pi_chain(Partition((1, 1)), Flag((1, 2)))
    assert psi == Flag((0, 1))
    assert seq[0] == Permutation.identity()
    assert seq[2].one_line(1, 3) == (2, 1, 3)
    trivial = pi_chain(Partition((2, 1)), Flag((0, 0)))[1]
    assert all(p == Permutation.identity() for p in trivial)


def test_j_plus_fixtures():
    # raw building blocks carry the pre-normalization beta shift
    assert j_plus(Partition((2,)), Flag((1,)), Partition((1,))) == \
        gsum({mono((1, 2)): 1}, -1)
    assert j_plus(Partition((1, 1)), Flag((1, 2)), Partition((1,))) == \
        gsum({mono((2, 0)): 1}, -1)
    assert j_plus(Partition((1,)), Flag((1,)), Partition((1,))) == \
        GrahamSum.one()


def _j_plus_by_inner_shapes(lam, phi_plus, nu):
    """j_plus as a sum over whole inner shapes: for each mu <= nu with nu/mu
    disconnected, skip lambda/mu if it has a diagonal cell or a cell in a
    row where phi_+ is 0, else cut it with diagonal_split and multiply the
    half sum above the diagonal by the one below."""
    psi, pis = pi_chain(lam, phi_plus)
    total = {}
    for mu in disconnected_inners(nu):
        shape = SkewShape(lam, mu)
        if shape.props.has_diagonal_cell or any(
                phi_plus.entry(r) == 0 for r in shape.props.rows_occupied):
            continue
        upper, lower = diagonal_split(shape)
        total = add_terms(total, mul_terms(
            half_sum(upper, phi_plus, lambda m, d: factor_code((m, m + d))),
            half_sum(lower, psi,
                     lambda m, d: factor_code((pis[-1](m), m + d)))))
    return GrahamSum(total, nu.size - lam.size)


def test_j_plus_matches_sum_over_inner_shapes():
    """The product of two part sums equals the sum over whole inner shapes:
    on every (lambda, phi_+, nu) with |lambda| <= 5, phi_+ in [0, 4] and
    any nu <= lambda (diagonal cells and zero rows included), and on every
    half the theorem sweep meets at |lambda| <= 5 with flags in [-3, 3]."""
    triples = {(lam, phi, nu) for lam in partitions_up_to(5)
               for phi in compatible_flags(lam, 0, 4)
               for nu in subpartitions(lam)}
    halves = set()
    for lam in partitions_up_to(5):
        for phi in compatible_flags(lam, -3, 3):
            for _, ctx in contexts(lam, phi):
                if ctx.nu is not None:
                    halves |= {ctx.upper, ctx.lower}
    assert (len(triples), len(halves)) == (1974, 801)
    for case in triples | halves:
        assert j_plus(*case) == _j_plus_by_inner_shapes(*case), case


def test_j_minus_fixtures():
    # j_minus takes the conjugate half (nu', xi, rho') of build_context
    assert j_minus(Partition((2,)), Flag((1,)), Partition((1,))) == \
        gsum({mono((-1, 0)): 1}, -1)
    # the self-coefficient keeps a 1 plus honest beta-degree corrections
    assert j_minus(Partition((2, 1)), Flag((0, 1)), Partition((2, 1))) == \
        gsum({mono(): 1, mono((1, 0)): 1})
    assert j_minus(Partition((1,)), Flag((0,)), Partition((1,))) == \
        GrahamSum.one()
    ctx = build_context(Partition((1, 1)), Flag((-2, -1)), Partition((1,)))
    assert ctx.lower == (Partition((2,)), Flag((1,)), Partition((1,)))


def test_j_minus_is_omega1_of_j_plus_on_every_lower_half():
    """On every lower half with |λ| <= 4 and flags in [-3, 3], j_minus is
    j_plus's sum with each factor mapped by omega1_factor."""
    lowers = {ctx.lower for lam in partitions_up_to(4)
              for phi in compatible_flags(lam, -3, 3)
              for _, ctx in contexts(lam, phi) if ctx.nu is not None}
    assert len(lowers) == 186
    for half in lowers:
        inner = j_plus(*half)
        expected = {GrahamMonomial(map(omega1_factor,
                                       GrahamMonomial.of_key(k).factors)).key: c
                    for k, c in inner.terms.items()}
        assert j_minus(*half) == GrahamSum(expected, inner.beta_exp), half


def test_j_coefficient_fixtures():
    assert j_coefficient(Partition((2,)), Flag((1,)), Partition((1,))) == \
        gsum({mono((1, 2)): 1})
    assert j_coefficient(Partition((1, 1)), Flag((-2, -1)),
                         Partition((1,))) == gsum({mono((-1, 0)): 1})
    assert j_coefficient(Partition((1, 1)), Flag((1, 2)),
                         Partition((1,))) == gsum({mono((2, 0)): 1})
    assert j_coefficient(Partition((1,)), Flag((0,)),
                         Partition(())).is_zero()
    assert j_coefficient(Partition((2,)), Flag((1,)), Partition((2,))) == \
        gsum({mono(): 1, mono((1, 2)): 1})


# The conjugate flag xi_flag(nu, phi_minus) read raw is incompatible with nu'
# on each of these; the first three are also rungs of the bench ladder.
INCOMPATIBLE_XI = [((5, 3), (-4, -1), (5, 3)),
                   ((6, 3), (-7, -4), (5, 3)),
                   ((5, 3, 1), (-5, -2, -1), (4, 3, 1)),
                   ((5, 3, 1), (-4, -1, 2), (5, 2, 1)),
                   ((7, 3), (-6, -3), (4, 2))]


def _agrees_with_numeric(lam, phi, rho, rng) -> bool:
    pt = sample_point(P, rng, (), range(-len(lam) - 8, lam.part(1) + 8))
    rhs = pow(pt.beta, lam.size - rho.size, P) \
        * j_numeric(lam, phi, rho, pt) % P
    return eval_graham(j_coefficient(lam, phi, rho), pt) == rhs


@pytest.mark.parametrize("parts,bounds,rparts", INCOMPATIBLE_XI)
def test_incompatible_conjugate_flag_regression(parts, bounds, rparts):
    rng = random.Random(f"{parts}/{bounds}/{rparts}")
    assert _agrees_with_numeric(Partition(parts), Flag(bounds),
                                Partition(rparts), rng)


def test_theorem_sweep_nonpositive_flags():
    # 1764 (lambda, phi, rho) with flags down to -5; 70 of them gave a
    # wrong coefficient while the conjugate flag could be incompatible
    rng = random.Random(3)
    instances = wrong = 0
    for parts in ((5, 3), (5, 3, 1)):
        lam = Partition(parts)
        for phi in compatible_flags(lam, -5, 0):
            for rho, _ in contexts(lam, phi):
                instances += 1
                if not _agrees_with_numeric(lam, phi, rho, rng):
                    wrong += 1
    assert (instances, wrong) == (1764, 0)


def test_positive_machinery_requires_compatible_flag():
    lam, phi = Partition((2, 2, 2, 1, 1)), Flag((1, 1, 1, 4, 4))
    with pytest.raises(ValueError, match="compatible"):
        pi_chain(lam, phi)
    with pytest.raises(ValueError, match="compatible"):
        j_plus(lam, phi, Partition((2, 2, 2, 1, 1)))
    with pytest.raises(ValueError, match="flag length"):
        j_plus(Partition((2, 1)), Flag((1,)), Partition((1,)))


def test_j_coefficient_rho_not_contained():
    lam, phi, rho = Partition((2,)), Flag((1,)), Partition((1, 1))
    ctx = build_context(lam, phi, rho)
    assert (ctx.case, ctx.nu) == ("zero", None)
    assert j_coefficient(lam, phi, rho).is_zero()
    pt = sample_point(P, random.Random(3), (), range(-3, 4))
    assert j_numeric(lam, phi, rho, pt) == 0
    with pytest.raises(ValueError, match="not contained"):
        unique_nu(lam, phi, rho)


def test_incompatible_flag_refused_even_when_rho_not_contained():
    lam, phi, rho = Partition((1, 1)), Flag((1, 5)), Partition((2,))
    pt = sample_point(P, random.Random(3), (), range(-3, 4))
    for call in (lambda: build_context(lam, phi, rho),
                 lambda: unique_nu(lam, phi, rho),
                 lambda: j_coefficient(lam, phi, rho),
                 lambda: j_numeric(lam, phi, rho, pt)):
        with pytest.raises(ValueError, match="compatible"):
            call()


def test_theorem_suite_derives_nu_and_xi_once_per_triple(monkeypatch):
    """The theorem suite decides each (λ, φ) once: is_compatible(λ, φ)
    runs in flag_record, once per instance, and otherwise only as the one
    per-ρ check of (ν, φ₋); ν and ξ are derived once per (λ, φ, ρ)."""
    records: dict[tuple, object] = {}
    calls = {"xi": 0, "compatible": 0}
    real_context, real_xi, real_compatible = \
        pipeline.build_context, pipeline.xi_flag, pipeline.is_compatible

    def context(lam, phi, rho):
        records[lam, phi, rho] = real_context(lam, phi, rho)
        return records[lam, phi, rho]

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    flag_record.cache_clear()
    build_context.cache_clear()
    monkeypatch.setattr(pipeline, "build_context", context)
    monkeypatch.setattr(pipeline, "xi_flag", counted("xi", real_xi))
    monkeypatch.setattr(pipeline, "is_compatible",
                        counted("compatible", real_compatible))
    report = verify_identities("theorem", max_size=3, trials=3)
    assert report["ok"] and records
    instances = {(lam, phi) for lam, phi, _ in records}
    nonzero = sum(1 for c in records.values() if c.nu is not None)
    assert flag_record.cache_info().misses == len(instances) \
        == report["instances"]
    assert calls["compatible"] == len(instances) + nonzero
    assert real_context.cache_info().misses == len(records)
    assert calls["xi"] == nonzero


def test_theorem_suite_derives_each_pi_chain_once(monkeypatch):
    halves: set[tuple] = set()
    j_plus_calls = 0
    real_chain, real_j_plus = pipeline.pi_chain, pipeline.j_plus

    def chain(lam, phi):
        halves.add((lam, phi))
        return real_chain(lam, phi)

    def upper(lam, phi_plus, nu):
        nonlocal j_plus_calls
        j_plus_calls += 1
        return real_j_plus(lam, phi_plus, nu)

    real_chain.cache_clear()
    j_plus.cache_clear()  # a warm cache would never reach the patch
    j_minus.cache_clear()
    monkeypatch.setattr(pipeline, "pi_chain", chain)
    monkeypatch.setattr(pipeline, "j_plus", upper)
    report = verify_identities("theorem", max_size=3, trials=3)
    assert report["ok"] and halves
    assert real_chain.cache_info().misses == len(halves) < j_plus_calls


def test_pi_chain_result_is_immutable():
    lam, phi = Partition((4, 4, 4, 4, 4, 2, 1)), Flag((3, 4, 4, 5, 6, 6, 8))
    psi, seq = chain = pi_chain(lam, phi)
    assert pi_chain(lam, phi) is chain
    assert isinstance(chain, tuple) and isinstance(seq, tuple)
    with pytest.raises(TypeError):
        seq[1] = seq[0]
    with pytest.raises(AttributeError):
        psi.bounds = ()
    with pytest.raises(AttributeError):
        seq[7].images = ()
    assert seq[7].one_line(1, 8) == (6, 3, 4, 5, 7, 8, 1, 2)


def test_j_of_permutation():
    assert j_of_permutation(Permutation.s(0), Partition((1,))) == \
        GrahamSum.one()
    with pytest.raises(ValueError):  # not vexillary
        j_of_permutation(Permutation.from_word((1, 2, -1, 0)),
                         Partition((1,)))
    # the code flag (2,5,5) of 142563 is incompatible with its shape
    # (2,1,1); its normal form (2,4,5) is compatible
    assert j_of_permutation(Permutation.from_one_line((1, 4, 2, 5, 6, 3), 1),
                            Partition((1,))) == \
        j_coefficient(Partition((2, 1, 1)), Flag((2, 4, 5)), Partition((1,)))


def test_j_of_permutation_on_the_gvex_sweep():
    # every vexillary w with support in [-2, 3] gets a coefficient; where
    # its code flag is incompatible, the normal form that replaces it
    # bounds the same tableaux, so the flagged function is unchanged
    rng, incompatible = random.Random("j_of_permutation"), 0
    for w in all_vexillary(-2, 3):
        csf = code_shape_flag(w)
        lam, raw = csf.shape, csf.flag
        for rho in (Partition(()), Partition(lam.parts[:1])):
            j_of_permutation(w, rho)
        if is_compatible(lam, raw):
            continue
        incompatible += 1
        norm = normal_flag(lam, raw)
        pt = sample_point(P, rng, range(-8, 9), range(-8, 9))
        assert g_eval(SkewShape(lam), raw, "any", pt) == \
            g_eval(SkewShape(lam), norm, "any", pt)
    assert incompatible == 28


def test_build_context_cases():
    ctx = build_context(Partition((7, 4, 2, 2, 1)), Flag((-1, 0, 1, 2, 4)),
                        Partition((5, 4, 2, 1, 1)))
    assert ctx.q == 2
    assert ctx.nu == Partition((7, 4, 2, 1, 1))
    assert ctx.case == "both"
    zero = build_context(Partition((1,)), Flag((0,)), Partition(()))
    assert zero.case == "zero"
    # the diagonal cell (1,1) alone makes it zero: phi_1 is not 0
    diagonal = build_context(Partition((1,)), Flag((1,)), Partition(()))
    assert (diagonal.case, diagonal.nu) == ("zero", None)


def test_cross_representation():
    rng = random.Random(17)
    cases = [((2,), (1,), (1,)), ((2, 1), (-1, 1), (1,)),
             ((2, 2), (1, 2), (2, 1)), ((1, 1), (-2, -1), ()),
             ((3, 1), (-3, 0), (1, 1))]
    for parts, bounds, rparts in cases:
        lam, phi, rho = Partition(parts), Flag(bounds), Partition(rparts)
        j = j_coefficient(lam, phi, rho)
        for _ in range(3):
            pt = sample_point(P, rng, (), range(-6, 8))
            lhs = eval_graham(j, pt)
            rhs = pow(pt.beta, lam.size - rho.size, P) \
                * j_numeric(lam, phi, rho, pt) % P
            assert lhs == rhs


def test_shared_memo_matches_fresh_calls():
    """The cached j_plus and j_minus, filled from empty by every half of
    each (λ, φ, ρ) with |λ| <= 3 and flags in [-2, 2], give what their
    uncached bodies give: each is kept under all that it reads."""
    j_plus.cache_clear()
    j_minus.cache_clear()
    calls = 0
    for lam in partitions_up_to(3):
        for phi in compatible_flags(lam, -2, 2):
            for _, ctx in contexts(lam, phi):
                if ctx.nu is None:
                    continue
                for half, args in ((j_plus, ctx.upper), (j_minus, ctx.lower)):
                    calls += 1
                    assert half(*args) == half.__wrapped__(*args)
    assert j_plus.cache_info().hits and j_minus.cache_info().hits
    assert j_plus.cache_info().misses + j_minus.cache_info().misses < calls


def test_half_caches_stay_bounded():
    """A run with more distinct halves than the caches hold keeps each at
    HALF_CACHE_SIZE sums."""
    j_plus.cache_clear()
    j_minus.cache_clear()
    uppers, lowers = set(), set()
    for lam in partitions_up_to(4):
        for phi in compatible_flags(lam, -3, 3):
            for rho, ctx in contexts(lam, phi):
                if ctx.nu is not None:
                    j_coefficient(lam, phi, rho)
                    uppers.add(ctx.upper)
                    lowers.add(ctx.lower)
    assert min(len(uppers), len(lowers)) > pipeline.HALF_CACHE_SIZE
    for half in (j_plus, j_minus):
        info = half.cache_info()
        assert info.maxsize == pipeline.HALF_CACHE_SIZE >= info.currsize


def test_j_coefficient_result_is_a_fresh_sum():
    """Changing a returned coefficient leaves the cached halves, and so
    the next call's result, as they were."""
    lam, phi = Partition((2, 1, 1)), Flag((-1, 1, 2))  # both halves > 1 term
    first = j_coefficient(lam, phi, lam)
    expected = GrahamSum(first.terms, first.beta_exp)
    assert len(first.terms) == 8
    first.terms.clear()
    first.terms[(factor_code((1, 2)),)] = 5
    first.beta_exp = 3
    assert j_coefficient(lam, phi, lam) == expected


def test_structure_all_positive_types():
    # the self-coefficient of 345162: unit multiplicities, Type 3 only
    w = Permutation.from_one_line((3, 4, 5, 1, 6, 2), 1)
    csf = code_shape_flag(w)
    j = j_coefficient(csf.shape, csf.flag, csf.shape)
    assert not j.is_zero() and j.beta_exp == 0
    for m, c in j.canonical():
        assert c >= 1


@st.composite
def coefficient_inputs(draw, max_size=8, lo=-7, hi=7):
    """(lambda, phi, rho) with phi compatible with lambda, drawn row by row:
    phi_{i+1} - phi_i lies in [0, lambda_i - lambda_{i+1} + 1]."""
    lam = draw(st.sampled_from(partitions_up_to(max_size)))
    bounds = [draw(st.integers(lo, hi))]
    for i in range(1, len(lam)):
        step = lam.part(i) - lam.part(i + 1) + 1
        bounds.append(draw(st.integers(bounds[-1],
                                       min(hi, bounds[-1] + step))))
    rho = draw(st.sampled_from(list(subpartitions(lam))))
    return lam, Flag(tuple(bounds)), rho


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=coefficient_inputs(), seed=st.integers(0, 2**32))
def test_symbolic_matches_numeric_property(case, seed):
    lam, phi, rho = case
    pt = sample_point(P, random.Random(seed), (),
                      range(min(phi) - len(lam) - 1,
                            max(phi) + lam.part(1) + 2))
    norm = pow(pt.beta, lam.size - rho.size, P)
    assert eval_graham(j_coefficient(lam, phi, rho), pt) == \
        norm * j_numeric(lam, phi, rho, pt) % P


def _fold_tableaux(shape, flag, image):
    """The half sum by enumeration: one factor multiset (image(i), i+c-r)
    per positive tableau, as j_plus folded tableaux into monomials."""
    out = {}
    spec = EnumSpec(shape, flag, "positive", (1, max([1, *flag.bounds])))
    for t in enumerate_tableaux(spec):
        key = tuple(sorted((image(i), i + c - r) for (r, c), cell in t.cells()
                           for i in cell))
        out[key] = out.get(key, 0) + 1
    return out


SKEW_4 = [SkewShape(lam, mu) for lam in partitions_up_to(6)
          for mu in subpartitions(lam) if lam.size - mu.size <= 4]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(shape=st.sampled_from(SKEW_4),
       bounds=st.lists(st.integers(0, 3), min_size=6, max_size=6),
       images=st.permutations((1, 2, 3)))
def test_half_sum_matches_enumeration_property(shape, bounds, images):
    """The transfer DP over factor multisets equals the enumeration fold,
    under the identity and under a permutation of the values."""
    flag = Flag(tuple(sorted(bounds))[:len(shape.outer)])
    pi = Permutation.from_one_line(images, 1)
    assert half_sum(shape, flag, lambda m, d: (m, m + d)) == \
        _fold_tableaux(shape, flag, lambda i: i)
    assert half_sum(shape, flag, lambda m, d: (pi(m), m + d)) == \
        _fold_tableaux(shape, flag, pi)
