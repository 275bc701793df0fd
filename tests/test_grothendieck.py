"""Windowed G-function evaluation, divided-difference polynomials, the
orbit engine, and the backstable comparison."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egc import grothendieck
from egc.grothendieck import (OrbitTable, ascent_word, backstable_approx,
                              backstable_poly, default_window, enum_sum,
                              field_sum, g_eval, grothendieck_poly,
                              gvex_record, shifted_coords)
from egc.perms import Permutation, all_vexillary
from egc.ring import (DEFAULT_PRIME, EvaluationPoint, SparsePoly, ominus,
                      sample_point)
from egc.shapes import Flag, Partition, SkewShape, flag_split, subpartitions
from egc.tableaux import EnumSpec
from egc.verify import partitions_up_to

P = DEFAULT_PRIME
ORBIT_PRIME = 2147483647  # 2^31 - 1, a second prime for the orbit tests


def test_empty_shape_is_one():
    pt = EvaluationPoint.make(P, 1, {}, {})
    assert g_eval(SkewShape(Partition(())), None, "any", pt) == 1


def test_telescoping_instance():
    # (1,1)/(1) with flag (1,2), positive, x -> y: three tableaux sum to
    # y_2 (-) y_0
    rng = random.Random(4)
    for _ in range(5):
        pt = sample_point(P, rng, (), range(0, 3)).with_x_to_y()
        got = g_eval(SkewShape(Partition((1, 1)), Partition((1,))),
                     Flag((1, 2)), "positive", pt)
        assert got == ominus(pt.y_val(2), pt.y_val(0), pt.beta, pt.prime)


def test_dp_matches_enumeration():
    rng = random.Random(11)
    shapes = [((2, 1), ()), ((2, 2), (1,)), ((3, 1), (1,)), ((1, 1, 1), ())]
    for parts, inner in shapes:
        shape = SkewShape(Partition(parts), Partition(inner))
        for sign, window in [("positive", (1, 3)), ("any", (-4, 2))]:
            flag = Flag(tuple(range(1, len(parts) + 1))) \
                if sign == "positive" else None
            pt = sample_point(P, rng, range(1, 3), range(1, 3))
            spec = EnumSpec(shape, flag, sign, window)
            assert field_sum(spec, pt) == enum_sum(spec, pt)


def test_field_sum_at_a_warm_point_matches_enumeration():
    # a point keeps field_sum's f values and closed forms across calls.
    # The two specs differ in window, sign and flag and share some (lb, d)
    # with a different hi, so a cache keyed without hi gives a wrong sum;
    # a derived point has x values of its own, so it must not share them
    rng = random.Random(22)
    shape = SkewShape(Partition((2, 1)))
    specs = [EnumSpec(shape, None, "any", (-2, 2)),
             EnumSpec(shape, Flag((1, 2)), "positive", (1, 3))]
    for order in (specs, specs[::-1]):
        pt = sample_point(P, rng, range(-2, 4), range(-3, 6))
        for spec in order:
            cold = EvaluationPoint.make(P, pt.beta, dict(pt.x), dict(pt.y))
            assert field_sum(spec, pt) == enum_sum(spec, pt) == \
                field_sum(spec, cold)
        for derived in (pt.with_x_to_y(), pt.omega1()):
            for spec in order:
                assert field_sum(spec, derived) == enum_sum(spec, derived)


def test_insufficient_window_rejected():
    pt = EvaluationPoint.make(P, 1, {-5: 3}, {})
    with pytest.raises(ValueError):
        g_eval(SkewShape(Partition((2,))), None, "any", pt, (-3, 3))


def test_diagonal_factorization():
    lam, phi = Partition((2, 1, 1)), Flag((2, 2, 3))
    rng = random.Random(6)
    for _ in range(5):
        pt = sample_point(P, rng, (), range(-2, 5)).with_x_to_y()
        whole = g_eval(SkewShape(lam, Partition((1,))), phi, "positive", pt)
        up = g_eval(SkewShape(lam, Partition((1, 1, 1))), phi, "positive", pt)
        down = g_eval(SkewShape(lam, Partition((2,))), phi, "positive", pt)
        assert whole == up * down % P


def test_default_window_covers_support():
    pt = EvaluationPoint.make(P, 1, {-1: 3, 2: 4}, {1: 5})
    lo, hi = default_window(SkewShape(Partition((2,))), None, "any", pt)
    assert lo <= -1 and hi >= 2


def test_grothendieck_poly_top_and_identity():
    rng = random.Random(5)
    pt = sample_point(P, rng, (), range(1, 3))
    w0 = Permutation.from_one_line((2, 1), 1)
    f = grothendieck_poly(w0, 2, pt)
    xs = (rng.randrange(P), rng.randrange(P))
    assert f.evaluate(xs) == ominus(xs[0], pt.y_val(1), pt.beta, P)
    one = grothendieck_poly(Permutation.identity(), 3, pt)
    assert one == SparsePoly.const(1, 3, P)


def test_grothendieck_poly_beta_zero_schubert():
    rng = random.Random(7)
    pt = EvaluationPoint.make(P, 0, {},
                              {j: rng.randrange(1, P) for j in (1, 2)})
    f = grothendieck_poly(Permutation.from_one_line((3, 2, 1), 1), 3, pt)
    xs = tuple(rng.randrange(P) for _ in range(3))
    y1, y2 = pt.y_val(1), pt.y_val(2)
    expect = (xs[0] - y1) * (xs[0] - y2) % P * (xs[1] - y1) % P
    assert f.evaluate(xs) == expect % P


def test_grothendieck_poly_stability():
    rng = random.Random(8)
    pt = sample_point(P, rng, (), range(1, 4))
    w = Permutation.s(1)
    f3 = grothendieck_poly(w, 3, pt)
    f4 = grothendieck_poly(w, 4, pt)
    xs = tuple(rng.randrange(P) for _ in range(4))
    assert f3.evaluate(xs[:3]) == f4.evaluate(xs)


def test_grothendieck_poly_word_independence():
    # every reduced word of w^{-1} w_0: w_0 in S_3 for w = id, and 2143 in S_4
    rng = random.Random(9)
    pt = sample_point(P, rng, (), range(1, 4))
    cases = [((), 3, [(1, 2, 1), (2, 1, 2)]),
             ((2, 1, 4, 3), 4, [(2, 3, 1, 2), (2, 1, 3, 2)])]
    for images, n, words in cases:
        w = Permutation.from_one_line(images, 1)
        f = grothendieck_poly(w, n, pt)
        for word in words:
            assert grothendieck_poly(w, n, pt, word=word) == f
    with pytest.raises(ValueError):
        grothendieck_poly(Permutation.identity(), 3, pt, word=(1, 1, 2))


def _orbit_instance(n, prime, seed):
    rng = random.Random(seed)
    xs = tuple(rng.sample(range(1, prime), n))
    ys = tuple(rng.randrange(prime) for _ in range(n - 1))
    return xs, ys, rng.randrange(prime)


def _poly_values(perms, xs, ys, beta, prime):
    n = len(xs)
    pt = EvaluationPoint.make(prime, beta, {},
                              {j + 1: ys[j] for j in range(n - 1)})
    return {images: grothendieck_poly(Permutation.from_one_line(images, 1),
                                      n, pt).evaluate(xs)
            for images in perms}


def test_orbit_table_matches_poly():
    n = 4
    xs, ys, beta = _orbit_instance(n, ORBIT_PRIME, 10)
    perms = list(itertools.permutations(range(1, n + 1)))
    expect = _poly_values(perms, xs, ys, beta, ORBIT_PRIME)
    table = OrbitTable(xs, ys, beta, ORBIT_PRIME)
    for images in perms + perms[::-1]:  # the path grows, then unwinds
        assert table.value(ascent_word(images)) == expect[images]


def test_orbit_path_reuse_matches_fresh_tables():
    n = 5
    xs, ys, beta = _orbit_instance(n, ORBIT_PRIME, 16)
    perms = list(itertools.permutations(range(1, n + 1)))
    random.Random(17).shuffle(perms)
    table = OrbitTable(xs, ys, beta, ORBIT_PRIME)
    for images in perms:
        word = ascent_word(images)
        assert table.value(word) == \
            OrbitTable(xs, ys, beta, ORBIT_PRIME).value(word)
        assert len(table._path) <= n * (n - 1) // 2


def test_orbit_table_large_prime():
    # residues above 2^31, whose products pass 2^63
    prime, n = 3037000493, 6
    xs, ys, beta = _orbit_instance(n, prime, 18)
    perms = random.Random(19).sample(
        list(itertools.permutations(range(1, n + 1))), 24)
    expect = _poly_values(perms, xs, ys, beta, prime)
    table = OrbitTable(xs, ys, beta, prime)
    for images in perms:
        assert table.value(ascent_word(images)) == expect[images]


def test_orbit_table_guards():
    with pytest.raises(ValueError):
        OrbitTable((1, 1, 2), (3, 4), 1, ORBIT_PRIME)
    # any prime: the engine multiplies Python ints
    xs, ys, beta = _orbit_instance(3, DEFAULT_PRIME, 20)
    perms = list(itertools.permutations(range(1, 4)))
    expect = _poly_values(perms, xs, ys, beta, DEFAULT_PRIME)
    table = OrbitTable(xs, ys, beta, DEFAULT_PRIME)
    for images in perms:
        assert table.value(ascent_word(images)) == expect[images]
    # a word's letters must name swaps of the table's n coordinates
    with pytest.raises(ValueError, match="not on 3 coordinates"):
        table.value(ascent_word((2, 1, 4, 3)))


@pytest.mark.parametrize("n", [9, 10])
def test_orbit_table_size_bound(n):
    before = grothendieck._orbit_perms.cache_info()
    with pytest.raises(ValueError, match="exceeds the limit"):
        OrbitTable(tuple(range(1, n + 1)), tuple(range(n - 1)), 1,
                   ORBIT_PRIME)
    pt = EvaluationPoint.make(ORBIT_PRIME, 1, {}, {})
    with pytest.raises(ValueError, match="exceeds the limit"):
        backstable_approx(Permutation.s(1), 0, pt, n=n)
    # refused before the n-only data is built or looked up
    assert grothendieck._orbit_perms.cache_info() == before


def test_orbit_table_cold_query_at_the_size_bound():
    # the identity lies deepest in the tree: one query fills every level
    n = grothendieck.ORBIT_MAX_N
    xs, ys, beta = _orbit_instance(n, ORBIT_PRIME, 21)
    table = OrbitTable(xs, ys, beta, ORBIT_PRIME)
    assert table.value(ascent_word(tuple(range(1, n + 1)))) == 1
    assert len(table._path) == n * (n - 1) // 2
    # each node only as long as its highest filled rank, never above n!
    nodes = [table.root, *(slots for _, slots in table._path)]
    assert max(map(len, nodes)) <= math.factorial(n)
    assert sum(map(len, nodes)) == 310741  # against 29 × 40,320 if full


def _old_orbit_perms(n):
    # the construction through a table of n! tuples and a tuple -> rank dict
    perms = list(itertools.permutations(range(n)))
    index = {pm: k for k, pm in enumerate(perms)}
    swap = [[index[pm[:i] + (pm[i + 1], pm[i]) + pm[i + 2:]] for pm in perms]
            for i in range(n - 1)]
    return perms, swap


def _lex_rank(pm):
    n = len(pm)
    return sum(sum(q < pm[i] for q in pm[i + 1:]) * math.factorial(n - 1 - i)
               for i in range(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_orbit_perms_match_the_tuple_table(n):
    cols, swap = grothendieck._orbit_perms(n)
    perms, old_swap = _old_orbit_perms(n)
    assert [list(col) for col in cols] == [list(col) for col in zip(*perms)]
    assert [list(rank_map) for rank_map in swap] == old_swap


def test_orbit_perms_at_the_size_bound():
    n = grothendieck.ORBIT_MAX_N
    # the swap maps' typecode holds every rank below n!: raising the bound
    # past it fails here, before a build overflows
    rank_map = grothendieck._orbit_perms(2)[1][0]
    assert math.factorial(n) <= 1 << 8 * rank_map.itemsize
    cols, swap = grothendieck._orbit_perms(n)
    assert len(cols) == n and len(swap) == n - 1
    assert all(len(c) == math.factorial(n) for c in [*cols, *swap])
    for u in random.Random(22).sample(range(math.factorial(n)), 64):
        pm = tuple(col[u] for col in cols)
        assert sorted(pm) == list(range(n)) and _lex_rank(pm) == u
        for i, rank_map in enumerate(swap):
            assert _lex_rank(pm[:i] + (pm[i + 1], pm[i]) + pm[i + 2:]) == \
                rank_map[u]


def test_orbit_table_cache_bound():
    # nine distinct points on n = 3 coordinates: the cache keeps eight
    grothendieck._orbit_table.cache_clear()
    for k in range(9):
        grothendieck._orbit_table((1, 2, 3 + k), (4, 5), 1, ORBIT_PRIME)
    info = grothendieck._orbit_table.cache_info()
    assert info.misses == 9 and info.currsize <= 8


def test_backstable_shift():
    # w = s_0 at p=1 reads x_0 (-) y_0
    rng = random.Random(12)
    pt = sample_point(P, rng, {0}, {0})
    val = backstable_poly(Permutation.s(0), 1, pt)
    assert val == ominus(pt.x_val(0), pt.y_val(0), pt.beta, P)
    assert backstable_poly(Permutation.s(1), 0, pt) == \
        ominus(pt.x_val(1), pt.y_val(1), pt.beta, P)
    for route in (backstable_poly, backstable_approx):
        with pytest.raises(ValueError):
            route(Permutation.s(0), 0, pt)


def test_backstable_routes_agree():
    # the orbit engine against the expanded polynomial, through the shift
    rng = random.Random(20)
    for w in rng.sample([w for w in all_vexillary(-1, 2) if w.images], 12):
        p = max(1, 1 - w.lo) + rng.randrange(2)
        n = rng.randrange(w.window_hi + p, 7)
        pt = sample_point(ORBIT_PRIME, rng, range(1 - p, n - p + 1),
                          range(1 - p, n - p), distinct_x=True)
        assert backstable_approx(w, p, pt, n) == backstable_poly(w, p, pt, n)


def _gvex_holds(w, p, n, pt):
    """The gvex sweep's comparison of w at the point: the orbit table's
    value at w's word against the flagged tableau sum of w's record."""
    word, shape, flag = gvex_record(w, p, n)
    table = OrbitTable(*shifted_coords(p, pt, n), pt.beta, pt.prime)
    return table.value(word) == g_eval(shape, flag, "any", pt)


def test_gvex_check_small():
    rng = random.Random(13)
    _, shape, flag = gvex_record(Permutation.s(0), 3, 6)
    for _ in range(3):  # the polynomial route, at a prime past the orbit's
        pt = sample_point(P, rng, range(-2, 3), range(-2, 3))
        assert backstable_poly(Permutation.s(0), 3, pt, 6) == \
            g_eval(shape, flag, "any", pt)
    w = Permutation.from_one_line((3, 4, 5, 1, 6, 2), 1)
    pt = sample_point(ORBIT_PRIME, rng, range(1, 7), (1, 2), distinct_x=True)
    assert _gvex_holds(w, 0, 6, pt)


def test_gvex_grassmannian():
    rng = random.Random(14)
    # the 0-Grassmannian permutations of (1), (2,1) and (2,2)
    for w in [Permutation(0, (1, 0)), Permutation(-1, (0, 2, -1, 1)),
              Permutation(-1, (1, 2, -1, 0))]:
        p0 = max(0, 1 - w.lo) + 1
        n = w.window_hi + p0
        pt = sample_point(ORBIT_PRIME, rng, range(1 - p0, n - p0 + 1), (1, 2),
                          distinct_x=True)
        assert _gvex_holds(w, p0, n, pt)


def test_gvex_rejects_non_vexillary():
    w = Permutation.from_word((1, 2, -1, 0))  # support [-1, 3], has 2143
    with pytest.raises(ValueError, match="not vexillary"):
        gvex_record(w, 2, 5)


@pytest.mark.parametrize("route", [field_sum, enum_sum], ids=["dp", "enum"])
def test_invalid_spec_rejected_by_both_paths(route):
    shape = SkewShape(Partition((2, 1)))
    pt = sample_point(10007, random.Random(15), range(1, 3), range(-1, 4))
    with pytest.raises(ValueError):
        route(EnumSpec(shape, Flag((1, 2)), "postive", (-2, 2)), pt)
    with pytest.raises(ValueError):  # row 2 is occupied, the flag stops at 1
        route(EnumSpec(shape, Flag((1,)), "any", (-2, 2)), pt)
    with pytest.raises(ValueError):  # the same, with the default window
        route(EnumSpec(shape, Flag((1,)), "any",
                       default_window(shape, Flag((1,)), "any", pt)), pt)


SMALL_SKEW = [SkewShape(lam, mu) for lam in partitions_up_to(6)
              for mu in subpartitions(lam) if lam.size - mu.size <= 4]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(shape=st.sampled_from(SMALL_SKEW),
       bounds=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       flagged=st.booleans(),
       sign=st.sampled_from(("positive", "nonpositive", "any")),
       ends=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       seed=st.integers(0, 2**32))
# row 2's cell has no cell above it; an empty middle row; rows that start
# in different columns
@example(shape=SkewShape(Partition((3, 1)), Partition((2,))),
         bounds=[3] * 6, flagged=False, sign="any", ends=(-2, 2), seed=1)
@example(shape=SkewShape(Partition((3, 1, 1)), Partition((1, 1))),
         bounds=[3] * 6, flagged=False, sign="any", ends=(-2, 2), seed=2)
@example(shape=SkewShape(Partition((3, 3, 1)), Partition((2, 1))),
         bounds=[3] * 6, flagged=False, sign="any", ends=(-2, 2), seed=3)
@example(shape=SkewShape(Partition((3, 3, 1)), Partition((2, 1))),
         bounds=[1, 2, 3, 3, 3, 3], flagged=True, sign="positive",
         ends=(-1, 3), seed=4)
# a negative bound on an empty row, which phi_+ raises to 0
@example(shape=SkewShape(Partition((3, 3, 1)), Partition((3, 1))),
         bounds=[-1, 2, 3, 3, 3, 3], flagged=True, sign="positive",
         ends=(-1, 3), seed=5)
def test_dp_matches_enumeration_property(shape, bounds, flagged, sign, ends,
                                         seed):
    flag = Flag(tuple(sorted(bounds))[:len(shape.outer)]) if flagged else None
    window = (min(ends), max(ends))
    # x and y supported where the window can see them, so no value below
    # the window contributes (g_eval rejects such windows)
    d_max = max([c - r for r, c in shape.cells()] or [0])
    pt = sample_point(10007, random.Random(seed),
                      range(window[0], window[1] + 1),
                      range(window[0] + d_max, window[1] + d_max + 1))
    spec = EnumSpec(shape, flag, sign, window)
    assert field_sum(spec, pt) == enum_sum(spec, pt)
    if sign == "positive" and flag is not None:
        # a row with phi_r <= 0 admits no positive value under phi or under
        # phi_+, so both read one sum: the decompose suite reads phi_+
        plus = EnumSpec(shape, flag_split(flag)[1], sign, window)
        assert field_sum(plus, pt) == field_sum(spec, pt)
