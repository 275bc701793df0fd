"""Set-valued tableaux: enumeration, weights, split/merge, omega_1."""

import random
import re
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from egc.ring import EvaluationPoint, ominus, sample_point
from egc.shapes import Flag, Partition, SkewShape, subpartitions
from egc.tableaux import (EnumSpec, RowStrictDecreasingTableau,
                          SetValuedTableau, _built, _layout, _subsets,
                          cell_bounds, enumerate_tableaux, merge,
                          omega1_inverse, omega1_tableau, r_weight_eval,
                          split, weight_eval)
from egc.verify import _count, partitions_up_to

P = 10007
# the tableau {-2,-1} {-1,1} {1,3} ; {0,1} {2} of shape (3,2)
T32 = (((-2, -1), (-1, 1), (1, 3)), ((0, 1), (2,)))


def admits(spec: EnumSpec, t: SetValuedTableau) -> bool:
    """Whether t would be yielded by enumerate_tableaux(spec).

    Semistandardness is already enforced by the tableau type, so membership
    reduces to the per-cell value bounds; this avoids enumerating specs
    whose full tableau count is astronomical.
    """
    if t.shape != spec.shape:
        return False
    for (r, _), cell in t.cells():
        lo, hi = cell_bounds(spec, r)
        if cell[0] < lo or cell[-1] > hi:
            return False
    return True


def test_semistandard_validation():
    sh = SkewShape(Partition((2,)))
    SetValuedTableau(sh, (((1,), (1, 2)),))
    with pytest.raises(ValueError):
        SetValuedTableau(sh, (((2,), (1,)),))  # row decrease
    col = SkewShape(Partition((1, 1)))
    with pytest.raises(ValueError):
        SetValuedTableau(col, (((1,),), ((1,),)))  # column not strict


def test_to_text():
    t = SetValuedTableau(SkewShape(Partition((3, 2))), T32)
    assert t.to_text() == "{-2,-1} {-1,1} {1,3} ; {0,1} {2}"


def test_enumerate_fixture():
    spec = EnumSpec(SkewShape(Partition((1, 1))), Flag((1, 2)), "positive",
                    (1, 2))
    ts = list(enumerate_tableaux(spec))
    assert len(ts) == 1
    assert ts[0].rows == (((1,),), ((2,),))


def test_enumerate_empty_shape():
    spec = EnumSpec(SkewShape(Partition(())), None, "any", (0, 0))
    assert len(list(enumerate_tableaux(spec))) == 1


def test_admits_matches_enumeration():
    spec = EnumSpec(SkewShape(Partition((2, 1))), Flag((1, 2)), "any",
                    (-1, 2))
    listed = list(enumerate_tableaux(spec))
    assert all(admits(spec, t) for t in listed)
    wider = EnumSpec(spec.shape, Flag((2, 2)), "any", (-1, 2))
    extra = [t for t in enumerate_tableaux(wider) if t not in listed]
    assert extra and not any(admits(spec, t) for t in extra)


def test_flag_membership_432():
    rows = (((-3, -2), (-2, 0), (0,), (1,)), ((-1,), (1,), (3,)),
            ((0, 2), (2,)))
    t = SetValuedTableau(SkewShape(Partition((4, 3, 2))), rows)
    for bounds, member in [((1, 3, 3), True), ((1, 2, 3), False)]:
        spec = EnumSpec(t.shape, Flag(bounds), "any", (-3, 3))
        assert admits(spec, t) is member


def test_weight_single_cells():
    pt = EvaluationPoint.make(P, 5, {1: 7, 2: 9}, {0: 3, 1: 4, 2: 6})
    t = SetValuedTableau(SkewShape(Partition((1,))), (((2,),),))
    assert weight_eval(t, pt) == ominus(9, 6, 5, P)  # x_2 (-) y_2
    t2 = SetValuedTableau(SkewShape(Partition((1, 1)), Partition((1,))),
                          ((), ((1,),)))
    assert weight_eval(t2, pt) == ominus(7, 3, 5, P)  # x_1 (-) y_0


def test_weight_beta_power():
    # two values in one cell carry one surplus beta
    pt = EvaluationPoint.make(P, 5, {1: 7, 2: 9}, {})
    t = SetValuedTableau(SkewShape(Partition((1,))), (((1, 2),),))
    expect = 5 * ominus(7, 0, 5, P) * ominus(9, 0, 5, P) % P
    assert weight_eval(t, pt) == expect


def test_split_fixture():
    t = SetValuedTableau(SkewShape(Partition((3, 2))), T32)
    tm, tp = split(t)
    assert tm.shape.outer == Partition((2, 1))
    assert tm.to_text() == "{-2,-1} {-1} ; {0}"
    assert tp.shape.outer == Partition((3, 2))
    assert tp.shape.inner == Partition((1,))
    assert tp.to_text() == ". {1} {1,3} ; {1} {2}"
    assert merge(tm, tp).rows == t.rows


def test_split_all_positive_and_all_nonpositive():
    row2 = SkewShape(Partition((2,)))
    t = SetValuedTableau(row2, (((1,), (2,)),))
    tm, tp = split(t)
    assert tm.shape.outer == Partition(()) and tp.rows == t.rows
    t2 = SetValuedTableau(row2, (((-1,), (0,)),))
    tm2, tp2 = split(t2)
    assert tm2.rows == t2.rows and not tp2.shape.cells()


def test_merge_rejects_connected_gap():
    tm = SetValuedTableau(SkewShape(Partition((2,))), (((-1,), (0,)),))
    tp = SetValuedTableau(SkewShape(Partition((3,)), Partition((2,))),
                          (((1,),),))
    with pytest.raises(ValueError):
        # inner shape (), so nu/mu = (2) has two adjacent cells
        bad = SetValuedTableau(SkewShape(Partition((3,))),
                               (((1,), (2,), (3,)),))
        merge(tm, bad)
    merged = merge(tm, tp)
    assert merged.to_text() == "{-1} {0} {1}"


def test_omega1_examples():
    t = SetValuedTableau(SkewShape(Partition((1,))), (((1,),),))
    u = omega1_tableau(t)
    assert u.rows == (((0,),),)
    col = SetValuedTableau(SkewShape(Partition((1, 1))), (((1,),), ((2,),)))
    row = omega1_tableau(col)
    assert row.shape.outer == Partition((2,))
    assert row.rows == (((0,), (-1,)),)


def test_omega1_roundtrip_exhaustive():
    for parts in [(1,), (2,), (1, 1), (2, 1)]:
        spec = EnumSpec(SkewShape(Partition(parts)), None, "any", (-2, 2))
        for t in enumerate_tableaux(spec):
            u = omega1_tableau(t)
            assert isinstance(u, RowStrictDecreasingTableau)
            assert omega1_inverse(u).rows == t.rows


def test_omega1_weight_identity():
    rng = random.Random(9)
    pts = [sample_point(P, rng, range(-2, 3), range(-3, 4)) for _ in range(3)]
    spec = EnumSpec(SkewShape(Partition((2, 1))), None, "any", (-2, 2))
    for t in enumerate_tableaux(spec):
        u = omega1_tableau(t)
        for pt in pts:
            assert r_weight_eval(u, pt) == weight_eval(t, pt.omega1())


def test_factor_distinctness_within_tableau():
    # distinct entries of one tableau never repeat a (value, diagonal) pair
    spec = EnumSpec(SkewShape(Partition((2, 2))), Flag((1, 2)), "any",
                    (-2, 2))
    for t in enumerate_tableaux(spec):
        seen = [(v, c - r) for (r, c), cell in t.cells() for v in cell]
        assert len(seen) == len(set(seen))


@pytest.mark.parametrize("cls", [SetValuedTableau, RowStrictDecreasingTableau])
def test_validation_common_checks(cls):
    sh = SkewShape(Partition((2, 1)))
    with pytest.raises(ValueError):
        cls(sh, (((1,), (2,)),))  # one row for a two-row shape
    with pytest.raises(ValueError):
        cls(sh, (((1,),), ((2,),)))  # row 1 has two cells
    with pytest.raises(ValueError):
        cls(sh, (((1,), ()), ((2,),)))  # empty entry
    with pytest.raises(ValueError):
        cls(sh, (((2, 1), (3,)), ((4,),)))  # unsorted entry


# rows start in columns 3, 2 and 1; only (1,3) lies above another cell
SKEW_331 = SkewShape(Partition((3, 3, 1)), Partition((2, 1)))
SKEW_331_BAD = [
    (SetValuedTableau, (((1,),), ((1,), (2,))),
     "row count does not match shape"),
    (SetValuedTableau, (((1,),), ((2,),), ((1,),)),
     "cell count mismatch in row 2"),
    (SetValuedTableau, (((1,),), ((1,), ()), ((1,),)),
     "empty entry at (2, 3)"),
    (SetValuedTableau, (((1,),), ((2, 1), (2,)), ((1,),)),
     "entry at (2, 2) not a sorted set: (2, 1)"),
    (SetValuedTableau, (((1,),), ((1,), (2, 2)), ((1,),)),
     "entry at (2, 3) not a sorted set: (2, 2)"),
    (SetValuedTableau, (((1,),), ((3,), (2,)), ((1,),)),
     "row order violated at (2, 2)"),
    (SetValuedTableau, (((2,),), ((1,), (2,)), ((1,),)),
     "column order violated at (1, 3)"),
    (RowStrictDecreasingTableau, (((2,),), ((3,), (1,))),
     "row count does not match shape"),
    (RowStrictDecreasingTableau, (((2,),), ((3,),), ((5,),)),
     "cell count mismatch in row 2"),
    (RowStrictDecreasingTableau, (((2,),), ((3,), ()), ((5,),)),
     "empty entry at (2, 3)"),
    (RowStrictDecreasingTableau, (((2,),), ((3,), (2, 1)), ((5,),)),
     "entry at (2, 3) not a sorted set: (2, 1)"),
    (RowStrictDecreasingTableau, (((2,),), ((3,), (1, 1)), ((5,),)),
     "entry at (2, 3) not a sorted set: (1, 1)"),
    (RowStrictDecreasingTableau, (((2,),), ((1,), (1,)), ((5,),)),
     "row order violated at (2, 2)"),
    (RowStrictDecreasingTableau, (((0,),), ((3,), (1,)), ((5,),)),
     "column order violated at (1, 3)"),
]


@pytest.mark.parametrize("cls, rows, message", SKEW_331_BAD)
def test_validation_messages_on_staggered_rows(cls, rows, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(SKEW_331, rows)


def test_validation_accepts_staggered_rows():
    # (2,2) has no cell above; (2,3) lies below (1,3)
    SetValuedTableau(SKEW_331, (((1,),), ((1,), (2,)), ((1,),)))
    SetValuedTableau(SKEW_331, (((1,),), ((0, 1), (2, 3)), ((1, 4),)))
    RowStrictDecreasingTableau(SKEW_331, (((2,),), ((3,), (1,)), ((5,),)))
    RowStrictDecreasingTableau(SKEW_331, (((2,),), ((3, 4), (-1, 2)),
                                          ((-1,),)))


def test_row_strict_decreasing_validation():
    sh = SkewShape(Partition((2, 1)))
    RowStrictDecreasingTableau(sh, (((2,), (0, 1)), ((2,),)))
    with pytest.raises(ValueError):  # row not strictly decreasing
        RowStrictDecreasingTableau(sh, (((1,), (1,)), ((0,),)))
    with pytest.raises(ValueError):  # column increases
        RowStrictDecreasingTableau(sh, (((1,), (0,)), ((2,),)))


SHAPES_4 = [SkewShape(lam, mu) for lam in partitions_up_to(4)
            for mu in subpartitions(lam)]


@st.composite
def set_valued_tableaux(draw, shapes, lo=-3, hi=3):
    """A semistandard set-valued tableau with values in [lo, hi], filled
    cell by cell from the smallest value its neighbours allow."""
    shape = draw(st.sampled_from(shapes))
    grid = {}
    for r, c in shape.cells():
        least = lo
        if (r, c - 1) in grid:
            least = max(least, grid[(r, c - 1)][-1])
        if (r - 1, c) in grid:
            least = max(least, grid[(r - 1, c)][-1] + 1)
        assume(least <= hi)
        values = draw(st.sets(st.integers(least, hi), min_size=1, max_size=3))
        grid[(r, c)] = tuple(sorted(values))
    rows = tuple(tuple(grid[(r, c)] for c in shape.row_cols(r))
                 for r in range(1, len(shape.outer) + 1))
    return SetValuedTableau(shape, rows)


PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)


@PROPERTY
@given(t=set_valued_tableaux(SHAPES_4), seed=st.integers(0, 2**32))
def test_omega1_properties(t, seed):
    u = omega1_tableau(t)
    assert omega1_inverse(u).rows == t.rows
    pt = sample_point(P, random.Random(seed), range(-3, 4), range(-6, 7))
    assert r_weight_eval(u, pt) == weight_eval(t, pt.omega1())


@PROPERTY
@given(t=set_valued_tableaux([s for s in SHAPES_4 if not len(s.inner)]))
def test_split_merge_property(t):
    tm, tp = split(t)
    assert merge(tm, tp).rows == t.rows


SKEW_4 = [SkewShape(lam, mu) for lam in partitions_up_to(6)
          for mu in subpartitions(lam) if lam.size - mu.size <= 4]


@PROPERTY
@given(shape=st.sampled_from(SKEW_4),
       bounds=st.lists(st.integers(-1, 2), min_size=6, max_size=6),
       flagged=st.booleans(),
       ends=st.tuples(st.integers(-1, 2), st.integers(-1, 2)))
# row 2's cell has no cell above it; an empty middle row; rows that start
# in different columns
@example(shape=SkewShape(Partition((3, 1)), Partition((2,))),
         bounds=[2] * 6, flagged=False, ends=(-1, 2))
@example(shape=SkewShape(Partition((3, 1, 1)), Partition((1, 1))),
         bounds=[2] * 6, flagged=False, ends=(-1, 2))
@example(shape=SkewShape(Partition((3, 3, 1)), Partition((2, 1))),
         bounds=[2] * 6, flagged=False, ends=(-1, 2))
@example(shape=SkewShape(Partition((3, 3, 1)), Partition((2, 1))),
         bounds=[1, 2, 2, 2, 2, 2], flagged=True, ends=(-1, 3))
def test_count_instance_matches_enumeration(shape, bounds, flagged, ends):
    """The transfer DP with top 1 and extra 2 counts the tableaux."""
    flag = Flag(tuple(sorted(bounds))[:len(shape.outer)]) if flagged else None
    for sign in ("positive", "nonpositive", "any"):
        spec = EnumSpec(shape, flag, sign, (min(ends), max(ends)))
        assert _count(spec) == len(list(enumerate_tableaux(spec)))


@PROPERTY
@given(shape=st.sampled_from(SKEW_4),
       bounds=st.lists(st.integers(-1, 2), min_size=6, max_size=6),
       flagged=st.booleans(),
       sign=st.sampled_from(["positive", "nonpositive", "any"]),
       lo=st.integers(-2, 1), width=st.integers(1, 3))
def test_enumeration_matches_filtered_assignments(shape, bounds, flagged,
                                                  sign, lo, width):
    """Every assignment of value sets in the window to the cells that the
    public constructor accepts and admits admits, sorted row-major, is
    what enumerate_tableaux lists, in that order."""
    flag = Flag(tuple(sorted(bounds))[:len(shape.outer)]) if flagged else None
    spec = EnumSpec(shape, flag, sign, (lo, lo + width - 1))
    widths = [len(shape.row_cols(r)) for r in range(1, len(shape.outer) + 1)]
    expected = []
    for flat in product(_subsets(lo, lo + width - 1),
                        repeat=len(shape.cells())):
        rows, k = [], 0
        for n in widths:
            rows.append(flat[k:k + n])
            k += n
        try:
            t = SetValuedTableau(shape, tuple(rows))
        except ValueError:
            continue
        if admits(spec, t):
            expected.append(t)
    expected.sort(key=lambda t: [cell for row in t.rows for cell in row])
    assert list(enumerate_tableaux(spec)) == expected


def test_subsets_lists_every_nonempty_subset_in_lexicographic_order():
    for lo in range(-3, 2):
        for hi in range(lo - 1, 8):
            values = range(lo, hi + 1)
            assert list(_subsets(lo, hi)) == sorted(
                s for k in range(1, len(values) + 1)
                for s in combinations(values, k)), (lo, hi)


def test_count_instance_empty_shape():
    for shape in (SkewShape(Partition(())),
                  SkewShape(Partition((2, 1)), Partition((2, 1)))):
        spec = EnumSpec(shape, None, "any")
        assert _count(spec) == len(list(enumerate_tableaux(spec))) == 1


def test_layout_cache_is_bounded_and_keyed_on_the_shape():
    """Specs that differ only in flag, sign or window share one layout, so
    the cache holds one entry per shape, and it has a bound."""
    assert _layout.cache_info().maxsize == 1024
    shape = SkewShape(Partition((4, 3, 1)), Partition((1,)))
    _count(EnumSpec(shape, None, "any", (-1, 1)))
    before = _layout.cache_info()
    for flag, sign, window in ((None, "positive", (0, 3)),
                               (Flag((1, 2, 2)), "any", (-2, 2)),
                               (Flag((0, 1, 3)), "nonpositive", (-1, 0))):
        spec = EnumSpec(shape, flag, sign, window)
        assert _count(spec) == len(list(enumerate_tableaux(spec)))
    after = _layout.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 6)


@PROPERTY
@given(shape=st.sampled_from(SKEW_4),
       bounds=st.lists(st.integers(-1, 2), min_size=6, max_size=6),
       flagged=st.booleans(),
       sign=st.sampled_from(["positive", "nonpositive", "any"]),
       ends=st.tuples(st.integers(-1, 2), st.integers(-1, 2)))
def test_enumerated_tableaux_pass_validation(shape, bounds, flagged, sign,
                                             ends):
    """enumerate_tableaux builds its tableaux without the constructor's
    checks; each one passes them and rebuilds into an equal value."""
    flag = Flag(tuple(sorted(bounds))[:len(shape.outer)]) if flagged else None
    for t in enumerate_tableaux(EnumSpec(shape, flag, sign,
                                         (min(ends), max(ends)))):
        assert SetValuedTableau(t.shape, t.rows) == t


@PROPERTY
@given(t=set_valued_tableaux([s for s in SHAPES_4 if not len(s.inner)]))
def test_split_parts_pass_validation(t):
    """So do both parts that split builds."""
    for part in split(t):
        assert SetValuedTableau(part.shape, part.rows) == part


BAD_FILLINGS = [
    ((2,), (), (((2,), (1,)),)),  # row decreases
    ((1, 1), (), (((1,),), ((1,),))),  # column not strict
    ((1,), (), (((1, 1),),)),  # repeated value
    ((2,), (), (((2, 1), (3,)),)),  # unsorted entry
    ((2, 2), (1,), (((1,),), ((0,), (1,)))),  # skew column not strict
]


@pytest.mark.parametrize("outer, inner, rows", BAD_FILLINGS)
def test_public_construction_validates(outer, inner, rows):
    shape = SkewShape(Partition(outer), Partition(inner))
    with pytest.raises(ValueError):
        SetValuedTableau(shape, rows)


def test_split_rejects_a_connected_nu_over_mu():
    """Two cells across 0 side by side make nu/mu = (2) connected.  No
    semistandard tableau has them, so the filling is built unchecked."""
    t = _built(SkewShape(Partition((2,))), (((-1, 1), (0, 2)),))
    with pytest.raises(RuntimeError) as err:
        split(t)
    assert str(err.value) == ("split of '{-1,1} {0,2}': nu/mu is not "
                              "disconnected")


def test_merge_output_is_validated():
    # a nonpositive part whose row decreases, built past the checks
    bad = _built(SkewShape(Partition((2,))), (((0,), (-1,)),))
    tp = SetValuedTableau(SkewShape(Partition((3,)), Partition((2,))),
                          (((1,),),))
    with pytest.raises(ValueError, match="row order"):
        merge(bad, tp)
