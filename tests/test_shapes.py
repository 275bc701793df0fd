"""Partitions, flags, skew shapes, and the flag-splitting helpers."""

import pytest

from egc.shapes import (DeltaSeq, Flag, Partition, SkewShape,
                        compatible_flags, compatible_form, delta_seq,
                        diagonal_split, flag_split, flags_equivalent,
                        is_compatible, normal_flag, psi_flag, skew_props,
                        subpartitions, xi_flag)
from egc.verify import partitions_up_to


def flag_caps(lam: Partition, phi: Flag) -> dict[tuple[int, int], int]:
    """Oracle: the largest value each cell of lam can hold under phi,
    cap(r,c) = min(phi_r, cap(r+1,c) - 1) when the cell below is present.
    Two flags bound the same tableaux iff their caps agree."""
    caps: dict[tuple[int, int], int] = {}
    for r in range(len(lam), 0, -1):
        for c in range(1, lam.part(r) + 1):
            cap = phi.entry(r)
            if (r + 1, c) in caps:
                cap = min(cap, caps[(r + 1, c)] - 1)
            caps[(r, c)] = cap
    return caps


def weak_flags(ell: int, lo: int, hi: int):
    """Every weakly increasing flag of length ell with entries in [lo, hi]."""
    if ell == 0:
        yield Flag()
        return
    for head in weak_flags(ell - 1, lo, hi):
        for b in range(head.bounds[-1] if head.bounds else lo, hi + 1):
            yield Flag(head.bounds + (b,))


def test_partition_basics():
    lam = Partition((4, 2, 1, 0, 0))
    assert lam.parts == (4, 2, 1)
    assert lam.size == 7
    assert lam.part(1) == 4 and lam.part(5) == 0
    assert lam.conjugate() == Partition((3, 2, 1, 1))
    assert lam.conjugate().conjugate() == lam
    assert Partition(()).size == 0


def test_partition_rejects_increasing():
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_containment_and_cells():
    lam = Partition((2, 1))
    assert lam.contains(Partition((1, 1)))
    assert not lam.contains(Partition((3,)))
    assert lam.cells() == [(1, 1), (1, 2), (2, 1)]


def test_subpartitions_complete_and_ordered():
    subs = list(subpartitions(Partition((2, 1))))
    assert Partition(()) in subs
    assert Partition((2, 1)) in subs
    assert len(subs) == len(set(subs)) == 5


def test_flag_validation():
    Flag((1, 1, 3))
    with pytest.raises(ValueError):
        Flag((2, 1))


def test_delta_seq_validation():
    DeltaSeq((3, 3, 1))
    with pytest.raises(ValueError):
        DeltaSeq((1, 2))
    with pytest.raises(ValueError):
        DeltaSeq((1, -1))


def test_skew_shape():
    sh = SkewShape(Partition((3, 2)), Partition((1,)))
    assert sh.size == 4
    assert list(sh.row_cols(1)) == [2, 3]
    assert sh.conjugate().outer == Partition((2, 2, 1))
    with pytest.raises(ValueError):
        SkewShape(Partition((1,)), Partition((2,)))


def test_skew_props():
    assert not skew_props((1, 1), ()).is_disconnected
    single = skew_props((1,), ())
    assert single.is_disconnected and single.has_diagonal_cell
    sh = skew_props((2, 1, 1), (1,))
    assert not sh.has_diagonal_cell
    assert sh.rows == ((2, 1, 1), (1, 1, 1), (1, 1, 0))
    assert sh.rows_occupied == (1, 2, 3) and (sh.d_min, sh.d_max) == (-2, 1)
    assert SkewShape(Partition((2, 1, 1)), Partition((1,))).props == sh
    empty = skew_props((2, 1), (2, 1))
    assert empty.rows_occupied == () and empty.d_max is None
    assert empty.is_disconnected and not empty.has_diagonal_cell


def _reference_props(shape: SkewShape):
    """The record of shape from its set of cells: rows as (first column,
    width, count of cells with no cell above)."""
    cells = set(shape.cells())
    rows = []
    for r in range(1, len(shape.outer) + 1):
        cols = [c for rr, c in sorted(cells) if rr == r]
        first = shape.inner.part(r) + 1
        up = sum(1 for c in cols if (r - 1, c) not in cells)
        rows.append((first, len(cols), up))
    diags = [c - r for r, c in cells]
    return (tuple(rows), tuple(sorted({r for r, _ in cells})),
            min(diags, default=None), max(diags, default=None),
            any(r == c for r, c in cells),
            not any((r, c + 1) in cells or (r + 1, c) in cells
                    for r, c in cells))


def test_skew_props_matches_cell_sets():
    """Against a derivation from SkewShape.cells() for every skew shape of
    size at most 7.  `up` is compared where it is read: up to the width,
    where the cell at position up lies below a cell of the row above."""
    for lam in partitions_up_to(7):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            props = skew_props(lam.parts, mu.parts)
            ref = _reference_props(shape)
            clipped = tuple((first, w, min(up, w))
                            for first, w, up in props.rows)
            assert (clipped,) + tuple(props[1:]) == ref, shape
            for r, (first, w, up) in enumerate(props.rows, start=1):
                if up < w:
                    assert (r - 1, first + up) in shape.cells(), shape


def test_diagonal_split_examples():
    upper, lower = diagonal_split(
        SkewShape(Partition((2, 1, 1)), Partition((1,))))
    assert upper.inner == Partition((1, 1, 1))
    assert lower.inner == Partition((2,))
    upper, lower = diagonal_split(SkewShape(Partition((1, 1)),
                                            Partition((1,))))
    assert not upper.cells() and lower.cells() == [(2, 1)]
    with pytest.raises(ValueError):
        diagonal_split(SkewShape(Partition((1,))))


def _reference_split(shape: SkewShape):
    """The diagonal split row by row, as diagonal_split derived it before
    the cut: the upper part keeps the cells with c > r, the lower part
    those with c < r."""
    lam, mu = shape.outer, shape.inner
    mu_up, mu_down = [], []
    for r in range(1, len(lam) + 1):
        lr, mr = lam.part(r), mu.part(r)
        mu_up.append(mr if lr > r else lr)
        mu_down.append(mr if mr < min(lr, r) else lr)
    return SkewShape(lam, Partition(mu_up)), SkewShape(lam, Partition(mu_down))


def test_diagonal_split_is_the_cell_set_split():
    """The row cut against the row-by-row reference and the cell-set
    definition on every diagonal-free skew shape of size at most 8."""
    count = 0
    for lam in partitions_up_to(8):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            if shape.props.has_diagonal_cell:
                continue
            upper, lower = diagonal_split(shape)
            assert (upper, lower) == _reference_split(shape), shape
            assert set(upper.cells()) == \
                {(r, c) for r, c in shape.cells() if c > r}, shape
            assert set(lower.cells()) == \
                {(r, c) for r, c in shape.cells() if c < r}, shape
            count += 1
    assert count == 501


def test_compatibility():
    assert is_compatible(Partition((2, 2, 2, 1)), Flag((3, 3, 3, 5)))
    assert not is_compatible(Partition((1, 1)), Flag((1, 5)))
    with pytest.raises(ValueError):
        is_compatible(Partition((2,)), Flag((1, 2)))


def test_flag_split():
    minus, plus = flag_split(Flag((-1, 0, 1, 2, 4)))
    assert minus.bounds == (-1, 0, 0, 0, 0)
    assert plus.bounds == (0, 0, 1, 2, 4)


def test_psi_and_delta_fixture():
    lam = Partition((4, 4, 4, 4, 4, 2, 1))
    phi = Flag((3, 4, 4, 5, 6, 6, 8))
    assert psi_flag(lam, phi).bounds == (-3, -2, -1, 0, 1, 4, 6)
    assert delta_seq(lam, phi).values == (6, 6, 5, 5, 5, 2, 2)


def test_psi_delta_small():
    lam, phi = Partition((1, 1)), Flag((1, 2))
    assert psi_flag(lam, phi).bounds == (0, 1)
    assert delta_seq(lam, phi).values == (1, 1)


def test_xi_flag_examples():
    assert xi_flag(Partition((1, 1)), Flag((-2, -1))).bounds == (1,)
    assert xi_flag(Partition((1,)), Flag((0,))).bounds == (0,)
    assert xi_flag(Partition((2, 1)), Flag((-1, 0))).bounds == (0, 1)
    with pytest.raises(ValueError):
        xi_flag(Partition((1,)), Flag((1,)))
    # the raw flag (1,1,1,4,4) is not compatible with nu' = (2,2,2,1,1)
    assert xi_flag(Partition((5, 3)), Flag((-4, -1))).bounds == \
        (0, 0, 1, 3, 4)


def test_xi_flag_is_compatible_with_the_raw_caps():
    # every nu of size <= 8 and every nonpositive flag on [-7, 0]: 5563
    # flags, 267 of them with an incompatible raw flag
    total = replaced = 0
    for nu in partitions_up_to(8):
        nuc = nu.conjugate()
        for phi_minus in compatible_flags(nu, -7, 0):
            raw = Flag(tuple(-phi_minus.entry(nuc.part(i))
                             for i in range(1, len(nuc) + 1)))
            xi = xi_flag(nu, phi_minus)
            assert is_compatible(nuc, xi) and min(xi.bounds) >= 0
            if is_compatible(nuc, raw):
                assert xi == raw
            else:
                replaced += 1
            assert {k: max(v, 0) for k, v in flag_caps(nuc, xi).items()} == \
                {k: max(v, 0) for k, v in flag_caps(nuc, raw).items()}
            total += 1
    assert (total, replaced) == (5563, 267)


def test_flag_equivalence():
    lam = Partition((2, 2, 2, 1))
    assert flags_equivalent(lam, Flag((3, 3, 3, 5)), Flag((1, 2, 3, 5)))
    assert not flags_equivalent(lam, Flag((3, 3, 3, 5)), Flag((1, 2, 3, 4)))
    caps = flag_caps(Partition((1, 1)), Flag((1, 2)))
    assert caps[(1, 1)] == 1 and caps[(2, 1)] == 2
    # the code flag of 142563 on its shape, and a flag with no compatible
    # representative
    assert normal_flag(Partition((2, 1, 1)), Flag((2, 5, 5))).bounds == \
        (2, 4, 5)
    assert compatible_form(Partition((3, 1)), Flag((1, 9))).bounds == (1, 9)
    assert normal_flag(lam, Flag((3, 3, 3, 5))).bounds == (1, 2, 3, 5)
    assert compatible_form(lam, Flag((3, 3, 3, 5))).bounds == (3, 3, 3, 5)


def test_normal_flag_against_the_caps():
    # every nonempty lam of size <= 5 and every weakly increasing flag on
    # [-3, 5]; the normal form decides equivalence the way the caps do
    pairs = 0
    for lam in partitions_up_to(5):
        classes = {}
        for phi in weak_flags(len(lam), -3, 5):
            norm = normal_flag(lam, phi)
            assert flag_caps(lam, norm) == flag_caps(lam, phi)
            assert normal_flag(lam, norm) == norm
            classes.setdefault(norm, []).append(phi)
            pairs += 1
        # distinct normal forms have distinct caps
        assert len({tuple(flag_caps(lam, n).values()) for n in classes}) == \
            len(classes)
        # each class against itself and against the next one
        reps = list(classes.items())
        for (norm, same), (_, other) in zip(reps, reps[1:] + reps[:1]):
            assert all(flags_equivalent(lam, same[0], phi) for phi in same)
            assert other is same or \
                not any(flags_equivalent(lam, other[0], phi) for phi in same)
            # the normal form is compatible when any of its class is
            assert is_compatible(lam, norm) or \
                not any(is_compatible(lam, phi) for phi in same)
    assert pairs == 3252


def test_compatible_flags_respect_bounds():
    lam = Partition((2, 1))
    flags = list(compatible_flags(lam, -1, 2))
    assert all(is_compatible(lam, f) for f in flags)
    assert all(-1 <= b <= 2 for f in flags for b in f.bounds)
    assert Flag((0, 2)) in flags
    assert len(flags) == len(set(flags))
