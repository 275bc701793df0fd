"""Integer permutations, vexillarity, and shape/flag extraction."""

import pytest

from egc.perms import Permutation, code_of, code_shape_flag
from egc.shapes import Flag, Partition, flags_equivalent


def test_canonical_trimming():
    assert Permutation(3, (3, 4, 5)) == Permutation.identity()
    w = Permutation.from_one_line((1, 3, 2, 4), 1)
    assert (w.lo, w.images) == (2, (3, 2))


def test_call_and_inverse():
    w = Permutation.from_one_line((0, 3, -1, 1, 2), -1)
    assert w(-1) == 0 and w(5) == 5
    assert (w * w.inverse()) == Permutation.identity()
    assert w.inverse().inverse() == w


def test_from_word_and_reduced_word():
    w = Permutation.from_word((2, 1, -1, 0))
    assert w.one_line(-1, 3) == (0, 3, -1, 1, 2)
    assert w.length() == 4
    rw = w.reduced_word()
    assert len(rw) == 4 and Permutation.from_word(rw) == w
    assert Permutation.from_word(()) == Permutation.identity()


def test_descents():
    w = Permutation.from_one_line((3, 4, 5, 1, 6, 2), 1)
    assert w.descents() == [3, 5]
    assert w.length() == 7


def test_vexillary_345162():
    w = Permutation.from_one_line((3, 4, 5, 1, 6, 2), 1)
    assert w.is_vexillary()
    csf = code_shape_flag(w)
    assert csf.shape == Partition((2, 2, 2, 1))
    assert csf.flag == Flag((3, 3, 3, 5))
    assert flags_equivalent(csf.shape, csf.flag, Flag((1, 2, 3, 5)))


def test_non_vexillary_specimen():
    # an adjacent-letter variant of the word (2,1,-1,0) does contain the
    # forbidden pattern; the printed word itself does not (its one-line
    # notation (0,3,-1,1,2) is 2143-avoiding), so the engine reports it
    # as vexillary.
    assert not Permutation.from_word((1, 2, -1, 0)).is_vexillary()
    assert Permutation.from_word((2, 1, -1, 0)).is_vexillary()


def test_code_and_shape():
    w = Permutation.from_one_line((3, 4, 5, 1, 6, 2), 1)
    assert code_of(w) == {1: 2, 2: 2, 3: 2, 5: 1}
    assert code_shape_flag(w).shape == Partition((2, 2, 2, 1))
    assert code_shape_flag(Permutation.identity()).shape == Partition(())


def test_code_shape_flag_rejects_non_vexillary():
    with pytest.raises(ValueError):
        code_shape_flag(Permutation.from_word((1, 2, -1, 0)))


def test_iota():
    w = Permutation.from_one_line((2, 1), 1)  # s_1
    assert w.iota(2) == Permutation.s(3)
    assert w.iota(0) == w


def test_long_windows_normalise_in_one_pass():
    n = 100_000
    assert Permutation.from_word((n,)) == Permutation.s(n)
    assert Permutation(0, tuple(range(n))) == Permutation.identity()
    w = Permutation(1, tuple(range(1, n)) + (n + 1, n))
    assert (w.lo, w.images) == (n, (n + 1, n))
