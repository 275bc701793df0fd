"""Integer permutations, vexillarity, and shape/flag extraction."""

import random
import time
from itertools import permutations

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


def _avoids_2143(line) -> bool:
    """The pattern search behind is_vexillary before Macdonald's criterion:
    i<j<k<l with w(j) < w(i) < w(l) < w(k)."""
    n = len(line)
    for a in range(n):
        for b in range(a + 1, n):
            if line[b] >= line[a]:
                continue
            for c in range(b + 1, n):
                if line[c] <= line[a]:
                    continue
                for d in range(c + 1, n):
                    if line[a] < line[d] < line[c]:
                        return False
    return True


def test_vexillary_is_2143_avoidance():
    """Macdonald's criterion against the pattern search on every window of
    S_1..S_8 at base -2; the counts are the vexillary numbers."""
    counts = []
    for n in range(1, 9):
        count = 0
        for images in permutations(range(-2, n - 2)):
            vex = Permutation.from_one_line(images, -2).is_vexillary()
            assert vex == _avoids_2143(images), images
            count += vex
        counts.append(count)
    assert counts == [1, 2, 6, 23, 103, 513, 2761, 15767]


def _random_window(rng: random.Random) -> Permutation:
    """A window of width <= 40 at a base on either side of 0: shuffled,
    Grassmannian (one descent) or inverse Grassmannian, so that many are
    vexillary."""
    width, base = rng.randint(1, 40), rng.randint(-20, 20)
    values = list(range(base, base + width))
    kind = rng.randrange(3)
    if kind == 0:
        rng.shuffle(values)
        return Permutation.from_one_line(values, base)
    first = sorted(rng.sample(values, rng.randint(0, width)))
    w = Permutation.from_one_line(
        first + sorted(set(values) - set(first)), base)
    return w if kind == 1 else w.inverse()


def test_code_length_and_flag_match_their_definitions():
    """c_k = #{j > k : w(k) > w(j)}, length = sum of c_k, and the flag
    sorts p_k = min{j > k : w(k) > w(j)} - 1 over the rows with c_k > 0."""
    rng = random.Random("perms:pairwise")
    vexillary = 0
    for _ in range(300):
        w = _random_window(rng)
        ks = range(w.lo, w.lo + len(w.images))
        code = {k: c for k in ks
                if (c := sum(1 for j in ks if j > k and w(k) > w(j)))}
        assert code_of(w) == code, w
        assert w.length() == sum(code.values()), w
        if w.is_vexillary():
            vexillary += 1
            ps = [min(j for j in ks if j > k and w(k) > w(j)) - 1
                  for k in code]
            assert code_shape_flag(w).flag == Flag(tuple(sorted(ps))), w
    assert vexillary >= 150


def test_wide_windows_take_one_code_pass():
    """Windows of 20,001 and 20,002 positions, on which the pairwise scans
    took minutes: two far-apart letters and the transposition (0 n)."""
    n = 20_000
    start = time.perf_counter()
    w = Permutation.from_word((0, n))
    assert (w.length(), code_of(w)) == (2, {0: 1, n: 1})
    assert not w.is_vexillary()  # 1 0 ... n+1 n contains 2143
    with pytest.raises(ValueError):
        code_shape_flag(w)
    t = Permutation.from_one_line((n,) + tuple(range(1, n)) + (0,), 0)
    assert t.length() == 2 * n - 1 and t.is_vexillary()
    csf = code_shape_flag(t)
    assert csf.shape.parts == (n,) + (1,) * (n - 1)
    assert csf.flag.bounds == (0,) + (n - 1,) * (n - 1)
    assert time.perf_counter() - start < 5


def test_code_matches_definition_on_narrow_windows():
    """code_of against c_k = #{j > k : w(k) > w(j)} on random windows of
    width 1..9, and the inverse it reads against the checked constructor."""
    rng = random.Random("perms:fenwick")
    for _ in range(2000):
        width, base = rng.randint(1, 9), rng.randint(-5, 5)
        values = list(range(base, base + width))
        rng.shuffle(values)
        w = Permutation.from_one_line(values, base)
        ks = range(w.lo, w.lo + len(w.images))
        assert code_of(w) == {k: c for k in ks if (c := sum(
            1 for j in ks if j > k and w(k) > w(j)))}, w
        inv = w.inverse()
        assert inv == Permutation(base, tuple(
            sorted(range(base, base + width), key=lambda k: w(k)))), w
        assert w * inv == Permutation.identity()


def test_code_of_the_transposition_0_n():
    """(0 n) at n = 100,000, with exact values: c_0 = n and c_k = 1 for
    0 < k < n; it is its own inverse."""
    n = 100_000
    t = Permutation.from_one_line((n,) + tuple(range(1, n)) + (0,), 0)
    assert code_of(t) == {0: n, **{k: 1 for k in range(1, n)}}
    assert t.inverse() == t
    assert t.length() == 2 * n - 1 and t.is_vexillary()
    csf = code_shape_flag(t)
    assert csf.shape.parts == (n,) + (1,) * (n - 1)
    assert csf.flag.bounds == (0,) + (n - 1,) * (n - 1)
