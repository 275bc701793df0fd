"""Finite-support permutations of the integers.

A permutation is stored as the image sequence of a window [lo, hi] and acts
as the identity outside it.  The canonical window is the minimal interval
containing the support, so structural equality is semantic equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as iter_permutations

from .shapes import Flag, Partition, conjugate_parts


@dataclass(frozen=True)
class Permutation:
    lo: int = 0
    images: tuple[int, ...] = ()

    def __post_init__(self):
        lo, images = self.lo, tuple(self.images)
        hi = lo + len(images) - 1
        if sorted(images) != list(range(lo, hi + 1)):
            raise ValueError(f"images {images} not a permutation of [{lo},{hi}]")
        # shrink to the minimal window containing the support: find its
        # ends, then slice once
        a, b = 0, len(images)
        while a < b and images[a] == lo + a:
            a += 1
        while b > a and images[b - 1] == lo + b - 1:
            b -= 1
        object.__setattr__(self, "lo", lo + a if a < b else 0)
        object.__setattr__(self, "images", images[a:b])

    @classmethod
    def identity(cls) -> "Permutation":
        return cls()

    @classmethod
    def from_one_line(cls, images, base: int) -> "Permutation":
        return cls(base, tuple(images))

    @classmethod
    def s(cls, i: int) -> "Permutation":
        """The simple transposition of i and i+1."""
        return cls(i, (i + 1, i))

    @classmethod
    def from_word(cls, word) -> "Permutation":
        w = cls.identity()
        for i in word:
            w = w.times_s(i)
        return w

    @property
    def window_hi(self) -> int:
        return self.lo + len(self.images) - 1

    def __call__(self, k: int) -> int:
        if self.lo <= k <= self.window_hi:
            return self.images[k - self.lo]
        return k

    def __str__(self):
        if not self.images:
            return "identity"
        return f"[{self.lo}:{','.join(map(str, self.images))}]"

    def one_line(self, lo: int, hi: int) -> tuple[int, ...]:
        return tuple(self(k) for k in range(lo, hi + 1))

    def is_identity(self) -> bool:
        return not self.images

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for k, v in enumerate(self.images, self.lo):
            inv[v - self.lo] = k
        # w^-1 moves the points w moves: the window stays minimal, unchecked
        out = object.__new__(Permutation)
        object.__setattr__(out, "lo", self.lo)
        object.__setattr__(out, "images", tuple(inv))
        return out

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (u*v)(k) = u(v(k))."""
        if not self.images:
            return other
        if not other.images:
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.window_hi, other.window_hi)
        return Permutation(lo, tuple(self(other(k)) for k in range(lo, hi + 1)))

    def times_s(self, i: int) -> "Permutation":
        """Right multiplication by the simple transposition s_i."""
        if not self.images:
            return Permutation.s(i)
        lo = min(self.lo, i)
        hi = max(self.window_hi, i + 1)
        line = list(self.one_line(lo, hi))
        line[i - lo], line[i + 1 - lo] = line[i + 1 - lo], line[i - lo]
        return Permutation(lo, tuple(line))

    def length(self) -> int:
        return sum(code_of(self).values())

    def descents(self) -> list[int]:
        return [k for k in range(self.lo, self.window_hi)
                if self(k) > self(k + 1)]

    def reduced_word(self) -> tuple[int, ...]:
        word = []
        w = self
        while not w.is_identity():
            i = w.descents()[0]
            word.append(i)
            w = w.times_s(i)
        return tuple(reversed(word))

    def is_vexillary(self) -> bool:
        """No i<j<k<l with w(j) < w(i) < w(l) < w(k), decided by Macdonald's
        criterion (Notes on Schubert Polynomials, 1991): the sorted code of
        w^-1 is the conjugate of the sorted code of w."""
        return _vexillary_shape(self) is not None

    def iota(self, n: int = 1) -> "Permutation":
        """The shift automorphism sending s_i to s_{i+n}."""
        if not self.images:
            return self
        return Permutation(self.lo + n, tuple(v + n for v in self.images))


@dataclass(frozen=True)
class CodeShapeFlag:
    shape: Partition
    flag: Flag


def code_of(w: Permutation) -> dict[int, int]:
    """The code c_k(w) = #{j > k : w(k) > w(j)}, nonzero entries only.

    One pass from the right: c_k counts the values below w(k) already seen,
    kept in a Fenwick tree over the window, so the pass takes n log n."""
    code, lo, n = {}, w.lo, len(w.images)
    tree = [0] * (n + 1)  # tree[i] counts the seen v - lo in [i - (i & -i), i)
    for k in range(n - 1, -1, -1):
        c = 0
        i = v = w.images[k] - lo  # the values below w(k) are lo..lo + v - 1
        while i:
            c, i = c + tree[i], i & (i - 1)
        if c:
            code[lo + k] = c
        i = v + 1
        while i <= n:
            tree[i], i = tree[i] + 1, i + (i & -i)
    return code


def _vexillary_shape(w: Permutation, code=None) -> tuple[int, ...] | None:
    """The sorted code of w when w is vexillary, by Macdonald's criterion."""
    code = code_of(w) if code is None else code
    shape = tuple(sorted(code.values(), reverse=True))
    inverse = sorted(code_of(w.inverse()).values(), reverse=True)
    return shape if tuple(inverse) == conjugate_parts(shape) else None


def code_shape_flag(w: Permutation, code=None) -> CodeShapeFlag:
    """The shape and flag of a vexillary w; raises ValueError otherwise.

    The shape sorts the nonzero code entries.  p_k(w) = min{j > k : w(k) >
    w(j)} - 1; the flag collects the p_k for rows with c_k > 0, sorted
    increasingly.
    """
    if (shape := _vexillary_shape(w, code)) is None:
        raise ValueError(f"permutation {w} is not vexillary; flag undefined")
    # right to left, the stack holds each j > k with no smaller value
    # between k and j, nearest on top; once those above w(k) are popped,
    # the top is p_k + 1, and the stack is empty exactly when c_k = 0
    line, ps, stack = w.images, [], []
    for k in range(len(line) - 1, -1, -1):
        while stack and line[stack[-1]] > line[k]:
            stack.pop()
        if stack:
            ps.append(w.lo + stack[-1] - 1)
        stack.append(k)
    return CodeShapeFlag(Partition(shape), Flag(tuple(sorted(ps))))


def all_vexillary(lo: int, hi: int) -> list[Permutation]:
    """All vexillary permutations with support inside [lo, hi]."""
    ws = (Permutation.from_one_line(images, lo)
          for images in iter_permutations(range(lo, hi + 1)))
    return sorted((w for w in ws if w.is_vexillary()),
                  key=lambda w: (w.length(), w.one_line(lo, hi)))
