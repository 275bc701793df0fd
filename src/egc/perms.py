"""Finite-support permutations of the integers.

A permutation is stored as the image sequence of a window [lo, hi] and acts
as the identity outside it.  The canonical window is the minimal interval
containing the support, so structural equality is semantic equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .shapes import Flag, Partition


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
    def window_lo(self) -> int:
        return self.lo

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
        if not self.images:
            return self
        inv = [0] * len(self.images)
        for k in range(self.lo, self.window_hi + 1):
            inv[self(k) - self.lo] = k
        return Permutation(self.lo, tuple(inv))

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
        n = len(self.images)
        return sum(1 for a in range(n) for b in range(a + 1, n)
                   if self.images[a] > self.images[b])

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
        """No i<j<k<l in the window with w(j) < w(i) < w(l) < w(k)."""
        line = self.images
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
    """The code c_k(w) = #{j > k : w(k) > w(j)}, nonzero entries only."""
    code = {}
    for k in range(w.lo, w.window_hi + 1):
        wk = w(k)
        c = sum(1 for j in range(k + 1, w.window_hi + 1) if wk > w(j))
        if c:
            code[k] = c
    return code


def code_shape_flag(w: Permutation) -> CodeShapeFlag:
    """The shape and flag of a vexillary w; raises ValueError otherwise.

    The shape sorts the nonzero code entries.  p_k(w) = min{j > k : w(k) >
    w(j)} - 1; the flag collects the p_k for rows with c_k > 0, sorted
    increasingly.
    """
    code = code_of(w)
    shape = Partition(tuple(sorted(code.values(), reverse=True)))
    if not w.is_vexillary():
        raise ValueError(f"permutation {w} is not vexillary; flag undefined")
    ps = []
    for k in code:
        j = next(j for j in range(k + 1, w.window_hi + 1) if w(k) > w(j))
        ps.append(j - 1)
    flag = Flag(tuple(sorted(ps)))
    return CodeShapeFlag(shape, flag)
