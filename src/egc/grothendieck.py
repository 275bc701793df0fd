"""Windowed evaluation of (flagged, skew, double) stable beta-Grothendieck
functions, divided-difference Grothendieck polynomials, and the backstable
comparison checks.

Each value has two independent routes, one function each.  g_eval sums by
`field_sum`, the F_p transfer DP of tableaux.tableau_sum that the symbolic
pipeline shares; `enum_sum` enumerates tableaux, its oracle in the tests.
The backstable approximation is read off the orbit engine by
`backstable_approx` and off the expanded polynomial by `backstable_poly`.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from itertools import permutations as iter_permutations
from typing import TYPE_CHECKING

from .perms import Permutation, code_shape_flag
from .ring import (EvaluationPoint, EvaluationError, SparsePoly, field_inv,
                   isobaric)
from .shapes import Flag, SkewShape
from .tableaux import (EnumSpec, Semiring, enumerate_tableaux, tableau_sum,
                       weight_eval)

if TYPE_CHECKING:
    import numpy as np

ORBIT_PRIME = 2147483647  # 2^31 - 1: orbit-engine products fit in int64


def _dead_below(shape: SkewShape, point: EvaluationPoint) -> int | None:
    """Largest v0 such that every value < v0 contributes only zero factors.

    A value v at a cell on diagonal d = c-r contributes x_v (-) y_{v+d},
    which vanishes when both variables read 0.  None means no constraint
    (both supports empty or shape empty).
    """
    d_max = shape.props.d_max
    if d_max is None:
        return None
    return min([*point.x_support, *(y - d_max for y in point.y_support)],
               default=None)


def default_window(shape: SkewShape, flag: Flag | None, sign: str,
                   point: EvaluationPoint) -> tuple[int, int]:
    props = shape.props
    if not props.rows_occupied:
        return (0, 0)
    if sign == "nonpositive":
        hi = 0
    elif flag is not None:
        last = props.rows_occupied[-1]  # the flag weakly increases
        if len(flag) < last:
            raise ValueError("flag shorter than the occupied rows")
        hi = flag.entry(last)
    else:
        hi = max([0, *point.x_support,
                  *(y - props.d_min for y in point.y_support)])
    if sign == "positive":
        lo = 1
    else:
        dead = _dead_below(shape, point)
        lo = hi + 1 if dead is None else dead
    return (min(lo, hi), hi)


def g_eval(shape: SkewShape, flag: Flag | None, sign: str,
           point: EvaluationPoint, window: tuple[int, int] | None = None
           ) -> int:
    """Sum of tableau weights over the admissible fillings, by field_sum."""
    if window is None:
        window = default_window(shape, flag, sign, point)
    elif sign != "positive":
        dead = _dead_below(shape, point)
        if dead is not None and window[0] > dead:
            raise ValueError(
                f"window {window} insufficient: values down to {dead} can "
                "contribute at this point")
    return field_sum(EnumSpec(shape, flag, sign, window), point)


def field_sum(spec: EnumSpec, point: EvaluationPoint) -> int:
    """The tableau-weight sum over spec at the point, by the F_p transfer
    DP; spec's window is taken as given."""
    p, beta = point.prime, point.beta
    seen, forms = point._closed

    def f(m: int, d: int) -> int:  # x_m (-) y_{m+d} at the largest value m
        if (m, d) not in seen:
            seen[m, d] = point.ominus(point.x_val(m), point.y_val(m + d))
        return seen[m, d]

    field = Semiring(0, 1, lambda a, b: (a + b) % p, lambda a, b: a * b % p)
    return tableau_sum(spec, field, f, lambda m, d: (1 + beta * f(m, d)) % p,
                       forms)


def enum_sum(spec: EnumSpec, point: EvaluationPoint) -> int:
    """field_sum's value by enumerating the tableaux: its oracle."""
    return sum(weight_eval(t, point) for t in enumerate_tableaux(spec)) \
        % point.prime


# ---------------------------------------------------------------------------
# Divided-difference Grothendieck polynomials


def _top_product(n: int, yvals, beta: int, prime: int) -> SparsePoly:
    """prod_{i+j<=n} (x_i (-) y_j) with y evaluated; yvals[j-1] = value of y_j."""
    f = SparsePoly.const(1, n, prime)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            yv = yvals[j - 1]
            den = (1 + beta * yv) % prime
            if den == 0:
                raise EvaluationError("1 + beta*y vanishes in top product")
            inv = field_inv(den, prime)
            lin = (SparsePoly.var(i, n, prime)
                   - SparsePoly.const(yv, n, prime)).scale(inv)
            f = f * lin
    return f


def grothendieck_poly(w: Permutation, n: int, point: EvaluationPoint,
                      word: tuple[int, ...] | None = None) -> SparsePoly:
    """The double beta-Grothendieck polynomial of w in x_1..x_n, with y and
    beta read from the point.  Independent of n and of the reduced word."""
    if w.images and not (1 <= w.lo and w.window_hi <= n):
        raise ValueError(f"permutation {w} not supported in 1..{n}")
    beta, prime = point.beta, point.prime
    yvals = [point.y_val(j) for j in range(1, n)]
    f = _top_product(n, yvals, beta, prime)
    v = w.inverse() * Permutation(1, tuple(range(n, 0, -1)))  # w^{-1} w_0
    if word is None:
        word = v.reduced_word()
    else:
        if Permutation.from_word(word) != v or len(word) != v.length():
            raise ValueError("word is not a reduced word for w^{-1} w_0")
    for i in reversed(word):
        f = isobaric(f, i, beta)
    return f


# ---------------------------------------------------------------------------
# Orbit evaluation engine: values of Grothendieck polynomials at one point
# and all coordinate permutations of it, vectorized over the orbit.  Only
# this engine uses numpy, so its functions import it on first use.


def _vec_inv(a: np.ndarray, p: int) -> np.ndarray:
    """Vectorized modular inverse by binary exponentiation to p-2."""
    import numpy as np
    result = np.ones_like(a)
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


ORBIT_MAX_N = 8  # an orbit vector has n! entries: 40,320 at n = 8


@lru_cache(maxsize=ORBIT_MAX_N)
def _orbit_index(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """What every orbit table on n coordinates shares, read-only: the orbit
    matrix, whose row k is the k-th permutation of range(n) in
    lexicographic order (row 0 is the identity), and for each i < n-1 the
    row index map that swaps entries i and i+1."""
    import numpy as np
    perms = list(iter_permutations(range(n)))
    index = {pm: k for k, pm in enumerate(perms)}
    partner = tuple(
        np.array([index[pm[:i] + (pm[i + 1], pm[i]) + pm[i + 2:]]
                  for pm in perms], dtype=np.intp)
        for i in range(n - 1))
    orbit = np.array(perms, dtype=np.int8)
    for a in (orbit, *partner):
        a.flags.writeable = False
    return orbit, partner


def ascent_chain(line: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The path from w_0 down to u = line in the last-ascent tree of the
    weak order, as (one-line of the node, letter a) pairs from w_0's child
    to u.  The parent of a node v is v*s_a for v's last ascent a, and
    𝔊_v = π_a 𝔊_{v*s_a}.  As a sort key, it orders the tree depth
    first."""
    chain = []
    while True:
        a = next((a for a in range(len(line) - 1, 0, -1)
                  if line[a - 1] < line[a]), 0)
        if not a:
            break
        chain.append((line, a))
        line = line[:a - 1] + (line[a], line[a - 1]) + line[a + 1:]
    chain.reverse()
    return chain


class OrbitTable:
    """Evaluates 𝔊_w(x;y) for w in S_n at the base point xs (and implicitly
    at every rearrangement of xs), by applying the isobaric recursion
    pointwise over the orbit.  Requires pairwise distinct xs mod p.

    A value is read off the end of w's path in one spanning tree of the
    weak order: the parent of u is u*s_a for u's last ascent a, the root is
    w_0 with 𝔊_{w_0} the top product, and each edge is one step π_a.  The
    table keeps the path of its last query, as (one-line, vector) pairs;
    a new query reuses the longest common prefix with it and steps only
    along the rest.  Queries sorted by ascent_chain step each node once.
    Vectors are stored as uint32, which holds every residue since
    p < 2^31.5; products are taken in int64.

    Memory: the n-only data (`_orbit_index`) is shared by every table on n
    coordinates, (n-1)*n!*8 bytes for the swap maps and n*n! for the orbit
    matrix.  Each table holds (2n-1)*n!*8 bytes for the per-coordinate
    factors and inverse differences, n!*4 for 𝔊_{w_0}, and at most
    n(n-1)/2 path vectors of n!*4 bytes.  At n = 8 that is 2.6 MB shared
    and at most 9.5 MB per table, so n is limited to ORBIT_MAX_N.
    """

    def __init__(self, xs: tuple[int, ...], ys: tuple[int, ...],
                 beta: int, prime: int):
        n = len(xs)
        if n > ORBIT_MAX_N:
            raise ValueError(f"orbit table on n={n} coordinates exceeds the "
                             f"limit n <= {ORBIT_MAX_N} (n! entries each)")
        if prime * prime >= 2**63:
            raise ValueError(
                f"prime {prime} too large for int64 orbit arithmetic")
        if len(set(v % prime for v in xs)) != n:
            raise ValueError("orbit evaluation needs distinct x coordinates")
        if len(ys) < n - 1:
            raise ValueError(f"need {n - 1} y values")
        import numpy as np
        self.n, self.beta, self.prime = n, beta % prime, prime
        orbit, self.partner = _orbit_index(n)
        xs_arr = np.array([v % prime for v in xs], dtype=np.int64)
        X = [xs_arr[orbit[:, i]] for i in range(n)]
        self.A = [(1 + self.beta * Xi) % prime for Xi in X]
        self.invdiff = [_vec_inv((X[i] - X[i + 1]) % prime, prime)
                        for i in range(n - 1)]
        top = np.ones(len(orbit), dtype=np.int64)
        for i in range(1, n):
            for j in range(1, n - i + 1):
                yv = ys[j - 1] % prime
                den = (1 + self.beta * yv) % prime
                if den == 0:
                    raise EvaluationError("1 + beta*y vanishes in top product")
                inv = field_inv(den, prime)
                top = top * ((X[i - 1] - yv) % prime) % prime * inv % prime
        self.top = top.astype(np.uint32)
        self._path: list[tuple[tuple[int, ...], np.ndarray]] = []

    def _op(self, F: np.ndarray, i: int) -> np.ndarray:
        G = F[self.partner[i - 1]]
        num = (self.A[i] * F - self.A[i - 1] * G) % self.prime
        return (num * self.invdiff[i - 1] % self.prime).astype(F.dtype)

    def value(self, w: Permutation) -> int:
        """𝔊_w evaluated at the base point; w supported in 1..n."""
        if w.images and not (1 <= w.lo and w.window_hi <= self.n):
            raise ValueError(f"permutation {w} not supported in 1..{self.n}")
        chain = ascent_chain(w.one_line(1, self.n))
        path = self._path
        k = 0
        while k < min(len(path), len(chain)) and path[k][0] == chain[k][0]:
            k += 1
        del path[k:]
        F = path[-1][1] if path else self.top
        for line, a in chain[k:]:
            F = self._op(F, a)
            path.append((line, F))
        return int(F[0])  # row 0 of the orbit is the base point itself


@lru_cache(maxsize=8)
def _orbit_table(xs, ys, beta, prime):
    """The orbit table of one point, kept for the next w at it: the gvex
    sweep asks for 3 points and acceptance criterion 8 for 5.  At n = 8
    the cache holds at most 8 x 9.5 MB of tables plus the 2.6 MB they
    share (see OrbitTable)."""
    return OrbitTable(xs, ys, beta, prime)


# ---------------------------------------------------------------------------
# Backstable approximation and the vexillary comparison


def _ambient(w: Permutation, p: int, n: int | None):
    """iota^p(w) and its number n of variables, by default the fewest >= 2."""
    if p < 0:
        raise ValueError("shift p must be nonnegative")
    w2 = w.iota(p)
    if w2.images and w2.lo < 1:
        raise ValueError(f"p={p} too small: iota^p(w) has support below 1")
    if n is None:
        return w2, max(w2.window_hi if w2.images else 1, 2)
    if w2.images and n < w2.window_hi:
        raise ValueError(f"n={n} too small for support of iota^p(w)")
    return w2, n


def _shifted(w: Permutation, p: int, point: EvaluationPoint, n: int | None):
    """Both routes' prelude: iota^p(w), x_{1-p..n-p} and y_{1-p..n-1-p}."""
    w2, n = _ambient(w, p, n)
    return (w2, tuple(point.x_val(i - p) for i in range(1, n + 1)),
            tuple(point.y_val(j - p) for j in range(1, n)))


def backstable_approx(w: Permutation, p: int, point: EvaluationPoint,
                      n: int | None = None) -> int:
    """Evaluate the shifted polynomial gamma^{-p} 𝔊_{iota^p(w)} at the point
    by the orbit engine (distinct x values, n <= ORBIT_MAX_N): x_i and y_j of
    the ambient polynomial read the point at index i-p, j-p."""
    w2, xs, ys = _shifted(w, p, point, n)
    return _orbit_table(xs, ys, point.beta, point.prime).value(w2)


def backstable_poly(w: Permutation, p: int, point: EvaluationPoint,
                    n: int | None = None) -> int:
    """backstable_approx's value by expanding the divided-difference
    polynomial: any prime, repeated x values allowed."""
    w2, xs, ys = _shifted(w, p, point, n)
    shifted = EvaluationPoint.make(point.prime, point.beta, {},
                                   dict(enumerate(ys, 1)))
    return grothendieck_poly(w2, len(xs), shifted).evaluate(xs)


def gvex_checker(w: Permutation, p: int = 0, n: int | None = None
                 ) -> Callable[[EvaluationPoint], bool]:
    """A check of backstable_approx of 𝔊_w against the flagged tableau sum
    for (shape(w), flag(w)) under the same specialization.  w's shape, flag
    and support are read once, and the returned function compares at one
    point.

    Heuristic at finite p: the point's x-support must lie inside the index
    range the shifted polynomial can see, [1-p, n-p]."""
    csf = code_shape_flag(w)  # raises ValueError unless w is vexillary
    shape, flag = SkewShape(csf.shape), csf.flag
    n = _ambient(w, p, n)[1]

    def check(point: EvaluationPoint) -> bool:
        if point.x_support and min(point.x_support) < 1 - p:
            raise ValueError(f"x-support extends below 1-p = {1 - p}")
        if point.x_support and max(point.x_support) > n - p:
            raise ValueError(f"x-support extends above n-p = {n - p}")
        return backstable_approx(w, p, point, n) == \
            g_eval(shape, flag, "any", point)

    return check

