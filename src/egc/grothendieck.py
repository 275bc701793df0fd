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
from math import prod

from .perms import Permutation, code_shape_flag
from .ring import (EvaluationPoint, EvaluationError, SparsePoly, field_inv,
                   isobaric)
from .shapes import Flag, SkewShape
from .tableaux import (EnumSpec, Semiring, enumerate_tableaux, tableau_sum,
                       weight_eval)

ORBIT_PRIME = 2147483647  # 2^31 - 1: the gvex suite's prime when p^2 >= 2^63


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
# and, lazily, at the coordinate permutations of it that a query reads.


ORBIT_MAX_N = 8  # a node has n! slots: 40,320 at n = 8


@lru_cache(maxsize=ORBIT_MAX_N)
def _orbit_perms(n: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """What every orbit table on n coordinates shares, read-only: the
    permutations of range(n) in lexicographic order, whose index is the
    orbit rank (rank 0 is the identity), and for each i < n-1 the rank map
    that swaps entries i and i+1."""
    perms = list(iter_permutations(range(n)))
    index = {pm: k for k, pm in enumerate(perms)}
    swap = [[index[pm[:i] + (pm[i + 1], pm[i]) + pm[i + 2:]] for pm in perms]
            for i in range(n - 1)]
    return perms, swap


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
    """Evaluates 𝔊_w(x;y) for w in S_n at the base point xs (distinct mod
    p) by the isobaric recursion, run pointwise over the orbit of xs: the
    entry of rank u is the value at z_i = xs[perms[u][i-1]].

    A value is read off the end of w's path in one spanning tree of the
    weak order: the parent of u is u*s_a for u's last ascent a, the root is
    w_0 with 𝔊_{w_0} the top product, and each edge is one step π_a, whose
    slot u is (A(z_{a+1}) F(u) - A(z_a) F(s_a u)) / (z_a - z_{a+1}) for
    A(z) = 1 + beta*z and the parent's slots F.  A query fills only the
    slots its own entry reads.  The table keeps the path of its last query
    and reuses the longest common prefix with it, so queries sorted by
    ascent_chain compute each entry once; out of that order, the nodes off
    the shared prefix are dropped and refilled.

    Memory: every table on n coordinates shares `_orbit_perms(n)`, n!
    tuples of n and n-1 lists of n! ranks.  A table holds n×n tables of
    row factors and inverse differences, and at most 1 + n(n-1)/2 nodes
    (the root and its path) of n! slots, each empty or one int below p:
    at most 29 × 40,320 slots at n = ORBIT_MAX_N.  The gvex sweep (n = 7)
    fills 23,999 path entries and 5,040 roots per point.
    """

    def __init__(self, xs: tuple[int, ...], ys: tuple[int, ...],
                 beta: int, prime: int):
        n = len(xs)
        if n > ORBIT_MAX_N:
            raise ValueError(f"orbit table on n={n} coordinates exceeds the "
                             f"limit n <= {ORBIT_MAX_N} (n! entries each)")
        xs = [v % prime for v in xs]
        if len(set(xs)) != n:
            raise ValueError("orbit evaluation needs distinct x coordinates")
        if len(ys) < n - 1:
            raise ValueError(f"need {n - 1} y values")
        self.n, self.beta, self.prime = n, beta % prime, prime
        self.perms, self.swap = _orbit_perms(n)
        self.A = [(1 + self.beta * x) % prime for x in xs]
        self.invdiff = [[field_inv(x - z, prime) if x != z else 0
                         for z in xs] for x in xs]
        dens = [(1 + self.beta * y) % prime for y in ys[:n - 1]]
        if 0 in dens:
            raise EvaluationError("1 + beta*y vanishes in top product")
        scale = [field_inv(d, prime) for d in dens]
        # rows[i][m] = g_{i+1}(xs[m]), g_i(z) = prod_{j <= n-i} (z - y_j)/d_j
        self.rows = [[prod((x - y) * c for y, c in zip(ys, scale[:n - 1 - i]))
                      % prime for x in xs] for i in range(n)]
        self.root: list[int | None] = [None] * len(self.perms)
        self._path: list[tuple[tuple[int, ...], int, list[int | None]]] = []

    def _slots(self, level: int) -> list[int | None]:
        """The slots of path node `level`: 0 is the root w_0, 1 its child."""
        return self._path[level - 1][2] if level else self.root

    def _fill(self, level: int, ranks: list[int]) -> None:
        """Fill the given slots of node `level`: the root's from the row
        factors, a node's from its parent's, which must hold them."""
        p, perms, slots = self.prime, self.perms, self._slots(level)
        if not level:  # 𝔊_{w_0} = prod_i g_i(z_i)
            rows = self.rows
            for u in ranks:
                slots[u] = prod(r[m] for r, m in zip(rows, perms[u])) % p
            return
        A, invdiff, F = self.A, self.invdiff, self._slots(level - 1)
        a = self._path[level - 1][1]
        swap = self.swap[a - 1]
        for u in ranks:
            left, right = perms[u][a - 1], perms[u][a]
            slots[u] = (A[right] * F[u] - A[left] * F[swap[u]]) \
                * invdiff[left][right] % p

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
        path.extend((line, a, [None] * len(self.perms))
                    for line, a in chain[k:])
        # top down, the slots each level lacks; then fill them bottom up
        lacks, need = [], [0]
        for level in range(len(path), -1, -1):
            slots = self._slots(level)
            if not (need := [u for u in need if slots[u] is None]):
                break
            lacks.append((level, need))
            if level:
                swap = self.swap[path[level - 1][1] - 1]
                need = {*need, *(swap[u] for u in need)}
        for level, ranks in reversed(lacks):
            self._fill(level, ranks)
        return self._slots(len(path))[0]  # rank 0 is the base point itself


@lru_cache(maxsize=8)
def _orbit_table(xs, ys, beta, prime):
    """The orbit table of one point, kept for the next w at it: the gvex
    sweep asks for 3 points and acceptance criterion 8 for 5.  The cache
    keeps at most 8 tables of at most (1 + n(n-1)/2)·n! slots each (see
    OrbitTable): 8 × 29 × 40,320 slots at n = 8."""
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

