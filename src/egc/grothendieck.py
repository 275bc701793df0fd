"""Windowed evaluation of (flagged, skew, double) stable beta-Grothendieck
functions, divided-difference Grothendieck polynomials, and the backstable
comparison checks.

g_eval has two independent paths: the transfer-matrix DP of
tableaux.tableau_sum over F_p (the default; exponentially faster on wide
shapes), which the symbolic coefficient pipeline shares, and direct tableau
enumeration (method="enum"), the oracle that checks it in the test suite.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from itertools import permutations as iter_permutations

import numpy as np

from .perms import Permutation, code_shape_flag
from .ring import (EvaluationPoint, EvaluationError, SparsePoly, field_inv,
                   isobaric)
from .shapes import Flag, SkewShape
from .tableaux import (EnumSpec, Semiring, enumerate_tableaux, tableau_sum,
                       weight_eval)

ORBIT_PRIME = 2147483647  # 2^31 - 1: orbit-engine products fit in int64


def _dead_below(shape: SkewShape, point: EvaluationPoint) -> int | None:
    """Largest v0 such that every value < v0 contributes only zero factors.

    A value v at a cell on diagonal d = c-r contributes x_v (-) y_{v+d},
    which vanishes when both variables read 0.  None means no constraint
    (both supports empty or shape empty).
    """
    cells = shape.cells()
    if not cells:
        return None
    d_max = max(c - r for r, c in cells)
    bounds = []
    if point.x_support:
        bounds.append(min(point.x_support))
    if point.y_support:
        bounds.append(min(point.y_support) - d_max)
    return min(bounds) if bounds else None


def default_window(shape: SkewShape, flag: Flag | None, sign: str,
                   point: EvaluationPoint) -> tuple[int, int]:
    cells = shape.cells()
    if not cells:
        return (0, 0)
    rows = sorted({r for r, _ in cells})
    d_min = min(c - r for r, c in cells)
    if sign == "nonpositive":
        hi = 0
    elif flag is not None:
        hi = max(flag.entry(r) for r in rows)
    else:
        hi = 0
        if point.x_support:
            hi = max(hi, max(point.x_support))
        if point.y_support:
            hi = max(hi, max(point.y_support) - d_min)
    if sign == "positive":
        lo = 1
    else:
        dead = _dead_below(shape, point)
        lo = hi + 1 if dead is None else dead
    return (min(lo, hi), hi)


def _enum_eval(spec: EnumSpec, point: EvaluationPoint) -> int:
    total = 0
    for t in enumerate_tableaux(spec):
        total = (total + weight_eval(t, point)) % point.prime
    return total


def g_eval(shape: SkewShape, flag: Flag | None, sign: str,
           point: EvaluationPoint, window: tuple[int, int] | None = None,
           method: str = "dp") -> int:
    """Sum of tableau weights over the admissible fillings of the shape."""
    spec = EnumSpec(shape, flag, sign)  # checks the flag before it is read
    if window is None:
        window = default_window(shape, flag, sign, point)
    elif sign != "positive":
        dead = _dead_below(shape, point)
        if dead is not None and window[0] > dead:
            raise ValueError(
                f"window {window} insufficient: values down to {dead} can "
                "contribute at this point")
    spec = replace(spec, window=window)
    if method == "enum":
        return _enum_eval(spec, point)
    # over F_p: f = x_m (-) y_{m+d} for a cell's largest value m, beta*f below
    p, beta = point.prime, point.beta
    f = lru_cache(maxsize=None)(
        lambda m, d: point.ominus(point.x_val(m), point.y_val(m + d)))
    field = Semiring(0, 1, lambda a, b: (a + b) % p, lambda a, b: a * b % p)
    return tableau_sum(spec, field, f, lambda m, d: (1 + beta * f(m, d)) % p)


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


def _w0(n: int) -> Permutation:
    return Permutation(1, tuple(range(n, 0, -1)))


def grothendieck_poly(w: Permutation, n: int, point: EvaluationPoint,
                      word: tuple[int, ...] | None = None) -> SparsePoly:
    """The double beta-Grothendieck polynomial of w in x_1..x_n, with y and
    beta read from the point.  Independent of n and of the reduced word."""
    if w.images and not (1 <= w.lo and w.window_hi <= n):
        raise ValueError(f"permutation {w} not supported in 1..{n}")
    beta, prime = point.beta, point.prime
    yvals = [point.y_val(j) for j in range(1, n)]
    f = _top_product(n, yvals, beta, prime)
    v = w.inverse() * _w0(n)
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
# and all coordinate permutations of it, vectorized over the orbit.


def _vec_inv(a: np.ndarray, p: int) -> np.ndarray:
    """Vectorized modular inverse by binary exponentiation to p-2."""
    result = np.ones_like(a)
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


class OrbitTable:
    """Evaluates 𝔊_w(x;y) for w in S_n at the base point xs (and implicitly
    at every rearrangement of xs), by applying the isobaric recursion
    pointwise over the orbit.  Requires pairwise distinct xs mod p."""

    def __init__(self, xs: tuple[int, ...], ys: tuple[int, ...],
                 beta: int, prime: int):
        n = len(xs)
        if prime * prime >= 2**63:
            raise ValueError(
                f"prime {prime} too large for int64 orbit arithmetic")
        if len(set(v % prime for v in xs)) != n:
            raise ValueError("orbit evaluation needs distinct x coordinates")
        if len(ys) < n - 1:
            raise ValueError(f"need {n - 1} y values")
        self.n, self.beta, self.prime = n, beta % prime, prime
        perms = list(iter_permutations(range(n)))
        index = {pm: k for k, pm in enumerate(perms)}
        self.identity_index = index[tuple(range(n))]
        xs_arr = np.array([v % prime for v in xs], dtype=np.int64)
        pm_arr = np.array(perms, dtype=np.int64)
        self.X = [xs_arr[pm_arr[:, i]] for i in range(n)]
        self.A = [(1 + self.beta * Xi) % prime for Xi in self.X]
        self.partner = []
        self.invdiff = []
        for i in range(n - 1):
            swapped = [index[pm[:i] + (pm[i + 1], pm[i]) + pm[i + 2:]]
                       for pm in perms]
            self.partner.append(np.array(swapped, dtype=np.int64))
            self.invdiff.append(_vec_inv((self.X[i] - self.X[i + 1]) % prime,
                                         prime))
        top = np.ones(len(perms), dtype=np.int64)
        for i in range(1, n):
            for j in range(1, n - i + 1):
                yv = ys[j - 1] % prime
                den = (1 + self.beta * yv) % prime
                if den == 0:
                    raise EvaluationError("1 + beta*y vanishes in top product")
                inv = field_inv(den, prime)
                top = top * ((self.X[i - 1] - yv) % prime) % prime * inv % prime
        self.top = top
        self._cache: dict[tuple[int, ...], int] = {}

    def _op(self, F: np.ndarray, i: int) -> np.ndarray:
        G = F[self.partner[i - 1]]
        num = (self.A[i] * F - self.A[i - 1] * G) % self.prime
        return num * self.invdiff[i - 1] % self.prime

    def value(self, w: Permutation) -> int:
        """𝔊_w evaluated at the base point; w supported in 1..n."""
        if w.images and not (1 <= w.lo and w.window_hi <= self.n):
            raise ValueError(f"permutation {w} not supported in 1..{self.n}")
        key = w.one_line(1, self.n)
        if key not in self._cache:
            F = self.top
            for i in reversed((w.inverse() * _w0(self.n)).reduced_word()):
                F = self._op(F, i)
            self._cache[key] = int(F[self.identity_index])
        return self._cache[key]


@lru_cache(maxsize=32)
def _orbit_table(xs, ys, beta, prime):
    return OrbitTable(xs, ys, beta, prime)


# ---------------------------------------------------------------------------
# Backstable approximation and the vexillary comparison


def backstable_approx(w: Permutation, p: int, point: EvaluationPoint,
                      n: int | None = None, method: str = "auto") -> int:
    """Evaluate the shifted polynomial gamma^{-p} 𝔊_{iota^p(w)} at the point:
    x_i and y_j of the ambient polynomial read the point at index i-p, j-p."""
    if p < 0:
        raise ValueError("shift p must be nonnegative")
    w2 = w.iota(p)
    if w2.images and w2.lo < 1:
        raise ValueError(f"p={p} too small: iota^p(w) has support below 1")
    if n is None:
        n = max(w2.window_hi if w2.images else 1, 2)
    elif w2.images and n < w2.window_hi:
        raise ValueError(f"n={n} too small for support of iota^p(w)")
    xs = tuple(point.x_val(i - p) for i in range(1, n + 1))
    ys = tuple(point.y_val(j - p) for j in range(1, n))
    if method == "auto":
        method = "poly" if n <= 6 else "orbit"
    if method == "poly":
        shifted = EvaluationPoint.make(
            point.prime, point.beta, {}, {j: ys[j - 1] for j in range(1, n)})
        f = grothendieck_poly(w2, n, shifted)
        return f.evaluate(xs)
    table = _orbit_table(xs, ys, point.beta, point.prime)
    return table.value(w2)


def gvex_check(w: Permutation, point: EvaluationPoint, p: int = 0,
               n: int | None = None, method: str = "auto") -> bool:
    """Compare the backstable approximation of 𝔊_w against the flagged
    tableau sum for (shape(w), flag(w)) under the same specialization.

    Heuristic at finite p: the point's x-support must lie inside the index
    range the shifted polynomial can see, [1-p, n-p]."""
    if not w.is_vexillary():
        raise ValueError(f"permutation {w} is not vexillary")
    csf = code_shape_flag(w)
    lam, phi = csf.shape, csf.flag
    w2 = w.iota(p)
    if w2.images and w2.lo < 1:
        raise ValueError(f"p={p} too small for support of w")
    nn = n if n is not None else max(w2.window_hi if w2.images else 1, 2)
    if point.x_support and min(point.x_support) < 1 - p:
        raise ValueError(f"x-support extends below 1-p = {1 - p}")
    if point.x_support and max(point.x_support) > nn - p:
        raise ValueError(f"x-support extends above n-p = {nn - p}")
    lhs = backstable_approx(w, p, point, n=n, method=method)
    return lhs == g_eval(SkewShape(lam), phi, "any", point)
