"""Prime-field substrate: the deformed difference, Graham-positive sums,
evaluation points, and sparse polynomials with divided differences.

A Graham sum stores one beta exponent for the whole sum and maps each
monomial to its multiplicity.  A monomial is keyed by the sorted tuple of
its factor codes.  The code of a factor (i, j) is the int
(type << 42) | (i + 2^20 - 1) << 21 | (j + 2^20 - 1), so plain int order
on codes is the canonical order (type, i, j) of factor_sort_key, and
sorted keys sort monomials canonically.  factor_code checks each distinct
factor once, where its code is made; GrahamMonomial checks every factor
it is given."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

DEFAULT_PRIME = 2305843009213693951  # 2^61 - 1


class EvaluationError(ArithmeticError):
    """A denominator vanished at the evaluation point; caller resamples."""


# the thirteen prime bases 2..41, and the least strong pseudoprime to them
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < MILLER_RABIN_BOUND.  The thirteen
    bases cannot decide an n at or above the bound, so it raises ValueError.

    Cached: every evaluation point checks its prime, and a run uses few."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is not below {MILLER_RABIN_BOUND}, the bound "
                         "under which primality is decided")
    if n < 2:
        return False
    for p in MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def field_inv(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise EvaluationError("division by zero in the prime field")
    return pow(a, -1, p)


def ominus(a: int, b: int, beta: int, p: int) -> int:
    """a (-) b = (a - b) / (1 + beta*b)."""
    den = (1 + beta * b) % p
    if den == 0:
        raise EvaluationError(f"1 + beta*b vanishes (b={b})")
    return (a - b) * field_inv(den, p) % p


def prec_key(i: int):
    """Sort key realizing the order 1 < 2 < ... < -2 < -1 < 0."""
    return (0, i) if i >= 1 else (1, i)


def prec(i: int, j: int) -> bool:
    return prec_key(i) < prec_key(j)


def factor_type(f: tuple[int, int]) -> int:
    i, j = f
    if not prec(i, j):
        raise ValueError(f"factor {f} violates the positivity order")
    if 0 < i < j:
        return 1
    if i < j <= 0:
        return 2
    return 3  # j <= 0 < i


def factor_sort_key(f: tuple[int, int]):
    return (factor_type(f), f[0], f[1])


def omega1_factor(f: tuple[int, int]) -> tuple[int, int]:
    """(i, j) -> (1-j, 1-i): swaps Types 1 and 2, fixes Type 3."""
    i, j = f
    return (1 - j, 1 - i)


_IDX_BITS = 21
# indices lie in [1 - 2^20, 2^20], a range that i -> 1 - i (omega_1) keeps
_IDX_LO, _IDX_HI = 1 - (1 << 20), 1 << 20
_IDX_MASK = (1 << _IDX_BITS) - 1


@lru_cache(maxsize=1 << 16)
def factor_code(f: tuple[int, int]) -> int:
    """The int (type << 42) | (i + 2^20 - 1) << 21 | (j + 2^20 - 1) of a
    factor: plain int order on codes is factor_sort_key order on factors.

    Checks the factor (factor_type) once per distinct factor."""
    ftype = factor_type(f)
    i, j = f
    if not (_IDX_LO <= i <= _IDX_HI and _IDX_LO <= j <= _IDX_HI):
        raise ValueError(f"factor {f} has an index outside "
                         f"[{_IDX_LO}, {_IDX_HI}]")
    return (ftype << 2 * _IDX_BITS) | ((i - _IDX_LO) << _IDX_BITS) \
        | (j - _IDX_LO)


def code_factor(code: int) -> tuple[int, int]:
    """The factor (i, j) a code stands for."""
    return (((code >> _IDX_BITS) & _IDX_MASK) + _IDX_LO,
            (code & _IDX_MASK) + _IDX_LO)


def add_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return out


def mul_terms(a: dict, b: dict) -> dict:
    """The product of two sums of keys (sorted code tuples)."""
    out: dict[tuple, int] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(sorted(k1 + k2)) if k1 and k2 else k1 or k2
            out[k] = out.get(k, 0) + c1 * c2
    return out


class GrahamMonomial:
    """A multiset of factors (i, j), each standing for beta*(y_i (-) y_j),
    in the order of factor_sort_key.  `key` is its sorted tuple of factor
    codes, the form in which a GrahamSum stores it."""

    __slots__ = ("factors", "key")

    def __init__(self, factors=()):
        self.key = tuple(sorted(factor_code(tuple(f)) for f in factors))
        self.factors = tuple(map(code_factor, self.key))

    @classmethod
    def of_key(cls, key: tuple[int, ...]) -> "GrahamMonomial":
        """The view of a stored key, whose codes factor_code made."""
        m = object.__new__(cls)
        m.key, m.factors = key, tuple(map(code_factor, key))
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, GrahamMonomial) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GrahamMonomial({self.factors!r})"


class GrahamSum:
    """Formal nonnegative-integer combination of Graham monomials, all of
    them times one power beta^beta_exp.

    `terms` maps each monomial's key (its sorted tuple of factor codes) to
    its multiplicity, so a monomial's total beta exponent is beta_exp plus
    its factor count.  One exponent per sum is exact: every set-valued
    tableau of a half sum weighs beta^{-|shape|} times one beta per factor,
    and products add exponents.  A normalized coefficient has beta_exp 0."""

    __slots__ = ("terms", "beta_exp")

    def __init__(self, terms: dict[tuple[int, ...], int] | None = None,
                 beta_exp: int = 0):
        self.terms = dict(terms or {})
        if self.terms and min(self.terms.values()) <= 0:
            if min(self.terms.values()) < 0:
                raise ValueError("Graham sums have positive coefficients")
            self.terms = {k: c for k, c in self.terms.items() if c != 0}
        self.beta_exp = beta_exp

    @classmethod
    def zero(cls) -> "GrahamSum":
        return cls()

    @classmethod
    def one(cls) -> "GrahamSum":
        return cls({(): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "GrahamSum") -> "GrahamSum":
        return GrahamSum(mul_terms(self.terms, other.terms),
                         self.beta_exp + other.beta_exp)

    def __eq__(self, other) -> bool:
        return isinstance(other, GrahamSum) and self.terms == other.terms \
            and self.beta_exp == other.beta_exp

    def canonical(self) -> list[tuple[GrahamMonomial, int]]:
        terms = self.terms  # unique keys: sort them, not the items
        return [(GrahamMonomial.of_key(k), terms[k]) for k in sorted(terms)]

    def __repr__(self):
        return "GrahamSum(" + " + ".join(self.text_lines()) + ")"

    def to_json(self, normalization_beta_exp: int, extra: dict, out) -> None:
        """Write to out, in chunks, the text of json.dumps(payload, indent=1),
        where payload holds normalization_beta_exp, the monomials in
        canonical order and then the items of extra.  Each distinct factor
        is formatted once."""
        if self.beta_exp != 0:
            raise ValueError("serialize normalized sums only")
        emit = out.write
        factor_text = {
            code: "    [\n     %d,\n     %d\n    ]" % code_factor(code)
            for code in set(chain.from_iterable(self.terms))}
        emit('{\n "normalization_beta_exp": %d,\n "monomials": '
             % normalization_beta_exp)
        terms, step = self.terms, 4096  # monomials a write
        keys = sorted(terms)  # unique keys: sort them, not the items
        if not keys:
            emit("[]")
        for start in range(0, len(keys), step):
            emit(("[\n" if start == 0 else ",\n") + ",\n".join(
                '  {\n   "factors": '
                + ("[\n" + ",\n".join([factor_text[c] for c in k])
                   + "\n   ]" if k else "[]")
                + ',\n   "mult": %d\n  }' % terms[k]
                for k in keys[start:start + step]))
        if keys:
            emit("\n ]")
        # the extra items sit at the payload's depth: splice their own dump
        emit(",\n" + json.dumps(extra, indent=1)[2:] if extra else "\n}")

    def text_lines(self) -> list[str]:
        if self.is_zero():
            return ["0"]
        shift = f" · β^{self.beta_exp}" if self.beta_exp else ""
        lines = []
        for m, c in self.canonical():
            fs = "".join(f"β(y{i}⊖y{j})" for i, j in m.factors) or "1"
            prefix = "" if c == 1 else f"{c}·"
            lines.append(prefix + fs + shift)
        return lines


def eval_graham(gsum: GrahamSum, point: "EvaluationPoint") -> int:
    """The sum's value at the point: beta^beta_exp once per sum, and each
    distinct factor's beta*(y_i (-) y_j) once per call.  A negative
    beta_exp at beta = 0 raises EvaluationError."""
    p, beta = point.prime, point.beta
    factor_val: dict[int, int] = {}
    total = 0
    for k, c in gsum.terms.items():
        val = c % p
        for code in k:
            f = factor_val.get(code)
            if f is None:
                i, j = code_factor(code)
                f = factor_val[code] = beta * point.ominus(
                    point.y_val(i), point.y_val(j)) % p
            val = val * f % p
        total = (total + val) % p
    exp = gsum.beta_exp
    bpow = pow(beta, exp, p) if exp >= 0 else pow(field_inv(beta, p), -exp, p)
    return total * bpow % p


@dataclass(frozen=True)
class EvaluationPoint:
    """An assignment of beta and sparse x/y values into F_p.

    Unassigned indices read as 0.  Hashable so evaluations can be cached.
    Each point keeps the values 1/(1 + beta*b) that its `ominus` has
    inverted, so a repeated b costs two multiplications, and `_closed`
    holds grothendieck.field_sum's f values and closed forms.
    """

    prime: int
    beta: int
    x: tuple[tuple[int, int], ...] = ()
    y: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        x = tuple(sorted((i, v % self.prime) for i, v in dict(self.x).items()
                         if v % self.prime))
        y = tuple(sorted((j, v % self.prime) for j, v in dict(self.y).items()
                         if v % self.prime))
        beta = self.beta % self.prime
        for _, v in x + y:
            if (1 + beta * v) % self.prime == 0:
                raise EvaluationError("1 + beta*value vanishes; resample")
        self._fill(self.prime, beta, x, y, {})

    def _fill(self, prime, beta, x, y, den_inv) -> "EvaluationPoint":
        """Set fields and caches, unchecked: a derived point passes x and y
        sorted, reduced, nonzero, with 1 + beta*v != 0, and its parent's
        1/(1 + beta*b), which read only b, beta and p."""
        vars(self).update(prime=prime, beta=beta, x=x, y=y, _xd=dict(x),
                          _yd=dict(y), _den_inv=den_inv, _closed=({}, {}))
        return self

    @classmethod
    def make(cls, prime: int, beta: int, x: dict | None = None,
             y: dict | None = None) -> "EvaluationPoint":
        return cls(prime, beta, tuple((x or {}).items()), tuple((y or {}).items()))

    def x_val(self, i: int) -> int:
        return self._xd.get(i, 0)

    def y_val(self, j: int) -> int:
        return self._yd.get(j, 0)

    @property
    def x_support(self) -> frozenset[int]:
        return frozenset(self._xd)

    @property
    def y_support(self) -> frozenset[int]:
        return frozenset(self._yd)

    def ominus(self, a: int, b: int) -> int:
        inv = self._den_inv.get(b)
        if inv is None:  # field_inv raises EvaluationError on 1 + beta*b = 0
            inv = self._den_inv[b] = field_inv(1 + self.beta * b, self.prime)
        return (a - b) * inv % self.prime

    def with_x_to_y(self, sigma=None, n: int = 0) -> "EvaluationPoint":
        """x_i := y_{sigma(i)} for 1 <= i <= n, other x_i := 0; by default
        x_i := y_i for all i (the x -> y substitution)."""
        x = self.y if sigma is None else tuple(
            (i, v) for i in range(1, n + 1) if (v := self._yd.get(sigma(i))))
        return object.__new__(EvaluationPoint)._fill(
            self.prime, self.beta, x, self.y, self._den_inv)

    def omega1(self) -> "EvaluationPoint":
        """x_i -> (-)x_{1-i} and y_i -> (-)y_{1-i}."""
        # 1 - i reverses the order; 1 + beta*((-)(0, v)) = 1/(1 + beta*v)
        x, y = (tuple((1 - i, self.ominus(0, v)) for i, v in reversed(vals))
                for vals in (self.x, self.y))
        return object.__new__(EvaluationPoint)._fill(
            self.prime, self.beta, x, y, self._den_inv)


SAMPLE_TRIES = 100


def sample_point(prime: int, rng, x_indices, y_indices,
                 distinct_x: bool = False) -> EvaluationPoint:
    """Random point with nonzero values on the given supports; resamples on
    vanishing denominators, at most SAMPLE_TRIES times."""
    for _ in range(SAMPLE_TRIES):
        b = rng.randrange(1, prime)
        try:
            xs = {i: rng.randrange(1, prime) for i in x_indices}
            if distinct_x and len(set(xs.values())) != len(xs):
                continue
            ys = {j: rng.randrange(1, prime) for j in y_indices}
            return EvaluationPoint.make(prime, b, xs, ys)
        except EvaluationError:
            continue
    raise EvaluationError("could not sample a valid point")


MAX_VARS = 10


class SparsePoly:
    """Polynomial in x_1..x_n over F_p, stored as exponent-vector -> coeff."""

    __slots__ = ("n", "prime", "terms")

    def __init__(self, n: int, prime: int, terms: dict[tuple, int] | None = None):
        if not 0 <= n <= MAX_VARS:
            raise ValueError(f"variable count {n} outside 0..{MAX_VARS}")
        self.n = n
        self.prime = prime
        self.terms = {e: c % prime for e, c in (terms or {}).items() if c % prime}

    @classmethod
    def const(cls, c: int, n: int, prime: int) -> "SparsePoly":
        return cls(n, prime, {(0,) * n: c})

    @classmethod
    def var(cls, i: int, n: int, prime: int) -> "SparsePoly":
        e = [0] * n
        e[i - 1] = 1
        return cls(n, prime, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparsePoly) and self.n == other.n
                and self.prime == other.prime and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.prime, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = (out.get(e, 0) + c) % self.prime
        return SparsePoly(self.n, self.prime, out)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = (out.get(e, 0) - c) % self.prime
        return SparsePoly(self.n, self.prime, out)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        out: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % self.prime
        return SparsePoly(self.n, self.prime, out)

    def scale(self, c: int) -> "SparsePoly":
        return SparsePoly(self.n, self.prime,
                          {e: co * c % self.prime for e, co in self.terms.items()})

    def evaluate(self, values) -> int:
        """Evaluate at x_i = values[i-1]."""
        total = 0
        for e, c in self.terms.items():
            v = c
            for a, xv in zip(e, values):
                if a:
                    v = v * pow(xv, a, self.prime) % self.prime
            total = (total + v) % self.prime
        return total

    def divided_difference(self, i: int) -> "SparsePoly":
        """d_i f = (f - s_i f) / (x_i - x_{i+1}), computed exactly per monomial."""
        if not 1 <= i < self.n:
            raise ValueError(f"operator index {i} outside 1..{self.n - 1}")
        out: dict[tuple, int] = {}
        p = self.prime
        for e, c in self.terms.items():
            a, b = e[i - 1], e[i]
            if a == b:
                continue
            sign = 1 if a > b else -1
            lo_e, hi_e = min(a, b), max(a, b)
            for t in range(lo_e, hi_e):
                e2 = list(e)
                e2[i - 1], e2[i] = t, a + b - 1 - t
                e2 = tuple(e2)
                out[e2] = (out.get(e2, 0) + sign * c) % p
        return SparsePoly(self.n, p, out)


def isobaric(f: SparsePoly, i: int, beta: int) -> SparsePoly:
    """pi_i f = d_i((1 + beta*x_{i+1}) f), the operator matching the
    (-)-form top product; satisfies pi_i^2 = -beta*pi_i and pi_i(1) = -beta."""
    factor = SparsePoly.const(1, f.n, f.prime) + \
        SparsePoly.var(i + 1, f.n, f.prime).scale(beta)
    return (factor * f).divided_difference(i)
