"""The Graham-positive coefficient pipeline: flag splitting, the unique
middle partition, the value-shifting permutations, and the j-coefficient
as a product of two Graham sums, each a product of two part sums.

A parallel "numeric" route assembles the same coefficient from windowed
tableau-sum evaluations with x substituted by y, and the two cross-check
each other.  Both routes sum over tableaux with the one transfer DP,
tableaux.tableau_sum: the symbolic route over factor multisets, the numeric
route over F_p and whole shapes.  That kernel is checked in turn against
tableau enumeration (grothendieck.enum_sum, in the oracle tests).

The symbolic route never rebuilds a monomial.  The DP emits each factor
(i, j) as its int code (ring.factor_code, whose plain order is the
canonical factor order), a monomial is the sorted tuple of its codes, and a
half sum carries one beta exponent, -|shape| per tableau plus |nu| - |mu|
per inner shape: |nu| - |lambda| for every monomial of j_plus.  The product
of the half sums adds their exponents, and j_coefficient checks once per
sum that the total is -(|lambda| - |rho|), the normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .grothendieck import g_eval
from .perms import Permutation, code_shape_flag
from .ring import (EvaluationPoint, GrahamSum, add_terms, code_factor,
                   factor_code, mul_terms, omega1_factor)
from .shapes import (Flag, Partition, SkewShape, compatible_form, delta_seq,
                     disconnected_inners, flag_split, is_compatible, q_of,
                     skew_props, subpartitions, xi_flag)
from .tableaux import EnumSpec, Semiring, tableau_sum


@lru_cache(maxsize=1024)
def pi_chain(lam: Partition, phi: Flag) -> tuple[Flag, tuple[Permutation, ...]]:
    """psi and the value-shifting permutations pi_0..pi_ell, for a
    nonnegative flag compatible with lam: the one derivation of both,
    cached.  delta_seq refuses a wrong length or an incompatible flag,
    and psi = phi - delta is the psi_flag it derived delta from."""
    if any(b < 0 for b in phi):
        raise ValueError(f"flag {phi} has a negative entry")
    delta = delta_seq(lam, phi)
    psi = Flag(tuple(b - d for b, d in zip(phi, delta)))
    n = max([1, *phi.bounds, *delta.values])
    seq = [Permutation.identity()]
    for i in range(1, len(lam) + 1):
        prev = seq[-1]
        if psi.entry(i) <= 0:
            seq.append(prev)
            continue
        d = delta.entry(i)
        line = [v for v in prev.one_line(1, n) if v > d]
        # values 1..d move to positions psi_i+1..phi_i, others keep order
        lo_pos = psi.entry(i)  # 0-based index of first moved value
        line = line[:lo_pos] + list(range(1, d + 1)) + line[lo_pos:]
        seq.append(Permutation.from_one_line(line, 1))
    return psi, tuple(seq)


# multiplicities of factor multisets, each a sorted tuple of factor codes
FACTOR_SUMS = Semiring({}, {(): 1}, add_terms, mul_terms)


def half_sum(shape: SkewShape, flag: Flag, factor) -> dict:
    """Sum over the positive tableaux of shape under flag of the factor
    multisets {factor(i, c-r) : value i in cell (r, c)}, as sorted tuples.
    j_plus passes the code of (image(i), i+c-r), which stands for
    beta*(y_image(i) (-) y_{i+c-r}), one beta per cell beyond the weight."""
    spec = EnumSpec(shape, flag, "positive", (1, max([1, *flag.bounds])))
    return tableau_sum(spec, FACTOR_SUMS, lambda m, d: {(factor(m, d),): 1},
                       lambda m, d: {(): 1, (factor(m, d),): 1})


# sums each half's cache keeps: the deep theorem sweep's traffic, traded
# against its peak RSS (README, egc.pipeline)
HALF_CACHE_SIZE = 128


@lru_cache(maxsize=HALF_CACHE_SIZE)
def j_plus(lam: Partition, phi_plus: Flag, nu: Partition) -> GrahamSum:
    """Sum over mu <= nu, nu/mu disconnected, of the tableau sums of lambda/mu,
    as one product of part sums cut below row q = q_of(lam): rows 1..q give
    factors (i, i+c-r) under phi_+, lower rows (pi(i), i+c-r) under psi, and
    each part picks from disconnected_inners of its rows of nu.  Exact: mu_q
    < q puts the cell (q, q) in lambda/mu, a zero summand, and mu_q >= q >=
    lambda_{q+1} >= nu_{q+1} keeps mu a partition with no cell dropped below
    one of row q.  A row where phi_+ is 0 (psi_r <= 0 too) admits no value.
    Cached: every caller of one triple shares the returned sum."""
    if not lam.contains(nu):
        raise ValueError(f"nu {nu} not contained in lambda {lam}")
    psi, pis = pi_chain(lam, phi_plus)  # validates the flag
    pi, q, parts = pis[-1], q_of(lam), lam.parts
    upper = lower = FACTOR_SUMS.zero
    for beta in disconnected_inners(Partition(nu.parts[q:])):
        lower = add_terms(lower, half_sum(
            SkewShape(lam, Partition(parts[:q] + beta.parts)), psi,
            lambda m, d: factor_code((pi(m), m + d))))
    for alpha in (disconnected_inners(Partition(nu.parts[:q])) if lower else ()):
        if alpha.part(q) >= q:  # else (q, q) is a cell of lambda/mu
            upper = add_terms(upper, half_sum(
                SkewShape(lam, Partition(alpha.parts + parts[q:])), phi_plus,
                lambda m, d: factor_code((m, m + d))))
    return GrahamSum(mul_terms(upper, lower), nu.size - lam.size)


@lru_cache(maxsize=HALF_CACHE_SIZE)
def j_minus(nu_c: Partition, xi: Flag, rho_c: Partition) -> GrahamSum:
    """j_- on its conjugate half (nu', xi, rho'): j_plus there, then the
    variable reversal omega_1 (Type 1 factors become Type 2).  Built fresh
    from j_plus's shared sum, then cached: its callers share it in turn."""
    inner = j_plus(nu_c, xi, rho_c)
    # each distinct code mapped once; omega_1 is an involution on factors,
    # so distinct monomials stay distinct
    image = {code: factor_code(omega1_factor(code_factor(code)))
             for code in set(chain.from_iterable(inner.terms))}
    return GrahamSum({tuple(sorted(map(image.__getitem__, k))): c
                      for k, c in inner.terms.items()}, inner.beta_exp)


@dataclass(frozen=True)
class PipelineContext:
    q: int
    nu: Partition | None
    case: str  # "zero" | "nonpositive" | "nonnegative" | "both"
    # j = j_minus(*lower) * j_plus(*upper); both None when nu is None
    upper: tuple[Partition, Flag, Partition] | None  # (lam, phi_+, nu)
    lower: tuple[Partition, Flag, Partition] | None  # (nu', xi, rho')


@lru_cache(maxsize=64)
def flag_record(lam: Partition, phi: Flag) -> tuple[int, Flag, Flag, str]:
    """build_context's decisions on (lam, phi) alone, made once per pair:
    an incompatible flag raises ValueError; else (q, phi_-, phi_+, case)."""
    if not is_compatible(lam, phi):
        raise ValueError(f"flag {phi} not compatible with {lam}")
    q = q_of(lam)
    sign = q and phi.entry(q)  # q = 0 only for the empty lam
    return (q, *flag_split(phi), "both" if sign == 0 else
            "nonpositive" if sign < 0 else "nonnegative")


@lru_cache(maxsize=64)
def build_context(lam: Partition, phi: Flag, rho: Partition) -> PipelineContext:
    """The one record of a coefficient input: flag_record(lam, phi), then
    rho's part: a structural zero (rho outside lam among them), else nu, the
    one middle partition, and xi, which both routes read from this cache."""
    q, phi_minus, phi_plus, case = flag_record(lam, phi)
    props = skew_props(lam.parts, rho.parts) if lam.contains(rho) else None
    if props is None or props.has_diagonal_cell or \
            any(phi.entry(r) == 0 for r in props.rows_occupied):
        return PipelineContext(q, None, "zero", None, None)
    nu = Partition(tuple(lam.part(r) if phi.entry(r) <= 0 else rho.part(r)
                         for r in range(1, len(lam) + 1)))
    if not (nu.contains(rho) and lam.contains(nu)):
        raise RuntimeError(f"nu {nu} not between rho {rho} and lambda {lam}")
    phi_minus = Flag(phi_minus.bounds[:len(nu)])
    if not is_compatible(nu, phi_minus):
        raise RuntimeError(f"flag {phi_minus} not compatible with nu {nu}")
    return PipelineContext(q, nu, case, (lam, phi_plus, nu),
                           (nu.conjugate(), xi_flag(nu, phi_minus),
                            rho.conjugate()))


def contexts(lam: Partition, phi: Flag):
    """(rho, build_context(lam, phi, rho)) for every rho <= lam in
    subpartitions order; an incompatible flag is refused before any rho."""
    flag_record(lam, phi)
    return ((rho, build_context(lam, phi, rho)) for rho in subpartitions(lam))


def unique_nu(lam: Partition, phi: Flag, rho: Partition) -> Partition | None:
    """build_context's nu, with rho outside lam refused (ValueError)."""
    ctx = build_context(lam, phi, rho)
    if not lam.contains(rho):
        raise ValueError(f"rho {rho} not contained in lambda {lam}")
    return ctx.nu


def j_coefficient(lam: Partition, phi: Flag, rho: Partition) -> GrahamSum:
    """The normalized Graham-positive coefficient: every monomial's total
    beta exponent equals its factor count after multiplying by
    beta^{|lam| - |rho|}, so the returned sum has beta_exp 0.  A fresh sum:
    the product of the cached j_minus and j_plus, which it leaves unchanged."""
    ctx = build_context(lam, phi, rho)
    if ctx.nu is None:
        return GrahamSum.zero()
    raw = j_minus(*ctx.lower) * j_plus(*ctx.upper)
    if raw.beta_exp + lam.size - rho.size != 0:
        raise RuntimeError("the beta exponent differs from the factor count")
    return GrahamSum(raw.terms)


def j_of_permutation(w: Permutation, rho: Partition) -> GrahamSum:
    # ValueError unless w is vexillary; an incompatible code flag, such as
    # 142563's (2,5,5) on (2,1,1), gives way to its normal form (2,4,5)
    csf = code_shape_flag(w)
    return j_coefficient(csf.shape, compatible_form(csf.shape, csf.flag), rho)


# ---------------------------------------------------------------------------
# Numeric route: the same coefficient from windowed tableau-sum evaluation.


def j_plus_numeric(lam: Partition, phi_plus: Flag, nu: Partition,
                   point: EvaluationPoint) -> int:
    """Sum over mu of beta^{|nu|-|mu|} G^{phi+}_{lam/mu}(x_+; y) at the point,
    with no structural shortcuts (vanishing terms must vanish numerically)."""
    p = point.prime
    return sum(pow(point.beta, nu.size - mu.size, p) * g_eval(
        SkewShape(lam, mu), phi_plus, "positive", point)
        for mu in disconnected_inners(nu)) % p


def j_numeric(lam: Partition, phi: Flag, rho: Partition,
              point: EvaluationPoint) -> int:
    """Raw (unnormalized) coefficient through the unique middle partition,
    each half evaluated as a tableau sum over F_p at x := y, uncached."""
    ctx = build_context(lam, phi, rho)
    if ctx.nu is None:
        return 0
    pt = point.with_x_to_y()
    return j_plus_numeric(*ctx.lower, pt.omega1()) \
        * j_plus_numeric(*ctx.upper, pt) % point.prime
