"""Partitions, flags, skew shapes, and the flag-derived sequences.

Partitions are stored without trailing zeros.  Flags are weakly increasing
integer sequences of length exactly ell(lambda); callers pad or truncate
explicitly.  The empty partition and empty skew shape are legal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from typing import NamedTuple


def conjugate_parts(parts) -> tuple[int, ...]:
    """The conjugate of weakly decreasing positive parts, in time linear in
    the number of parts plus the largest: parts[r-1] - parts[r] columns
    have height r."""
    padded, out = tuple(parts) + (0,), []
    for r in range(len(padded) - 1, 0, -1):
        out += [r] * (padded[r - 1] - padded[r])
    return tuple(out)


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must weakly decrease: {parts}")
        object.__setattr__(self, "parts", parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"

    def part(self, i: int) -> int:
        """Row length at 1-based index i, zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        return Partition(conjugate_parts(self.parts))

    def contains(self, other: "Partition") -> bool:
        return len(other) <= len(self) and \
            all(a >= b for a, b in zip(self.parts, other.parts))

    def cells(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(1, len(self) + 1)
                for c in range(1, self.part(r) + 1)]


def subpartitions(lam: Partition):
    """All partitions mu contained in lam, in a deterministic order."""
    ell = len(lam)
    if ell == 0:
        yield Partition()
        return
    for rows in product(*[range(lam.part(i), -1, -1) for i in range(1, ell + 1)]):
        if all(rows[i] >= rows[i + 1] for i in range(ell - 1)):
            yield Partition(rows)


@dataclass(frozen=True)
class Flag:
    bounds: tuple[int, ...] = ()

    def __post_init__(self):
        bounds = tuple(self.bounds)
        if any(bounds[i] > bounds[i + 1] for i in range(len(bounds) - 1)):
            raise ValueError(f"flag must weakly increase: {bounds}")
        object.__setattr__(self, "bounds", bounds)

    def __len__(self):
        return len(self.bounds)

    def __iter__(self):
        return iter(self.bounds)

    def __str__(self):
        return "(" + ",".join(map(str, self.bounds)) + ")"

    def entry(self, i: int) -> int:
        if not 1 <= i <= len(self.bounds):
            raise IndexError(f"flag index {i} out of range 1..{len(self.bounds)}")
        return self.bounds[i - 1]


@dataclass(frozen=True)
class DeltaSeq:
    values: tuple[int, ...] = ()

    def __post_init__(self):
        values = tuple(self.values)
        if any(v < 0 for v in values):
            raise ValueError(f"delta entries must be nonnegative: {values}")
        if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
            raise ValueError(f"delta must weakly decrease: {values}")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def entry(self, i: int) -> int:
        return self.values[i - 1]


@dataclass(frozen=True)
class SkewShape:
    outer: Partition
    inner: Partition = Partition()

    def __post_init__(self):
        if not self.outer.contains(self.inner):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")

    def __str__(self):
        return f"{self.outer}/{self.inner}"

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def row_cols(self, r: int) -> range:
        return range(self.inner.part(r) + 1, self.outer.part(r) + 1)

    def cells(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(1, len(self.outer) + 1)
                for c in self.row_cols(r)]

    def conjugate(self) -> "SkewShape":
        return SkewShape(self.outer.conjugate(), self.inner.conjugate())

    @property
    def props(self) -> SkewProps:
        return skew_props(self.outer.parts, self.inner.parts)


class SkewProps(NamedTuple):
    """Per row of outer/inner: its first column, its width and `up`; the
    cell at position k >= up of a row lies below the cell at position
    k - up of the row before.  The diagonals c - r of the cells span
    d_min..d_max; disconnected means no two cells are adjacent."""

    rows: tuple[tuple[int, int, int], ...]
    rows_occupied: tuple[int, ...]  # 1-based, increasing
    d_min: int | None
    d_max: int | None
    has_diagonal_cell: bool
    is_disconnected: bool


@lru_cache(maxsize=4096)
def skew_props(outer: tuple[int, ...], inner: tuple[int, ...]) -> SkewProps:
    """The record of outer/inner, for part tuples with inner inside outer.
    Keyed on the tuples, which hash in C."""
    rows, above = [], outer[0] if outer else 0  # row 1: up = its width
    for r, length in enumerate(outer):
        start = inner[r] if r < len(inner) else 0
        rows.append((start + 1, length - start, above - start))
        above = start
    spans = [(r, first, first + w - 1)
             for r, (first, w, _) in enumerate(rows, start=1) if w]
    return SkewProps(
        tuple(rows), tuple(r for r, _, _ in spans),
        min((first - r for r, first, _ in spans), default=None),
        max((last - r for r, _, last in spans), default=None),
        any(first <= r <= last for r, first, last in spans),
        all(w <= min(up, 1) for _, w, up in rows))


def q_of(lam: Partition) -> int:
    """Largest q with (q,q) a cell of lam (0 for the empty partition)."""
    return sum(1 for r, part in enumerate(lam, start=1) if part >= r)


@lru_cache(maxsize=1024)
def disconnected_inners(nu: Partition) -> tuple[Partition, ...]:
    """The mu <= nu with nu/mu disconnected, in subpartitions order."""
    return tuple(mu for mu in subpartitions(nu)
                 if skew_props(nu.parts, mu.parts).is_disconnected)


def diagonal_split(shape: SkewShape) -> tuple[SkewShape, SkewShape]:
    """Separate a diagonal-free skew shape lam/mu into its strictly-upper and
    strictly-lower parts: the cut between rows q = q_of(lam) and q + 1.  A
    row r <= q has mu_r >= r (else (r,r) is a cell), so c > r in it; a row
    r > q has lam_r < r, so c < r.  Both parts keep the outer lam, so each
    of their rows ends in column lam_r, as the shape's does."""
    if shape.props.has_diagonal_cell:
        raise ValueError(f"shape {shape} has a diagonal cell")
    lam, q = shape.outer.parts, q_of(shape.outer)
    mu = shape.inner.parts + (0,) * (len(lam) - len(shape.inner))
    upper = SkewShape(shape.outer, Partition(mu[:q] + lam[q:]))
    lower = SkewShape(shape.outer, Partition(lam[:q] + mu[q:]))
    up, down = upper.props, lower.props
    if set(up.rows_occupied) & set(down.rows_occupied):
        raise RuntimeError(f"diagonal split of {shape}: parts overlap")
    if any(w != wu + wl for (_, w, _), (_, wu, _), (_, wl, _)
           in zip(shape.props.rows, up.rows, down.rows)):
        raise RuntimeError(f"diagonal split of {shape}: parts do not cover it")
    if (up.d_min is not None and up.d_min <= 0) or \
            (down.d_max is not None and down.d_max >= 0):
        raise RuntimeError(f"diagonal split of {shape}: a cell on the wrong "
                           "side of the diagonal")
    return upper, lower


def is_compatible(lam: Partition, phi: Flag) -> bool:
    if len(phi) != len(lam):
        raise ValueError(f"flag length {len(phi)} != partition length {len(lam)}")
    return all(
        phi.entry(i + 1) - phi.entry(i) <= lam.part(i) - lam.part(i + 1) + 1
        for i in range(1, len(lam)))


def flag_split(phi: Flag) -> tuple[Flag, Flag]:
    minus = Flag(tuple(min(b, 0) for b in phi))
    plus = Flag(tuple(max(b, 0) for b in phi))
    return minus, plus


def psi_flag(lam: Partition, phi: Flag) -> Flag:
    if not is_compatible(lam, phi):
        raise ValueError(f"flag {phi} not compatible with {lam}")
    return Flag(tuple(min(i - lam.part(i), phi.entry(i))
                      for i in range(1, len(lam) + 1)))


def delta_seq(lam: Partition, phi: Flag) -> DeltaSeq:
    psi = psi_flag(lam, phi)  # validates compatibility
    return DeltaSeq(tuple(phi.entry(i) - psi.entry(i)
                          for i in range(1, len(lam) + 1)))


def xi_flag(nu: Partition, phi_minus: Flag) -> Flag:
    """Nonnegative flag compatible with nu', given a nonpositive flag for nu.

    The raw flag xi_i = -phi_minus[nu'_i] is returned when it is compatible
    with nu'.  Otherwise its normal form (normal_flag) is, clamped at 0:
    it bounds the same positive tableaux as the raw flag."""
    if any(b > 0 for b in phi_minus):
        raise ValueError(f"flag {phi_minus} has a positive entry")
    if len(phi_minus) < len(nu):
        raise ValueError(f"flag {phi_minus} shorter than partition {nu}")
    nuc = nu.conjugate()
    raw = Flag(tuple(-phi_minus.entry(nuc.part(i))
                     for i in range(1, len(nuc) + 1)))
    xi = Flag(tuple(max(b, 0) for b in compatible_form(nuc, raw)))
    if not is_compatible(nuc, xi):
        raise RuntimeError(f"no compatible flag for {nuc} with the caps of "
                           f"{raw}")
    return xi


def normal_flag(lam: Partition, phi: Flag) -> Flag:
    """The one representative of phi's class on lam, the flags that bound
    the same tableaux: row r gets the cap of its last cell, raised to the
    running maximum of the rows above.  Read bottom up, that cap is phi_r,
    or min(phi_r, cap_{r+1} - 1) when lam_{r+1} = lam_r."""
    if len(phi) < len(lam):
        raise ValueError(f"flag {phi} shorter than partition {lam}")
    caps = []
    for r in range(len(lam), 0, -1):
        same = lam.part(r + 1) == lam.part(r)
        caps.append(min(phi.entry(r), caps[-1] - 1) if same else phi.entry(r))
    return Flag(tuple(accumulate(reversed(caps), max)))


def compatible_form(lam: Partition, phi: Flag) -> Flag:
    """phi if compatible with lam, else its normal form (compatible when
    any flag of the class is)."""
    return phi if is_compatible(lam, phi) else normal_flag(lam, phi)


def flags_equivalent(lam: Partition, phi1: Flag, phi2: Flag) -> bool:
    return normal_flag(lam, phi1) == normal_flag(lam, phi2)


def compatible_flags(lam: Partition, lo: int, hi: int):
    """All flags compatible with lam whose entries lie in [lo, hi]."""
    def extend(prefix):
        i = len(prefix)
        if i == len(lam):
            yield Flag(prefix)
            return
        lower = prefix[-1] if prefix else lo
        upper = hi
        if prefix:
            upper = min(upper, prefix[-1] + lam.part(i) - lam.part(i + 1) + 1)
        for b in range(lower, upper + 1):
            yield from extend(prefix + (b,))

    yield from extend(())
