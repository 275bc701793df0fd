"""Set-valued semistandard tableaux: enumeration, weights, the split/merge
bijection, and the row-strict-decreasing view with omega_1."""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Any, Callable, NamedTuple

from .ring import EvaluationPoint
from .shapes import Flag, Partition, SkewShape, skew_props


@dataclass(frozen=True)
class _Tableau:
    """A filling of a skew shape by nonempty sorted sets of integers.

    Subclasses fix the order between horizontal neighbours (`_row_ok`) and
    between vertical neighbours (`_col_ok`); both read sorted cells."""

    shape: SkewShape
    rows: tuple[tuple[tuple[int, ...], ...], ...]  # rows[r-1][k] = k-th cell of row r

    def __post_init__(self):
        rows = tuple([tuple(map(tuple, row)) for row in self.rows])
        object.__setattr__(self, "rows", rows)
        layout = self.shape.props.rows
        if len(rows) != len(layout):
            raise ValueError("row count does not match shape")
        row_ok, col_ok = self._row_ok, self._col_ok
        above = ()
        for r, (row, (first, width, up)) in enumerate(zip(rows, layout),
                                                      start=1):
            if len(row) != width:
                raise ValueError(f"cell count mismatch in row {r}")
            # each cell is compared with its left and upper neighbours,
            # which are already known to be nonempty sorted sets
            for k, cell in enumerate(row):
                if not cell:
                    raise ValueError(f"empty entry at {(r, first + k)}")
                if len(cell) > 1 and tuple(sorted(set(cell))) != cell:
                    raise ValueError(f"entry at {(r, first + k)} not a "
                                     f"sorted set: {cell}")
                if k and not row_ok(row[k - 1], cell):
                    raise ValueError(f"row order violated at "
                                     f"{(r, first + k - 1)}")
                if k >= up and not col_ok(above[k - up], cell):
                    raise ValueError(f"column order violated at "
                                     f"{(r - 1, first + k)}")
            above = row

    def cells(self):
        for r, (row, (first, _, _)) in enumerate(
                zip(self.rows, self.shape.props.rows), start=1):
            yield from zip(((r, first + k) for k in range(len(row))), row)

    @property
    def value_count(self) -> int:
        return sum(len(cell) for row in self.rows for cell in row)

    def to_text(self) -> str:
        lines = []
        for r in range(1, len(self.shape.outer) + 1):
            cells = ["."] * self.shape.inner.part(r)
            cells += ["{" + ",".join(map(str, cell)) + "}"
                      for cell in self.rows[r - 1]]
            lines.append(" ".join(cells))
        return " ; ".join(lines)


@dataclass(frozen=True)
class SetValuedTableau(_Tableau):
    """Semistandard: rows weakly increase, columns strictly increase."""

    _row_ok = staticmethod(lambda left, right: left[-1] <= right[0])
    _col_ok = staticmethod(lambda up, down: up[-1] < down[0])


def _built(shape: SkewShape, rows) -> SetValuedTableau:
    """A SetValuedTableau made without the checks of its constructor, for
    fillings that are semistandard by construction: those that
    enumerate_tableaux and split build, as tuples of sorted tuples.  The
    oracle tests test_enumerated_tableaux_pass_validation and
    test_split_parts_pass_validation rebuild them through the public
    constructor."""
    t = object.__new__(SetValuedTableau)
    object.__setattr__(t, "shape", shape)
    object.__setattr__(t, "rows", rows)
    return t


@dataclass(frozen=True)
class RowStrictDecreasingTableau(_Tableau):
    """The omega_1 image: rows strictly decrease, columns weakly decrease."""

    _row_ok = staticmethod(lambda left, right: left[0] > right[-1])
    _col_ok = staticmethod(lambda up, down: up[0] >= down[-1])


@dataclass(frozen=True)
class EnumSpec:
    shape: SkewShape
    flag: Flag | None = None
    sign: str = "any"  # positive | nonpositive | any
    window: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.sign not in ("positive", "nonpositive", "any"):
            raise ValueError(f"bad sign restriction {self.sign!r}")
        lo, hi = self.window
        if lo > hi:
            raise ValueError(f"empty value window {self.window}")
        if self.flag is not None:
            occupied = self.shape.props.rows_occupied
            if occupied and len(self.flag) < occupied[-1]:
                raise ValueError("flag shorter than the occupied rows")


def _subsets(lo: int, hi: int):
    """Nonempty subsets of [lo, hi] as sorted tuples, in lexicographic order:
    after s comes s with s[-1] + 1 appended while that is at most hi, else
    s without its last value and its new last value raised by one."""
    s = [lo] if lo <= hi else []
    while s:
        yield tuple(s)
        if s[-1] < hi:
            s.append(s[-1] + 1)
        else:
            s.pop()
            if s:
                s[-1] += 1


def cell_bounds(spec: EnumSpec, r: int) -> tuple[int, int]:
    """Value range for cells in row r before neighbor constraints."""
    lo, hi = spec.window
    if spec.sign == "positive":
        lo = max(lo, 1)
    elif spec.sign == "nonpositive":
        hi = min(hi, 0)
    if spec.flag is not None:
        hi = min(hi, spec.flag.entry(r))
    return lo, hi


class Semiring(NamedTuple):
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]


COUNTS = Semiring(0, 1, operator.add, operator.mul)


def tableau_sum(spec: EnumSpec, semiring: Semiring, top, extra, forms=None):
    """Sum over the tableaux of spec of the product of their cell weights,
    by a transfer DP over the rows of the shape's _layout, whose state is
    the largest value of each cell that the next row reads.

    Over the sets a cell on diagonal d = c-r may hold, with values from lb
    (set by its row and its left and upper neighbours) up to its largest
    value M, the weights sum to top(M, d) * prod_{i=lb}^{M-1} extra(i, d),
    where extra(i, d) is `one` (i left out) plus the weight of i held below
    M (Buch's set-valued tableaux).  An empty shape sums to `one`.  `forms`
    caches closed forms by (lb, hi, d), per call unless a caller with fixed
    semiring, top and extra shares one."""
    add, mul = semiring.add, semiring.mul
    forms = {} if forms is None else forms
    cells, cuts = _layout(spec.shape.props.rows)
    # states: maxima of the previous row's cells base..keep-1 -> sum
    states, base = {(): semiring.one}, 0
    for r, (start, end, keep) in enumerate(cuts, start=1):
        if start == end:  # a row with no cells reads and keeps none
            continue
        lo, hi = cell_bounds(spec, r)
        new_states: dict = {}
        for above, w0 in states.items():
            # along the row: (bound from the left, maxima kept) -> sum
            inner = {(lo, ()): w0}
            for i in range(start, end):
                _, _, up, d = cells[i]
                nxt: dict = {}
                for (left, kept), wt in inner.items():
                    lb = max(left, above[up - base] + 1) if up >= 0 else left
                    form = forms.get((lb, hi, d))
                    if form is None:
                        form, run = [], semiring.one
                        for m in range(lb, hi + 1):
                            form.append(mul(run, top(m, d)))
                            run = mul(run, extra(m, d))
                        forms[lb, hi, d] = form
                    for m, w in enumerate(form, start=lb):
                        key = (m, kept + (m,) if i < keep else kept)
                        v = mul(wt, w)
                        nxt[key] = add(nxt[key], v) if key in nxt else v
                inner = nxt
            for (_, kept), wt in inner.items():
                new_states[kept] = add(new_states[kept], wt) \
                    if kept in new_states else wt
        states, base = new_states, start
    return reduce(add, states.values(), semiring.zero)


@lru_cache(maxsize=1024)  # a verify run meets a few hundred shapes
def _layout(rows: tuple[tuple[int, int, int], ...]):
    """The shape-only part of every tableau spec on a shape, cached on the
    shape's `props.rows`: its cells in row-major order, each as its row,
    the flat indices of its left and upper neighbours (-1 when absent) and
    its diagonal c-r; and each row's slice start..end of that order with
    `keep`, the end of its leading cells that the next row reads.  The
    value bounds depend on the flag, sign and window too, so callers take
    them per row from cell_bounds."""
    cells, cuts, above = [], [], 0
    for r, (first, width, up) in enumerate(rows, start=1):
        start = len(cells)
        cells += [(r, start + k - 1 if k else -1,
                   above + k - up if k >= up else -1, first + k - r)
                  for k in range(width)]
        # cell k >= up' of the next row lies below cell k - up' of this one
        _, width_next, up_next = rows[r] if r < len(rows) else (0, 0, 0)
        cuts.append((start, start + width,
                     start + max(0, width_next - up_next)))
        above = start
    return tuple(cells), tuple(cuts)


def fillings(spec: EnumSpec):
    """The rows of every admissible filling, row-major, lexicographic on
    entry sets: each a tuple of rows of sorted-tuple cells."""
    cells, cuts = _layout(spec.shape.props.rows)
    last = len(cells) - 1
    if last < 0:
        yield tuple(() for _ in cuts)
        return
    bounds = {r: cell_bounds(spec, r) for r in spec.shape.props.rows_occupied}
    grid: list = [()] * len(cells)

    def fill(i: int):
        r, left, up, _ = cells[i]
        lo, hi = bounds[r]
        if left >= 0 and grid[left][-1] > lo:
            lo = grid[left][-1]
        if up >= 0 and grid[up][-1] >= lo:
            lo = grid[up][-1] + 1
        for cell in _subsets(lo, hi):
            grid[i] = cell
            if i == last:
                yield tuple([tuple(grid[a:b]) for a, b, _ in cuts])
            else:
                yield from fill(i + 1)

    yield from fill(0)


def enumerate_tableaux(spec: EnumSpec):
    """All admissible fillings as tableaux, in the order of fillings."""
    for rows in fillings(spec):
        yield _built(spec.shape, rows)


def _weight(t: _Tableau, point: EvaluationPoint, x_first: bool) -> int:
    """beta^{-|shape|} * prod over cell values i of beta*(x_i (-) y_{i+c-r}),
    or of beta*(y_{i+c-r} (-) x_i) when x_first is false."""
    p = point.prime
    val = pow(point.beta, t.value_count - t.shape.size, p)
    for (r, c), cell in t.cells():
        for i in cell:
            x, y = point.x_val(i), point.y_val(i + c - r)
            val = val * (point.ominus(x, y) if x_first
                         else point.ominus(y, x)) % p
    return val


def weight_eval(t: SetValuedTableau, point: EvaluationPoint) -> int:
    return _weight(t, point, x_first=True)


def r_weight_eval(t: RowStrictDecreasingTableau, point: EvaluationPoint) -> int:
    return _weight(t, point, x_first=False)


def split(t: SetValuedTableau) -> tuple[SetValuedTableau, SetValuedTableau]:
    """Separate a straight-shape tableau into its nonpositive part (straight
    shape nu) and positive part (skew shape lambda/mu), with mu <= nu."""
    if t.shape.inner.parts:
        raise ValueError("split requires a straight shape")
    minus_shape, plus_shape, minus_rows, plus_rows = split_rows(
        t.shape.outer.parts, t.rows)
    # the parts of semistandard cells on either side of 0 stay semistandard
    return _built(minus_shape, minus_rows), _built(plus_shape, plus_rows)


def split_rows(lam: tuple[int, ...], rows):
    """split on the rows of a tableau of straight shape lambda: the shapes
    nu and lambda/mu of its parts and their rows."""
    minus_rows, plus_rows, nu_rows, mu_rows = [], [], [], []
    for row in rows:
        # the row weakly increases: mu_r cells <= 0, then at most one cell
        # across 0, which alone is cut, then cells > 0 from nu_r on
        nu_r = mu_r = 0
        for cell in row:
            if cell[0] > 0:
                break
            nu_r += 1
            if cell[-1] <= 0:
                mu_r += 1
        if nu_r > mu_r:
            cell = row[mu_r]
            k = bisect_right(cell, 0)
            minus_rows.append(row[:mu_r] + (cell[:k],))
            plus_rows.append((cell[k:],) + row[nu_r:])
        else:
            minus_rows.append(row[:mu_r])
            plus_rows.append(row[mu_r:])
        nu_rows.append(nu_r)
        mu_rows.append(mu_r)
    minus_shape, plus_shape, disconnected = _split_shapes(
        lam, tuple(nu_rows), tuple(mu_rows))
    if not disconnected:
        text = _built(SkewShape(Partition(lam)), rows).to_text()
        raise RuntimeError(f"split of {text!r}: nu/mu is not disconnected")
    return (minus_shape, plus_shape,
            tuple(minus_rows[:len(minus_shape.outer.parts)]), tuple(plus_rows))


@lru_cache(maxsize=4096)
def _split_shapes(lam: tuple[int, ...], nu_rows: tuple[int, ...],
                  mu_rows: tuple[int, ...]) -> tuple[SkewShape, SkewShape, bool]:
    """The shapes nu and lambda/mu of split's parts, and whether nu/mu is
    disconnected.  Keyed on part tuples, which hash in C."""
    nu, mu = Partition(nu_rows), Partition(mu_rows)
    return (SkewShape(nu), SkewShape(Partition(lam), mu),
            skew_props(nu.parts, mu.parts).is_disconnected)


def merge(tminus: SetValuedTableau, tplus: SetValuedTableau) -> SetValuedTableau:
    """The inverse of split; the constructor checks the result."""
    return SetValuedTableau(*merge_rows(tminus.shape, tplus.shape,
                                        tminus.rows, tplus.rows))


def merge_rows(minus_shape: SkewShape, plus_shape: SkewShape, minus_rows,
               plus_rows) -> tuple[SkewShape, tuple]:
    """merge on the shapes and rows of the two parts: the shape lambda and
    the merged rows, which are not checked to be semistandard."""
    if minus_shape.inner.parts:
        raise ValueError("nonpositive part must have straight shape")
    for row in minus_rows:
        for cell in row:
            if cell[-1] > 0:
                raise ValueError("nonpositive part has a positive value")
    for row in plus_rows:
        for cell in row:
            if cell[0] < 1:
                raise ValueError("positive part has a nonpositive value")
    nu, mu = minus_shape.outer.parts, plus_shape.inner.parts
    shape = _merge_shape(plus_shape.outer.parts, nu, mu)
    # row r: cells 1..mu_r from minus, mu_r+1..nu_r join both, then plus;
    # values <= 0 come first
    rows = []
    for r, plus in enumerate(plus_rows):
        minus = minus_rows[r] if r < len(nu) else ()
        m = mu[r] if r < len(mu) else 0
        rows.append(minus[:m] + tuple(map(operator.add, minus[m:], plus))
                    + plus[len(minus) - m:])
    return shape, tuple(rows)


@lru_cache(maxsize=4096)
def _merge_shape(lam: tuple[int, ...], nu: tuple[int, ...],
                 mu: tuple[int, ...]) -> SkewShape:
    """The shape lambda of merge's result, after checking mu <= nu <= lambda
    with nu/mu disconnected.  Keyed on part tuples."""
    lam, nu, mu = Partition(lam), Partition(nu), Partition(mu)
    if not nu.contains(mu):
        raise ValueError("inner shape of the positive part not contained in nu")
    if not lam.contains(nu):
        raise ValueError("nu not contained in the outer shape")
    if not skew_props(nu.parts, mu.parts).is_disconnected:
        raise ValueError("nu/mu is not disconnected")
    return SkewShape(lam)


def _conjugate_negate(t: _Tableau, cls: type[_Tableau]) -> _Tableau:
    """Conjugate the shape, then replace each value i by 1-i."""
    shape, layout = t.shape.conjugate(), t.shape.props.rows
    rows = []
    for r, (first, width, _) in enumerate(shape.props.rows, start=1):
        # cell (r, c) of the conjugate shape is cell (c, r) of t
        cells = (t.rows[c - 1][r - layout[c - 1][0]]
                 for c in range(first, first + width))
        rows.append(tuple(tuple(1 - v for v in reversed(cell))
                          for cell in cells))
    return cls(shape, tuple(rows))


def omega1_tableau(t: SetValuedTableau) -> RowStrictDecreasingTableau:
    return _conjugate_negate(t, RowStrictDecreasingTableau)


def omega1_inverse(t: RowStrictDecreasingTableau) -> SetValuedTableau:
    return _conjugate_negate(t, SetValuedTableau)
