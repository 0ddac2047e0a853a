"""Represent matrices, world sizes, and world counting.

A web world is determined by its represent matrix: the strictly
upper-triangular count of parallel edges on each peg pair. This module
enumerates such matrices, evaluates the orbit-size product formula, and
counts world families three ways (direct enumeration, closed forms, and
truncated generating series) so the routes can be cross-checked.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .diagram import Edge, WebDiagram, WebWorld, json_int_rows, validate_diagram
from .errors import BadRange, BoundsTooLarge, InconsistentResult, SeriesTruncationTooSmall

Rows = tuple[tuple[int, ...], ...]

DEFAULT_MATRIX_GUARD = 2_000_000


def validate_represent(rows: Sequence[Sequence[int]]) -> Rows:
    out = json_int_rows(rows, "represent matrix")
    size = len(out)
    for i, row in enumerate(out):
        if len(row) != size:
            raise BadRange("represent matrix must be square")
        for j, value in enumerate(row):
            if value < 0:
                raise BadRange("represent entries must be non-negative")
            if value and j <= i:
                raise BadRange("represent matrix must be strictly upper triangular")
    return out


def represent(source: WebDiagram | WebWorld) -> Rows:
    """Per peg pair, the number of parallel edges (a world invariant)."""
    diagram = source.diagrams[0] if isinstance(source, WebWorld) else source
    n = diagram.num_pegs
    rows = [[0] * n for _ in range(n)]
    for e in diagram.edges:
        rows[e.left_peg - 1][e.right_peg - 1] += 1
    return tuple(tuple(row) for row in rows)


def is_proper(source: WebDiagram | WebWorld) -> bool:
    """True when the web graph is connected (and non-empty)."""
    return _is_connected(represent(source))


def world_size(rows: Sequence[Sequence[int]]) -> int:
    """Orbit size from a represent matrix: peg factorials over cell factorials."""
    a = validate_represent(rows)
    n = len(a)
    size = 1
    for i in range(n):
        load = sum(a[i][j] for j in range(n)) + sum(a[j][i] for j in range(n))
        size *= math.factorial(load)
    for i in range(n):
        for j in range(n):
            size //= math.factorial(a[i][j])
    return size


def seed_diagram(rows: Sequence[Sequence[int]]) -> WebDiagram:
    """A canonical member diagram realizing the given represent matrix."""
    a = validate_represent(rows)
    n = len(a)
    next_height = [1] * n
    edges = []
    for i in range(n):
        for j in range(n):
            for _ in range(a[i][j]):
                edges.append(Edge(i + 1, j + 1, next_height[i], next_height[j]))
                next_height[i] += 1
                next_height[j] += 1
    return validate_diagram(edges, n)


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _matrix_from_cells(m: int, values: tuple[int, ...]) -> Rows:
    rows = [[0] * m for _ in range(m)]
    for (i, j), v in zip(itertools.combinations(range(m), 2), values):
        rows[i][j] = v
    return tuple(tuple(row) for row in rows)


def peg_loads(rows: Rows) -> tuple[int, ...]:
    """Endpoints on each peg; a peg with load 0 is isolated."""
    return tuple(sum(row) + sum(other[i] for other in rows) for i, row in enumerate(rows))


def _is_connected(rows: Rows) -> bool:
    # connectivity over the pegs that carry endpoints
    n = len(rows)
    used = [i for i, load in enumerate(peg_loads(rows)) if load]
    if not used:
        return False
    adjacency: dict[int, set[int]] = {v: set() for v in used}
    for i in range(n):
        for j in range(n):
            if rows[i][j]:
                adjacency[i].add(j)
                adjacency[j].add(i)
    seen = {used[0]}
    frontier = [used[0]]
    while frontier:
        for w in adjacency[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(used)


def enumerate_worlds(
    max_pegs: int,
    max_edges: int,
    *,
    exact_edges: int | None = None,
    no_isolated: bool = False,
    proper_only: bool = False,
    predicate: Callable[[Rows], bool] | None = None,
    max_matrices: int = DEFAULT_MATRIX_GUARD,
) -> Iterator[Rows]:
    """Stream represent matrices with 2..max_pegs pegs, smallest first.

    Every strictly upper-triangular matrix within the bounds appears
    exactly once (including the all-zero ones) unless a filter drops it.
    """
    if max_pegs < 2:
        raise BadRange("need at least two pegs to place an edge")
    if max_edges < 0 or (exact_edges is not None and exact_edges < 0):
        raise BadRange("edge bounds must be non-negative")
    totals = [exact_edges] if exact_edges is not None else list(range(max_edges + 1))
    candidates = sum(
        math.comb(math.comb(m, 2) + t - 1, t)
        for m in range(2, max_pegs + 1)
        for t in totals
    )
    if candidates > max_matrices:
        raise BoundsTooLarge(f"{candidates} candidate matrices exceed the guard {max_matrices}")
    for m in range(2, max_pegs + 1):
        cells = math.comb(m, 2)
        for t in totals:
            for values in _weak_compositions(t, cells):
                rows = _matrix_from_cells(m, values)
                if no_isolated and 0 in peg_loads(rows):
                    continue
                if proper_only and not _is_connected(rows):
                    continue
                if predicate is not None and not predicate(rows):
                    continue
                yield rows


def count_worlds(pegs: int, edges: int, pairs: int) -> int:
    """Worlds on exactly `pegs` labeled pegs with `edges` edges spread over
    exactly `pairs` peg pairs, counted by direct matrix enumeration."""
    if pegs < 2 or edges < 0 or pairs < 0:
        raise BadRange("need pegs >= 2 and non-negative edges/pairs")
    cells = math.comb(pegs, 2)
    return sum(
        1
        for values in _weak_compositions(edges, cells)
        if sum(1 for v in values if v) == pairs
    )


def count_worlds_series(pegs: int, edges: int, pairs: int) -> int:
    """The same count extracted from the generating series
    (1 + y*z/(1-z))^C(pegs,2) as the z^edges y^pairs coefficient."""
    if pegs < 2 or edges < 0 or pairs < 0:
        raise BadRange("need pegs >= 2 and non-negative edges/pairs")
    orders = (edges, pairs)
    z = TruncatedSeries.monomial(orders, (1, 0))
    y = TruncatedSeries.monomial(orders, (0, 1))
    geometric = TruncatedSeries.constant(orders, 1)
    power = TruncatedSeries.constant(orders, 1)
    for _ in range(edges):
        power = power * z
        geometric = geometric + power
    base = TruncatedSeries.constant(orders, 1) + y * z * geometric
    series = base ** math.comb(pegs, 2)
    value = series.coefficient((edges, pairs))
    if value.denominator != 1:
        raise InconsistentResult(f"series coefficient {value} is not an integer")
    return int(value)


def count_worlds_no_isolated(pegs: int, edges: int, pairs: int) -> int:
    """Closed-form count of worlds without isolated pegs.

    Inclusion-exclusion over which pegs carry endpoints: the edge
    multiplicities contribute a composition factor and the peg-pair
    choices a binomial over the subset's pair count.
    """
    if pegs < 2 or edges < 1 or pairs < 1:
        raise BadRange("need pegs >= 2, edges >= 1, pairs >= 1")
    return math.comb(edges - 1, pairs - 1) * sum(
        (-1) ** (pegs - k) * math.comb(pegs, k) * math.comb(math.comb(k, 2), pairs)
        for k in range(pegs + 1)
    )


def count_worlds_no_isolated_direct(pegs: int, edges: int, pairs: int) -> int:
    if pegs < 2 or edges < 1 or pairs < 1:
        raise BadRange("need pegs >= 2, edges >= 1, pairs >= 1")
    cells = math.comb(pegs, 2)
    count = 0
    for values in _weak_compositions(edges, cells):
        if sum(1 for v in values if v) != pairs:
            continue
        if 0 not in peg_loads(_matrix_from_cells(pegs, values)):
            count += 1
    return count


def count_proper_worlds(pegs: int, edges: int, pairs: int) -> int:
    """Proper (connected, no isolated peg) worlds on `pegs` labeled pegs,
    via the logarithm of the exponential generating series."""
    if pegs < 1 or edges < 0 or pairs < 0:
        raise BadRange("need pegs >= 1 and non-negative edges/pairs")
    orders = (edges, pairs, pegs)
    x = TruncatedSeries.monomial(orders, (1, 0, 0))
    q = TruncatedSeries.monomial(orders, (0, 1, 0))
    one = TruncatedSeries.constant(orders, 1)
    geometric = TruncatedSeries.constant(orders, 1)
    power = TruncatedSeries.constant(orders, 1)
    for _ in range(edges):
        power = power * x
        geometric = geometric + power
    per_pair = one + q * x * geometric
    inner = TruncatedSeries.constant(orders, 0)
    for n in range(1, pegs + 1):
        term = per_pair ** math.comb(n, 2)
        zn = TruncatedSeries.monomial(orders, (0, 0, n), Fraction(1, math.factorial(n)))
        inner = inner + term * zn
    series = inner.log_one_plus()
    value = series.coefficient((edges, pairs, pegs)) * math.factorial(pegs)
    if value.denominator != 1:
        raise InconsistentResult(f"series coefficient {value} is not an integer")
    return int(value)


def count_proper_worlds_direct(pegs: int, edges: int, pairs: int) -> int:
    """Brute-force oracle for the proper-world count."""
    if pegs < 1 or edges < 0 or pairs < 0:
        raise BadRange("need pegs >= 1 and non-negative edges/pairs")
    if pegs == 1:
        return 1 if edges == 0 and pairs == 0 else 0
    cells = math.comb(pegs, 2)
    count = 0
    for values in _weak_compositions(edges, cells):
        if sum(1 for v in values if v) != pairs:
            continue
        rows = _matrix_from_cells(pegs, values)
        if 0 not in peg_loads(rows) and _is_connected(rows):
            count += 1
    return count


class TruncatedSeries:
    """Multivariate power series truncated per variable.

    Terms map exponent tuples to exact rationals; any product term whose
    exponent exceeds its variable's order is silently dropped, so every
    kept coefficient is exact.
    """

    __slots__ = ("orders", "terms")

    def __init__(self, orders: tuple[int, ...], terms: dict | None = None):
        self.orders = tuple(int(o) for o in orders)
        if any(o < 0 for o in self.orders):
            raise BadRange("truncation orders must be non-negative")
        self.terms: dict[tuple[int, ...], Fraction] = {}
        for exponents, coeff in (terms or {}).items():
            value = Fraction(coeff)
            if value and all(e <= o for e, o in zip(exponents, self.orders)):
                self.terms[tuple(exponents)] = value

    @classmethod
    def constant(cls, orders: tuple[int, ...], value) -> "TruncatedSeries":
        return cls(orders, {tuple([0] * len(orders)): Fraction(value)})

    @classmethod
    def monomial(cls, orders: tuple[int, ...], exponents: tuple[int, ...], coeff=1) -> "TruncatedSeries":
        return cls(orders, {tuple(exponents): Fraction(coeff)})

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.orders != other.orders:
            raise BadRange("series have different truncation orders")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        merged = dict(self.terms)
        for exponents, coeff in other.terms.items():
            merged[exponents] = merged.get(exponents, Fraction(0)) + coeff
        return TruncatedSeries(self.orders, merged)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        merged = dict(self.terms)
        for exponents, coeff in other.terms.items():
            merged[exponents] = merged.get(exponents, Fraction(0)) - coeff
        return TruncatedSeries(self.orders, merged)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(
                self.orders, {e: c * other for e, c in self.terms.items()}
            )
        self._check_compatible(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                combined = tuple(a + b for a, b in zip(e1, e2))
                if all(e <= o for e, o in zip(combined, self.orders)):
                    out[combined] = out.get(combined, Fraction(0)) + c1 * c2
        return TruncatedSeries(self.orders, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise BadRange("series power must be non-negative")
        result = TruncatedSeries.constant(self.orders, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def log_one_plus(self) -> "TruncatedSeries":
        """Series for log(1 + self); self must have no constant term."""
        zero = tuple([0] * len(self.orders))
        if self.terms.get(zero):
            raise BadRange("log expansion needs a series with zero constant term")
        result = TruncatedSeries(self.orders, {})
        power = TruncatedSeries.constant(self.orders, 1)
        for k in range(1, sum(self.orders) + 2):
            power = power * self
            if not power.terms:
                break
            result = result + power * Fraction((-1) ** (k - 1), k)
        return result

    def coefficient(self, exponents: tuple[int, ...]) -> Fraction:
        key = tuple(exponents)
        if len(key) != len(self.orders):
            raise BadRange("exponent tuple has the wrong arity")
        if any(e > o for e, o in zip(key, self.orders)):
            raise SeriesTruncationTooSmall(
                f"coefficient {key} lies beyond truncation orders {self.orders}"
            )
        return self.terms.get(key, Fraction(0))
