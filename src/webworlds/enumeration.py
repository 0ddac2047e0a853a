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
import operator
from typing import Callable, Iterator, Sequence

from .diagram import Edge, WebDiagram, WebWorld, json_int_rows, predicted_world_size
from .errors import BadRange, BoundsTooLarge
from .matrices import DEFAULT_WORK_GUARD, _check_work

Rows = tuple[tuple[int, ...], ...]
# A truncated series in two variables: series[i][j] is the coefficient of
# (edge variable)^i (pair variable)^j for i <= edges and j <= pairs.
Series = list[list[int]]

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
    diagram = source[0] if isinstance(source, WebWorld) else source
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
    return predicted_world_size(seed_diagram(rows))


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
    return WebDiagram(tuple(edges), n)


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The `parts`-tuples of non-negative integers summing to `total`, in
    lexicographic order: the gaps around parts - 1 bars among total + parts - 1 slots."""
    if parts < 2:
        if parts or not total:
            yield (total,) * parts
        return
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))


def _matrix_from_cells(m: int, values: tuple[int, ...]) -> Rows:
    rows = [[0] * m for _ in range(m)]
    for (i, j), v in zip(itertools.combinations(range(m), 2), values):
        rows[i][j] = v
    return tuple(tuple(row) for row in rows)


def peg_loads(rows: Rows) -> tuple[int, ...]:
    """Endpoints on each peg; a peg with load 0 is isolated."""
    return tuple(map(operator.add, map(sum, rows), map(sum, zip(*rows))))


def _is_connected(rows: Rows) -> bool:
    # connectivity over the pegs that carry endpoints
    used = [i for i, load in enumerate(peg_loads(rows)) if load]
    seen = used[:1]
    for i in seen:
        seen += [j for j in used if (rows[i][j] or rows[j][i]) and j not in seen]
    return bool(used) and len(seen) == len(used)


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
    totals = [exact_edges] if exact_edges is not None else range(max_edges + 1)
    top = max_edges if exact_edges is None else exact_edges
    # t edges on c cells make C(c + t - 1, t) matrices, and up to T edges
    # C(c + T, T), each listed at the cost of its m^2 entries; the entries pass
    # the work guard by m = 500, so the count stops early on any max_pegs
    candidates = entries = 0
    for m in range(2, max_pegs + 1):
        count = math.comb(math.comb(m, 2) + top - (exact_edges is not None), top)
        candidates += count
        entries += count * m * m
        if candidates > max_matrices or entries > DEFAULT_WORK_GUARD:
            break
    if candidates > max_matrices:
        raise BoundsTooLarge(f"{candidates} candidate matrices exceed the guard {max_matrices}")
    _check_work(entries, what="listing", error=BoundsTooLarge)
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
    return sum(1 for _rows in _with_pairs(pegs, edges, pairs))


def _with_pairs(pegs: int, edges: int, pairs: int) -> Iterator[Rows]:
    """Represent matrices on `pegs` pegs with `edges` edges on `pairs` pairs."""
    for values in _weak_compositions(edges, math.comb(pegs, 2)):
        if sum(1 for v in values if v) == pairs:
            yield _matrix_from_cells(pegs, values)


def count_worlds_series(pegs: int, edges: int, pairs: int) -> int:
    """The same count extracted from the generating series
    (1 + y*z/(1-z))^C(pegs,2) as the z^edges y^pairs coefficient."""
    if pegs < 2 or edges < 0 or pairs < 0:
        raise BadRange("need pegs >= 2 and non-negative edges/pairs")
    cells = math.comb(pegs, 2)
    if pairs > edges or pairs > cells:
        return 0
    _check_series_work(2 * cells.bit_length(), edges, pairs, _count_bits(cells, edges, pairs))
    base = _pair_series(edges, pairs)
    power = _series_one(edges, pairs)
    while cells:
        if cells & 1:
            power = _series_product(power, base)
        cells >>= 1
        if cells:
            base = _series_product(base, base)
    return power[edges][pairs]


def count_worlds_no_isolated(pegs: int, edges: int, pairs: int) -> int:
    """Closed-form count of worlds without isolated pegs.

    Inclusion-exclusion over which pegs carry endpoints: the edge
    multiplicities contribute a composition factor and the peg-pair
    choices a binomial over the subset's pair count.
    """
    if pegs < 2 or edges < 1 or pairs < 1:
        raise BadRange("need pegs >= 2, edges >= 1, pairs >= 1")
    cells = math.comb(pegs, 2)
    # each pair needs an edge of its own, and every peg must lie on a pair
    if pairs > edges or pairs > cells or pegs > 2 * pairs:
        return 0
    # pegs + 1 terms, each a binomial over `pairs` factors
    _check_work((pegs + 1) * pairs, _count_bits(cells, edges, pairs), error=BoundsTooLarge)
    return math.comb(edges - 1, pairs - 1) * sum(
        (-1) ** (pegs - k) * math.comb(pegs, k) * math.comb(math.comb(k, 2), pairs)
        for k in range(pegs + 1)
    )


def count_worlds_no_isolated_direct(pegs: int, edges: int, pairs: int) -> int:
    if pegs < 2 or edges < 1 or pairs < 1:
        raise BadRange("need pegs >= 2, edges >= 1, pairs >= 1")
    return sum(0 not in peg_loads(rows) for rows in _with_pairs(pegs, edges, pairs))


def count_proper_worlds(pegs: int, edges: int, pairs: int) -> int:
    """Proper (connected, no isolated peg) worlds on `pegs` labeled pegs,
    via the logarithm of the exponential generating series.

    a_n = (1 + q*x/(1-x))^C(n,2) counts all worlds on n pegs and c_n the
    connected ones; log sum a_n t^n/n! = sum c_n t^n/n! is the
    exponential-formula recurrence
    c_n = a_n - sum_{k=1}^{n-1} C(n-1, k-1) c_k a_{n-k}.
    """
    if pegs < 1 or edges < 0 or pairs < 0:
        raise BadRange("need pegs >= 1 and non-negative edges/pairs")
    if pairs > edges or pairs > math.comb(pegs, 2):
        return 0
    _check_series_work((pegs - 1) * (pegs + 4) // 2, edges, pairs)
    base = _pair_series(edges, pairs)
    step = _series_one(edges, pairs)
    worlds = [step]  # worlds[n - 1] = a_n, with step = base^(n - 1)
    for _ in range(1, pegs):
        step = _series_product(step, base)
        worlds.append(_series_product(worlds[-1], step))
    connected: list[Series] = []
    for n in range(1, pegs + 1):
        c_n = [row[:] for row in worlds[n - 1]]
        for k in range(1, n):
            weight = math.comb(n - 1, k - 1)
            product = _series_product(connected[k - 1], worlds[n - k - 1])
            for row, terms in zip(c_n, product):
                for j, value in enumerate(terms):
                    row[j] -= weight * value
        connected.append(c_n)
    return connected[-1][edges][pairs]


def count_proper_worlds_direct(pegs: int, edges: int, pairs: int) -> int:
    """Brute-force oracle for the proper-world count."""
    if pegs < 1 or edges < 0 or pairs < 0:
        raise BadRange("need pegs >= 1 and non-negative edges/pairs")
    if pegs == 1:
        return 1 if edges == 0 and pairs == 0 else 0
    return sum(
        0 not in peg_loads(rows) and _is_connected(rows)
        for rows in _with_pairs(pegs, edges, pairs)
    )


def _series_one(edges: int, pairs: int) -> Series:
    one = [[0] * (pairs + 1) for _ in range(edges + 1)]
    one[0][0] = 1
    return one


def _pair_series(edges: int, pairs: int) -> Series:
    """1 + y*z/(1-z): a peg pair carries no edge, or k >= 1 parallel edges."""
    base = _series_one(edges, pairs)
    if pairs:
        for row in base[1:]:
            row[1] = 1
    return base


def _series_product(a: Series, b: Series) -> Series:
    """The product of a and b, truncated to their common shape."""
    edges, pairs = len(a) - 1, len(a[0]) - 1
    out = [[0] * (pairs + 1) for _ in range(edges + 1)]
    for i, row_a in enumerate(a):
        for j, coeff in enumerate(row_a):
            if coeff:
                for row_b, row in zip(b, out[i:]):
                    for k in range(pairs + 1 - j):
                        row[j + k] += coeff * row_b[k]
    return out


def _check_series_work(products: int, edges: int, pairs: int, bits: int = 0) -> None:
    """Raise BoundsTooLarge before a counter whose products would take more
    than DEFAULT_WORK_GUARD multiply-adds, or whose `bits`-bit answer could
    pass the digit limit (see matrices._check_work)."""
    work = products * (edges + 1) * (edges + 2) * (pairs + 1) * (pairs + 2) // 4
    _check_work(work, bits, what="series", error=BoundsTooLarge)


def _count_bits(cells: int, edges: int, pairs: int) -> int:
    """Bits of C(cells, pairs) C(edges - 1, pairs - 1), the number of worlds
    on those cells, or more: it is below cells^pairs edges^pairs."""
    return pairs * (cells.bit_length() + edges.bit_length())
