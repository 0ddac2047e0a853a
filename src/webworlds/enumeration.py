"""Represent matrices, world sizes, and world counting.

A web world is determined by its represent matrix: the strictly
upper-triangular count of parallel edges on each peg pair. This module
enumerates such matrices, evaluates the orbit-size product formula, and
counts worlds by pegs, edges and occupied peg pairs. With w = y*z/(1-z)
each count is a series in w alone, and [z^e y^q] w^q = C(e-1, q-1): the
edges only split over the q pairs. `enumerate_worlds` is the one lister
of represent matrices; the counts' brute-force oracles in webworlds.verify
tally its listing.
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
    """The `parts`-tuples (parts >= 1) of non-negative integers summing to `total`, in
    lexicographic order: the gaps around parts - 1 bars among total + parts - 1 slots."""
    if parts == 1:  # combinations would list range(slots) first
        yield (total,)
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


def count_worlds_series(pegs: int, edges: int, pairs: int) -> int:
    """Worlds on exactly `pegs` labeled pegs with `edges` edges spread over
    exactly `pairs` peg pairs, read off the generating series
    (1 + w)^C(pegs,2), with w = y*z/(1-z), as the z^edges y^pairs
    coefficient: choose the occupied pairs, C(C(pegs,2), pairs), then
    split the edges over them."""
    if pegs < 2 or edges < 0 or pairs < 0:
        raise BadRange("need pegs >= 2 and non-negative edges/pairs")
    cells = math.comb(pegs, 2)
    if pairs > edges or pairs > cells:
        return 0
    _check_work(0, _count_bits(cells, edges, pairs), error=BoundsTooLarge)
    return math.comb(cells, pairs) * _splits(edges, pairs)


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
    return _splits(edges, pairs) * sum(
        (-1) ** (pegs - k) * math.comb(pegs, k) * math.comb(math.comb(k, 2), pairs)
        for k in range(pegs + 1)
    )


def count_proper_worlds(pegs: int, edges: int, pairs: int) -> int:
    """Proper (connected, no isolated peg) worlds on `pegs` labeled pegs,
    via the logarithm of the exponential generating series.

    a_n = (1 + w)^C(n,2) counts all worlds on n pegs and c_n the connected
    ones; log sum a_n t^n/n! = sum c_n t^n/n! is the exponential-formula
    recurrence c_n = a_n - sum_{k=1}^{n-1} C(n-1, k-1) c_k a_{n-k}, run on
    series in w truncated at w^pairs. Its answer is at most the count of
    all worlds, whose digit guard it shares.
    """
    if pegs < 1 or edges < 0 or pairs < 0:
        raise BadRange("need pegs >= 1 and non-negative edges/pairs")
    cells = math.comb(pegs, 2)
    if pairs > edges or pairs > cells or pegs > pairs + 1:  # connected needs pegs - 1 pairs
        return 0
    _check_series_work(cells, pairs, _count_bits(cells, edges, pairs))
    worlds = [[math.comb(math.comb(n, 2), j) for j in range(pairs + 1)] for n in range(1, pegs + 1)]
    connected: list[list[int]] = []
    for n in range(1, pegs + 1):
        c_n = worlds[n - 1][:]
        for k in range(1, n):
            weight = math.comb(n - 1, k - 1)
            for j, value in enumerate(_series_product(connected[k - 1], worlds[n - k - 1])):
                c_n[j] -= weight * value
        connected.append(c_n)
    return connected[-1][pairs] * _splits(edges, pairs)


def _splits(edges: int, pairs: int) -> int:
    """[z^edges y^pairs] w^pairs: the ways to split `edges` edges over
    `pairs` occupied pairs, each taking at least one (pairs <= edges)."""
    return math.comb(edges - 1, pairs - 1) if pairs else int(edges == 0)


def _series_product(a: list[int], b: list[int]) -> list[int]:
    """The product of two power series, truncated to the length of a."""
    out = [0] * len(a)
    for i, coeff in enumerate(a):
        if coeff:
            for k, value in enumerate(b[: len(a) - i]):
                out[i + k] += coeff * value
    return out


def _check_series_work(products: int, terms: int, bits: int = 0) -> None:
    """Raise BoundsTooLarge before a counter whose `products` series
    products, each truncated after `terms` and so (terms+1)(terms+2)/2
    multiply-adds, would pass DEFAULT_WORK_GUARD, or whose `bits`-bit
    answer could pass the digit limit (see matrices._check_work)."""
    work = products * (terms + 1) * (terms + 2) // 2
    _check_work(work, bits, what="series", error=BoundsTooLarge)


def _count_bits(cells: int, edges: int, pairs: int) -> int:
    """Bits of C(cells, pairs) C(edges - 1, pairs - 1), the number of worlds
    on those cells, or more: it is below cells^pairs edges^pairs."""
    return pairs * (cells.bit_length() + edges.bit_length())
