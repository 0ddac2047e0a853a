"""Exact colouring/mixing matrices of a web world and their structure checks.

Matrix rows and columns follow the world's canonical diagram order. The
colouring matrix M has integer-polynomial entries whose x^k coefficient
counts the surjective k-colourings of the row diagram that reconstruct
to the column diagram; the mixing matrix R weights those counts by
(-1)^(k-1)/k and lives over exact rationals.

A `WorldMatrix` stores only integers, and its cells give its kind: M as rows
of count tuples, R as integer numerator rows N over one common denominator
L = lcm(1..e) for e edges. `_mixing_weights` is the one M -> R transform,
shared by `world_matrices`, `from_counts` and `mixing_from_polynomial`. Row
sums, traces, idempotence and rank read these rows; `entries` turns them
into IntPolynomial and Fraction objects for output only.

- R^2 = R exactly when N N = L N. Row k of N is packed into one integer
  P_k = sum_j N[k][j] 2^(w j), so row i of N N is sum_k N[i][k] P_k. Every
  entry of N N is at most n B^2 and every entry of L N at most L B in
  size, for B = max |N[i][j]|; with both below 2^(w-1) the base-2^w digits
  are unique, and the packed integers are equal exactly when every entry is.
- Both checks run on two blocks of N. A world's R commutes with the flip
  f of the members, R[fa][fb] = R[a][b], so R keeps the spans of the
  vectors e_a + e_fa and of e_a - e_fa. In those bases R acts as
  N+[a][b] = N[a][b] + N[a][fb] (N[a][b] when fb = b) over a <= fa, and
  as N-[a][b] = N[a][b] - N[a][fb] over a < fa, both over L. R is
  idempotent exactly when both blocks are, and rank R is the sum of
  their ranks. A matrix with no flip, or whose flip fails the O(n^2)
  check, takes f = identity: N+ = N and N- is empty.
- If a block B = N_B / L is idempotent and p = 2^24 - 3 does not divide
  L, then B mod p is idempotent over F_p, where rank_p(B) + rank_p(I - B)
  = n_B. No rank mod p exceeds the rank over Q, so rank_p(B) <= rank(B)
  and rank_p(I - B) <= n_B - rank(B) are equalities: rank(B) = rank_p(N_B).
  Rows are packed into 64-bit fields that are not reduced after an
  update, which stays below p + n p^2 < 2^64 while n <= 65536. If B is not
  idempotent, p divides L or a field could overflow, Bareiss elimination
  gives the block's rank instead.

The trace sums the diagonal entries, so trace(R) = rank(R) compares two
independent computations.

`world_matrices` counts M by one subset pass per world, `_SubsetDP`,
which reads one row per symmetry orbit off its last layer into both M and
R; one walk over the orbits fills the other rows of both matrices, each
that row's columns permuted. `world_traces` gets both traces
with no matrix: a fixed-point DP over edge subsets when no peg pair
carries parallel edges (`WebDiagram.labels_one`), and otherwise the
diagonal cell of one member per symmetry orbit from the single-target
kernel `_colouring_counts`, which also serves the single-entry functions.
`world_matrices` stays the reference that both are checked against.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Iterable, Iterator, Sequence

from .diagram import (
    DEFAULT_WORLD_GUARD,
    WebDiagram,
    WebWorld,
    _amount,
    _orbits,
    _symmetry_generators,
    _symmetry_orbits,
    check_world_size,
    json_int,
    web_world,
)
from .errors import BadRange, DifferentWorlds, WorldTooLarge

DEFAULT_ENTRY_GUARD = 4_000_000
# counting steps of the matrix-free routes, each estimate an upper bound
# on its DP's transitions; on a 2-core Xeon VM under Python 3.11 a step
# takes 0.03-0.7 us, so up to about half a minute at the guard. The
# fixed-point DP's 3^e stays within it up to 15 edges.
DEFAULT_WORK_GUARD = 40_000_000


class IntPolynomial:
    """Immutable integer polynomial; coefficient index equals degree.

    Every coefficient must be an int; bool and float raise `MalformedInput`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        checked = [json_int(c, "polynomial coefficient") for c in coeffs]
        object.__setattr__(self, "coeffs", _unchecked_polynomial(checked).coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self.coeffs))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return _unchecked_polynomial(
            [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        )

    def __neg__(self) -> "IntPolynomial":
        return _unchecked_polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        # a bool or float factor is refused, not coerced
        if isinstance(other, (int, float)):
            other = json_int(other, "a polynomial's scalar factor")
            return _unchecked_polynomial([c * other for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return _unchecked_polynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return _unchecked_polynomial(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if json_int(exponent, "a polynomial power") < 0:
            raise BadRange("polynomial power must be non-negative")
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __str__(self) -> str:
        # "-" or " - " before a negative term, " + " between the others
        text = ""
        for k, c in enumerate(self.coeffs):
            if c:
                var = "" if k == 0 else "x" if k == 1 else f"x^{k}"
                sign = ("-" if c < 0 else "") if not text else " - " if c < 0 else " + "
                text += sign + ("" if var and abs(c) == 1 else str(abs(c))) + var
        return text or "0"

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


def _unchecked_polynomial(coeffs: Iterable[int]) -> IntPolynomial:
    """A polynomial whose coefficients the library computed as ints: not checked again."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    poly = object.__new__(IntPolynomial)
    object.__setattr__(poly, "coeffs", tuple(cs))
    return poly


ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


def polynomial_to_coeff_string(poly: IntPolynomial) -> str:
    """Semicolon-joined coefficients, constant term first ("0" for zero)."""
    if not poly.coeffs:
        return "0"
    return ";".join(str(c) for c in poly.coeffs)


def ordered_bell_polynomial(m: int) -> IntPolynomial:
    """Sum over k of (surjections of m things onto k) * x^k.

    This is the common row sum of every colouring matrix with m edges;
    its value at 1 is the m-th Fubini number.
    """
    if json_int(m, "the ordered Bell index") < 0:
        raise BadRange("ordered Bell index must be non-negative")
    if m == 0:
        return ONE
    coeffs = [0] * (m + 1)
    for k in range(1, m + 1):
        coeffs[k] = sum(
            (-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1)
        )
    return _unchecked_polynomial(coeffs)


@dataclass(frozen=True)
class WorldMatrix:
    """A square matrix indexed by a world's canonical diagram order.

    Every cell is held as exact integers, and the cells give the kind
    (`polynomial`): per cell, a polynomial matrix holds the tuple of x^k
    coefficients, all of one length, over denominator 1, and a rational
    matrix an integer numerator over a positive `denominator`. `flip`, a
    permutation of the members, splits the structure checks into blocks.
    The constructor checks every cell: a matrix mixing tuples and integers,
    or whose tuples differ in length, raises `BadRange`, and a bool, float
    or other non-integer cell or coefficient raises `MalformedInput`.
    """

    rows: tuple[tuple, ...]
    denominator: int = 1
    flip: Sequence[int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise BadRange("matrix must be square and non-empty")
        cells = list(itertools.chain.from_iterable(rows))
        kinds = set(map(type, cells))
        if tuple in kinds:
            if kinds != {tuple} or len(set(map(len, cells))) > 1:
                raise BadRange("a matrix holds integers, or coefficient tuples all of one length")
            cells = list(itertools.chain.from_iterable(cells))
            kinds = set(map(type, cells))
        if kinds - {int}:
            for cell in cells:
                json_int(cell, "a matrix cell")
        if json_int(self.denominator, "denominator") < 1 or self.polynomial and self.denominator != 1:
            raise BadRange("the denominator must be positive, and 1 for a polynomial matrix")

    @property
    def polynomial(self) -> bool:
        return isinstance(self.rows[0][0], tuple)

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence]) -> WorldMatrix:
        """The matrix of IntPolynomial entries, or of int and Fraction entries.

        A bool or float entry raises `MalformedInput`.
        """
        kinds = {isinstance(e, IntPolynomial) for row in entries for e in row}
        if len(kinds) > 1:
            raise BadRange("matrix mixes polynomial and rational entries")
        if kinds == {True}:
            width = max(len(e.coeffs) for row in entries for e in row)
            return cls([[e.coeffs + (0,) * (width - len(e.coeffs)) for e in row] for row in entries])
        fracs = [
            [e if isinstance(e, Fraction) else Fraction(json_int(e, "matrix entry")) for e in row]
            for row in entries
        ]
        denom = math.lcm(*(f.denominator for row in fracs for f in row))
        return cls([[f.numerator * (denom // f.denominator) for f in row] for row in fracs], denom)

    @property
    def size(self) -> int:
        return len(self.rows)

    @cached_property
    def entries(self) -> tuple[tuple, ...]:
        """The cells as IntPolynomial or Fraction objects, for output."""
        return tuple(map(tuple, _formed_rows(self)))

    @cached_property
    def _block_checks(self) -> tuple[tuple[bool, int], ...]:
        """Per flip block, whether it squares to itself and its rank. The
        blocks live only while they are checked; these pairs stay cached."""
        denom = self.denominator
        checks = []
        for block in self._flip_blocks():
            idempotent = _squares_to_itself(block, denom)
            checks.append((idempotent, _block_rank(block, idempotent, denom)))
        return tuple(checks)

    def _flip_blocks(self) -> tuple[list[list[int]], list[list[int]]]:
        """N+ and N- of the flip split, from the identity if the flip fails."""
        rows = self.rows
        n = len(rows)
        f = self.flip
        commutes = (
            f is not None
            and sorted(f) == list(range(n))
            and all(f[f[a]] == a for a in range(n))
            # row fa read at the columns fb is row a
            and all(map(operator.eq, map(_picker(f), map(rows.__getitem__, f)), rows))
        )
        if not commutes:
            f = range(n)
        plus = [a for a in range(n) if a <= f[a]]
        minus = [a for a in plus if a < f[a]]
        # a fixed column reads the appended zero as its partner
        partner = [f[b] if b < f[b] else n for b in plus]
        high = [f[b] for b in minus]

        def block(members: list[int], op, partners: list[int]) -> list[list[int]]:
            first, second = _picker(members), _picker(partners)
            return [list(map(op, first(r), second(r))) for r in (rows[a] + (0,) for a in members)]

        return block(plus, operator.add, partner), block(minus, operator.sub, high)


def _unchecked_matrix(rows: Sequence[Sequence], denominator: int = 1, flip: Sequence[int] | None = None) -> WorldMatrix:
    """A matrix whose cells the library built: square, of one kind, and not checked again."""
    matrix = object.__new__(WorldMatrix)
    object.__setattr__(matrix, "rows", tuple(map(tuple, rows)))
    object.__setattr__(matrix, "denominator", denominator)
    object.__setattr__(matrix, "flip", flip)
    return matrix


def _formed_rows(matrix: WorldMatrix, form=lambda entry: entry) -> Iterator[Iterator]:
    """Per row, each cell as form(entry) for its IntPolynomial or Fraction.

    A matrix has few distinct cells, so each is formed once and shared.
    """
    convert = _unchecked_polynomial if matrix.polynomial else partial(Fraction, denominator=matrix.denominator)
    cells = {cell: form(convert(cell)) for cell in set(itertools.chain.from_iterable(matrix.rows))}
    return (map(cells.__getitem__, row) for row in matrix.rows)


def _picker(indices: Sequence[int]):
    """The function taking a row to the tuple of its cells at `indices`."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    return lambda row: tuple(row[i] for i in indices)


def _sum_entry(matrix: WorldMatrix, cells) -> IntPolynomial | Fraction:
    """The entry whose cell is the sum of the given cells."""
    if matrix.polynomial:
        return _unchecked_polynomial(map(sum, zip(*cells)))
    return Fraction(sum(cells), matrix.denominator)


def trace(matrix: WorldMatrix) -> IntPolynomial | Fraction:
    return _sum_entry(matrix, [row[i] for i, row in enumerate(matrix.rows)])


def row_sums(matrix: WorldMatrix) -> tuple:
    return tuple(_sum_entry(matrix, row) for row in matrix.rows)


def _require_same_world(d1: WebDiagram, d2: WebDiagram) -> None:
    # a shared represent matrix (peg-pair multiplicities on equal peg
    # counts) is exactly membership in a common world
    if d1.num_pegs != d2.num_pegs or d1.peg_pair_counts() != d2.peg_pair_counts():
        raise DifferentWorlds("diagrams do not share a web world")


def reconstruction_count(d1: WebDiagram, d2: WebDiagram, colours: int) -> int:
    """Number of surjective `colours`-colourings of d1 that reconstruct to d2."""
    if not 1 <= json_int(colours, "a colour count") <= d1.edge_count:
        raise BadRange(f"colours must lie in 1..{d1.edge_count}")
    return colouring_entry(d1, d2).coefficient(colours)


def colouring_entry(d1: WebDiagram, d2: WebDiagram) -> IntPolynomial:
    """M's cell (d1, d2) from the single-target kernel, with no world."""
    _require_same_world(d1, d2)
    if d1.edge_count == 0:
        raise BadRange("matrices are defined for worlds with at least one edge")
    _check_kernel_work(d1)
    return _unchecked_polynomial(_colouring_counts(d1, d2))


def mixing_entry(d1: WebDiagram, d2: WebDiagram) -> Fraction:
    return mixing_from_polynomial(colouring_entry(d1, d2))


def mixing_from_polynomial(poly: IntPolynomial) -> Fraction:
    """The mixing entry of one colouring entry, by `_mixing_weights`."""
    if poly.coefficient(0):
        raise BadRange("polynomial has a constant term; not a colouring entry")
    denom, weigh = _mixing_weights(poly.degree)
    return Fraction(weigh(poly.coeffs), denom)


def _mixing_weights(edge_count: int):
    """L = lcm(1..e) and the one M -> R transform of a cell over L: the
    cell's count c_k of k-colourings weighs (-1)^(k-1) L/k, which integrates
    -M(-x)/x over [0, 1] term by term."""
    denom = math.lcm(*range(1, edge_count + 1))
    weights = [0] + [(-1) ** (k - 1) * (denom // k) for k in range(1, edge_count + 1)]
    return denom, lambda cell: sum(map(operator.mul, weights, cell))


def from_counts(counts: Sequence[Sequence[tuple[int, ...]]]) -> tuple[WorldMatrix, WorldMatrix]:
    """Colouring and mixing matrices from per-cell colouring counts.

    counts[i][j][k], for k = 0..e, counts the surjective k-colourings of
    row diagram i that reconstruct to column diagram j; it is M's cell.
    R's cell is its weight by `_mixing_weights`, each distinct cell weighed once.
    """
    denom, weigh = _mixing_weights(len(counts[0][0]) - 1)
    numerators = {cell: weigh(cell) for cell in set(itertools.chain.from_iterable(counts))}
    return _unchecked_matrix(counts), _unchecked_matrix([map(numerators.__getitem__, row) for row in counts], denom)


def _unpack(vec: int, bits: int, edge_count: int) -> tuple[int, ...]:
    """The counts for 0..edge_count colours packed in `bits`-wide fields."""
    field_mask = (1 << bits) - 1
    return tuple(vec >> (bits * k) & field_mask for k in range(edge_count + 1))


@lru_cache(maxsize=None)
def _fubini(edge_count: int) -> int:
    """Surjective colourings of `edge_count` edges, any number of colours."""
    return ordered_bell_polynomial(edge_count).evaluate(1)


def transitive_closure(rows: list[int]) -> list[int]:
    """Close a relation in place; bit j of rows[i] says i relates to j."""
    for t in range(len(rows)):
        bit = 1 << t
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | rows[t]
    return rows


def _peg_orders(diagram: WebDiagram) -> list[list[int]]:
    """Per peg with two or more endpoints, its edge indices from bottom to top."""
    orders = [[0] * height for height in diagram.peg_heights]
    for idx, (left, right, left_height, right_height) in enumerate(diagram.edges):
        orders[left - 1][left_height - 1] = idx
        orders[right - 1][right_height - 1] = idx
    return [order for order in orders if len(order) > 1]


def _check_work(work: int, bits: int = 0, what: str = "counting", error: type = WorldTooLarge) -> None:
    """Raise `error` before a computation whose work estimate is over the
    guard, or whose answer, of up to `bits` bits, has more decimal digits
    than Python turns into text (no limit before 3.10.7)."""
    if work > DEFAULT_WORK_GUARD:
        raise error(f"{_amount(work)} estimated {what} steps exceed the {DEFAULT_WORK_GUARD}-step guard")
    digits = bits * 30103 // 100000 + 1
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and digits > limit:
        raise error(
            f"an answer of up to {_amount(digits)} digits exceeds the {limit}-digit limit on integer text"
        )


def _kernel_work(diagram: WebDiagram) -> int:
    """Upper bound on the kernel's steps for one cell of the diagram's world.

    Per relabelling: the e^2 steps of the closure, and the pairs S <= T of
    down-sets that the chain DP visits, which are the order-preserving
    maps to a 3-chain (0 on S, 1 on T - S, 2 elsewhere). Give each edge
    one of its pegs as home: the constraints among the n edges at home on
    one peg form a chain, so a map has at most C(n + 2, 2) restrictions
    there and 3 on an edge that shares no peg with another. Every
    relabelling keeps the edge set of each peg, so one bound serves all.
    """
    edge_count = diagram.edge_count
    pairs = 1
    homed = 0
    for order in sorted(_peg_orders(diagram), key=len, reverse=True):
        here = sum(1 << idx for idx in order) & ~homed
        homed |= here
        pairs *= math.comb(here.bit_count() + 2, 2)
    pairs *= 3 ** (edge_count - homed.bit_count())
    return _parallel_runs(tuple(e[:2] for e in diagram.edges))[2] * (edge_count * edge_count + pairs)


def _check_kernel_work(diagram: WebDiagram, cells: int = 1) -> None:
    """`_check_work` on `cells` x `_kernel_work`, after its lower bound from prod m!
    >= 2^(sum (m - 1)), so no factorial is multiplied out past the guard."""
    floor = cells << (diagram.edge_count - len(diagram.peg_pair_counts()))
    _check_work(floor if floor > DEFAULT_WORK_GUARD else cells * _kernel_work(diagram))


@lru_cache(maxsize=64)
def _parallel_runs(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple, tuple[int, ...], int]:
    """The parallel edges with their runs, each edge's place, and prod m!.

    `pairs` holds the peg pair of each edge of a sorted edge list, where
    parallel edges are adjacent: a relabelling permutes each run, so there
    are prod m! of them. The kernel places the parallel edges in list
    order; an edge alone on its peg pair has place -1.
    """
    free: list[tuple[int, tuple[int, ...]]] = []
    places = [-1] * len(pairs)
    group = 1
    for _pair, run in itertools.groupby(range(len(pairs)), pairs.__getitem__):
        here = tuple(run)
        if len(here) > 1:
            group *= math.factorial(len(here))
            for idx in here:
                places[idx] = len(free)
                free.append((idx, here))
    return tuple(free), tuple(places), group


def _down_set_chains(units: list[tuple[int, int]], pattern: int, count: int, bits: int) -> int:
    """Chains of down-sets from the empty set to all edges, packed by length.

    `units` lists as (mates, need), in topological order, the units of
    edges that share a colour and the edges directly below each, which
    need a colour at most the unit's. Field j of `pattern`, `count` bits
    wide, holds the edges that need a smaller colour than unit j. A
    surjective k-colouring meeting these constraints is a chain S1 < ...
    < Sk of down-sets, S_i holding the edges of colour <= i, whose steps
    hold no strict pair; each step is built unit by unit, a unit joining
    when its lower edges are already in. Field k of the result, `bits`
    wide, counts the k-step chains.
    """
    full = (1 << count) - 1
    steps = [(mates, need, pattern >> count * j & full) for j, (mates, need) in enumerate(units)]
    levels: list[dict[int, int]] = [{} for _ in range(count + 1)]
    levels[0][0] = 1
    for size in range(count):
        for done, vec in levels[size].items():
            vec <<= bits
            blocks = [0]
            for mates, need, clash in steps:
                if not mates & done:
                    need &= ~done
                    blocks += [b | mates for b in blocks if not need & ~b and not clash & b]
            for block in blocks[1:]:
                grown = done | block
                level = levels[grown.bit_count()]
                level[grown] = level.get(grown, 0) + vec
    return levels[count].get(full, 0)


def _colouring_counts(d1: WebDiagram, d2: WebDiagram) -> tuple[int, ...]:
    """Colourings of d1 that reconstruct to d2, by number of colours: M's cell.

    Restacking keeps edge indices, so every colouring c lands on d2
    through one relabelling m of d2's parallel edges: edge m[j] of d1
    takes the place of edge j of d2. Restacking orders a peg by (colour,
    d1 height), so for a directly below b on a peg of d2 the colouring
    c' = c o m needs c'(a) <= c'(b), strictly when m[a] sits above m[b]
    in d1: (P, omega)-partitions (Stanley 1972). In d2's indices the
    constraints and their cycles, the units of edges sharing a colour,
    are the same for every m, which only makes some strict. The search
    fixes m one parallel edge at a time, drops a branch once a strict
    constraint falls inside a unit, and counts the chains once per strict
    pattern, times its relabellings. The caller checks that d1 and d2
    share a world with edges, and the work estimate `_kernel_work`.
    """
    edge_count = d1.edge_count
    free, places, group = _parallel_runs(tuple(e[:2] for e in d1.edges))
    bits = (group * _fubini(edge_count)).bit_length()
    source = _peg_orders(d1)
    target = source if d2 is d1 else _peg_orders(d2)
    below = [0] * edge_count
    constraints = []
    for here, there in zip(source, target):
        height = [0] * edge_count
        for h, u in enumerate(here):
            height[u] = h
        for a, b in zip(there, there[1:]):
            below[b] |= 1 << a
            constraints.append((a, b, height))
    reach = transitive_closure(below[:])
    grouped: dict[int, list[int]] = {}
    for v, lower in enumerate(reach):
        # edges on one cycle reach exactly the same edges, themselves included
        grouped.setdefault(lower if lower >> v & 1 else ~v, []).append(v)
    # a unit's lower edges are a strict subset of a later unit's
    ranked = sorted(((reach[vs[0]] | 1 << vs[0]).bit_count(), vs) for vs in grouped.values())
    units = []
    unit_of = [0] * edge_count
    for j, (_rank, mates) in enumerate(ranked):
        mask = need = 0
        for v in mates:
            unit_of[v] = j
            mask |= 1 << v
            need |= below[v]
        units.append((mask, need & ~mask))
    checks: list[list] = [[] for _ in free]
    pattern = 0
    for a, b, height in constraints:
        # a strict constraint inside a unit has no bit: it ends the branch
        bit = 0 if unit_of[a] == unit_of[b] else 1 << (edge_count * unit_of[b] + a)
        at = max(places[a], places[b])
        if at >= 0:
            checks[at].append((a, b, height, bit))
        elif height[a] > height[b]:
            if not bit:
                return (0,) * (edge_count + 1)
            pattern |= bit
    patterns: dict[int, int] = {}
    image = list(range(edge_count))

    def place(i: int, pattern: int, used: int) -> None:
        if i == len(free):
            patterns[pattern] = patterns.get(pattern, 0) + 1
            return
        idx, run = free[i]
        for u in run:
            if used >> u & 1:
                continue
            image[idx] = u
            grown = pattern
            for a, b, height, bit in checks[i]:
                if height[image[a]] > height[image[b]]:
                    if not bit:
                        break
                    grown |= bit
            else:
                place(i + 1, grown, used | 1 << u)

    place(0, pattern, 0)
    total = 0
    for pattern, ways in patterns.items():
        total += ways * _down_set_chains(units, pattern, edge_count, bits)
    return _unpack(total, bits, edge_count)


def _fixed_point_counts(diagram: WebDiagram) -> tuple[int, ...]:
    """Pairs (labelled member, colouring) that the colouring fixes, by colours.

    Edges are taken as labelled, so the members are all tuples of per-peg
    orders. A colouring fixes a member exactly when colours weakly rise
    with height on every peg, so blocks B1..Bk fix prod w(B_i) members,
    w(B) = prod over pegs of |B on the peg|!, built up one edge at a time:
    w(B) = w(B - i) |B on p| |B on p'| for i, the lowest edge of B, on pegs
    p and p'. The DP sums prod w over unordered set partitions, each block
    taking the lowest free edge, and k! orders each k-block partition:
    about 3^e / 2 steps, no members.
    """
    edge_count = diagram.edge_count
    full = (1 << edge_count) - 1
    on_peg = [0] * (diagram.num_pegs + 1)
    for idx, (left, right, _left_height, _right_height) in enumerate(diagram.edges):
        on_peg[left] |= 1 << idx
        on_peg[right] |= 1 << idx
    ends = [(on_peg[left], on_peg[right]) for left, right, _left_height, _right_height in diagram.edges]
    weight = [1]
    for block in range(1, full + 1):
        low = block & -block
        left, right = ends[low.bit_length() - 1]
        weight.append(weight[block ^ low] * (block & left).bit_count() * (block & right).bit_count())
    labelled = math.prod(map(math.factorial, diagram.peg_heights))
    bits = (labelled * _fubini(edge_count)).bit_length()
    partitions = [0] * (full + 1)
    partitions[0] = 1
    for done in range(full):
        vec = partitions[done]
        if not vec:
            continue
        vec <<= bits
        free = full ^ done
        low = free & -free
        rest = free ^ low
        sub = rest
        while True:
            block = sub | low
            partitions[done | block] += vec * weight[block]
            if not sub:
                break
            sub = (sub - 1) & rest
    counts = _unpack(partitions[full], bits, edge_count)
    return tuple(c * math.factorial(k) for k, c in enumerate(counts))


def world_traces(
    diagram: WebDiagram, max_size: int = DEFAULT_WORLD_GUARD
) -> tuple[IntPolynomial, Fraction]:
    """trace M(x) and trace R of the diagram's world, with no matrix.

    `WebDiagram.labels_one` picks the route. Without parallel edges the
    fixed-point DP needs no members and `max_size` does not apply; its
    work estimate is 3^e. Otherwise the world size is checked first, the
    world is built, and the kernel's diagonal cell of each orbit is summed
    times its size; the estimate is members x `_kernel_work`, an upper bound.
    Either estimate must stay within DEFAULT_WORK_GUARD.
    """
    edge_count = diagram.edge_count
    if edge_count == 0:
        raise BadRange("matrices are defined for worlds with at least one edge")
    if diagram.labels_one():
        _check_work(3**edge_count)
        counts = _fixed_point_counts(diagram)
    else:
        _check_kernel_work(diagram, check_world_size(diagram, max_size))
        world = web_world(diagram, max_size)
        cells = ((len(orbit), world[orbit[0][0]]) for orbit in _symmetry_orbits(world))
        counts = tuple(map(sum, zip(*([n * c for c in _colouring_counts(d, d)] for n, d in cells))))
    poly = _unchecked_polynomial(counts)
    return poly, mixing_from_polynomial(poly)


class _SubsetDP:
    """Counts the requested rows of a world's colouring matrix in one pass over edge subsets.

    A surjective k-colouring is an ordered set partition B1..Bk of the
    edges. Restacking sends an endpoint y on peg p in block B to height
    1 + |S on p| + #{x on p in B below y in D}, for S the earlier blocks
    and D the row diagram. So a pass over edge subsets S in increasing
    bitmask order, keyed by the packed target heights of S's endpoints,
    counts the rows: each nonempty B outside S adds |S on p| at its
    endpoints on p, and each same-peg pair inside B adds one at its upper
    endpoint in D. A pair in the same order in every requested row adds
    this lift in the pass; a pair whose order differs sets a bit above the
    heights instead, and `row` adds its lift for D. With one requested row
    no pair varies. The work is about 3^e transitions times the keys per
    subset, against Fubini(e) colourings per row for direct enumeration.
    A count vector packs its count per block number into fixed-width bit
    fields, so adding a block is one shift. Edge i runs between the same
    pegs in every member, so finished heights name one target member.
    """

    def __init__(self, world: WebWorld, rows: Sequence[WebDiagram]):
        first = world[0]
        edge_count = self.edge_count = first.edge_count
        full = (1 << edge_count) - 1
        # no count in a row exceeds the Fubini number, the row's total
        self.block_bits = bits = _fubini(edge_count).bit_length()
        self.world, self.template = world, first.edges
        by_peg: list[list[tuple[int, int]]] = [[] for _ in range(first.num_pegs)]
        for idx, e in enumerate(first.edges):
            by_peg[e.left_peg - 1].append((idx, 2))
            by_peg[e.right_peg - 1].append((idx, 3))
        # an endpoint alone on its peg stays at height 1 and gets no field
        pegs = [ends for ends in by_peg if len(ends) > 1]
        self.fields = [end for ends in pegs for end in ends]
        self.width = width = max(1, (max(map(len, pegs), default=1) - 1).bit_length())
        top = width * len(self.fields)
        unit = {end: 1 << width * f for f, end in enumerate(self.fields)}
        # per edge, (its peg's edge mask, its field's unit) per endpoint with a field
        ends: list[list[tuple[int, int]]] = [[] for _ in range(edge_count)]
        # per edge i, (j, the pair's lift) per edge j < i on a common peg
        partners: list[list[tuple[int, int]]] = [[] for _ in range(edge_count)]
        # per varying pair, its lift when the later edge is upper, and when the earlier is
        self.lifts: list[tuple[int, int]] = []
        self.orient = dict.fromkeys(rows, 0)
        for peg in pegs:
            mask = sum(1 << idx for idx, _side in peg)
            for a, (i, i_side) in enumerate(peg):
                ends[i].append((mask, unit[i, i_side]))
                for j, j_side in peg[:a]:
                    j_upper = [d.edges[j][j_side] > d.edges[i][i_side] for d in rows]
                    if len(set(j_upper)) == 1:
                        lift = unit[(j, j_side) if j_upper[0] else (i, i_side)]
                    else:
                        lift = 1 << top + len(self.lifts)
                        for d in itertools.compress(rows, j_upper):
                            self.orient[d] |= lift >> top
                        self.lifts.append((unit[i, i_side], unit[j, j_side]))
                    partners[i].append((j, lift))
        # per block B, the lifts of the pairs inside B
        inner = [0]
        for i in range(edge_count):
            inner += [t + sum(lift for j, lift in partners[i] if b >> j & 1) for b, t in enumerate(inner)]
        layers: list[dict[int, int] | None] = [None] * (full + 1)
        layers[0] = {0: 1}
        for subset in range(full):
            here = layers[subset]
            layers[subset] = None
            grown = [(key, vec << bits) for key, vec in here.items()]
            # every block B outside S, and the sum over its edges of |S on p| per endpoint
            blocks, adds = [0], [0]
            for i in range(edge_count):
                if not subset >> i & 1:
                    add = sum((subset & mask).bit_count() * u for mask, u in ends[i])
                    blocks += [b | 1 << i for b in blocks]
                    adds += [x + add for x in adds]
            for block, add in zip(blocks[1:], adds[1:]):
                contrib = add + inner[block]
                dest = layers[subset | block]
                if dest is None:
                    dest = layers[subset | block] = {}
                for key, vec in grown:
                    key += contrib
                    dest[key] = dest.get(key, 0) + vec
        # the last layer by varying pairs inside one block
        self.groups: dict[int, tuple[list[int], list[int]]] = {}
        for key, vec in layers[full].items():
            heights, vecs = self.groups.setdefault(key >> top, ([], []))
            heights.append(key & (1 << top) - 1)
            vecs.append(vec)
        # each member under its own heights; relabelled parallel edges are decoded on first use
        self.index = {
            sum((key[idx][side] - 1) * unit[idx, side] for idx, side in self.fields): i
            for i, key in enumerate(world.keys)
        }
        self.targets: dict[tuple[int, int], list[int]] = {}

    def row(self, diagram: WebDiagram) -> list[int]:
        """The packed count vectors of one requested row, by target member."""
        orient = self.orient[diagram]
        out = [0] * len(self.world)
        for varying, (heights, vecs) in self.groups.items():
            sides = orient & varying
            targets = self.targets.get((varying, sides))
            if targets is None:
                lift = sum(pair[sides >> v & 1] for v, pair in enumerate(self.lifts) if varying >> v & 1)
                index = self.index
                targets = self.targets[varying, sides] = [
                    index[h] if h in index else self._target(h) for h in map(lift.__add__, heights)
                ]
            for target, vec in zip(targets, vecs):
                # parallel edges let several heights name one target: add, never overwrite
                out[target] += vec
        return out

    def _target(self, heights: int) -> int:
        """The member with these heights, after sorting relabelled parallel edges."""
        edges = [list(e) for e in self.template]
        for f, (idx, side) in enumerate(self.fields):
            edges[idx][side] = (heights >> self.width * f & (1 << self.width) - 1) + 1
        target = self.index[heights] = self.world.index[tuple(sorted(map(tuple, edges)))]
        return target

    def unpack(self, vec: int) -> tuple[int, ...]:
        return _unpack(vec, self.block_bits, self.edge_count)


def check_entry_guard(size: int, max_entries: int = DEFAULT_ENTRY_GUARD) -> None:
    """Raise WorldTooLarge before a size x size matrix over the entry guard is built."""
    if size * size > json_int(max_entries, "the entry guard"):
        text = _amount(size)
        raise WorldTooLarge(f"{text}x{text} matrix exceeds the {max_entries}-entry guard")


def _fill_orbits(orbits: list[list[tuple[int, int, list[int]]]], counts: list, mixing: list) -> None:
    """Fill each orbit's later rows of M and R: step (x, y, perm) reads row y at the columns perm."""
    pickers: dict[int, object] = {}  # one reader per generator
    for _first, *steps in orbits:
        for row, source, perm in steps:
            pick = pickers.get(id(perm))
            if pick is None:
                pick = pickers[id(perm)] = _picker(perm)
            counts[row] = pick(counts[source])
            mixing[row] = pick(mixing[source])


def world_matrices(
    world: WebWorld, max_entries: int = DEFAULT_ENTRY_GUARD
) -> tuple[WorldMatrix, WorldMatrix]:
    """Colouring and mixing matrices from one pass of colouring counts.

    The pass is read once per symmetry orbit into both matrices, and one
    walk over the orbits fills each other row of both from an earlier row
    at the columns a generator permutes: M(x, k) = M(g x, g k). The pass
    makes at least 3^e - 2^e transitions, so 3^e must stay within
    DEFAULT_WORK_GUARD, as on the fixed-point route of `world_traces`.
    """
    check_entry_guard(len(world), max_entries)
    if world.edge_count == 0:
        raise BadRange("matrices are defined for worlds with at least one edge")
    _check_work(3**world.edge_count)
    generators = _symmetry_generators(world)
    orbits = _orbits(generators, len(world))
    reps = [(rep, world[rep]) for (rep, _rep, _perm), *_steps in orbits]
    dp = _SubsetDP(world, [diagram for _rep, diagram in reps])
    denom, weigh = _mixing_weights(world.edge_count)
    # per distinct packed vector, M's count tuple and R's numerator
    cells: dict[int, tuple[tuple[int, ...], int]] = {}
    counts, mixing = [None] * len(world), [None] * len(world)
    for rep, diagram in reps:
        row = dp.row(diagram)
        for vec in set(row).difference(cells):
            cell = dp.unpack(vec)
            cells[vec] = cell, weigh(cell)
        counts[rep], mixing[rep] = zip(*map(cells.__getitem__, row))
    _fill_orbits(orbits, counts, mixing)
    # the flip is the first generator
    return _unchecked_matrix(counts), _unchecked_matrix(mixing, denom, flip=generators[0])


def _require_rational(matrix: WorldMatrix, what: str) -> None:
    if matrix.polynomial:
        raise BadRange(f"{what} is defined for rational matrices only")


def is_idempotent(matrix: WorldMatrix) -> bool:
    """Exact check that the matrix squares to itself, by packed block rows."""
    _require_rational(matrix, "idempotence")
    return all(idempotent for idempotent, _found in matrix._block_checks)


def _squares_to_itself(rows: list[list[int]], denom: int) -> bool:
    """N N == L N, with each row of N packed into one integer."""
    values = set().union(*rows)
    bound = max(map(abs, values), default=0)
    width = max(len(rows) * bound * bound, denom * bound).bit_length() + 1
    # whole bytes per field; a value v is stored as v + 2^(8 size - 1)
    size = (width + 7) // 8
    offset = 1 << (8 * size - 1)
    code = {v: (v + offset).to_bytes(size, "little") for v in values}
    shift = int.from_bytes(offset.to_bytes(size, "little") * len(rows), "little")
    packed = [
        int.from_bytes(b"".join(map(code.__getitem__, row)), "little") - shift for row in rows
    ]
    return all(
        sum(map(operator.mul, row, packed)) == denom * p for row, p in zip(rows, packed)
    )


_PRIME = (1 << 24) - 3
_FIELD_MASK = (1 << 64) - 1


def _rank_mod_p(rows: list[list[int]]) -> int | None:
    """Rank of an integer matrix mod _PRIME, or None if a field could overflow.

    Each row is one integer of 64-bit fields, column j in field j. The
    pivot row is unpacked, scaled to a leading 1 mod p and repacked; every
    other row r with leading field f becomes r + (p - f) * pivot and is
    never reduced. Once a column is done every row drops its lowest field.
    """
    n = len(rows)
    if n * _PRIME * _PRIME >= 1 << 64:
        return None
    order = sys.byteorder
    packed = [
        int.from_bytes(array("Q", map(_PRIME.__rmod__, row)).tobytes(), order) for row in rows
    ]
    found = 0
    for col in range(n):
        leads = [(r & _FIELD_MASK) % _PRIME for r in packed]
        at = next(itertools.compress(itertools.count(), leads), None)
        if at is None:
            packed = [r >> 64 for r in packed]
            continue
        leads.pop(at)
        fields = memoryview(packed.pop(at).to_bytes(8 * (n - col), order)).cast("Q")
        scale = pow(fields[0] % _PRIME, -1, _PRIME)
        pivot = int.from_bytes(array("Q", [v * scale % _PRIME for v in fields]).tobytes(), order)
        packed = [
            (r + (_PRIME - f) * pivot) >> 64 if f else r >> 64 for r, f in zip(packed, leads)
        ]
        found += 1
        if not packed:
            break
    return found


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank by fraction-free (Bareiss) elimination over the integers."""
    m = [list(row) for row in rows]
    size = len(m)
    r = 0
    prev = 1
    for col in range(size):
        pivot = next((i for i in range(r, size) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, size):
            for j in range(col + 1, size):
                m[i][j] = (m[i][j] * m[r][col] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        prev = m[r][col]
        r += 1
    return r


def rank(matrix: WorldMatrix) -> int:
    """Exact rank, the sum over the flip blocks of each block's rank mod a
    prime or by Bareiss elimination (see the module docstring)."""
    _require_rational(matrix, "rank")
    return sum(found for _idempotent, found in matrix._block_checks)


def _block_rank(rows: list[list[int]], idempotent: bool, denom: int) -> int:
    """Rank of N: mod _PRIME if N / denom is idempotent and _PRIME does not divide denom, else Bareiss."""
    found = _rank_mod_p(rows) if idempotent and denom % _PRIME else None
    return _bareiss_rank(rows) if found is None else found


def matrix_to_csv(matrix: WorldMatrix) -> str:
    """One matrix row per line; rationals as "p/q", polynomials as "c0;c1;..."."""
    form = polynomial_to_coeff_string if matrix.polynomial else str
    return "\n".join(map(",".join, _formed_rows(matrix, form)))


def _json_cell(matrix: WorldMatrix):
    """The form of one cell in JSON: coefficient list or "p/q" string."""
    return (lambda poly: list(poly.coeffs)) if matrix.polynomial else str


def matrix_to_json(matrix: WorldMatrix) -> dict:
    return {
        "size": matrix.size,
        "kind": "polynomial" if matrix.polynomial else "rational",
        "entries": list(map(list, _formed_rows(matrix, _json_cell(matrix)))),
    }


def matrix_to_json_text(matrix: WorldMatrix) -> str:
    """The text of json.dumps(matrix_to_json(matrix)), byte for byte.

    Each distinct cell is dumped once and the rows are joined as text, so
    no n x n list is built and walked again.
    """
    form = _json_cell(matrix)
    rows = _formed_rows(matrix, lambda entry: json.dumps(form(entry)))
    kind = "polynomial" if matrix.polynomial else "rational"
    body = "], [".join(map(", ".join, rows))
    return f'{{"size": {matrix.size}, "kind": "{kind}", "entries": [[{body}]]}}'
