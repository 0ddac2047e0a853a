"""Exact colouring/mixing matrices of a web world and their structure checks.

Matrix rows and columns follow the world's canonical diagram order. The
colouring matrix M has integer-polynomial entries whose x^k coefficient
counts the surjective k-colourings of the row diagram that reconstruct
to the column diagram; the mixing matrix R weights those counts by
(-1)^(k-1)/k and lives over exact rationals.

A `WorldMatrix` stores only integers: M as rows of count tuples, R as
integer numerator rows N over one common denominator L (L = lcm(1..e)
for a world with e edges). `from_counts` is the one M -> R transform.
Row sums, traces, idempotence and rank read these rows; `entries` turns
them into IntPolynomial and Fraction objects for output only.

- R^2 = R exactly when N N = L N. Row k of N is packed into one integer
  P_k = sum_j N[k][j] 2^(w j), so row i of N N is sum_k N[i][k] P_k. Every
  entry of N N is at most n B^2 and every entry of L N at most L B in
  size, for B = max |N[i][j]|; with both below 2^(w-1) the base-2^w digits
  are unique, and the packed integers are equal exactly when every entry is.
- If R^2 = R, then rank(R) + rank(I - R) = n over Q, and no rank mod a
  prime exceeds the rank over Q. So rank_p(N) + rank_p(L I - N) = n for
  p = 2^24 - 3 proves rank(R) = rank_p(N), whether or not p divides L.
  Rows are packed into 64-bit fields that are not reduced after an
  update, which stays below p + n p^2 < 2^64 while n <= 65536. If R is
  not idempotent, the certificate falls short or a field could overflow,
  the rank comes from Bareiss elimination of N instead.

The trace sums the diagonal entries, so trace(R) = rank(R) compares two
independent computations.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Sequence

from .diagram import WebDiagram, WebWorld, flip, json_int, peg_slots, web_world
from .errors import BadRange, DifferentWorlds, WorldTooLarge

DEFAULT_ENTRY_GUARD = 4_000_000


class IntPolynomial:
    """Immutable integer polynomial; coefficient index equals degree.

    Every coefficient must be an int; bool and float raise `MalformedInput`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = [json_int(c, "polynomial coefficient") for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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
        a, b = self.coeffs, other.coeffs
        return IntPolynomial(
            [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
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

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}{var}")
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


def polynomial_to_coeff_string(poly: IntPolynomial) -> str:
    """Semicolon-joined coefficients, constant term first ("0" for zero)."""
    if not poly.coeffs:
        return "0"
    return ";".join(str(c) for c in poly.coeffs)


def polynomial_from_coeff_string(text: str) -> IntPolynomial:
    return IntPolynomial([int(part) for part in text.split(";")])


def ordered_bell_polynomial(m: int) -> IntPolynomial:
    """Sum over k of (surjections of m things onto k) * x^k.

    This is the common row sum of every colouring matrix with m edges;
    its value at 1 is the m-th Fubini number.
    """
    if m < 0:
        raise BadRange("ordered Bell index must be non-negative")
    if m == 0:
        return ONE
    coeffs = [0] * (m + 1)
    for k in range(1, m + 1):
        coeffs[k] = sum(
            (-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1)
        )
    return IntPolynomial(coeffs)


@dataclass(frozen=True)
class WorldMatrix:
    """A square matrix indexed by a world's canonical diagram order.

    Every cell is held as exact integers. A polynomial matrix holds per
    cell the tuple of x^k coefficients, all of one length, and its
    denominator is 1; a rational matrix holds integer numerators over
    `denominator`.
    """

    rows: tuple[tuple, ...]
    denominator: int = 1
    polynomial: bool = False

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise BadRange("matrix must be square and non-empty")

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
            return cls(
                [[e.coeffs + (0,) * (width - len(e.coeffs)) for e in row] for row in entries],
                polynomial=True,
            )
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
        """The cells as IntPolynomial or Fraction objects, for output.

        A matrix has few distinct cells, so each is converted once and
        the immutable entries are shared between cells.
        """
        if self.polynomial:
            convert = IntPolynomial
        else:
            convert = partial(Fraction, denominator=self.denominator)
        cells = {cell: convert(cell) for cell in set(itertools.chain.from_iterable(self.rows))}
        return tuple(tuple(map(cells.__getitem__, row)) for row in self.rows)

    @cached_property
    def _idempotent(self) -> bool:
        return _squares_to_itself(self.rows, self.denominator)


def _sum_entry(matrix: WorldMatrix, cells) -> IntPolynomial | Fraction:
    """The entry whose cell is the sum of the given cells."""
    if matrix.polynomial:
        return IntPolynomial(map(sum, zip(*cells)))
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


def _entry_counts(d1: WebDiagram, d2: WebDiagram) -> tuple[int, ...]:
    """Colourings of d1 that reconstruct to d2, by number of colours,
    read from d1's row of the subset DP over d1's world."""
    _require_same_world(d1, d2)
    if d1.edge_count == 0:
        raise BadRange("matrices are defined for worlds with at least one edge")
    world = web_world(d1)
    dp = _SubsetDP(world)
    return dp.unpack(dp.row(d1).get(world.index_of(d2), 0))


def reconstruction_count(d1: WebDiagram, d2: WebDiagram, colours: int) -> int:
    """Number of surjective `colours`-colourings of d1 that reconstruct to d2."""
    counts = _entry_counts(d1, d2)
    if not 1 <= colours <= d1.edge_count:
        raise BadRange(f"colours must lie in 1..{d1.edge_count}")
    return counts[colours]


def colouring_entry(d1: WebDiagram, d2: WebDiagram) -> IntPolynomial:
    return IntPolynomial(_entry_counts(d1, d2))


def mixing_entry(d1: WebDiagram, d2: WebDiagram) -> Fraction:
    return mixing_from_polynomial(colouring_entry(d1, d2))


def mixing_from_polynomial(poly: IntPolynomial) -> Fraction:
    """The mixing entry of one colouring entry, by `from_counts`."""
    if poly.coefficient(0):
        raise BadRange("polynomial has a constant term; not a colouring entry")
    return from_counts([[poly.coeffs or (0,)]])[1].entries[0][0]


def from_counts(counts: Sequence[Sequence[tuple[int, ...]]]) -> tuple[WorldMatrix, WorldMatrix]:
    """Colouring and mixing matrices from per-cell colouring counts.

    counts[i][j][k], for k = 0..e, counts the surjective k-colourings of
    row diagram i that reconstruct to column diagram j; it is M's cell.
    R's cell sends x^k to (-1)^(k-1)/k, which integrates -M(-x)/x over
    [0, 1] term by term, as one numerator over L = lcm(1..e).
    """
    edge_count = len(counts[0][0]) - 1
    denom = math.lcm(*range(1, edge_count + 1))
    weights = [0] + [(-1) ** (k - 1) * (denom // k) for k in range(1, edge_count + 1)]
    # a world has few distinct count vectors, so each is weighed once
    numerators = {
        cell: sum(map(operator.mul, weights, cell))
        for cell in set(itertools.chain.from_iterable(counts))
    }
    mixing = [tuple(map(numerators.__getitem__, row)) for row in counts]
    return WorldMatrix(counts, polynomial=True), WorldMatrix(mixing, denom)


class _SubsetDP:
    """Counts one row of a world's colouring matrix by a DP over edge subsets.

    A surjective k-colouring is an ordered set partition B1..Bk of the
    edges, and its reconstruction lists each peg's endpoints block by
    block, in old height order within a block. So a pass over edge
    subsets S in increasing bitmask order, keyed by the per-peg endpoint
    sequence of S, counts the whole row at once: each nonempty B outside S
    appends its own per-peg order and adds one block. The work is about
    3^e transitions times the keys per subset, against Fubini(e)
    colourings for direct enumeration.

    A key packs, for each peg with two or more endpoints, the edge
    indices of its endpoints in their new height order into fixed-width
    bit fields. The slot that the next endpoint on a peg fills depends on
    S alone, so a block's contribution is one OR. A count vector packs
    its count per block number into fixed-width bit fields too, so adding
    a block is one shift. Edge i runs between the same pegs in every
    member, so a finished key names one target member for the whole world.
    """

    def __init__(self, world: WebWorld):
        first = world[0]
        edge_count = first.edge_count
        self.full = (1 << edge_count) - 1
        self.width = max(1, (edge_count - 1).bit_length())
        # no count in a row exceeds the Fubini number, the row's total
        self.block_bits = ordered_bell_polynomial(edge_count).evaluate(1).bit_length()
        self.edge_count = edge_count
        self.world = world
        self.template = first.edges
        slots = peg_slots(first)
        # pegs with a single endpoint never react to a colouring
        self.live = [p for p, lst in enumerate(slots) if len(lst) > 1]
        self.masks = [sum(1 << idx for idx, _field in slots[p]) for p in self.live]
        self.offsets: list[int] = []
        offset = 0
        for p in self.live:
            self.offsets.append(offset)
            offset += len(slots[p]) * self.width
        # per subset S, the bit position of the next free slot on each peg
        self.shifts = [
            tuple(
                off + self.width * (subset & mask).bit_count()
                for off, mask in zip(self.offsets, self.masks)
            )
            for subset in range(self.full + 1)
        ]
        self.targets: dict[int, int] = {}

    def _orders(self, diagram: WebDiagram) -> list[list[int]]:
        """Per live peg and per edge subset B, B's packed per-peg order."""
        slots = peg_slots(diagram)
        width = self.width
        tables = []
        for p, peg_mask in zip(self.live, self.masks):
            by_height = [idx for idx, _field in slots[p]]
            packed = {0: 0}
            for pick in range(1, 1 << len(by_height)):
                mask = code = slot = 0
                for pos, idx in enumerate(by_height):
                    if pick >> pos & 1:
                        mask |= 1 << idx
                        code |= idx << (width * slot)
                        slot += 1
                packed[mask] = code
            tables.append([packed[b & peg_mask] for b in range(self.full + 1)])
        return tables

    def row(self, diagram: WebDiagram) -> dict[int, int]:
        """Target member index -> packed count vector of one row."""
        full = self.full
        bits = self.block_bits
        shifts = self.shifts
        orders = self._orders(diagram)
        layers: list[dict[int, int] | None] = [None] * (full + 1)
        layers[0] = {0: 1}
        for subset in range(full):
            here = layers[subset]
            layers[subset] = None
            grown = [(key, vec << bits) for key, vec in here.items()]
            free = full ^ subset
            slots = list(zip(orders, shifts[subset]))
            block = free
            while block:
                contrib = 0
                for order, shift in slots:
                    contrib |= order[block] << shift
                dest = layers[subset | block]
                if dest is None:
                    dest = layers[subset | block] = {}
                for key, vec in grown:
                    key |= contrib
                    dest[key] = dest.get(key, 0) + vec
                block = (block - 1) & free
        out: dict[int, int] = {}
        targets = self.targets
        for key, vec in layers[full].items():
            target = targets.get(key)
            if target is None:
                target = targets[key] = self._target(key)
            # parallel edges let several keys name one target: add, never overwrite
            out[target] = out.get(target, 0) + vec
        return out

    def _target(self, key: int) -> int:
        rows = [list(e) for e in self.template]
        field_mask = (1 << self.width) - 1
        for p, off, mask in zip(self.live, self.offsets, self.masks):
            for height in range(1, mask.bit_count() + 1):
                idx = key >> (off + self.width * (height - 1)) & field_mask
                rows[idx][2 if rows[idx][0] == p + 1 else 3] = height
        return self.world.index[tuple(sorted(map(tuple, rows)))]

    def unpack(self, vec: int) -> tuple[int, ...]:
        bits = self.block_bits
        field_mask = (1 << bits) - 1
        return tuple(vec >> (bits * k) & field_mask for k in range(self.edge_count + 1))


def _flip_permutation(world: WebWorld) -> list[int]:
    """Index of flip(D) for every member D."""
    return [world.index_of(flip(d)) for d in world]


def check_entry_guard(size: int, max_entries: int = DEFAULT_ENTRY_GUARD) -> None:
    """Raise WorldTooLarge before a size x size matrix over the entry guard is built."""
    if size * size > max_entries:
        raise WorldTooLarge(f"{size}x{size} matrix exceeds the {max_entries}-entry guard")


def _world_counts(world: WebWorld, max_entries: int) -> list[list[tuple[int, ...]]]:
    """Per row and column, the colouring counts by number of colours.

    Rows come from the subset DP. Since M(flip D, flip D2) = M(D, D2),
    each computed row also fills the row of flip(D), with its columns
    permuted by the flip; members that are their own flip are computed
    directly. Equal count vectors share one tuple.
    """
    size = len(world)
    check_entry_guard(size, max_entries)
    if world.edge_count == 0:
        raise BadRange("matrices are defined for worlds with at least one edge")
    dp = _SubsetDP(world)
    flips = _flip_permutation(world)
    zero = (0,) * (world.edge_count + 1)
    counts: list[list[tuple[int, ...]] | None] = [None] * size
    unpacked: dict[int, tuple[int, ...]] = {}
    for row, diagram in enumerate(world):
        if counts[row] is not None:
            continue
        cells = [zero] * size
        for target, vec in dp.row(diagram).items():
            cell = unpacked.get(vec)
            if cell is None:
                cell = unpacked[vec] = dp.unpack(vec)
            cells[target] = cell
        counts[row] = cells
        mirror = flips[row]
        if mirror != row:
            mirrored = [zero] * size
            for col, cell in enumerate(cells):
                mirrored[flips[col]] = cell
            counts[mirror] = mirrored
    return counts


def world_matrices(
    world: WebWorld, max_entries: int = DEFAULT_ENTRY_GUARD
) -> tuple[WorldMatrix, WorldMatrix]:
    """Colouring and mixing matrices from one pass of colouring counts."""
    return from_counts(_world_counts(world, max_entries))


def _require_rational(matrix: WorldMatrix, what: str) -> None:
    if matrix.polynomial:
        raise BadRange(f"{what} is defined for rational matrices only")


def is_idempotent(matrix: WorldMatrix) -> bool:
    """Exact check that the matrix squares to itself, by packed rows."""
    _require_rational(matrix, "idempotence")
    return matrix._idempotent


def _squares_to_itself(rows: list[list[int]], denom: int) -> bool:
    """N N == L N, with each row of N packed into one integer."""
    values = set().union(*rows)
    bound = max(map(abs, values))
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
    """Exact rank: certified modular elimination if the matrix is
    idempotent, Bareiss elimination otherwise (see the module docstring)."""
    _require_rational(matrix, "rank")
    rows = matrix.rows
    if matrix._idempotent:
        found = _rank_mod_p(rows)
        if found is not None:
            complement = [list(map(operator.neg, row)) for row in rows]
            for i, row in enumerate(complement):
                row[i] += matrix.denominator
            if _rank_mod_p(complement) == len(rows) - found:
                return found
    return _bareiss_rank(rows)


def _format_cell(entry) -> str:
    if isinstance(entry, IntPolynomial):
        return polynomial_to_coeff_string(entry)
    return str(entry)


def matrix_to_csv(matrix: WorldMatrix) -> str:
    """One matrix row per line; rationals as "p/q", polynomials as "c0;c1;..."."""
    return "\n".join(",".join(_format_cell(e) for e in row) for row in matrix.entries)


def _json_cell(entry):
    if isinstance(entry, IntPolynomial):
        return list(entry.coeffs)
    return str(entry)


def matrix_to_json(matrix: WorldMatrix) -> dict:
    return {
        "size": matrix.size,
        "kind": "polynomial" if matrix.polynomial else "rational",
        "entries": [[_json_cell(e) for e in row] for row in matrix.entries],
    }
