"""Block decomposition of a diagram and its naturally labeled poset.

A diagram splits uniquely into indecomposable blocks: the strongly
connected components of the digraph that points edge e at edge e'
whenever some endpoint of e sits strictly below an endpoint of e' on a
shared peg. Blocks inherit that below-relation; closing it reflexively
and transitively gives the decomposition poset, whose linear-extension
descents drive the closed forms for diagonal matrix entries.

The closed forms depend on the order rows alone, so both are computed
together once per poset shape and kept in one bounded module-level
cache. World traces build one poset per orbit of G = <Aut(web graph),
flip>, weighted by the orbit's size. A poset built from a diagram keeps
one edge bitmask per block and builds its `Block` objects only when they
are read; the repeated-block test answers from the peg pairs alone when
no two edges share one, or when two one-edge blocks do.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .diagram import Edge, WebDiagram, WebWorld, _compressed, _symmetry_orbits, json_int
from .errors import BadRange, LabelNotOne, RepeatedBlocks
from .matrices import IntPolynomial, _unpack, transitive_closure

# poset shapes (order rows) that the closed-form cache keeps
CLOSED_FORM_CACHE_SIZE = 4096


@dataclass(frozen=True)
class Block:
    """One indecomposable component of a diagram.

    `edges` are the component's edges as they appear in the parent
    diagram, which has `num_pegs` pegs (0 for posets built without an
    underlying diagram); `normalized` is their height-compressed subweb,
    built on first use (None without a diagram).
    """

    label: int
    edges: tuple[Edge, ...]
    num_pegs: int = 0

    @cached_property
    def normalized(self) -> WebDiagram | None:
        return _compressed(self.edges, self.num_pegs) if self.num_pegs else None


@dataclass(frozen=True, init=False)
class DecompositionPoset:
    """Blocks labeled 1..k with their order as bitmask rows.

    Bit j of `up[i]` says that block i + 1 strictly precedes block j + 1.
    The labeling is natural: whenever block i strictly precedes block j
    in the order, i < j. `DecompositionPoset(blocks, leq)` takes a
    reflexive-transitive order matrix and checks it; `leq` gives that
    matrix back. A poset built by `decomposition_poset` holds the diagram
    and, per block, the bitmask of its edge indices; `blocks` builds the
    blocks on first read.
    """

    # `blocks` is a field read through the cached property below, so the
    # generated equality, hash and repr see the blocks either way
    blocks: tuple[Block, ...]
    up: tuple[int, ...]

    def __init__(self, blocks: tuple[Block, ...], leq: tuple[tuple[bool, ...], ...]) -> None:
        k = len(blocks)
        if len(leq) != k or any(len(row) != k for row in leq):
            raise BadRange("order matrix shape does not match the block count")
        if not all(leq[i][i] for i in range(k)):
            raise BadRange("order matrix must be reflexive")
        up = tuple(sum(1 << j for j, x in enumerate(row) if x and j != i) for i, row in enumerate(leq))
        if any(up[i] >> j & up[j] >> i & 1 for i in range(k) for j in range(i)):
            raise BadRange("order matrix must be antisymmetric")
        if any(row & ((1 << i) - 1) for i, row in enumerate(up)):
            raise BadRange("labeling is not natural (strict relation goes downward)")
        if any(_union(up, row) & ~row for row in up):
            raise BadRange("order matrix must be transitive")
        vars(self).update(blocks=tuple(blocks), up=up, _masks=None)

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        edges, num_pegs = self._diagram.edges, self._diagram.num_pegs
        return tuple(
            Block(b, tuple(e for i, e in enumerate(edges) if mask >> i & 1), num_pegs)
            for b, mask in enumerate(self._masks, 1)
        )

    @property
    def size(self) -> int:
        return len(self.up)

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        return _order_matrix(self.up)

    def strict_pairs(self) -> tuple[tuple[int, int], ...]:
        """All strict relations as 1-based (smaller, larger) label pairs."""
        return tuple(
            (i + 1, j + 1) for i, row in enumerate(self.up) for j in range(self.size) if row >> j & 1
        )

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Strict pairs with no strict element in between (Hasse edges)."""
        up = self.up
        pairs = []
        for i, row in enumerate(up):
            covers = row & ~_union(up, row)
            pairs += [(i + 1, j + 1) for j in range(self.size) if covers >> j & 1]
        return tuple(pairs)

    @property
    def descent_histogram(self) -> tuple[int, ...]:
        """Entry d counts the linear extensions with d descents."""
        return _histogram(self.up)

    @cached_property
    def repeated_blocks(self) -> bool:
        """Whether two blocks have the same normalized subweb.

        Such blocks share their peg-pair list, so without parallel edges,
        or when no two blocks share a list, the answer is False; two
        one-edge blocks that share a list are identical. Only blocks that
        share a list with another are normalized and compared, and a
        poset built from a diagram reads the lists off its edge masks.
        """
        if self._masks is None:
            lists = [tuple(map(_peg_pair, b.edges)) for b in self.blocks if b.edges]
        else:
            pairs = list(map(_peg_pair, self._diagram.edges))
            if len(set(pairs)) == len(pairs):
                return False
            lists = [tuple([p for i, p in enumerate(pairs) if m >> i & 1]) for m in self._masks]
        if len(set(lists)) == len(lists):
            return False
        shared = {k for k, c in Counter(lists).items() if c > 1}
        if any(len(k) == 1 for k in shared):
            return True
        shapes = [b.normalized.edges for b in self.blocks if tuple(map(_peg_pair, b.edges)) in shared]
        return len(set(shapes)) < len(shapes)

    @classmethod
    def from_relations(cls, size: int, relations) -> "DecompositionPoset":
        """Build an abstract poset from 1-based generating pairs."""
        rows = [0] * size
        for a, b in relations:
            if not (1 <= a <= size and 1 <= b <= size) or a == b:
                raise BadRange(f"relation ({a},{b}) is not a strict pair within 1..{size}")
            rows[a - 1] |= 1 << (b - 1)
        transitive_closure(rows)
        blocks = tuple(Block(i + 1, ()) for i in range(size))
        return cls(blocks, _order_matrix(rows))


_peg_pair = operator.itemgetter(0, 1)


def _order_matrix(rows: Sequence[int]) -> tuple[tuple[bool, ...], ...]:
    """Reflexive boolean matrix of a relation given as bitmask rows."""
    k = len(rows)
    return tuple(
        tuple(i == j or bool(row >> j & 1) for j in range(k)) for i, row in enumerate(rows)
    )


def _union(rows: Sequence[int], members: int) -> int:
    """Bitwise or of the rows whose index is a bit of `members`."""
    out = 0
    for i, row in enumerate(rows):
        if members >> i & 1:
            out |= row
    return out


def _priority_order(pending: list[tuple[int, int]]) -> list[int] | None:
    """Priority-Kahn order of edge groups, given in priority order as
    (edges, edges beneath them) bitmasks: each step takes the first group
    with nothing left beneath it. None when no group is ready, as on a cycle."""
    order: list[int] = []
    done = 0
    while pending:
        for k, (group, beneath) in enumerate(pending):
            if not beneath & ~done:
                break
        else:
            return None
        del pending[k]
        order.append(group)
        done |= group
    return order


def decomposition_poset(diagram: WebDiagram) -> DecompositionPoset:
    """The blocks of `decompose` in label order and their order as bitmask rows.

    Edge e is below e' when an endpoint of e sits under an endpoint of e'
    on a shared peg. Without a cycle of below-steps every edge is a block
    alone; otherwise the edges that reach each other by below-steps form
    one block. Each block's row is closed from its successors' rows, in
    reverse label order.
    """
    if diagram.edge_count == 0:
        raise BadRange("cannot decompose an empty diagram")
    edges = diagram.edges
    count = len(edges)
    # an edge's lowest endpoint is its left one, since left_peg < right_peg
    lefts = sorted([(a, ha, i) for i, (a, _b, ha, _hb) in enumerate(edges)])
    ends = sorted(lefts + [(b, hb, i) for i, (_a, b, _ha, hb) in enumerate(edges)])
    # each peg read upwards gives the edges beneath an edge, downwards those above it
    below = [0] * count
    beneath = [0] * count
    for rows, run in ((beneath, ends), (below, reversed(ends))):
        peg = seen = 0
        for p, _h, i in run:
            if p != peg:
                peg, seen = p, 0
            rows[i] |= seen
            seen |= 1 << i
    lowest = [i for _p, _h, i in lefts]
    order = _priority_order([(1 << i, beneath[i]) for i in lowest])
    if order is None:
        # edges on one cycle reach exactly the same edges, themselves included
        reach = transitive_closure(below[:])
        key = [row if row >> i & 1 else ~i for i, row in enumerate(reach)]
        mates: dict[int, int] = {}
        for i, k in enumerate(key):
            mates[k] = mates.get(k, 0) | 1 << i
        groups = dict.fromkeys(mates[key[i]] for i in lowest)
        order = _priority_order([(g, _union(beneath, g) & ~g) for g in groups])
    label = [0] * count
    after = []
    for b, group in enumerate(order):
        row, rest = 0, group
        while rest:
            low = rest & -rest
            label[low.bit_length() - 1] = b
            row |= below[low.bit_length() - 1]
            rest ^= low
        after.append(row & ~group)
    up = [0] * len(order)
    for b in reversed(range(len(order))):
        row, closed = after[b], 0
        while row:
            low = row & -row
            j = label[low.bit_length() - 1]
            closed |= 1 << j | up[j]
            row ^= low
        up[b] = closed
    # rows that are a natural strict order by construction: not checked
    poset = object.__new__(DecompositionPoset)
    vars(poset).update(up=tuple(up), _diagram=diagram, _masks=tuple(order))
    return poset


def decompose(diagram: WebDiagram) -> tuple[Block, ...]:
    """Split a diagram into naturally labeled indecomposable blocks.

    Components are emitted in priority-Kahn order: among the components
    whose predecessors are all emitted, the one containing the smallest
    (peg, height) endpoint goes first. This is always a linear extension
    of the block order, so stacking the blocks in label order rebuilds
    the diagram.
    """
    return decomposition_poset(diagram).blocks


def linear_extensions(poset: DecompositionPoset) -> tuple[tuple[int, ...], ...]:
    """Every order-preserving arrangement of the block labels, in lexicographic order."""
    up = poset.up
    return tuple(
        tuple(v + 1 for v in perm)
        for perm in itertools.permutations(range(poset.size))
        if not any(up[later] >> v & 1 for i, v in enumerate(perm) for later in perm[i + 1:])
    )


def descents(extension: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(extension, extension[1:]) if a > b)


def order_preserving_count(poset: DecompositionPoset, m: int) -> int:
    """Number of order-preserving maps from the poset into a chain of m values.

    A linear extension with d descents accounts for C(p + m - 1 - d, p)
    maps (Stanley's (P, w)-partitions), so one term per descent count.
    The empty poset has one map, the empty one.
    """
    if json_int(m, "the chain size") < 0:
        raise BadRange("chain size must be non-negative")
    p = poset.size
    if not p:
        return 1
    return sum(
        count * math.comb(p + m - 1 - d, p)
        for d, count in enumerate(poset.descent_histogram)
    )


def surjective_order_preserving_count(poset: DecompositionPoset, m: int) -> int:
    """Order-preserving maps onto a chain of m values, hitting every value: under
    the natural labelling, the colouring closed form's x^m coefficient (Stanley 1972)."""
    if json_int(m, "the chain size") < 0:
        raise BadRange("chain size must be non-negative")
    return _closed_forms(poset.up)[0].coefficient(m) if poset.size else int(m == 0)


def _diagonal_forms(poset: DecompositionPoset) -> tuple[IntPolynomial, Fraction]:
    if poset.repeated_blocks:
        raise RepeatedBlocks("two blocks are identical; diagonal closed forms do not apply")
    return _closed_forms(poset.up)


def _histogram(up: tuple[int, ...]) -> tuple[int, ...]:
    """Entry d counts the linear extensions of the order rows `up` with d descents.

    A DP over (down-set, last label): appending a minimal element v
    of the rest adds a descent when the last label exceeds v.  Each
    histogram is packed into one integer, entry d in field d, and no
    field exceeds the k! extensions.
    """
    k = len(up)
    lower = [0] * k
    for u, row in enumerate(up):
        for v in range(u + 1, k):
            if row >> v & 1:
                lower[v] |= 1 << u
    width = math.factorial(k).bit_length()
    level: dict[int, dict[int, int]] = {0: {-1: 1}}
    for _ in range(k):
        grown: dict[int, dict[int, int]] = {}
        for mask, ends in level.items():
            for v in range(k):
                if mask >> v & 1 or lower[v] & ~mask:
                    continue
                packed = sum(h << width if last > v else h for last, h in ends.items())
                slot = grown.setdefault(mask | 1 << v, {})
                slot[v] = slot.get(v, 0) + packed
        level = grown
    return _unpack(sum(level[(1 << k) - 1].values()), width, max(k - 1, 0))


def diagonal_colouring_polynomial(poset: DecompositionPoset) -> IntPolynomial:
    """Closed form for a diagonal colouring entry from the diagram's poset."""
    return _diagonal_forms(poset)[0]


def diagonal_mixing_value(poset: DecompositionPoset) -> Fraction:
    """Closed form for a diagonal mixing entry from the diagram's poset."""
    return _diagonal_forms(poset)[1]


@lru_cache(maxsize=CLOSED_FORM_CACHE_SIZE)
def _closed_forms(up: tuple[int, ...]) -> tuple[IntPolynomial, Fraction]:
    """Both diagonal closed forms of the order rows `up`, summed over linear
    extensions with d descents: x^(1+d) (1+x)^(p-1-d), expanded coefficient
    by coefficient, and (-1)^d / (p C(p - 1, d)) over one denominator."""
    p = len(up)
    if p < 1:
        raise BadRange("poset must have at least one block")
    coeffs = [0] * (p + 1)
    denom = p * math.lcm(*(math.comb(p - 1, d) for d in range(p)))
    mixing = 0
    for d, count in enumerate(_histogram(up)):
        for j in range(d + 1, p + 1):
            coeffs[j] += count * math.comb(p - 1 - d, j - 1 - d)
        mixing += (-1) ** d * count * (denom // (p * math.comb(p - 1, d)))
    return IntPolynomial(coeffs), Fraction(mixing, denom)


def world_posets(world: WebWorld) -> tuple[DecompositionPoset, ...]:
    """The decomposition poset of each member diagram, in world order."""
    return tuple(decomposition_poset(d) for d in world)


def traces_via_posets(world: WebWorld) -> tuple[IntPolynomial, Fraction]:
    """World traces of the colouring and mixing matrices, via posets only.

    A diagonal cell is constant on each orbit of G = <Aut(web graph),
    flip>, so one member per orbit gives its poset, weighted by the
    orbit's size, and each distinct poset's diagonal closed forms are
    added once, times its total weight: 36 posets for the 128 members of
    chain_world(7), 18 for the 256 of cycle_world(8). No
    off-diagonal entry (and no matrix) is ever materialized. Requires a
    multiplicity-free world (no parallel edges), whose members never
    repeat a block: two equal blocks would share their peg pairs.
    """
    if not world[0].labels_one():
        raise LabelNotOne("world has parallel edges; poset trace formulas do not apply")
    shapes = Counter()
    for orbit in _symmetry_orbits(world):
        shapes[decomposition_poset(world[orbit[0][0]]).up] += len(orbit)
    colouring_total, mixing_total = IntPolynomial(), Fraction(0)
    for up, count in shapes.items():
        colouring, mixing = _closed_forms(up)
        colouring_total += colouring * count
        mixing_total += mixing * count
    return colouring_total, mixing_total


def poset_to_json(poset: DecompositionPoset) -> dict:
    return {"k": poset.size, "relations": [list(pair) for pair in poset.cover_pairs()]}
