"""Block decomposition of a diagram and its naturally labeled poset.

A diagram splits uniquely into indecomposable blocks: the strongly
connected components of the digraph that points edge e at edge e'
whenever some endpoint of e sits strictly below an endpoint of e' on a
shared peg. Blocks inherit that below-relation; closing it reflexively
and transitively gives the decomposition poset, whose linear-extension
descents drive the closed forms for diagonal matrix entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .diagram import Edge, WebDiagram, WebWorld, _compressed
from .errors import BadRange, LabelNotOne, RepeatedBlocks
from .matrices import IntPolynomial, transitive_closure


@dataclass(frozen=True)
class Block:
    """One indecomposable component of a diagram.

    `edges` are the component's edges as they appear in the parent
    diagram; `normalized` is their height-compressed subweb (None for
    posets built without an underlying diagram).
    """

    label: int
    edges: tuple[Edge, ...]
    normalized: WebDiagram | None


@dataclass(frozen=True)
class DecompositionPoset:
    """Blocks labeled 1..k with a reflexive-transitive order matrix.

    The labeling is natural: whenever block i strictly precedes block j
    in the order, i < j.
    """

    blocks: tuple[Block, ...]
    leq: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.blocks)
        if len(self.leq) != k or any(len(row) != k for row in self.leq):
            raise BadRange("order matrix shape does not match the block count")
        for i in range(k):
            if not self.leq[i][i]:
                raise BadRange("order matrix must be reflexive")
            for j in range(k):
                if i != j and self.leq[i][j]:
                    if self.leq[j][i]:
                        raise BadRange("order matrix must be antisymmetric")
                    if i > j:
                        raise BadRange("labeling is not natural (strict relation goes downward)")
                    for t in range(k):
                        if self.leq[j][t] and not self.leq[i][t]:
                            raise BadRange("order matrix must be transitive")

    @property
    def size(self) -> int:
        return len(self.blocks)

    def strict_pairs(self) -> tuple[tuple[int, int], ...]:
        """All strict relations as 1-based (smaller, larger) label pairs."""
        return tuple(
            (i + 1, j + 1)
            for i in range(self.size)
            for j in range(self.size)
            if i != j and self.leq[i][j]
        )

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Strict pairs with no strict element in between (Hasse edges)."""
        strict = set(self.strict_pairs())
        return tuple(
            sorted(
                (a, b)
                for a, b in strict
                if not any((a, t) in strict and (t, b) in strict for t in range(a + 1, b))
            )
        )

    @cached_property
    def descent_histogram(self) -> tuple[int, ...]:
        """Entry d counts the linear extensions with d descents.

        A DP over (down-set, last label): appending a minimal element v
        of the rest adds a descent when the last label exceeds v.  Each
        histogram is packed into one integer, entry d in field d, and no
        field exceeds the k! extensions.
        """
        k = self.size
        lower = [sum(1 << u for u in range(k) if u != v and self.leq[u][v]) for v in range(k)]
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
        total = sum(level[(1 << k) - 1].values())
        field = (1 << width) - 1
        return tuple(total >> (width * d) & field for d in range(max(k, 1)))

    @classmethod
    def from_relations(cls, size: int, relations) -> "DecompositionPoset":
        """Build an abstract poset from 1-based generating pairs."""
        rows = [0] * size
        for a, b in relations:
            if not (1 <= a <= size and 1 <= b <= size) or a == b:
                raise BadRange(f"relation ({a},{b}) is not a strict pair within 1..{size}")
            rows[a - 1] |= 1 << (b - 1)
        transitive_closure(rows)
        blocks = tuple(Block(i + 1, (), None) for i in range(size))
        return cls(blocks, _order_matrix(rows))


def _order_matrix(rows: list[int]) -> tuple[tuple[bool, ...], ...]:
    """Reflexive boolean matrix of a relation given as bitmask rows."""
    k = len(rows)
    return tuple(
        tuple(i == j or bool(row >> j & 1) for j in range(k)) for i, row in enumerate(rows)
    )


def _edge_below_rows(edges: tuple[Edge, ...]) -> list[int]:
    """Bit j of row i: an endpoint of edge i sits below one of edge j on a shared peg."""
    per_peg: dict[int, list[tuple[int, int]]] = {}
    for i, e in enumerate(edges):
        per_peg.setdefault(e.left_peg, []).append((e.left_height, i))
        per_peg.setdefault(e.right_peg, []).append((e.right_height, i))
    below = [0] * len(edges)
    for slots in per_peg.values():
        above = 0
        for _, i in sorted(slots, reverse=True):
            below[i] |= above
            above |= 1 << i
    return below


def _union(rows: list[int], members: int) -> int:
    """Bitwise or of the rows whose index is a bit of `members`."""
    out = 0
    for i, row in enumerate(rows):
        if members >> i & 1:
            out |= row
    return out


def _decompose(diagram: WebDiagram) -> tuple[tuple[Block, ...], list[int], list[int]]:
    """Blocks in label order, each block's edge bitmask, and edge reachability.

    Edge e reaches e' when a chain of below-steps leads from e to e';
    blocks are the strongly connected components of that relation.
    """
    if diagram.edge_count == 0:
        raise BadRange("cannot decompose an empty diagram")
    edges = diagram.edges
    count = len(edges)
    below = _edge_below_rows(edges)
    reach = transitive_closure(below[:])
    components = list(
        dict.fromkeys(
            sum(1 << j for j in range(count) if j == i or reach[i] >> j & reach[j] >> i & 1)
            for i in range(count)
        )
    )
    outs = [_union(below, members) & ~members for members in components]
    preds = [sum(1 << d for d, out in enumerate(outs) if out & members) for members in components]
    # an edge's lowest endpoint is its left one, since left_peg < right_peg
    lowest = [
        min((e.left_peg, e.left_height) for i, e in enumerate(edges) if members >> i & 1)
        for members in components
    ]
    order: list[int] = []
    done = 0
    while len(order) < len(components):
        ready = (c for c, p in enumerate(preds) if not done >> c & 1 and not p & ~done)
        current = min(ready, key=lowest.__getitem__)
        order.append(current)
        done |= 1 << current
    blocks = []
    for label, c in enumerate(order, 1):
        block_edges = tuple(e for i, e in enumerate(edges) if components[c] >> i & 1)
        blocks.append(Block(label, block_edges, _compressed(block_edges, diagram.num_pegs)))
    return tuple(blocks), [components[c] for c in order], reach


def decompose(diagram: WebDiagram) -> tuple[Block, ...]:
    """Split a diagram into naturally labeled indecomposable blocks.

    Components are emitted in priority-Kahn order: among the components
    whose predecessors are all emitted, the one containing the smallest
    (peg, height) endpoint goes first. This is always a linear extension
    of the block order, so stacking the blocks in label order rebuilds
    the diagram.
    """
    return _decompose(diagram)[0]


def decomposition_poset(diagram: WebDiagram) -> DecompositionPoset:
    """Blocks of `decompose` ordered by edge reachability.

    Block a precedes block b when an edge of a reaches an edge of b.
    Reachability is already transitive, and a path between blocks passes
    through whole components, so no second closure is needed.
    """
    blocks, members, reach = _decompose(diagram)
    rows = []
    for block_members in members:
        out = _union(reach, block_members)
        rows.append(sum(1 << b for b, other in enumerate(members) if out & other))
    return DecompositionPoset(blocks, _order_matrix(rows))


def linear_extensions(poset: DecompositionPoset) -> tuple[tuple[int, ...], ...]:
    """Every order-preserving arrangement of the block labels."""
    k = poset.size
    predecessors = [
        [i for i in range(k) if i != j and poset.leq[i][j]] for j in range(k)
    ]
    out: list[tuple[int, ...]] = []
    used = [False] * k
    sequence: list[int] = []

    def extend() -> None:
        if len(sequence) == k:
            out.append(tuple(v + 1 for v in sequence))
            return
        for v in range(k):
            if not used[v] and all(used[u] for u in predecessors[v]):
                used[v] = True
                sequence.append(v)
                extend()
                sequence.pop()
                used[v] = False

    extend()
    return tuple(out)


def descents(extension: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(extension, extension[1:]) if a > b)


def order_preserving_count(poset: DecompositionPoset, m: int) -> int:
    """Number of order-preserving maps from the poset into a chain of m values.

    A linear extension with d descents accounts for C(p + m - 1 - d, p)
    maps (Stanley's (P, w)-partitions), so one term per descent count.
    """
    if m < 0:
        raise BadRange("chain size must be non-negative")
    p = poset.size
    return sum(
        count * math.comb(p + m - 1 - d, p)
        for d, count in enumerate(poset.descent_histogram)
    )


def surjective_order_preserving_count(poset: DecompositionPoset, m: int) -> int:
    """Order-preserving maps onto a chain of m values, hitting every value."""
    if m < 0:
        raise BadRange("chain size must be non-negative")
    return sum(
        math.comb(m, k) * (-1) ** (m - k) * order_preserving_count(poset, k)
        for k in range(m + 1)
    )


def _require_distinct_blocks(poset: DecompositionPoset) -> None:
    seen = set()
    for block in poset.blocks:
        if block.normalized is None:
            continue
        key = (block.normalized.edges, block.normalized.num_pegs)
        if key in seen:
            raise RepeatedBlocks("two blocks are identical; diagonal closed forms do not apply")
        seen.add(key)


def diagonal_colouring_polynomial(poset: DecompositionPoset) -> IntPolynomial:
    """Closed form for a diagonal colouring entry from the diagram's poset.

    Sums x^(1+d) (1+x)^(p-1-d) over linear extensions with d descents,
    expanded coefficient by coefficient.
    """
    _require_distinct_blocks(poset)
    p = poset.size
    if p < 1:
        raise BadRange("poset must have at least one block")
    coeffs = [0] * (p + 1)
    for d, count in enumerate(poset.descent_histogram):
        for j in range(d + 1, p + 1):
            coeffs[j] += count * math.comb(p - 1 - d, j - 1 - d)
    return IntPolynomial(coeffs)


def diagonal_mixing_value(poset: DecompositionPoset) -> Fraction:
    """Closed form for a diagonal mixing entry from the diagram's poset."""
    _require_distinct_blocks(poset)
    p = poset.size
    if p < 1:
        raise BadRange("poset must have at least one block")
    return sum(
        (
            Fraction((-1) ** d * count, p * math.comb(p - 1, d))
            for d, count in enumerate(poset.descent_histogram)
        ),
        Fraction(0),
    )


def world_posets(world: WebWorld) -> tuple[DecompositionPoset, ...]:
    """The decomposition poset of each member diagram, in world order."""
    return tuple(decomposition_poset(d) for d in world)


def traces_via_posets(world: WebWorld) -> tuple[IntPolynomial, Fraction]:
    """World traces of the colouring and mixing matrices, via posets only.

    Sums the diagonal closed forms over every member's poset, so no
    off-diagonal entry (and no matrix) is ever materialized. Requires a
    multiplicity-free world (no parallel edges) and distinct blocks in
    every member.
    """
    if any(v > 1 for v in world.diagrams[0].peg_pair_counts().values()):
        raise LabelNotOne("world has parallel edges; poset trace formulas do not apply")
    colouring_total = IntPolynomial()
    mixing_total = Fraction(0)
    for diagram in world:
        poset = decomposition_poset(diagram)
        colouring_total = colouring_total + diagonal_colouring_polynomial(poset)
        mixing_total += diagonal_mixing_value(poset)
    return colouring_total, mixing_total


def poset_to_json(poset: DecompositionPoset) -> dict:
    return {"k": poset.size, "relations": [list(pair) for pair in poset.cover_pairs()]}
