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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .diagram import Edge, WebDiagram, WebWorld, _compressed
from .errors import BadRange, LabelNotOne, RepeatedBlocks
from .matrices import IntPolynomial, _peg_orders, transitive_closure


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
    matrix back.
    """

    blocks: tuple[Block, ...]
    up: tuple[int, ...]

    def __init__(self, blocks: tuple[Block, ...], leq: tuple[tuple[bool, ...], ...]) -> None:
        k = len(blocks)
        if len(leq) != k or any(len(row) != k for row in leq):
            raise BadRange("order matrix shape does not match the block count")
        for i in range(k):
            if not leq[i][i]:
                raise BadRange("order matrix must be reflexive")
            for j in range(k):
                if i != j and leq[i][j]:
                    if leq[j][i]:
                        raise BadRange("order matrix must be antisymmetric")
                    if i > j:
                        raise BadRange("labeling is not natural (strict relation goes downward)")
                    for t in range(k):
                        if leq[j][t] and not leq[i][t]:
                            raise BadRange("order matrix must be transitive")
        up = tuple(sum(1 << j for j, x in enumerate(row) if x and j != i) for i, row in enumerate(leq))
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "up", up)

    @classmethod
    def _valid(cls, blocks: tuple[Block, ...], up: tuple[int, ...]) -> "DecompositionPoset":
        """A poset whose rows are a natural strict order by construction: not checked."""
        poset = object.__new__(cls)
        object.__setattr__(poset, "blocks", blocks)
        object.__setattr__(poset, "up", up)
        return poset

    @property
    def size(self) -> int:
        return len(self.blocks)

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

    @cached_property
    def descent_histogram(self) -> tuple[int, ...]:
        """Entry d counts the linear extensions with d descents.

        A DP over (down-set, last label): appending a minimal element v
        of the rest adds a descent when the last label exceeds v.  Each
        histogram is packed into one integer, entry d in field d, and no
        field exceeds the k! extensions.
        """
        k = self.size
        lower = [0] * k
        for u, row in enumerate(self.up):
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
        total = sum(level[(1 << k) - 1].values())
        field = (1 << width) - 1
        return tuple(total >> (width * d) & field for d in range(max(k, 1)))

    @cached_property
    def repeated_blocks(self) -> bool:
        """Whether two blocks have the same normalized subweb.

        Such blocks run over the same peg pairs, so only blocks with equal
        peg-pair lists are compared; in a diagram without parallel edges
        no two blocks share a peg pair.
        """
        by_pairs: dict[tuple, list[Block]] = {}
        for block in self.blocks:
            if block.edges:
                by_pairs.setdefault(tuple(map(_peg_pair, block.edges)), []).append(block)
        return any(
            len({b.normalized.edges for b in group}) < len(group)
            for group in by_pairs.values()
            if len(group) > 1
        )

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


def decomposition_poset(diagram: WebDiagram) -> DecompositionPoset:
    """The blocks of `decompose` in label order and their order as bitmask rows.

    Edge e reaches e' when a chain of below-steps leads from e to e';
    blocks are the strongly connected components of that relation, and
    block a precedes block b when an edge of a reaches an edge of b.
    Reachability is already transitive, and a path between blocks passes
    through whole components, so no second closure is needed.
    """
    if diagram.edge_count == 0:
        raise BadRange("cannot decompose an empty diagram")
    edges = diagram.edges
    count = len(edges)
    below = [0] * count
    for order in _peg_orders(diagram):
        above = 0
        for i in reversed(order):
            below[i] |= above
            above |= 1 << i
    reach = transitive_closure(below)
    # an edge on a cycle reaches itself and shares its block with every
    # edge it reaches and is reached by; any other edge is a block alone
    component = [-1] * count
    members: list[int] = []
    for i, row in enumerate(reach):
        if component[i] < 0:
            mask = 1 << i
            if row >> i & 1:
                for j in range(i + 1, count):
                    if row >> j & reach[j] >> i & 1:
                        mask |= 1 << j
                        component[j] = len(members)
            component[i] = len(members)
            members.append(mask)
    # the components that each one reaches and the components before it
    after = [0] * len(members)
    before = [0] * len(members)
    for c, mask in enumerate(members):
        out = _union(reach, mask) & ~mask
        while out:
            d = component[(out & -out).bit_length() - 1]
            after[c] |= 1 << d
            before[d] |= 1 << c
            out &= ~members[d]
    # priority-Kahn order: an edge's lowest endpoint is its left one, since
    # left_peg < right_peg, so candidates are the components in the order
    # of their edges' lowest left endpoints
    lowest = sorted((e.left_peg, e.left_height, i) for i, e in enumerate(edges))
    pending = list(dict.fromkeys(component[i] for _peg, _height, i in lowest))
    order: list[int] = []
    done = 0
    while pending:
        current = next(c for c in pending if not before[c] & ~done)
        pending.remove(current)
        order.append(current)
        done |= 1 << current
    grouped: list[list] = [[] for _ in members]
    for i, e in enumerate(edges):
        grouped[component[i]].append(e)
    label = [0] * len(members)
    for b, c in enumerate(order):
        label[c] = b
    blocks = tuple(Block(b, tuple(grouped[c]), diagram.num_pegs) for b, c in enumerate(order, 1))
    up = tuple(sum(1 << label[d] for d in order if after[c] >> d & 1) for c in order)
    return DecompositionPoset._valid(blocks, up)


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
    """Every order-preserving arrangement of the block labels."""
    k = poset.size
    predecessors = [[i for i in range(k) if poset.up[i] >> j & 1] for j in range(k)]
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
    if poset.repeated_blocks:
        raise RepeatedBlocks("two blocks are identical; diagonal closed forms do not apply")


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
    # sum over d of (-1)^d count_d / (p C(p - 1, d)), over one denominator
    denom = p * math.lcm(*(math.comb(p - 1, d) for d in range(p)))
    return Fraction(
        sum(
            (-1) ** d * count * (denom // (p * math.comb(p - 1, d)))
            for d, count in enumerate(poset.descent_histogram)
        ),
        denom,
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
    if any(v > 1 for v in world[0].peg_pair_counts().values()):
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
