"""Web diagrams, their world orbits and symmetries, and colouring reconstruction.

A web diagram is a finite set of edges strung between vertical pegs.
Every edge runs from a lower-numbered peg to a higher-numbered one and
carries one endpoint height on each; on every peg the endpoint heights
form a permutation of 1..p where p is the number of endpoints there.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    ArityMismatch,
    BadRange,
    DuplicateSlot,
    EdgeNotInDiagram,
    HeightNotPermutation,
    InconsistentResult,
    LengthMismatch,
    MalformedInput,
    NotSurjective,
    PegOrderViolation,
    WorldTooLarge,
)

DEFAULT_WORLD_GUARD = 10**6


class Edge(NamedTuple):
    left_peg: int
    right_peg: int
    left_height: int
    right_height: int


@dataclass(frozen=True)
class WebDiagram:
    """A validated diagram: canonically sorted edges plus a peg count.

    The peg count is part of the diagram's identity, so trailing pegs
    without endpoints are preserved by every operation.
    """

    edges: tuple[Edge, ...]
    num_pegs: int

    def __post_init__(self) -> None:
        try:
            edges = tuple(sorted(Edge(*e) for e in self.edges))
        except TypeError as error:
            # not an iterable of 4-value rows, or values that do not compare
            raise MalformedInput(f"edges must be rows of 4 integers, got {self.edges!r}") from error
        object.__setattr__(self, "edges", edges)
        _validate_edges(edges, self.num_pegs)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def peg_heights(self) -> tuple[int, ...]:
        """Endpoint counts per peg (the height range on each peg)."""
        counts = [0] * self.num_pegs
        for e in self.edges:
            counts[e.left_peg - 1] += 1
            counts[e.right_peg - 1] += 1
        return tuple(counts)

    def peg_pair_counts(self) -> Counter:
        """Multiplicity of edges on each (left_peg, right_peg) pair."""
        return Counter((e.left_peg, e.right_peg) for e in self.edges)

    def labels_one(self) -> bool:
        """Whether no peg pair carries two edges: every web-graph edge label is 1."""
        return len(self.peg_pair_counts()) == len(self.edges)


def _validate_edges(edges: tuple[Edge, ...], num_pegs: int) -> None:
    # one C-level pass over the values; only a type other than int looks at each
    if set(map(type, itertools.chain((num_pegs,), *edges))) - {int}:
        json_int(num_pegs, "peg count")
        for value in itertools.chain.from_iterable(edges):
            json_int(value, "edges")
    if num_pegs < 0:
        raise BadRange("peg count must be non-negative")
    # bounds the per-peg lists (peg_heights, web_world) before any is made
    if num_pegs > DEFAULT_WORLD_GUARD:
        raise WorldTooLarge(f"peg count {num_pegs} exceeds the {DEFAULT_WORLD_GUARD}-peg guard")
    slots: dict[tuple[int, int], Edge] = {}
    for e in edges:
        if not (1 <= e.left_peg < e.right_peg <= num_pegs):
            raise PegOrderViolation(f"edge {tuple(e)} violates 1 <= left < right <= {num_pegs}")
        if e.left_height < 1 or e.right_height < 1:
            raise HeightNotPermutation(f"edge {tuple(e)} has a height below 1")
        for slot in ((e.left_peg, e.left_height), (e.right_peg, e.right_height)):
            if slot in slots:
                raise DuplicateSlot(f"edges {tuple(slots[slot])} and {tuple(e)} share slot {slot}")
            slots[slot] = e
    heights_per_peg: dict[int, list[int]] = {}
    for peg, height in slots:
        heights_per_peg.setdefault(peg, []).append(height)
    for peg, heights in heights_per_peg.items():
        if sorted(heights) != list(range(1, len(heights) + 1)):
            raise HeightNotPermutation(
                f"peg {peg} carries heights {sorted(heights)}, expected 1..{len(heights)}"
            )


def validate_diagram(raw_edges: Sequence[Sequence[int]], num_pegs: int | None = None) -> WebDiagram:
    """Build a WebDiagram from a list or tuple of raw 4-tuples, inferring the peg count if absent.

    Every value must be an int; bool and float raise `MalformedInput`, as
    does `raw_edges` that is not a list or tuple of rows.
    """
    edges = tuple(Edge(*row) for row in json_int_rows(raw_edges, "edges", width=4))
    if num_pegs is None:
        num_pegs = max((e.right_peg for e in edges), default=0)
    return WebDiagram(edges, json_int(num_pegs, "peg count"))


def stack(bottom: WebDiagram, top: WebDiagram) -> WebDiagram:
    """Place `top` above `bottom`, shifting its heights by the peg loads below."""
    num_pegs = max(bottom.num_pegs, top.num_pegs)
    offsets = bottom.peg_heights + (0,) * (num_pegs - bottom.num_pegs)
    shifted = [
        Edge(
            e.left_peg,
            e.right_peg,
            e.left_height + offsets[e.left_peg - 1],
            e.right_height + offsets[e.right_peg - 1],
        )
        for e in top.edges
    ]
    return WebDiagram(bottom.edges + tuple(shifted), num_pegs)


def subweb(diagram: WebDiagram, edges: Sequence[Edge]) -> WebDiagram:
    """Restrict to an edge subset and compress heights per peg.

    Pegs keep their positions (the peg count is unchanged); on each peg
    the surviving heights are renumbered 1..k preserving relative order.
    """
    subset = [Edge(*e) for e in json_int_rows(edges, "edges", width=4)]
    present = set(diagram.edges)
    seen: set[Edge] = set()
    for e in subset:
        if e not in present:
            raise EdgeNotInDiagram(f"edge {tuple(e)} is not in the diagram")
        if e in seen:
            raise DuplicateSlot(f"edges {tuple(e)} and {tuple(e)} share slot {(e.left_peg, e.left_height)}")
        seen.add(e)
    return WebDiagram(_compressed(subset, diagram.num_pegs).edges, diagram.num_pegs)


def _compressed(edges: Sequence[Edge], num_pegs: int) -> WebDiagram:
    """`subweb` of distinct edges of a valid diagram: valid, so not checked again."""
    kept: dict[int, list[int]] = {}
    for e in edges:
        kept.setdefault(e.left_peg, []).append(e.left_height)
        kept.setdefault(e.right_peg, []).append(e.right_height)
    rank = {
        (peg, h): i
        for peg, heights in kept.items()
        for i, h in enumerate(sorted(heights), 1)
    }
    moved = sorted(Edge(a, b, rank[a, ha], rank[b, hb]) for a, b, ha, hb in edges)
    return _unchecked(tuple(moved), num_pegs)


def _unchecked(edges: tuple[Edge, ...], num_pegs: int) -> WebDiagram:
    """A diagram of sorted edges known to be valid: neither sorted nor validated again."""
    diagram = object.__new__(WebDiagram)
    object.__setattr__(diagram, "edges", edges)
    object.__setattr__(diagram, "num_pegs", num_pegs)
    return diagram


def apply_permutations(diagram: WebDiagram, family: Sequence[Sequence[int]]) -> WebDiagram:
    """Move the endpoint at height j on peg i to height family[i-1][j-1]."""
    heights = diagram.peg_heights
    family = json_int_rows(family, "a permutation family")
    if len(family) != diagram.num_pegs:
        raise ArityMismatch(f"family covers {len(family)} pegs, diagram has {diagram.num_pegs}")
    for peg, perm in enumerate(family, 1):
        if sorted(perm) != list(range(1, heights[peg - 1] + 1)):
            raise ArityMismatch(f"family entry for peg {peg} is not a permutation of 1..{heights[peg - 1]}")
    moved = [
        Edge(
            e.left_peg,
            e.right_peg,
            family[e.left_peg - 1][e.left_height - 1],
            family[e.right_peg - 1][e.right_height - 1],
        )
        for e in diagram.edges
    ]
    return WebDiagram(tuple(moved), diagram.num_pegs)


def flip(diagram: WebDiagram) -> WebDiagram:
    """Turn every peg upside down: height h of p becomes p + 1 - h.

    Reconstruction commutes with the flip once colours are reversed, so
    M(flip D, flip D2) = M(D, D2) on every world.
    """
    heights = diagram.peg_heights
    flipped = [
        Edge(a, b, heights[a - 1] + 1 - ha, heights[b - 1] + 1 - hb)
        for a, b, ha, hb in diagram.edges
    ]
    return WebDiagram(tuple(flipped), diagram.num_pegs)


@dataclass(frozen=True)
class Colouring:
    """A surjective assignment of colours 1..colours to edge positions.

    The assignment indexes edges in the diagram's canonical sorted order.
    """

    assignment: tuple[int, ...]
    colours: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "assignment", tuple(json_int(c, "colour") for c in self.assignment)
        )
        if json_int(self.colours, "colour count") < 1:
            raise BadRange("colour count must be at least 1")
        used = set(self.assignment)
        if any(c < 1 or c > self.colours for c in used):
            raise BadRange("colour value outside 1..colours")
        if used != set(range(1, self.colours + 1)):
            raise NotSurjective(f"assignment {self.assignment} does not use all of 1..{self.colours}")


def _surjections(length: int, colours: int) -> Iterator[tuple[int, ...]]:
    """Stream the surjections {1..length} -> {1..colours} as assignment tuples.

    Enumerated as set partitions (restricted growth strings) crossed with
    the orderings of their blocks, so the total work is colours! * S(length,
    colours) rather than colours^length.
    """
    if length < 1 or colours < 1 or colours > length:
        raise BadRange(f"need 1 <= colours <= length, got colours={colours} length={length}")
    for rgs in _restricted_growth_strings(length, colours):
        for perm in itertools.permutations(range(1, colours + 1)):
            yield tuple(perm[v] for v in rgs)


def _restricted_growth_strings(length: int, blocks: int) -> Iterator[tuple[int, ...]]:
    # strings s with s[0]=0 and s[i] <= max(prefix)+1, using exactly `blocks` values
    string = [0] * length

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == length:
            if mx == blocks - 1:
                yield tuple(string)
            return
        top = min(mx + 1, blocks - 1)
        for v in range(top + 1):
            # remaining positions must still be able to introduce the missing values
            if blocks - 1 - max(mx, v) <= length - i - 1:
                string[i] = v
                yield from rec(i + 1, max(mx, v))

    yield from rec(0, -1)


def surjective_colourings(edge_count: int, colours: int) -> Iterator[Colouring]:
    """Stream every surjective colouring of `edge_count` edges exactly once."""
    for assignment in _surjections(edge_count, colours):
        yield Colouring(assignment, colours)


def restack(edges: Sequence[Edge], num_pegs: int, assignment: Sequence[int]) -> tuple[Edge, ...]:
    """Stack the colour classes of an edge list in colour order.

    Stacking the height-compressed colour classes is re-ranking each
    peg's endpoints by (colour, old height). Every edge keeps its index,
    so families encoded by edge position (chains, cycles) can track where
    each edge went; a reconstruction sorts the result.
    """
    edges = tuple(edges)
    if len(assignment) != len(edges):
        raise LengthMismatch(f"colouring has {len(assignment)} entries for {len(edges)} edges")
    rows = [list(e) for e in edges]
    per_peg: list[list[tuple[int, int, int, int]]] = [[] for _ in range(num_pegs)]
    for idx, e in enumerate(edges):
        per_peg[e.left_peg - 1].append((assignment[idx], e.left_height, idx, 2))
        per_peg[e.right_peg - 1].append((assignment[idx], e.right_height, idx, 3))
    for lst in per_peg:
        for height, (_colour, _old, idx, field) in enumerate(sorted(lst), 1):
            rows[idx][field] = height
    return tuple(Edge(*row) for row in rows)


def reconstruct(diagram: WebDiagram, colouring: Colouring) -> WebDiagram:
    """Stack the colour classes of `diagram` in colour order.

    Each colour class is height-compressed before stacking, so the result
    lies in the same web world as the input.
    """
    moved = restack(diagram.edges, diagram.num_pegs, colouring.assignment)
    return WebDiagram(moved, diagram.num_pegs)


class WebWorld:
    """The orbit of a diagram under per-peg height permutations, built by `web_world`.

    `keys` holds each member's sorted edge tuple, in lexicographic order,
    which fixes the row and column indexing of the world's matrices;
    `index` maps a key to its position. `world[i]` wraps `keys[i]` in a
    `WebDiagram` on access.
    """

    def __init__(self, keys: list[tuple[Edge, ...]], num_pegs: int):
        self.keys = keys
        self.num_pegs = num_pegs
        self.edge_count = len(keys[0])
        self.index = {key: i for i, key in enumerate(keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[WebDiagram]:
        return map(self.__getitem__, range(len(self.keys)))

    def __getitem__(self, i: int) -> WebDiagram:
        return _unchecked(self.keys[i], self.num_pegs)

    def __contains__(self, diagram: WebDiagram) -> bool:
        return diagram.num_pegs == self.num_pegs and diagram.edges in self.index

    def index_of(self, diagram: WebDiagram) -> int:
        if diagram not in self:
            raise BadRange("diagram is not a member of this world")
        return self.index[diagram.edges]


def predicted_world_size(diagram: WebDiagram) -> int:
    """Orbit size by the product formula: per-peg factorials over
    parallel-edge factorials, in one division."""
    cells = math.prod(math.factorial(count) for count in diagram.peg_pair_counts().values())
    return math.prod(map(math.factorial, diagram.peg_heights)) // cells


def check_world_size(diagram: WebDiagram, max_size: int) -> int:
    """The world size; WorldTooLarge if over `max_size`. In the size formula a
    peg with b blocks (runs of parallel edges at their left peg, single right
    ends) has a factor >= b! >= 2^(b - 1), checked before the exact product."""
    json_int(max_size, "the world guard")
    pairs = diagram.peg_pair_counts()
    bits = len(pairs) + diagram.edge_count - len({peg for pair in pairs for peg in pair})
    if bits >= max_size.bit_length():
        raise WorldTooLarge(f"world has at least 2^{bits} diagrams, guard is {max_size}")
    size = predicted_world_size(diagram)
    if size > max_size:
        raise WorldTooLarge(f"world has {_amount(size)} diagrams, guard is {max_size}")
    return size


def web_world(diagram: WebDiagram, max_size: int = DEFAULT_WORLD_GUARD) -> WebWorld:
    """Materialize the full orbit of `diagram` as sorted edge keys.

    Generation fills each peg's height slots group by group: parallel
    edges claim their left-peg slots as an unordered combination (they
    are then identified with those slots in ascending order) and their
    right-peg slots as an ordered arrangement. Every member of the world
    is produced exactly once, so no deduplication pass is needed.
    """
    expected = check_world_size(diagram, max_size)
    pairs = sorted(diagram.peg_pair_counts().items())
    heights = diagram.peg_heights
    per_peg_choices: list[list[dict]] = []
    for peg in range(1, diagram.num_pegs + 1):
        groups: list[tuple[tuple[str, int], int, bool]] = []
        for (a, b), count in pairs:
            if a == peg:
                groups.append((("out", b), count, False))
            if b == peg:
                groups.append((("in", a), count, True))
        slots = tuple(range(1, heights[peg - 1] + 1))
        per_peg_choices.append(list(_fill_groups(slots, groups)))
    # each distinct edge is built once, as grid[left - 1][right - 1] of its peg pair
    grids = [
        (a, b, [[Edge(a, b, hl, hr) for hr in range(1, heights[b - 1] + 1)]
                for hl in range(1, heights[a - 1] + 1)])
        for (a, b), _count in pairs
    ]
    # peg pairs in order, parallel edges by their ascending left slots: each key is sorted
    keys = sorted(
        tuple([
            grid[left - 1][right - 1]
            for a, b, grid in grids
            for left, right in zip(combo[a - 1]["out", b], combo[b - 1]["in", a])
        ])
        for combo in itertools.product(*per_peg_choices)
    )
    world = WebWorld(keys, diagram.num_pegs)
    if not len(keys) == len(world.index) == expected:
        raise InconsistentResult(
            f"orbit generation gave {len(keys)} diagrams, {len(world.index)} distinct,"
            f" the size formula {expected}"
        )
    return world


def _fill_groups(
    slots: tuple[int, ...], groups: list[tuple[tuple[str, int], int, bool]]
) -> Iterator[dict]:
    if not groups:
        yield {}
        return
    key, size, ordered = groups[0]
    rest = groups[1:]
    pick = itertools.permutations if ordered else itertools.combinations
    for chosen in pick(slots, size):
        taken = set(chosen)
        remaining = tuple(s for s in slots if s not in taken)
        for sub in _fill_groups(remaining, rest):
            sub[key] = chosen
            yield sub


def _orbits(perms: list[list[int]], size: int) -> list[list[tuple[int, int, list[int]]]]:
    """Orbits of 0..size-1 under the group that the permutations generate.

    An orbit starts with (x, x, []) for its smallest point x; every later
    step (x, y, perm) has perm[x] = y for a point y listed before it.
    """
    inverses = [sorted(range(size), key=perm.__getitem__) for perm in perms]
    seen = [False] * size
    orbits = []
    for start in range(size):
        if not seen[start]:
            seen[start] = True
            orbit = [(start, start, [])]
            for y, _source, _perm in orbit:
                for perm, inverse in zip(perms, inverses):
                    x = inverse[y]
                    if not seen[x]:
                        seen[x] = True
                        orbit.append((x, y, perm))
            orbits.append(orbit)
    return orbits


def _peg_automorphisms(diagram: WebDiagram) -> list[tuple[int, ...]]:
    """Generators of the peg permutations that keep every peg-pair multiplicity.

    From the last peg i down: for each peg c that the generators found so
    far cannot send i to, search for one automorphism that fixes the pegs
    below i and sends i to c. Each generator reaches a new peg, and those
    found for i generate the automorphisms fixing every peg below i.
    """
    n = diagram.num_pegs
    mult = [[0] * n for _ in range(n)]
    for (a, b), m in diagram.peg_pair_counts().items():
        mult[a - 1][b - 1] = mult[b - 1][a - 1] = m
    # an automorphism keeps each peg's multiset of multiplicities
    kind = [sorted(row) for row in mult]

    def extensions(image: list[int]) -> Iterator[tuple[int, ...]]:
        # the peg placed last must keep its multiplicities to the pegs before it
        i, last = len(image) - 1, image[-1]
        if kind[last] != kind[i] or any(mult[i][j] != mult[last][image[j]] for j in range(i)):
            return
        if i == n - 1:
            yield tuple(image)
            return
        for c in range(n):
            if c not in image:
                yield from extensions(image + [c])

    gens: list[tuple[int, ...]] = []
    # pegs without endpoints stay fixed: moving them moves no member
    for i in [i for i in reversed(range(n)) if any(mult[i])]:
        orbit: set[int] = set()
        for c in range(i + 1, n):
            if not orbit:
                # every generator fixes the pegs below i, so orbit i starts at i
                orbit = {x for x, _y, _p in _orbits(gens, n)[i]}
            if c not in orbit:
                # orbit i is found again only after a generator is added
                for gen in itertools.islice(extensions(list(range(i)) + [c]), 1):
                    gens.append(gen)
                    orbit = set()
    return gens


def _symmetry_orbits(world: WebWorld) -> list[list[tuple[int, int, list[int]]]]:
    """Orbits of the members under G = <Aut(web graph), flip>, as `_orbits`."""
    return _orbits(_symmetry_generators(world), len(world))


def _symmetry_generators(world: WebWorld) -> list[list[int]]:
    """Generators of G = <Aut(web graph), flip> as member permutations, the flip first.

    A peg automorphism s moves the endpoint at height h on peg p to height
    h on peg s p, and the flip moves it to height P + 1 - h on p, for P
    endpoints on p. Both map the world onto itself and keep every
    reconstruction, so M(g D, g D2) = M(D, D2) for every g in G.
    """
    heights = world[0].peg_heights
    slots = [(p, h) for p, top in enumerate(heights, 1) for h in range(1, top + 1)]
    moves = [{(p, h): (p, heights[p - 1] + 1 - h) for p, h in slots}]
    moves += [{(p, h): (s[p - 1] + 1, h) for p, h in slots} for s in _peg_automorphisms(world[0])]
    # each distinct edge by its rank, and each member as its ranks, which stay sorted
    edges = sorted(set(itertools.chain.from_iterable(world.keys)))
    rank = {e: r for r, e in enumerate(edges)}
    members = [tuple(map(rank.__getitem__, key)) for key in world.keys]
    index = {member: i for i, member in enumerate(members)}
    perms = []
    for move in moves:
        image = []
        for a, b, ha, hb in edges:
            # an edge lists the endpoint on its lower peg first
            (x, hx), (y, hy) = sorted((move[a, ha], move[b, hb]))
            image.append(rank[x, y, hx, hy])
        perms.append([index[tuple(sorted(map(image.__getitem__, member)))] for member in members])
    return perms


def diagram_to_json(diagram: WebDiagram) -> dict:
    return {"n": diagram.num_pegs, "edges": [list(e) for e in diagram.edges]}


def _amount(value: int) -> str:
    """`value` in decimal, or its power of two where Python refuses the
    decimal text (more digits than sys.get_int_max_str_digits())."""
    try:
        return str(value)
    except ValueError:
        return f"over 2^{value.bit_length() - 1}"


def json_int(value, what: str) -> int:
    """A JSON integer; bool and float are rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInput(f"{what} must be an integer, got {value!r}")
    return value


def json_int_rows(value, what: str, width: int | None = None) -> tuple[tuple[int, ...], ...]:
    """A list of integer rows, each of length `width` if one is given.

    Every shape check on JSON input goes through here and `json_int`.
    """
    if not isinstance(value, (list, tuple)):
        raise MalformedInput(f"{what} must be a list of rows, got {value!r}")
    rows = []
    for row in value:
        if not isinstance(row, (list, tuple)):
            raise MalformedInput(f"{what} must be a list of rows, got row {row!r}")
        if width is not None and len(row) != width:
            raise MalformedInput(f"{what} rows must have {width} entries, got {list(row)!r}")
        rows.append(tuple(json_int(v, what) for v in row))
    return tuple(rows)


def diagram_from_json(obj: dict) -> WebDiagram:
    """The diagram of {"n": pegs, "edges": rows}; `validate_diagram` checks each value once."""
    if not isinstance(obj, dict) or "edges" not in obj:
        raise MalformedInput(f'a diagram must be an object with "edges", got {obj!r}')
    return validate_diagram(obj["edges"], obj.get("n"))
