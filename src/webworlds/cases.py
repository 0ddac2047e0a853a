"""Closed-form matrix families for three structured web worlds.

Three families of diagrams admit explicit formulas for every entry of
their colouring and mixing matrices, so they make strong cross-checks
for the generic enumeration code:

* the fan: n pegs each send one edge to a shared apex peg, and a
  diagram is a permutation saying which peg owns which apex height;
* the chain: n + 2 pegs in a row joined by nearest-neighbour edges,
  where each interior peg crosses its two endpoints or not, giving a
  sign vector;
* the cycle: n pegs in a ring, again encoded by one sign per peg.

For the sign-encoded families the reconstruction counts reduce to
counting surjective words subject to adjacent comparison rules, which a
transfer matrix does without listing the words. The Stirling, Eulerian
and adjacent-distinct counts behind the traces live here too.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, product
from math import comb, factorial, lcm
from typing import Sequence

from .diagram import Edge, WebDiagram, WebWorld, _orbits, json_int, web_world
from .errors import BadRange, LengthMismatch, WorldTooLarge
from .matrices import ONE, IntPolynomial, WorldMatrix, X, check_entry_guard, from_counts
from .matrices import DEFAULT_ENTRY_GUARD, _check_work, _fill_orbits, _unchecked_matrix, _unchecked_polynomial, _unpack

_ONE_PLUS_X = ONE + X


def stirling2(n: int, k: int) -> int:
    """Number of ways to partition an n-set into k non-empty blocks."""
    if json_int(n, "a Stirling argument") < 0 or json_int(k, "a Stirling argument") < 0:
        raise BadRange(f"stirling2 needs non-negative arguments, got ({n}, {k})")
    total = sum((-1) ** (k - i) * comb(k, i) * i**n for i in range(k + 1))
    return total // factorial(k)


def eulerian(n: int, k: int) -> int:
    """Number of permutations of 1..n that need exactly k colours.

    A permutation needs k colours when it has k - 1 descents, so these
    are the Eulerian numbers indexed from k = 1.
    """
    if json_int(n, "an Eulerian argument") < 1 or json_int(k, "an Eulerian argument") < 0 or k > n:
        raise BadRange(f"eulerian needs 1 <= k <= n, got ({n}, {k})")
    return sum((-1) ** j * comb(n + 1, j) * (k - j) ** n for j in range(k + 1))


# ---------------------------------------------------------------------------
# The fan family: permutations as diagrams.
# ---------------------------------------------------------------------------


def _validate_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    perm = tuple(json_int(v, "a permutation entry") for v in perm)
    if not perm:
        raise BadRange("a fan needs at least one edge")
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise BadRange(f"{perm!r} is not a permutation of 1..{len(perm)}")
    return perm


def fan_diagram(perm: Sequence[int]) -> WebDiagram:
    """Diagram whose apex height i is held by an edge from peg perm[i-1].

    Pegs 1..n carry one endpoint each at height 1; peg n + 1 carries all
    n remaining endpoints.
    """
    perm = _validate_permutation(perm)
    n = len(perm)
    edges = tuple(Edge(perm[i - 1], n + 1, 1, i) for i in range(1, n + 1))
    return WebDiagram(edges, n + 1)


def fan_permutation(diagram: WebDiagram) -> tuple[int, ...]:
    """Inverse of fan_diagram.  Raises BadRange off the fan family."""
    n = diagram.edge_count
    if diagram.num_pegs != n + 1 or n == 0:
        raise BadRange("diagram does not have fan shape")
    by_height: dict[int, int] = {}
    for e in diagram.edges:
        if e.right_peg != n + 1 or e.left_height != 1:
            raise BadRange("diagram does not have fan shape")
        by_height[e.right_height] = e.left_peg
    perm = tuple(by_height[i] for i in range(1, n + 1))
    return _validate_permutation(perm)


def fan_world(n: int) -> WebWorld:
    """The world of all n! fan diagrams."""
    return web_world(fan_diagram(range(1, json_int(n, "the fan size") + 1)))


def minimal_colour_blocks(
    source: Sequence[int], target: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Split `target` into the colour classes of the cheapest restack.

    Reading target's letters through source's positions gives a sequence
    q; target splits after every descent of q.  Any colouring of the
    source fan that restacks to the target fan must be constant on a
    refinement of these blocks, so their number is the minimal colour
    count.
    """
    source = _validate_permutation(source)
    target = _validate_permutation(target)
    if len(source) != len(target):
        raise LengthMismatch(
            f"permutation sizes differ: {len(source)} vs {len(target)}"
        )
    position = {v: i for i, v in enumerate(source, 1)}
    q = [position[v] for v in target]
    blocks: list[tuple[int, ...]] = []
    start = 0
    for j in range(1, len(q)):
        if q[j - 1] > q[j]:
            blocks.append(tuple(target[start:j]))
            start = j
    blocks.append(tuple(target[start:]))
    return tuple(blocks)


def minimal_colour_count(source: Sequence[int], target: Sequence[int]) -> int:
    """Fewest colours in a colouring of the source fan restacking to target."""
    return len(minimal_colour_blocks(source, target))


def fan_matrices(n: int) -> tuple[WebWorld, WorldMatrix, WorldMatrix]:
    """World of fans on n + 1 pegs plus its two matrices in closed form.

    Rows and columns follow the world's canonical diagram order.  An
    entry depends only on the pair's minimal colour count m, one more
    than the descents of q, the target's letters read through their
    source positions; it gives M's coefficients and R's numerator over
    lcm(1..n).  Only row 0 is read off q: member i's key puts leaf p at
    apex height heights[i][p - 1], and member 0 is the identity fan.
    Relabelling the leaf pegs by g sends the fan of σ to the fan of g∘σ and
    leaves q as it is, so M(σ, τ) = M(g∘σ, g∘τ): the orbit walk of
    `world_matrices` fills every other row from an earlier one at the columns
    g permutes, with g = (1 2) and p -> p + 1 read off the height tuples.
    """
    if json_int(n, "the fan size") < 1:
        raise BadRange("a fan needs at least one edge")
    _check_members(n, factorial)
    world = fan_world(n)
    # the keys differ only in these heights and sort by them
    heights = [tuple(e.right_height for e in key) for key in world.keys]
    denom = lcm(*range(1, n + 1))
    # M's entry x^m (1 + x)^(n - m); R's (-1)^(m - 1)/(m C(n, m)), whose denominator divides lcm(1..n)
    entries = [
        ((X**m * _ONE_PLUS_X ** (n - m)).coeffs, (-1) ** (m - 1) * (denom // (m * comb(n, m))))
        for m in range(1, n + 1)
    ]
    # row 0's q for column j is member j's leaves in apex order
    qs = (sorted(range(n), key=h.__getitem__) for h in heights)
    poly_rows, mix_rows = [None] * len(heights), [None] * len(heights)
    poly_rows[0], mix_rows[0] = zip(*[entries[sum(map(operator.gt, q, q[1:]))] for q in qs])
    # relabelling the leaves by (1 2) swaps a member's first two heights, and by p -> p + 1 rotates them
    index = {h: i for i, h in enumerate(heights)}
    generators = [[index[h[1::-1] + h[2:]] for h in heights], [index[h[-1:] + h[:-1]] for h in heights]]
    _fill_orbits(_orbits(generators, len(heights)), poly_rows, mix_rows)
    return world, _unchecked_matrix(poly_rows), _unchecked_matrix(mix_rows, denom)


def fan_traces(n: int) -> tuple[IntPolynomial, Fraction]:
    """Closed forms for the fan world's two matrix traces."""
    if json_int(n, "the fan size") < 1:
        raise BadRange("a fan needs at least one edge")
    # (1 + x)^(n - 1) takes n^2 multiply-adds; each coefficient n! C(n - 1, k) < n! 2^n
    _check_work(n * n)
    _check_work(0, bits=factorial(n).bit_length() + n)
    return factorial(n) * (X * _ONE_PLUS_X ** (n - 1)), Fraction(factorial(n - 1))


# ---------------------------------------------------------------------------
# Sign-encoded families: chains and cycles.
# ---------------------------------------------------------------------------


def validate_signs(signs: Sequence[int]) -> tuple[int, ...]:
    """Check every entry is +1 or -1 and return the tuple."""
    signs = tuple(signs)
    for s in signs:
        if json_int(s, "a sign") not in (1, -1):
            raise BadRange(f"sign vector entries must be +1 or -1, got {s!r}")
    return signs


def _peg_heights(signs: tuple[int, ...], offset: int) -> tuple[dict[int, int], dict[int, int]]:
    """Per-peg endpoint heights from a sign vector.

    Sign +1 means the peg's outgoing endpoint sits on top (height 2) and
    the incoming one below; -1 swaps them.  `offset` is the peg number
    of the first signed peg.
    """
    x = {j: (3 + s) // 2 for j, s in enumerate(signs, offset)}
    return x, {j: 3 - h for j, h in x.items()}


def chain_diagram(signs: Sequence[int]) -> WebDiagram:
    """Chain diagram for a sign vector; edge i joins pegs i, i + 1.

    With n signs the chain has n + 2 pegs; the end pegs hold a single
    endpoint at height 1 and each interior peg is crossed or not
    according to its sign. Canonical edge order equals peg order.
    """
    signs = validate_signs(signs)
    n = len(signs)
    x, y = _peg_heights(signs, 2)
    x[1] = 1
    y[n + 2] = 1
    edges = tuple(Edge(i, i + 1, x[i], y[i + 1]) for i in range(1, n + 2))
    return WebDiagram(edges, n + 2)


def chain_world(n: int) -> WebWorld:
    """The world of all 2^n chain diagrams with n interior pegs."""
    if json_int(n, "the sign count") < 0:
        raise BadRange("sign count must be non-negative")
    return web_world(chain_diagram((1,) * n))


def cycle_edge_list(signs: Sequence[int]) -> tuple[Edge, ...]:
    """Edges of a cycle diagram in ring order (edge i joins pegs i, i + 1).

    With n signs the cycle has n pegs, each holding one endpoint of its
    two neighbouring edges; the closing edge joins pegs 1 and n.  Note
    the returned order is the ring order, not the canonical sorted
    order, so edge identities survive for restack tracking.
    """
    signs = validate_signs(signs)
    n = len(signs)
    if n < 2:
        raise BadRange("a cycle needs at least two pegs")
    x, y = _peg_heights(signs, 1)
    ring = [Edge(i, i + 1, x[i], y[i + 1]) for i in range(1, n)]
    ring.append(Edge(1, n, y[1], x[n]))
    return tuple(ring)


def cycle_diagram(signs: Sequence[int]) -> WebDiagram:
    """Cycle diagram for a sign vector.

    For three or more pegs the encoding is a bijection onto the world of
    the all-(+1) diagram.  For exactly two pegs each diagram is hit by
    two sign vectors, so counts must be read at the sign level there.
    """
    ring = cycle_edge_list(signs)
    return WebDiagram(ring, len(ring))


def cycle_world(n: int) -> WebWorld:
    """The world of all cycle diagrams on n pegs."""
    return web_world(cycle_diagram((1,) * json_int(n, "the sign count")))


# ---------------------------------------------------------------------------
# Comparison rules of the sign-encoded families.
# ---------------------------------------------------------------------------


def rule_codes(source: Sequence[int], target: Sequence[int]) -> tuple[int, ...]:
    """Comparison rule forcing a restack from source to target, per position.

    For sign-encoded diagrams, whether the colouring keeps or swaps the
    two endpoints on a signed peg is equivalent to one comparison between
    the colours of its two edges; the (source, target) sign pair at each
    position selects which, as a code: 1, 2, 3 or 4 asks that the colour
    before the position be >, >=, <= or < the colour after it, where a
    cyclic word's last position compares its last colour with its first.
    """
    source = validate_signs(source)
    target = validate_signs(target)
    if len(source) != len(target):
        raise LengthMismatch(f"sign vector sizes differ: {len(source)} vs {len(target)}")
    return tuple((5 + 2 * t - s) // 2 for s, t in zip(source, target))


def _push(vector: list[int], rule: int) -> list[int]:
    """One transfer step: entry b counts the words ending in b after `rule`.

    Rule 1..4 asks previous > b, >= b, <= b or < b (the codes of
    rule_codes); each is a prefix or suffix sum of the vector.
    """
    if rule >= 3:
        run = list(accumulate(vector))
        return run if rule == 3 else [0] + run[:-1]
    run = list(accumulate(reversed(vector)))[::-1]
    return run if rule == 2 else run[1:] + [0]


# the exact comparisons (> 1, = 2, < 4) that each push code allows; code 0, = alone, leaves a vector as it is
_ALLOWS = (2, 1, 3, 6, 4)


def _rule_classes(level: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The exact-comparison classes that the rules of `level` tell apart, as
    push codes, and for each rule the indices of the classes it is the union of.
    A lone rule is its own class; several split into >, = and <."""
    if len(level) == 1:
        return level, ((0,),)
    return (1, 0, 4), tuple(tuple(k for k, bit in enumerate((1, 2, 4)) if _ALLOWS[rule] & bit) for rule in level)


@lru_cache(maxsize=16)
def _packed_inversion(length: int) -> tuple[int, list[int]]:
    """A field width over length^length, which bounds every count, and per f(i) the weight that
    packs its share of the binomial inversion into the fields 0..length; packed counts add field by field."""
    bits = length * length.bit_length()
    sizes = range(1, length + 1)
    return bits, [sum((-1) ** (c - i) * comb(c, i) << bits * c for c in range(i, length + 1)) for i in sizes]


def _surjective_walk(length: int, levels: Sequence[Sequence[int]], cyclic: bool) -> list[tuple[int, ...]]:
    """Surjective counts, for colours 0..length, of each rule tuple of product(*levels) in turn.

    f(i) counts all words over 1..i by a transfer matrix: along a path a
    vector over the last letter is pushed through each comparison; around
    a cycle f(i) is the trace of the product of the comparisons' 0/1
    matrices, with one unit start vector per letter.  Each rule is a union
    of exact comparisons (>, =, <), so the walk is depth first over the
    patterns of the classes that each position's rules tell apart
    (`_rule_classes`): it pushes each prefix's start vectors once per
    extension but =, which changes no vector, so 3^n - 1 times per start
    over three classes at n positions.  The rules only compare letters, so
    a word over 1..i is a surjective word on the letters it uses,
    relabelled in order, and binomial inversion of f at each leaf gives
    the surjective counts, packed into one integer.  A sum step then turns
    each position's classes into its rules, in at most n 4^n additions.
    """
    sizes = range(1, length + 1)
    # (alphabet size, letter of the unit start) around a cycle; along a path the ends are summed
    starts = [(i, s) for i in sizes for s in (range(i) if cyclic else [None])]
    bits, weights = _packed_inversion(length)
    splits = [_rule_classes(tuple(level)) for level in levels]
    leaves = []

    def descend(vectors: list[list[int]], depth: int) -> None:
        # a level of one class rebinds `vectors`, so only a branch point keeps its start vectors alive
        for depth in range(depth, len(levels)):
            codes = splits[depth][0]
            if len(codes) > 1:
                for code in codes:
                    descend([_push(v, code) for v in vectors] if code else vectors, depth + 1)
                return
            if codes[0]:
                vectors = [_push(v, codes[0]) for v in vectors]
        f = [0] * length
        for (i, s), v in zip(starts, vectors):
            f[i - 1] += sum(v) if s is None else v[s]
        leaves.append(sum(map(operator.mul, weights, f)))

    descend([[1 if s is None else int(a == s) for a in range(i)] for i, s in starts], 0)
    # sum the class patterns into rule tuples, last position first: its classes are the last axis, read
    # by stride, and its rules go in front, so after each position the axes are back in product order
    for classes, members in reversed(splits):
        if members == ((0,),):
            continue
        parts = [leaves[k :: len(classes)] for k in range(len(classes))]
        leaves = []
        for rule_classes in members:
            leaves += reduce(partial(map, operator.add), map(parts.__getitem__, rule_classes))
    cells = {packed: _unpack(packed, bits, length) for packed in set(leaves)}
    return list(map(cells.__getitem__, leaves))


def _walk_work(length: int, cyclic: bool) -> int:
    """Letters pushed for one rule tuple alone: `length` pushes of i letters per start of alphabet size i."""
    return sum((i if cyclic else 1) * length * i for i in range(1, length + 1))


def surjective_rule_counts(length: int, rules: Sequence[int], cyclic: bool) -> tuple[int, ...]:
    """Surjective words meeting one rule code per position, for colours 1..length.

    The rule walk with one code allowed at each position: its one class is
    the rule itself, so there is nothing to sum. Its work is checked as one
    cell of `_sign_family_matrices`' estimate.
    """
    length = json_int(length, "the word length")
    stop = length if cyclic else length - 1
    rules = tuple(json_int(r, "a rule code") for r in rules)
    if len(rules) != stop or not set(rules) <= {1, 2, 3, 4}:
        raise BadRange(f"need one rule code 1..4 for each of positions 1..{stop}")
    _check_work(_walk_work(length, cyclic))
    return _surjective_walk(length, [(r,) for r in rules], cyclic)[0][1:]


def sign_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    """All sign vectors of length n, in the fixed matrix row order."""
    if json_int(n, "the sign count") < 0:
        raise BadRange("sign count must be non-negative")
    return tuple(product((1, -1), repeat=n))


# sign vectors, then the colouring and mixing matrices on them
SignMatrices = tuple[tuple[tuple[int, ...], ...], WorldMatrix, WorldMatrix]


def _sign_family_matrices(n: int, cyclic: bool) -> SignMatrices:
    _check_members(n, lambda k: 2**k)
    length = n if cyclic else n + 1
    # counting each cell alone, 4^n cells x `length` pushes of i letters per start and alphabet size i,
    # is 4^n length S for S = sum of starts x i. It bounds the walk: under 3^n S letters pushed, and at
    # most n 4^n additions to sum classes into rules, where n <= (length - 1) S
    _check_work(4**n * _walk_work(length, cyclic))
    vectors = sign_vectors(n)
    # each position takes the (source, target) sign pairs p = (1, 1), (1, -1), (-1, 1), (-1, -1), so
    # the base-4 digits 2 s + t of a leaf's index interleave the bits s of its row and t of its column
    walk = _surjective_walk(length, [rule_codes((1, 1, -1, -1), (1, -1, 1, -1))] * n, cyclic)
    spread = [0]
    for _ in range(n):
        spread = [4 * s + t for s in spread for t in (0, 1)]
    return (vectors, *from_counts([[walk[2 * row + col] for col in spread] for row in spread]))


def _check_members(n: int, members) -> None:
    """`check_entry_guard` on a family of members(n) members. There are at
    least 2^(n - 1), so from n = 64 on it trips before they are counted."""
    if n >= 64:
        raise WorldTooLarge(f"n = {n} gives over 2^62 members, past the {DEFAULT_ENTRY_GUARD}-entry guard")
    check_entry_guard(members(n))


def chain_matrices(n: int) -> SignMatrices:
    """Sign vectors plus colouring and mixing matrices for the chain family.

    Rows and columns are indexed by sign_vectors(n); for chains this
    indexing is a bijective relabelling of the world's diagrams.
    """
    return _sign_family_matrices(json_int(n, "the sign count"), cyclic=False)


def cycle_matrices(n: int) -> SignMatrices:
    """Sign vectors plus colouring and mixing matrices for the cycle family.

    Rows and columns are indexed by sign_vectors(n).  On two pegs the
    encoding is two-to-one, so these matrices live at the sign level
    rather than the diagram level; from three pegs up the two levels
    agree.
    """
    if json_int(n, "the sign count") < 2:
        raise BadRange("a cycle needs at least two pegs")
    return _sign_family_matrices(n, cyclic=True)


def chain_traces(n: int) -> tuple[IntPolynomial, Fraction]:
    """Closed forms for the chain family's matrix traces."""
    if json_int(n, "the sign count") < 0:
        raise BadRange("sign count must be non-negative")
    # two Stirling sums per k, each of at most n + 3 powers i^(n + 2), in 64-bit
    # words; within the guard no coefficient passes the digit limit
    _check_work((n + 3) ** 2 * (n + 2) * (n + 2).bit_length() // 32)
    coeffs = [0] + [
        factorial(k) * (stirling2(n + 2, k + 1) - stirling2(n + 1, k + 1))
        for k in range(1, n + 2)
    ]
    return _unchecked_polynomial(coeffs), Fraction(1)


def cycle_traces(n: int) -> tuple[IntPolynomial, Fraction]:
    """Closed forms for the cycle family's sign-level matrix traces."""
    if json_int(n, "the sign count") < 2:
        raise BadRange("a cycle needs at least two pegs")
    # one Stirling sum per k, of at most n + 2 powers i^(n + 1), in 64-bit words
    _check_work((n + 2) ** 2 * (n + 1) * (n + 1).bit_length() // 64)
    coeffs = [0] + [factorial(k) * stirling2(n + 1, k + 1) for k in range(1, n + 1)]
    coeffs[1] += 1
    return _unchecked_polynomial(coeffs), Fraction(n + 1)


# ---------------------------------------------------------------------------
# Adjacent-distinct colour sequences.
# ---------------------------------------------------------------------------


def adjacent_distinct_counts(n: int, k: int) -> tuple[int, int, int]:
    """Counts of surjective words with no two adjacent entries equal.

    Returns (total, ends_differ, ends_equal): all such words of length n
    on colours 1..k, those whose first and last entries differ, and
    those whose first and last entries agree.  The three alternating
    sums below are exact for all n >= 1, 0 <= k <= n.
    """
    if json_int(n, "the word length") < 1 or json_int(k, "a colour count") < 0:
        raise BadRange(f"need n >= 1 and k >= 0, got ({n}, {k})")
    total = 0
    differ = 0
    equal = 0
    for i in range(k + 1):
        sign = (-1) ** (k - i) * comb(k, i)
        total += sign * i * (i - 1) ** (n - 1)
        differ += sign * ((i - 1) ** n + (i - 1) * (-1) ** n)
        equal += sign * ((i - 1) ** (n - 1) + (i - 1) * (-1) ** (n - 1))
    return total, differ, equal
