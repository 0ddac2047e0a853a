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
from itertools import accumulate, permutations, product
from math import comb, factorial, lcm
from typing import Sequence

from .diagram import Edge, WebDiagram, WebWorld, restack
from .errors import BadRange, LengthMismatch
from .matrices import ONE, IntPolynomial, WorldMatrix, X, check_entry_guard, from_counts

_ONE_PLUS_X = ONE + X


def stirling2(n: int, k: int) -> int:
    """Number of ways to partition an n-set into k non-empty blocks."""
    if n < 0 or k < 0:
        raise BadRange(f"stirling2 needs non-negative arguments, got ({n}, {k})")
    total = sum((-1) ** (k - i) * comb(k, i) * i**n for i in range(k + 1))
    return total // factorial(k)


def eulerian(n: int, k: int) -> int:
    """Number of permutations of 1..n that need exactly k colours.

    A permutation needs k colours when it has k - 1 descents, so these
    are the Eulerian numbers indexed from k = 1.
    """
    if n < 1 or k < 0 or k > n:
        raise BadRange(f"eulerian needs 1 <= k <= n, got ({n}, {k})")
    return sum((-1) ** j * comb(n + 1, j) * (k - j) ** n for j in range(k + 1))


# ---------------------------------------------------------------------------
# The fan family: permutations as diagrams.
# ---------------------------------------------------------------------------


def _validate_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    perm = tuple(perm)
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
    if n == 0:
        raise BadRange("a fan needs at least one edge")
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
    if n < 1:
        raise BadRange("a fan needs at least one edge")
    return WebWorld(fan_diagram(p) for p in permutations(range(1, n + 1)))


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


def _fan_entry(n: int, m: int) -> tuple[IntPolynomial, Fraction]:
    """Both matrix entries of a fan pair with minimal colour count m."""
    return X**m * _ONE_PLUS_X ** (n - m), Fraction((-1) ** (m - 1), n * comb(n - 1, m - 1))


def fan_matrices(n: int) -> tuple[WebWorld, WorldMatrix, WorldMatrix]:
    """World of fans on n + 1 pegs plus its two matrices in closed form.

    Rows and columns follow the world's canonical diagram order.  An
    entry depends only on the pair's minimal colour count m, so every
    cell pair comes from a table indexed by m: the coefficients of M's
    entry and R's entry as a numerator over lcm(1..n).
    """
    if n < 1:
        raise BadRange("a fan needs at least one edge")
    check_entry_guard(factorial(n))
    world = fan_world(n)
    perms = [fan_permutation(d) for d in world]
    denom = lcm(*range(1, n + 1))
    table = [None]
    for m in range(1, n + 1):
        colouring, mixing = _fan_entry(n, m)
        # R's denominator n C(n - 1, m - 1) = m C(n, m) divides lcm(1..n)
        table.append((colouring.coeffs, mixing.numerator * (denom // mixing.denominator)))
    rows = []
    for src in perms:
        position = {v: i for i, v in enumerate(src)}
        # m is one more than the descents of target read through source
        row = []
        for tgt in perms:
            q = [position[v] for v in tgt]
            row.append(table[1 + sum(map(operator.gt, q, q[1:]))])
        rows.append(row)
    poly = WorldMatrix([[p for p, _ in row] for row in rows], polynomial=True)
    return world, poly, WorldMatrix([[r for _, r in row] for row in rows], denom)


def fan_traces(n: int) -> tuple[IntPolynomial, Fraction]:
    """Closed forms for the fan world's two matrix traces."""
    if n < 1:
        raise BadRange("a fan needs at least one edge")
    return factorial(n) * (X * _ONE_PLUS_X ** (n - 1)), Fraction(factorial(n - 1))


# ---------------------------------------------------------------------------
# Sign-encoded families: chains and cycles.
# ---------------------------------------------------------------------------


def validate_signs(signs: Sequence[int]) -> tuple[int, ...]:
    """Check every entry is +1 or -1 and return the tuple."""
    signs = tuple(signs)
    for s in signs:
        if s not in (1, -1):
            raise BadRange(f"sign vector entries must be +1 or -1, got {s!r}")
    return signs


def _peg_heights(signs: tuple[int, ...], offset: int) -> tuple[dict[int, int], dict[int, int]]:
    """Per-peg endpoint heights from a sign vector.

    Sign +1 means the peg's outgoing endpoint sits on top (height 2) and
    the incoming one below; -1 swaps them.  `offset` is the peg number
    of the first signed peg.
    """
    x: dict[int, int] = {}
    y: dict[int, int] = {}
    for j, s in enumerate(signs, offset):
        x[j] = 2 if s == 1 else 1
        y[j] = 3 - x[j]
    return x, y


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
    if n < 0:
        raise BadRange("sign count must be non-negative")
    return WebWorld(
        chain_diagram(signs) for signs in product((1, -1), repeat=n)
    )


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
    signs = validate_signs(signs)
    return WebDiagram(cycle_edge_list(signs), len(signs))


def cycle_world(n: int) -> WebWorld:
    """The world of all cycle diagrams on n pegs."""
    if n < 2:
        raise BadRange("a cycle needs at least two pegs")
    return WebWorld(
        cycle_diagram(signs) for signs in product((1, -1), repeat=n)
    )


def cycle_result_signs(
    signs: Sequence[int], assignment: Sequence[int]
) -> tuple[int, ...]:
    """Sign vector of the restack of a cycle under a positional colouring."""
    signs = validate_signs(signs)
    n = len(signs)
    restacked = restack(cycle_edge_list(signs), n, assignment)
    out = [1 if restacked[i - 1].left_height == 2 else -1 for i in range(1, n)]
    out.append(1 if restacked[n - 1].right_height == 2 else -1)
    return tuple(out)


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
        raise LengthMismatch(
            f"sign vector sizes differ: {len(source)} vs {len(target)}"
        )
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


def surjective_rule_counts(
    length: int, rules: Sequence[int], cyclic: bool
) -> tuple[int, ...]:
    """Surjective words meeting one rule code per position, for colours 1..length.

    f(i) counts all words over 1..i by a transfer matrix: along a path a
    vector over the last letter is pushed through each rule; around a
    cycle f(i) is the trace of the product of the rules' 0/1 comparison
    matrices.  The rules only compare letters, so a word over 1..i is a
    surjective word on the set of letters it uses, relabelled in order,
    and binomial inversion of f gives the surjective counts.
    """
    stop = length if cyclic else length - 1
    if len(rules) != stop or not set(rules) <= {1, 2, 3, 4}:
        raise BadRange(f"need one rule code 1..4 for each of positions 1..{stop}")
    f = [0]
    for i in range(1, length + 1):
        starts = [[int(a == s) for a in range(i)] for s in range(i)] if cyclic else [[1] * i]
        total = 0
        for s, vector in enumerate(starts):
            for rule in rules:
                vector = _push(vector, rule)
            total += vector[s] if cyclic else sum(vector)
        f.append(total)
    return tuple(
        sum((-1) ** (c - i) * comb(c, i) * f[i] for i in range(1, c + 1))
        for c in range(1, length + 1)
    )


def _rule_count(length: int, colours: int, rules: Sequence[int], cyclic: bool) -> int:
    if not 1 <= colours <= length:
        raise BadRange(f"colour count {colours} outside 1..{length}")
    return surjective_rule_counts(length, rules, cyclic)[colours - 1]


def chain_reconstruction_count(
    source: Sequence[int], target: Sequence[int], colours: int
) -> int:
    """Surjective colourings of the source chain restacking to the target.

    The colouring is read as a word along the chain's n + 1 edges and
    counted against the comparison rules of the sign pair.
    """
    rules = rule_codes(source, target)
    return _rule_count(len(rules) + 1, colours, rules, cyclic=False)


def cycle_reconstruction_count(
    source: Sequence[int], target: Sequence[int], colours: int
) -> int:
    """Surjective colourings of the source cycle restacking to the target.

    The word runs once around the ring, so the comparison at the last
    position wraps back to the first edge.
    """
    source = validate_signs(source)
    if len(source) < 2:
        raise BadRange("a cycle needs at least two pegs")
    return _rule_count(len(source), colours, rule_codes(source, target), cyclic=True)


def sign_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    """All sign vectors of length n, in the fixed matrix row order."""
    if n < 0:
        raise BadRange("sign count must be non-negative")
    return tuple(product((1, -1), repeat=n))


def _sign_family_matrices(
    n: int, cyclic: bool
) -> tuple[tuple[tuple[int, ...], ...], WorldMatrix, WorldMatrix]:
    check_entry_guard(2**n)
    vectors = sign_vectors(n)
    length = n if cyclic else n + 1
    counts = [
        [(0,) + surjective_rule_counts(length, rule_codes(src, tgt), cyclic) for tgt in vectors]
        for src in vectors
    ]
    return (vectors, *from_counts(counts))


def chain_matrices(
    n: int,
) -> tuple[tuple[tuple[int, ...], ...], WorldMatrix, WorldMatrix]:
    """Sign vectors plus colouring and mixing matrices for the chain family.

    Rows and columns are indexed by sign_vectors(n); for chains this
    indexing is a bijective relabelling of the world's diagrams.
    """
    return _sign_family_matrices(n, cyclic=False)


def cycle_matrices(
    n: int,
) -> tuple[tuple[tuple[int, ...], ...], WorldMatrix, WorldMatrix]:
    """Sign vectors plus colouring and mixing matrices for the cycle family.

    Rows and columns are indexed by sign_vectors(n).  On two pegs the
    encoding is two-to-one, so these matrices live at the sign level
    rather than the diagram level; from three pegs up the two levels
    agree.
    """
    if n < 2:
        raise BadRange("a cycle needs at least two pegs")
    return _sign_family_matrices(n, cyclic=True)


def chain_traces(n: int) -> tuple[IntPolynomial, Fraction]:
    """Closed forms for the chain family's matrix traces."""
    if n < 0:
        raise BadRange("sign count must be non-negative")
    coeffs = [0] + [
        factorial(k) * (stirling2(n + 2, k + 1) - stirling2(n + 1, k + 1))
        for k in range(1, n + 2)
    ]
    return IntPolynomial(coeffs), Fraction(1)


def cycle_traces(n: int) -> tuple[IntPolynomial, Fraction]:
    """Closed forms for the cycle family's sign-level matrix traces."""
    if n < 2:
        raise BadRange("a cycle needs at least two pegs")
    coeffs = [0] + [factorial(k) * stirling2(n + 1, k + 1) for k in range(1, n + 1)]
    coeffs[1] += 1
    return IntPolynomial(coeffs), Fraction(n + 1)


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
    if n < 1 or k < 0:
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
