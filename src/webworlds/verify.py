"""Cross-validation suites: closed formulas against brute enumeration.

Every suite recomputes the same quantity along two independent routes
and reports exact comparisons as CheckResult records. The library's
matrices come from one subset pass per world over ordered set partitions
(see webworlds.matrices); the structure check "colouring counts match
enumeration" compares them with the brute-force route, which visits
every surjective colouring of every member and restacks it. The other
checks set those matrices against a closed formula, series coefficient
or bijective count, and the world counters against matrix listings, one
listing per (pegs, edges) shared by the three count oracles. A
check over many instances records each one once in a `_Tally`, which
reports the instance count on a pass and, on a failure, how many failed
and the first to fail. The chain and cycle
exact-split checks run one rule walk per sign pair for all colour
counts. The CLI's verify subcommand prints one line per record and
fails if any record fails.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial
from typing import Iterable, Sequence

from . import cases, enumeration, posets, transitive
from .diagram import (
    WebDiagram,
    WebWorld,
    _surjections,
    apply_permutations,
    restack,
    validate_diagram,
    web_world,
)
from .errors import RepeatedBlocks
from .matrices import (
    IntPolynomial,
    _check_work,
    _colouring_counts,
    _fubini,
    is_idempotent,
    ordered_bell_polynomial,
    rank,
    row_sums,
    trace,
    world_matrices,
    world_traces,
)

DEFAULT_STRUCTURE_PEGS = 5
DEFAULT_STRUCTURE_EDGES = 5
ENUMERATION_EDGES = 4


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named cross-check."""

    name: str
    passed: bool
    detail: str


class _Tally:
    """One multi-instance check: each instance is recorded once by `check`."""

    def __init__(self, name: str, detail: str) -> None:
        self.name, self.detail = name, detail
        self.instances = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> bool:
        """Count one instance, keeping `label` if it failed; return `ok`."""
        self.instances += 1
        if not ok:
            self.failures.append(label)
        return ok

    def result(self) -> CheckResult:
        if self.failures:
            detail = f"{len(self.failures)} of {self.instances} failed, first: {self.failures[0]}"
            return CheckResult(self.name, False, detail)
        return CheckResult(self.name, True, f"{self.detail} ({self.instances} instances)")


# ---------------------------------------------------------------------------
# Structural theorems over an exhaustive sweep of small worlds.
# ---------------------------------------------------------------------------


def _sweep_matrices(max_pegs: int, max_edges: int) -> Iterable[enumeration.Rows]:
    """Represent matrices of every swept world: no isolated pegs, >= 1 edge.

    Isolated pegs multiply the orbit by nothing and leave both matrices
    unchanged, and an edgeless world has no colourings at all, so this
    enumeration covers every world in the bounds that has matrices.
    """
    for rows in enumeration.enumerate_worlds(max_pegs, max_edges, no_isolated=True):
        if any(any(r) for r in rows):
            yield rows


def _enumerated_counts(world: WebWorld) -> list[list[list[int]]]:
    """Colouring counts by visiting every surjective colouring of every row.

    Entry [row][column][k] counts the k-colourings of the row member that
    reconstruct to the column member: Fubini(e) restacks per row, the
    brute-force twin of the rows read off the subset pass in
    webworlds.matrices.
    """
    edge_count = world.edge_count
    size = len(world)
    counts = [[[0] * (edge_count + 1) for _ in range(size)] for _ in range(size)]
    index = world.index
    words = [list(_surjections(edge_count, colours)) for colours in range(1, edge_count + 1)]
    for row, diagram in enumerate(world):
        row_counts = counts[row]
        for colours, assignments in enumerate(words, 1):
            for assignment in assignments:
                moved = restack(diagram.edges, diagram.num_pegs, assignment)
                row_counts[index[tuple(sorted(moved))]][colours] += 1
    return counts


def suite_structure(
    max_pegs: int = DEFAULT_STRUCTURE_PEGS, max_edges: int = DEFAULT_STRUCTURE_EDGES
) -> list[CheckResult]:
    """Row sums, idempotence and trace = rank over every small world.

    The exact statements checked are: colouring row sums equal the
    ordered Bell polynomial; mixing row sums equal 1 for single-edge
    worlds and 0 otherwise; the mixing matrix is idempotent; its trace
    equals its rank, a non-negative integer, positive exactly when the
    world's graph is connected. On the worlds with at most
    ENUMERATION_EDGES edges, every entry of M also equals the count by
    direct colouring enumeration. The matrix-free routes are checked
    against the matrices too: `world_traces` by the fixed-point DP on
    every world without parallel edges, and each diagonal entry by the
    single-target kernel.
    """
    scope = f"all worlds with <= {max_edges} edges, <= {max_pegs} pegs"
    mix_rows = _Tally("mixing row sums", f"row sums of R equal [edge count == 1] on {scope}")
    poly_rows = _Tally(
        "colouring row sums", f"row sums of M equal the ordered Bell polynomial on {scope}"
    )
    idempotent = _Tally("idempotence", f"R squared equals R on {scope}")
    trace_rank = _Tally("trace equals rank", f"trace(R) = rank(R), a non-negative integer, on {scope}")
    connected = _Tally(
        "positive trace iff connected", f"trace(R) >= 1 exactly on proper worlds within {scope}"
    )
    enumerated = _Tally(
        "colouring counts match enumeration",
        "every entry of M equals direct colouring enumeration on all worlds "
        f"with <= {min(ENUMERATION_EDGES, max_edges)} edges, <= {max_pegs} pegs",
    )
    fixed_point = _Tally(
        "fixed-point traces match matrix traces",
        "the fixed-point DP gives trace(M) and trace(R) on the worlds without "
        f"parallel edges within {scope}",
    )
    kernel = _Tally(
        "kernel diagonals match matrices",
        f"the single-target kernel gives every diagonal entry of M on {scope}",
    )
    for rows in _sweep_matrices(max_pegs, max_edges):
        world = web_world(enumeration.seed_diagram(rows))
        poly, mix = world_matrices(world)
        m = world.edge_count
        label = repr(rows)
        bell = ordered_bell_polynomial(m)
        expected = Fraction(1 if m == 1 else 0)
        mix_rows.check(all(s == expected for s in row_sums(mix)), label)
        poly_rows.check(all(s == bell for s in row_sums(poly)), label)
        idempotent.check(is_idempotent(mix), label)
        t, r = trace(mix), rank(mix)
        exact = trace_rank.check(t == r and t.denominator == 1 and t >= 0, f"{label} trace={t} rank={r}")
        connected.check(not exact or (t >= 1) == enumeration.is_proper(world[0]), f"{label} trace={t}")
        if m <= ENUMERATION_EDGES:
            brute = tuple(tuple(map(tuple, row)) for row in _enumerated_counts(world))
            enumerated.check(poly.rows == brute, label)
        if world[0].labels_one():
            fixed_point.check(world_traces(world[0]) == (trace(poly), t), label)
        kernel.check(all(_colouring_counts(d, d) == poly.rows[i][i] for i, d in enumerate(world)), label)
    tallies = (mix_rows, poly_rows, idempotent, trace_rank, connected, enumerated, fixed_point, kernel)
    return [tally.result() for tally in tallies]


# ---------------------------------------------------------------------------
# Decomposition posets and the diagonal descent formulas.
# ---------------------------------------------------------------------------


_PATH4 = validate_diagram(((1, 2, 1, 1), (2, 3, 2, 1), (3, 4, 2, 1)), 4)
_VEE = validate_diagram(((1, 2, 1, 1), (1, 3, 2, 1), (2, 4, 2, 1)), 4)


def suite_posets(max_pegs: int = 5, max_edges: int = 4) -> list[CheckResult]:
    """Diagonal entries by descent formulas versus brute-force matrices."""
    results: list[CheckResult] = []

    world = web_world(_PATH4)
    poly, mix = world_matrices(world)
    shapes = Counter(
        posets.decomposition_poset(d).strict_pairs() for d in world
    )
    expected_shapes = Counter(
        {
            ((1, 2), (1, 3), (2, 3)): 2,
            ((1, 2), (1, 3)): 1,
            ((1, 3), (2, 3)): 1,
        }
    )
    pt, ft = posets.traces_via_posets(world)
    ok = (
        len(world) == 4
        and trace(poly) == IntPolynomial((0, 4, 10, 6)) == pt
        and trace(mix) == 1 == ft
        and shapes == expected_shapes
    )
    results.append(
        CheckResult(
            "four-peg path world",
            ok,
            f"size {len(world)}, trace(M) {trace(poly)}, trace(R) {trace(mix)}, "
            "poset multiset {chain: 2, join: 1, meet: 1}",
        )
    )

    world = web_world(_VEE)
    poly, mix = world_matrices(world)
    i = world.index_of(_VEE)
    poset = posets.decomposition_poset(_VEE)
    ok = (
        poset.strict_pairs() == ((1, 2), (1, 3))
        and poly.entries[i][i]
        == posets.diagonal_colouring_polynomial(poset)
        == IntPolynomial((0, 1, 3, 2))
        and mix.entries[i][i]
        == posets.diagonal_mixing_value(poset)
        == Fraction(1, 6)
    )
    results.append(
        CheckResult(
            "three-block diagonal",
            ok,
            f"M diagonal {poly.entries[i][i]}, R diagonal {mix.entries[i][i]}, "
            "formulas agree with brute force",
        )
    )

    sweep = list(_sweep_matrices(max_pegs, max_edges))
    descent = _Tally(
        "diagonal descent formulas", f"formula diagonals match brute force across {len(sweep)} worlds"
    )
    for rows in sweep:
        world = web_world(enumeration.seed_diagram(rows))
        poly, mix = world_matrices(world)
        for i, diagram in enumerate(world):
            try:
                poset = posets.decomposition_poset(diagram)
                expected_poly = posets.diagonal_colouring_polynomial(poset)
                expected_mix = posets.diagonal_mixing_value(poset)
            except RepeatedBlocks:
                continue
            ok = poly.entries[i][i] == expected_poly and mix.entries[i][i] == expected_mix
            descent.check(ok, f"{rows!r} member {i}")
    results.append(descent.result())

    order = _Tally(
        "order-preserving counts", "descent-sum and closed-form counts match direct enumeration"
    )
    for poset in _SMALL_POSETS:
        for colours in range(1, 5):
            weak = posets.order_preserving_count(poset, colours)
            surjective = posets.surjective_order_preserving_count(poset, colours)
            weak_ok = weak == _direct_order_preserving(poset, colours, surjective=False)
            ok = weak_ok and surjective == _direct_order_preserving(poset, colours, surjective=True)
            order.check(ok, f"{'surjective' if weak_ok else 'weak'} {poset.strict_pairs()} m={colours}")
    results.append(order.result())
    return results


# chains of 1, 2 and 3, antichains of 2 and 3, the vee, the wedge and a diamond
_SMALL_POSETS = tuple(
    posets.DecompositionPoset.from_relations(size, relations)
    for size, relations in (
        (1, ()),
        (2, ((1, 2),)),
        (3, ((1, 2), (2, 3))),
        (2, ()),
        (3, ()),
        (3, ((1, 2), (1, 3))),
        (3, ((1, 3), (2, 3))),
        (4, ((1, 2), (1, 3), (2, 4), (3, 4))),
    )
)


def _direct_order_preserving(
    poset: posets.DecompositionPoset, colours: int, surjective: bool
) -> int:
    pairs = poset.strict_pairs()
    count = 0
    for values in product(range(1, colours + 1), repeat=poset.size):
        if any(values[a - 1] > values[b - 1] for a, b in pairs):
            continue
        if surjective and len(set(values)) != colours:
            continue
        count += 1
    return count


# ---------------------------------------------------------------------------
# Counting formulas and series.
# ---------------------------------------------------------------------------


def _orbit_keys(diagram: WebDiagram) -> set:
    """Edge keys of the world, by closing the seed under all height permutations.

    Independent of the hook-filling generator: applies every member of
    the per-peg symmetric group product to the seed and keeps the
    distinct images.
    """
    families = product(*(permutations(range(1, p + 1)) for p in diagram.peg_heights))
    return {apply_permutations(diagram, family).edges for family in families}


# suite_counting reads its 28 default cells from up to three checks, once per pair count
@lru_cache(maxsize=64)
def _listed_worlds(pegs: int, edges: int) -> Counter:
    """The represent matrices with exactly `pegs` pegs and `edges` edges,
    listed once and tallied by (occupied pairs, no isolated peg, connected)."""
    tally: Counter = Counter()
    for rows in enumeration.enumerate_worlds(pegs, edges, exact_edges=edges):
        if len(rows) == pegs:
            spans = 0 not in enumeration.peg_loads(rows)
            occupied = sum(1 for row in rows for value in row if value)
            tally[occupied, spans, spans and enumeration._is_connected(rows)] += 1
    return tally


def _count_listed(
    pegs: int, edges: int, pairs: int, no_isolated: bool = False, connected: bool = False
) -> int:
    return sum(
        count
        for (occupied, spans, joined), count in _listed_worlds(pegs, edges).items()
        if occupied == pairs and spans >= no_isolated and joined >= connected
    )


def _count_worlds_direct(pegs: int, edges: int, pairs: int) -> int:
    """Brute-force oracle for the world count."""
    return _count_listed(pegs, edges, pairs)


def _count_worlds_no_isolated_direct(pegs: int, edges: int, pairs: int) -> int:
    """Brute-force oracle for the no-isolated-peg count."""
    return _count_listed(pegs, edges, pairs, no_isolated=True)


def _count_proper_worlds_direct(pegs: int, edges: int, pairs: int) -> int:
    """Brute-force oracle for the proper-world count."""
    if pegs == 1:
        return int(edges == pairs == 0)
    return _count_listed(pegs, edges, pairs, connected=True)


def suite_counting(
    orbit_edges: int = 4, max_pegs: int = 5, max_edges: int = 6
) -> list[CheckResult]:
    """World-size formula, world counts and the three-edge census."""
    results: list[CheckResult] = []

    sizes = _Tally(
        "world size formula",
        "factorial formula = orbit closure = generated size for all worlds "
        f"with <= {orbit_edges} edges",
    )
    for rows in _sweep_matrices(2 * orbit_edges, orbit_edges):
        seed = enumeration.seed_diagram(rows)
        formula = enumeration.world_size(rows)
        orbit = len(_orbit_keys(seed))
        generated = len(web_world(seed))
        label = f"{rows!r} formula={formula} orbit={orbit} generated={generated}"
        sizes.check(formula == orbit == generated, label)
    results.append(sizes.result())

    # (name, tag, route, second route, least pegs, least edges and pairs, detail)
    for name, tag, first, second, low_pegs, low, detail in (
        ("world counts by pegs/edges/pairs", "nww", _count_worlds_direct,
         enumeration.count_worlds_series, 2, 0, "direct enumeration matches series extraction"),
        ("no-isolated-peg counts", "nwwnip", enumeration.count_worlds_no_isolated,
         _count_worlds_no_isolated_direct, 2, 1, "closed form matches direct enumeration"),
        ("proper world counts", "npww", enumeration.count_proper_worlds,
         _count_proper_worlds_direct, 1, 0,
         "logarithmic series matches direct connected enumeration"),
    ):
        counts = _Tally(name, detail)
        for pegs in range(low_pegs, max_pegs + 1):
            for edges in range(low, max_edges + 1):
                for pairs in range(low, comb(pegs, 2) + 1):
                    a, b = first(pegs, edges, pairs), second(pegs, edges, pairs)
                    counts.check(a == b, f"{tag}({pegs},{edges},{pairs}) {a} != {b}")
        results.append(counts.result())

    census = sum(
        enumeration.count_worlds_no_isolated(pegs, 3, pairs)
        for pegs in range(2, 5)
        for pairs in range(1, comb(pegs, 2) + 1)
    )
    results.append(
        CheckResult(
            "three-edge census",
            census == 30,
            f"worlds with exactly 3 edges and no isolated pegs: {census} (expected 30)",
        )
    )
    return results


# ---------------------------------------------------------------------------
# The three closed-form families.
# ---------------------------------------------------------------------------


# the exact comparisons (1 descent, 0 level, -1 ascent) each rule code allows
_EXACT = {1: (1,), 2: (1, 0), 3: (0, -1), 4: (-1,)}


def _split_count(length: int, colours: int, codes: Sequence[int], cyclic: bool) -> int:
    """Surjective words meeting one rule code per position, by exact splits:
    the sum of the exact patterns that the weak codes 2 (>=) and 3 (<=)
    expand into. This needs no transfer matrix."""
    patterns = _split_patterns(length, colours, cyclic)
    return sum(patterns[p] for p in product(*(_EXACT[c] for c in codes)))


@lru_cache(maxsize=64)
def _split_patterns(length: int, colours: int, cyclic: bool) -> Counter:
    """The surjective words counted once by their exact comparison at each
    position, a cyclic word's last letter against its first."""
    words = _surjections(length, colours)
    steps = (zip(w, w[1:] + w[:1] if cyclic else w[1:]) for w in words)
    return Counter(tuple((a > b) - (a < b) for a, b in pairs) for pairs in steps)


def _splits_agree(vectors: Sequence[tuple[int, ...]], length: int, cyclic: bool) -> bool:
    """Whether the rule walk's counts equal the exact-split counts on every sign
    pair: one walk per pair gives the counts for every colour count at once."""
    return all(
        cases.surjective_rule_counts(length, codes, cyclic)
        == tuple(_split_count(length, k, codes, cyclic) for k in range(1, length + 1))
        for codes in (cases.rule_codes(src, tgt) for src in vectors for tgt in vectors)
    )


def _check_oracle(n: int, cyclic: bool) -> None:
    """`_check_work` on a chain or cycle suite's word oracles before they list
    a word: up to 2^n exact patterns in each of 4^n cells, and `length` steps
    for each of the Fubini(length) words, read once and, for a cycle, once
    more by each of the 2^n sources. Outside 0 <= n < 64 the family refuses n."""
    if 0 <= n < 64:
        length = n if cyclic else n + 1
        _check_work(length << 3 * n)
        _check_work(length * _fubini(length) * (1 + (2**n if cyclic else 0)))


def suite_case1(ns: Sequence[int] = (2, 3, 4)) -> list[CheckResult]:
    """Fan worlds: permutation closed forms against brute matrices."""
    results: list[CheckResult] = []
    for n in ns:
        world, poly, mix = cases.fan_matrices(n)
        brute_poly, brute_mix = world_matrices(world)
        perms = [cases.fan_permutation(d) for d in world]
        closed_pt, closed_ft = cases.fan_traces(n)
        entries_ok = (
            poly.entries == brute_poly.entries and mix.entries == brute_mix.entries
        )
        traces_ok = (
            trace(brute_poly) == closed_pt
            and trace(brute_mix) == closed_ft == factorial(n - 1)
        )
        euler_ok = all(
            Counter(cases.minimal_colour_count(src, tgt) for tgt in perms)
            == {k: cases.eulerian(n, k) for k in range(1, n + 1)}
            for src in perms
        )
        results.append(
            CheckResult(
                f"fan entries n={n}",
                entries_ok,
                f"all {len(world)}^2 closed-form entries match brute force",
            )
        )
        results.append(
            CheckResult(
                f"fan traces n={n}",
                traces_ok,
                f"closed (n-1)! = {factorial(n - 1)} matches brute trace {trace(brute_mix)}; "
                f"trace(M) = {closed_pt}",
            )
        )
        results.append(
            CheckResult(
                f"fan multiplicities n={n}",
                euler_ok,
                "entry classes per row follow the Eulerian numbers",
            )
        )
    return results


def suite_case2(ns: Sequence[int] = (1, 2, 3)) -> list[CheckResult]:
    """Chain worlds: comparison-rule counts against brute matrices."""
    results: list[CheckResult] = []
    for n in ns:
        _check_oracle(n, cyclic=False)
        vectors, poly, mix = cases.chain_matrices(n)
        world = cases.chain_world(n)
        brute_poly, brute_mix = world_matrices(world)
        order = [world.index_of(cases.chain_diagram(v)) for v in vectors]
        entries_ok = all(
            poly.entries[a][b] == brute_poly.entries[order[a]][order[b]]
            and mix.entries[a][b] == brute_mix.entries[order[a]][order[b]]
            for a in range(len(vectors))
            for b in range(len(vectors))
        )
        splits_ok = _splits_agree(vectors, n + 1, cyclic=False)
        closed_pt, closed_ft = cases.chain_traces(n)
        traces_ok = trace(brute_poly) == closed_pt and trace(brute_mix) == closed_ft == 1
        results.append(
            CheckResult(
                f"chain entries n={n}",
                entries_ok,
                f"rule-counted entries match brute force on all {2 ** n}^2 pairs",
            )
        )
        results.append(
            CheckResult(
                f"chain exact-split expansion n={n}",
                splits_ok,
                "weak comparisons resolve into exact splits with equal counts",
            )
        )
        results.append(
            CheckResult(
                f"chain traces n={n}",
                traces_ok,
                f"closed trace(R) = 1 matches brute {trace(brute_mix)}; "
                f"trace(M) = {closed_pt}",
            )
        )
    stirling_ok = all(
        sum((-1) ** (k - i) * comb(k, i) * (i + 1) ** n for i in range(k + 1))
        == factorial(k) * cases.stirling2(n + 1, k + 1)
        for n in range(9)
        for k in range(n + 1)
    )
    results.append(
        CheckResult(
            "shifted Stirling identity",
            stirling_ok,
            "alternating binomial sum of (i+1)^n equals k! S(n+1, k+1) for n <= 8",
        )
    )
    return results


def suite_case3(ns: Sequence[int] = (2, 3), keys_max: int = 6) -> list[CheckResult]:
    """Cycle worlds: cyclic rule counts against identity-tracked restacks."""
    results: list[CheckResult] = []
    for n in ns:
        _check_oracle(n, cyclic=True)
        vectors, poly, mix = cases.cycle_matrices(n)
        brute: dict[tuple, Counter] = {src: Counter() for src in vectors}
        for k in range(1, n + 1):
            words = list(_surjections(n, k))
            for src in vectors:
                for word in words:
                    brute[src][cases.cycle_result_signs(src, word), k] += 1
        entries_ok = all(
            poly.entries[a][b] == IntPolynomial([0] + [brute[src][tgt, k] for k in range(1, n + 1)])
            for a, src in enumerate(vectors)
            for b, tgt in enumerate(vectors)
        )
        splits_ok = _splits_agree(vectors, n, cyclic=True)
        closed_pt, closed_ft = cases.cycle_traces(n)
        traces_ok = trace(poly) == closed_pt and trace(mix) == closed_ft == n + 1
        results.append(
            CheckResult(
                f"cycle entries n={n}",
                entries_ok,
                f"cyclic rule counts match restack enumeration on all {2 ** n}^2 sign pairs",
            )
        )
        results.append(
            CheckResult(
                f"cycle exact-split expansion n={n}",
                splits_ok,
                "cyclic weak comparisons resolve into exact splits with equal counts",
            )
        )
        results.append(
            CheckResult(
                f"cycle traces n={n}",
                traces_ok,
                f"closed trace(R) = {n + 1} matches sign-level trace {trace(mix)}; "
                f"trace(M) = {closed_pt}",
            )
        )
    adjacent = _Tally(
        "adjacent-distinct counts",
        f"alternating-sum formulas match enumeration for word lengths <= {keys_max}",
    )
    for n in range(1, keys_max + 1):
        for k in range(1, n + 1):
            words = [w for w in _surjections(n, k) if all(a != b for a, b in zip(w, w[1:]))]
            differ = sum(1 for w in words if w[0] != w[-1])
            direct = (len(words), differ, len(words) - differ)
            adjacent.check(cases.adjacent_distinct_counts(n, k) == direct, f"n={n} k={k}")
    results.append(adjacent.result())
    return results


def suite_transitive() -> list[CheckResult]:
    """Transitive detection, census and core-matrix round trips."""
    results: list[CheckResult] = []
    counts = [transitive.count_transitive(t) for t in (1, 2, 3)]
    results.append(
        CheckResult(
            "transitive counts",
            counts == [1, 2, 5],
            f"edge counts 1, 2, 3 give {counts} transitive worlds (expected [1, 2, 5])",
        )
    )
    series = [transitive.count_transitive(t) for t in range(1, 10)]
    listed = [len(transitive.transitive_matrices(t)) for t in range(1, 6)]
    ascents = [_ascent_sequences(t) for t in range(1, 10)]
    results.append(
        CheckResult(
            "census matches the Fishburn series",
            series[:5] == listed and series == ascents,
            f"the series gives {series} for 1..9 edges: the listing for <= 5 edges "
            "and the ascent sequences of each length agree",
        )
    )
    expected = {
        ((0, 3), (0, 0)),
        ((0, 2, 0), (0, 0, 1), (0, 0, 0)),
        ((0, 1, 1), (0, 0, 1), (0, 0, 0)),
        ((0, 1, 0), (0, 0, 2), (0, 0, 0)),
        ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
    }
    mats = transitive.transitive_matrices(3)
    results.append(
        CheckResult(
            "three-edge transitive matrices",
            set(mats) == expected,
            "the five listed represent matrices and no others",
        )
    )
    round_trip = _Tally(
        "core matrix round trip",
        "reattach inverts core_matrix on every transitive world with <= 4 edges",
    )
    for t in (1, 2, 3, 4):
        for rows in transitive.transitive_matrices(t):
            round_trip.check(transitive.reattach(transitive.core_matrix(rows)) == rows, repr(rows))
    results.append(round_trip.result())
    family_ok = all(
        transitive.is_transitive(enumeration.represent(cases.chain_world(n)))
        for n in range(0, 6)
    ) and all(
        transitive.is_transitive(enumeration.represent(cases.cycle_world(n)))
        for n in range(2, 6)
    )
    results.append(
        CheckResult(
            "chain and cycle transitivity",
            family_ok,
            "chain (n <= 5) and cycle (n <= 5) worlds are all transitive",
        )
    )
    return results


def _ascent_sequences(length: int) -> int:
    """Ascent sequences of the given length, listed one by one.

    x_1 = 0, and each later x_i is at most one more than the number of
    ascents x_j < x_(j+1) before it (Bousquet-Melou, Claesson, Dukes and
    Kitaev 2010).
    """

    def extend(size: int, last: int, ascents: int) -> int:
        if size == length:
            return 1
        return sum(extend(size + 1, x, ascents + (x > last)) for x in range(ascents + 2))

    return extend(1, 0, 0)


SUITES = {
    "structure": suite_structure,
    "posets": suite_posets,
    "counting": suite_counting,
    "case1": suite_case1,
    "case2": suite_case2,
    "case3": suite_case3,
    "transitive": suite_transitive,
}


def run_suite(name: str, n: int | None = None) -> list[CheckResult]:
    """Run one suite by CLI name, or every suite with name 'all'.

    `n` narrows the case suites to a single family size; the other
    suites ignore it.
    """
    if name == "all":
        results: list[CheckResult] = []
        for key in SUITES:
            results.extend(run_suite(key, n))
        return results
    if name not in SUITES:
        raise KeyError(name)
    if n is not None and name in ("case1", "case2", "case3"):
        return SUITES[name]((n,))
    return SUITES[name]()
