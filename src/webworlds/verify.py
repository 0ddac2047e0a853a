"""Cross-validation suites: closed formulas against brute enumeration.

Every suite recomputes the same quantity along two independent routes
and reports exact comparisons as CheckResult records. The library's
matrices come from a subset DP over ordered set partitions (see
webworlds.matrices); the structure check "colouring counts match
enumeration" compares them with the brute-force route, which visits
every surjective colouring of every member and restacks it. The other
checks set those matrices against a closed formula, series coefficient
or bijective count. The CLI's verify subcommand prints one line per
record and fails if any record fails.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial
from typing import Iterable, Sequence

from . import cases, enumeration, posets, transitive
from .diagram import (
    WebDiagram,
    WebWorld,
    apply_permutations,
    restack,
    surjection_tuples,
    validate_diagram,
    web_world,
)
from .errors import LabelNotOne, RepeatedBlocks
from .matrices import (
    IntPolynomial,
    is_idempotent,
    ordered_bell_polynomial,
    rank,
    row_sums,
    trace,
    world_matrices,
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


def _aggregate(name: str, checked: int, failures: list[str], ok_detail: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, f"{len(failures)} of {checked} failed, first: {failures[0]}")
    return CheckResult(name, True, f"{ok_detail} ({checked} instances)")


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
    brute-force twin of the subset DP in webworlds.matrices.
    """
    edge_count = world.edge_count
    size = len(world)
    counts = [[[0] * (edge_count + 1) for _ in range(size)] for _ in range(size)]
    index = world.index
    for row, diagram in enumerate(world):
        row_counts = counts[row]
        for colours in range(1, edge_count + 1):
            for assignment in surjection_tuples(edge_count, colours):
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
    direct colouring enumeration.
    """
    mix_rows_fail: list[str] = []
    poly_rows_fail: list[str] = []
    idem_fail: list[str] = []
    trace_fail: list[str] = []
    proper_fail: list[str] = []
    enumerated_fail: list[str] = []
    checked = 0
    enumerated = 0
    for rows in _sweep_matrices(max_pegs, max_edges):
        checked += 1
        world = web_world(enumeration.seed_diagram(rows))
        poly, mix = world_matrices(world)
        m = world.edge_count
        bell = ordered_bell_polynomial(m)
        expected = Fraction(1 if m == 1 else 0)
        if any(s != expected for s in row_sums(mix)):
            mix_rows_fail.append(repr(rows))
        if any(s != bell for s in row_sums(poly)):
            poly_rows_fail.append(repr(rows))
        if not is_idempotent(mix):
            idem_fail.append(repr(rows))
        t = trace(mix)
        r = rank(mix)
        if t != r or t.denominator != 1 or t < 0:
            trace_fail.append(f"{rows!r} trace={t} rank={r}")
        elif (t >= 1) != enumeration.is_proper(world[0]):
            proper_fail.append(f"{rows!r} trace={t}")
        if m <= ENUMERATION_EDGES:
            enumerated += 1
            brute = _enumerated_counts(world)
            if poly.rows != tuple(tuple(map(tuple, row)) for row in brute):
                enumerated_fail.append(repr(rows))
    scope = f"all worlds with <= {max_edges} edges, <= {max_pegs} pegs"
    return [
        _aggregate(
            "mixing row sums",
            checked,
            mix_rows_fail,
            f"row sums of R equal [edge count == 1] on {scope}",
        ),
        _aggregate(
            "colouring row sums",
            checked,
            poly_rows_fail,
            f"row sums of M equal the ordered Bell polynomial on {scope}",
        ),
        _aggregate(
            "idempotence", checked, idem_fail, f"R squared equals R on {scope}"
        ),
        _aggregate(
            "trace equals rank",
            checked,
            trace_fail,
            f"trace(R) = rank(R), a non-negative integer, on {scope}",
        ),
        _aggregate(
            "positive trace iff connected",
            checked,
            proper_fail,
            f"trace(R) >= 1 exactly on proper worlds within {scope}",
        ),
        _aggregate(
            "colouring counts match enumeration",
            enumerated,
            enumerated_fail,
            "every entry of M equals direct colouring enumeration on all worlds "
            f"with <= {min(ENUMERATION_EDGES, max_edges)} edges, <= {max_pegs} pegs",
        ),
    ]


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

    checked = 0
    eligible = 0
    failures: list[str] = []
    for rows in _sweep_matrices(max_pegs, max_edges):
        world = web_world(enumeration.seed_diagram(rows))
        poly, mix = world_matrices(world)
        checked += 1
        for i, diagram in enumerate(world):
            try:
                poset = posets.decomposition_poset(diagram)
                expected_poly = posets.diagonal_colouring_polynomial(poset)
                expected_mix = posets.diagonal_mixing_value(poset)
            except (LabelNotOne, RepeatedBlocks):
                continue
            eligible += 1
            if poly.entries[i][i] != expected_poly or mix.entries[i][i] != expected_mix:
                failures.append(f"{rows!r} member {i}")
    results.append(
        _aggregate(
            "diagonal descent formulas",
            eligible,
            failures,
            f"formula diagonals match brute force across {checked} worlds",
        )
    )

    failures = []
    instances = 0
    for poset in _SMALL_POSETS:
        for colours in range(1, 5):
            instances += 1
            direct_weak = _direct_order_preserving(poset, colours, surjective=False)
            direct_surj = _direct_order_preserving(poset, colours, surjective=True)
            if posets.order_preserving_count(poset, colours) != direct_weak:
                failures.append(f"weak {poset.strict_pairs()} m={colours}")
            if posets.surjective_order_preserving_count(poset, colours) != direct_surj:
                failures.append(f"surjective {poset.strict_pairs()} m={colours}")
    results.append(
        _aggregate(
            "order-preserving counts",
            instances,
            failures,
            "descent-sum and inclusion-exclusion counts match direct enumeration",
        )
    )
    return results


def _chain_poset(p: int) -> posets.DecompositionPoset:
    return posets.DecompositionPoset.from_relations(
        p, tuple((i, i + 1) for i in range(1, p))
    )


def _antichain_poset(p: int) -> posets.DecompositionPoset:
    return posets.DecompositionPoset.from_relations(p, ())


_SMALL_POSETS = (
    _chain_poset(1),
    _chain_poset(2),
    _chain_poset(3),
    _antichain_poset(2),
    _antichain_poset(3),
    posets.DecompositionPoset.from_relations(3, ((1, 2), (1, 3))),
    posets.DecompositionPoset.from_relations(3, ((1, 3), (2, 3))),
    posets.DecompositionPoset.from_relations(4, ((1, 2), (1, 3), (2, 4), (3, 4))),
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
    return {apply_permutations(diagram, family).edge_key() for family in families}


def suite_counting(
    orbit_edges: int = 4, max_pegs: int = 5, max_edges: int = 6
) -> list[CheckResult]:
    """World-size formula, world counts and the three-edge census."""
    results: list[CheckResult] = []

    failures: list[str] = []
    checked = 0
    for rows in enumeration.enumerate_worlds(
        2 * orbit_edges, orbit_edges, no_isolated=True
    ):
        if not any(any(r) for r in rows):
            continue
        checked += 1
        seed = enumeration.seed_diagram(rows)
        formula = enumeration.world_size(rows)
        orbit = len(_orbit_keys(seed))
        generated = len(web_world(seed))
        if not formula == orbit == generated:
            failures.append(f"{rows!r} formula={formula} orbit={orbit} generated={generated}")
    results.append(
        _aggregate(
            "world size formula",
            checked,
            failures,
            f"factorial formula = orbit closure = generated size for all worlds with <= {orbit_edges} edges",
        )
    )

    failures = []
    checked = 0
    for pegs in range(2, max_pegs + 1):
        for edges in range(max_edges + 1):
            for pairs in range(comb(pegs, 2) + 1):
                checked += 1
                direct = enumeration.count_worlds(pegs, edges, pairs)
                series = enumeration.count_worlds_series(pegs, edges, pairs)
                if direct != series:
                    failures.append(f"nww({pegs},{edges},{pairs}) {direct} != {series}")
    results.append(
        _aggregate(
            "world counts by pegs/edges/pairs",
            checked,
            failures,
            "direct enumeration matches series extraction",
        )
    )

    failures = []
    checked = 0
    for pegs in range(2, max_pegs + 1):
        for edges in range(1, max_edges + 1):
            for pairs in range(1, comb(pegs, 2) + 1):
                checked += 1
                closed = enumeration.count_worlds_no_isolated(pegs, edges, pairs)
                direct = enumeration.count_worlds_no_isolated_direct(pegs, edges, pairs)
                if closed != direct:
                    failures.append(f"nwwnip({pegs},{edges},{pairs}) {closed} != {direct}")
    results.append(
        _aggregate(
            "no-isolated-peg counts",
            checked,
            failures,
            "closed form matches direct enumeration",
        )
    )

    failures = []
    checked = 0
    for pegs in range(1, max_pegs + 1):
        for edges in range(max_edges + 1):
            for pairs in range(comb(pegs, 2) + 1):
                checked += 1
                series = enumeration.count_proper_worlds(pegs, edges, pairs)
                direct = enumeration.count_proper_worlds_direct(pegs, edges, pairs)
                if series != direct:
                    failures.append(f"npww({pegs},{edges},{pairs}) {series} != {direct}")
    results.append(
        _aggregate(
            "proper world counts",
            checked,
            failures,
            "logarithmic series matches direct connected enumeration",
        )
    )

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
    """Surjective words meeting one rule code per position, by exact splits.

    Every surjective word is classified by its exact comparison at each
    position; the count sums the exact patterns that the weak codes 2
    (>=) and 3 (<=) expand into. This needs no transfer matrix.
    """

    def split(word: tuple[int, ...]) -> tuple[int, ...]:
        pairs = zip(word, word[1:] + word[:1] if cyclic else word[1:])
        return tuple((a > b) - (a < b) for a, b in pairs)

    patterns = Counter(map(split, surjection_tuples(length, colours)))
    return sum(patterns[p] for p in product(*(_EXACT[c] for c in codes)))


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
        splits_ok = all(
            cases.chain_reconstruction_count(src, tgt, k)
            == _split_count(n + 1, k, cases.rule_codes(src, tgt), cyclic=False)
            for src in vectors
            for tgt in vectors
            for k in range(1, n + 2)
        )
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
        vectors, poly, mix = cases.cycle_matrices(n)
        brute: dict[tuple, Counter] = {src: Counter() for src in vectors}
        for src in vectors:
            for k in range(1, n + 1):
                for word in surjection_tuples(n, k):
                    brute[src][cases.cycle_result_signs(src, word), k] += 1
        entries_ok = True
        for a, src in enumerate(vectors):
            for b, tgt in enumerate(vectors):
                got = poly.entries[a][b]
                expected = IntPolynomial(
                    [0] + [brute[src][tgt, k] for k in range(1, n + 1)]
                )
                if got != expected:
                    entries_ok = False
        splits_ok = all(
            cases.cycle_reconstruction_count(src, tgt, k)
            == _split_count(n, k, cases.rule_codes(src, tgt), cyclic=True)
            for src in vectors
            for tgt in vectors
            for k in range(1, n + 1)
        )
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
    failures: list[str] = []
    checked = 0
    for n in range(1, keys_max + 1):
        for k in range(1, n + 1):
            checked += 1
            words = [
                w
                for w in surjection_tuples(n, k)
                if all(a != b for a, b in zip(w, w[1:]))
            ]
            direct = (
                len(words),
                sum(1 for w in words if w[0] != w[-1]),
                sum(1 for w in words if w[0] == w[-1]),
            )
            if cases.adjacent_distinct_counts(n, k) != direct:
                failures.append(f"n={n} k={k}")
    results.append(
        _aggregate(
            "adjacent-distinct counts",
            checked,
            failures,
            f"alternating-sum formulas match enumeration for word lengths <= {keys_max}",
        )
    )
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
    failures: list[str] = []
    checked = 0
    for t in (1, 2, 3, 4):
        for rows in transitive.transitive_matrices(t):
            checked += 1
            if transitive.reattach(transitive.core_matrix(rows)) != rows:
                failures.append(repr(rows))
    results.append(
        _aggregate(
            "core matrix round trip",
            checked,
            failures,
            "reattach inverts core_matrix on every transitive world with <= 4 edges",
        )
    )
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
