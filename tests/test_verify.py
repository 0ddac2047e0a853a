"""The verify suites' report lines, and the failure report of each tally.

Oracles: the report lines of the small suites, pinned byte for byte, so
that a change to any check's scope, oracle, instance count or text
shows; and one fault injected into one library route at a time, which
must fail exactly its check with `k of N failed, first: ...`, N being
the instance count of its PASS line.
"""

import pytest

from webworlds import cases, posets, transitive, verify

# (suite, arguments) -> every line the suite reports, in order
PINNED = {
    ("suite_structure", (3, 3)): [
        "PASS mixing row sums: row sums of R equal [edge count == 1] on all worlds with <= 3 edges,"
        " <= 3 pegs (13 instances)",
        "PASS colouring row sums: row sums of M equal the ordered Bell polynomial on all worlds "
        "with <= 3 edges, <= 3 pegs (13 instances)",
        "PASS idempotence: R squared equals R on all worlds with <= 3 edges, <= 3 pegs (13 instances)",
        "PASS trace equals rank: trace(R) = rank(R), a non-negative integer, on all worlds with <= "
        "3 edges, <= 3 pegs (13 instances)",
        "PASS positive trace iff connected: trace(R) >= 1 exactly on proper worlds within all "
        "worlds with <= 3 edges, <= 3 pegs (13 instances)",
        "PASS colouring counts match enumeration: every entry of M equals direct colouring "
        "enumeration on all worlds with <= 3 edges, <= 3 pegs (13 instances)",
        "PASS fixed-point traces match matrix traces: the fixed-point DP gives trace(M) and "
        "trace(R) on the worlds without parallel edges within all worlds with <= 3 edges, <= 3 pegs"
        " (5 instances)",
        "PASS kernel diagonals match matrices: the single-target kernel gives every diagonal entry "
        "of M on all worlds with <= 3 edges, <= 3 pegs (13 instances)",
    ],
    ("suite_posets", ()): [
        "PASS four-peg path world: size 4, trace(M) 4x + 10x^2 + 6x^3, trace(R) 1, poset multiset "
        "{chain: 2, join: 1, meet: 1}",
        "PASS three-block diagonal: M diagonal x + 3x^2 + 2x^3, R diagonal 1/6, formulas agree with"
        " brute force",
        "PASS diagonal descent formulas: formula diagonals match brute force across 378 worlds "
        "(2832 instances)",
        "PASS order-preserving counts: descent-sum and inclusion-exclusion counts match direct "
        "enumeration (32 instances)",
    ],
    ("suite_counting", (1, 3, 2)): [
        "PASS world size formula: factorial formula = orbit closure = generated size for all worlds"
        " with <= 1 edges (1 instances)",
        "PASS world counts by pegs/edges/pairs: direct enumeration matches series extraction (18 "
        "instances)",
        "PASS no-isolated-peg counts: closed form matches direct enumeration (8 instances)",
        "PASS proper world counts: logarithmic series matches direct connected enumeration (21 "
        "instances)",
        "PASS three-edge census: worlds with exactly 3 edges and no isolated pegs: 30 (expected 30)",
    ],
    ("suite_case1", ()): [
        "PASS fan entries n=2: all 2^2 closed-form entries match brute force",
        "PASS fan traces n=2: closed (n-1)! = 1 matches brute trace 1; trace(M) = 2x + 2x^2",
        "PASS fan multiplicities n=2: entry classes per row follow the Eulerian numbers",
        "PASS fan entries n=3: all 6^2 closed-form entries match brute force",
        "PASS fan traces n=3: closed (n-1)! = 2 matches brute trace 2; trace(M) = 6x + 12x^2 + 6x^3",
        "PASS fan multiplicities n=3: entry classes per row follow the Eulerian numbers",
        "PASS fan entries n=4: all 24^2 closed-form entries match brute force",
        "PASS fan traces n=4: closed (n-1)! = 6 matches brute trace 6; trace(M) = 24x + 72x^2 + "
        "72x^3 + 24x^4",
        "PASS fan multiplicities n=4: entry classes per row follow the Eulerian numbers",
    ],
    ("suite_case2", ()): [
        "PASS chain entries n=1: rule-counted entries match brute force on all 2^2 pairs",
        "PASS chain exact-split expansion n=1: weak comparisons resolve into exact splits with "
        "equal counts",
        "PASS chain traces n=1: closed trace(R) = 1 matches brute 1; trace(M) = 2x + 2x^2",
        "PASS chain entries n=2: rule-counted entries match brute force on all 4^2 pairs",
        "PASS chain exact-split expansion n=2: weak comparisons resolve into exact splits with "
        "equal counts",
        "PASS chain traces n=2: closed trace(R) = 1 matches brute 1; trace(M) = 4x + 10x^2 + 6x^3",
        "PASS chain entries n=3: rule-counted entries match brute force on all 8^2 pairs",
        "PASS chain exact-split expansion n=3: weak comparisons resolve into exact splits with "
        "equal counts",
        "PASS chain traces n=3: closed trace(R) = 1 matches brute 1; trace(M) = 8x + 38x^2 + 54x^3 "
        "+ 24x^4",
        "PASS shifted Stirling identity: alternating binomial sum of (i+1)^n equals k! S(n+1, k+1) "
        "for n <= 8",
    ],
    ("suite_case3", ()): [
        "PASS cycle entries n=2: cyclic rule counts match restack enumeration on all 4^2 sign pairs",
        "PASS cycle exact-split expansion n=2: cyclic weak comparisons resolve into exact splits "
        "with equal counts",
        "PASS cycle traces n=2: closed trace(R) = 3 matches sign-level trace 3; trace(M) = 4x + 2x^2",
        "PASS cycle entries n=3: cyclic rule counts match restack enumeration on all 8^2 sign pairs",
        "PASS cycle exact-split expansion n=3: cyclic weak comparisons resolve into exact splits "
        "with equal counts",
        "PASS cycle traces n=3: closed trace(R) = 4 matches sign-level trace 4; trace(M) = 8x + "
        "12x^2 + 6x^3",
        "PASS adjacent-distinct counts: alternating-sum formulas match enumeration for word lengths"
        " <= 6 (21 instances)",
    ],
    ("suite_transitive", ()): [
        "PASS transitive counts: edge counts 1, 2, 3 give [1, 2, 5] transitive worlds (expected [1,"
        " 2, 5])",
        "PASS census matches the Fishburn series: the series gives [1, 2, 5, 15, 53, 217, 1014, "
        "5335, 31240] for 1..9 edges: the listing for <= 5 edges and the ascent sequences of each "
        "length agree",
        "PASS three-edge transitive matrices: the five listed represent matrices and no others",
        "PASS core matrix round trip: reattach inverts core_matrix on every transitive world with "
        "<= 4 edges (23 instances)",
        "PASS chain and cycle transitivity: chain (n <= 5) and cycle (n <= 5) worlds are all transitive",
    ],
}


@pytest.mark.parametrize("suite, args", sorted(PINNED), ids=[name for name, _ in sorted(PINNED)])
def test_suite_lines_are_pinned(suite, args):
    results = getattr(verify, suite)(*args)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    assert lines == PINNED[suite, args]


def failed_only(results, name):
    """The detail of check `name`, which must be the one check that failed."""
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [name]
    return failed[0].detail


def test_trace_equals_rank_reports_each_failed_world(monkeypatch):
    right = verify.rank
    monkeypatch.setattr(verify, "rank", lambda matrix: right(matrix) + (len(matrix.rows) > 2))
    detail = failed_only(verify.suite_structure(3, 3), "trace equals rank")
    assert detail == "8 of 13 failed, first: ((0, 3), (0, 0)) trace=4 rank=5"


def test_diagonal_descent_formulas_report_each_failed_member(monkeypatch):
    right = posets.diagonal_mixing_value
    monkeypatch.setattr(posets, "diagonal_mixing_value", lambda poset: right(poset) + (poset.size == 3))
    results = {r.name: r for r in verify.suite_posets()}
    assert not results["three-block diagonal"].passed
    detail = results["diagonal descent formulas"].detail
    assert detail == "600 of 2832 failed, first: ((0, 1, 1), (0, 0, 1), (0, 0, 0)) member 0"


def test_order_preserving_counts_fail_once_per_poset_and_colour_count(monkeypatch):
    # the surjective count is wrong from 2 colours on and the weak count at 3: 24 of 8 x 4 instances
    weak, surjective = posets.order_preserving_count, posets.surjective_order_preserving_count
    monkeypatch.setattr(posets, "order_preserving_count", lambda p, m: weak(p, m) + (m == 3))
    monkeypatch.setattr(posets, "surjective_order_preserving_count", lambda p, m: surjective(p, m) + (m >= 2))
    # the check does not depend on the sweep, so a small one will do
    detail = failed_only(verify.suite_posets(3, 2), "order-preserving counts")
    assert detail == "24 of 32 failed, first: surjective () m=2"
    monkeypatch.setattr(posets, "surjective_order_preserving_count", surjective)
    detail = failed_only(verify.suite_posets(3, 2), "order-preserving counts")
    assert detail == "8 of 32 failed, first: weak () m=3"


def test_world_size_formula_reports_each_failed_world(monkeypatch):
    assert verify.suite_counting(2, 3, 2)[0].detail.endswith("<= 2 edges (8 instances)")
    right = verify._orbit_keys
    monkeypatch.setattr(verify, "_orbit_keys", lambda d: right(d) if d.edge_count < 2 else set())
    detail = failed_only(verify.suite_counting(2, 3, 2), "world size formula")
    assert detail == "7 of 8 failed, first: ((0, 2), (0, 0)) formula=2 orbit=0 generated=2"


def test_adjacent_distinct_counts_report_each_failed_cell(monkeypatch):
    right = cases.adjacent_distinct_counts
    monkeypatch.setattr(cases, "adjacent_distinct_counts", lambda n, k: right(n, k) if n != 4 else (0, 0, 0))
    detail = failed_only(verify.suite_case3((2,)), "adjacent-distinct counts")
    # with one colour no word of length 4 has distinct neighbours, so k = 1 still passes
    assert detail == "3 of 21 failed, first: n=4 k=2"


def test_core_matrix_round_trip_reports_each_failed_world(monkeypatch):
    right = transitive.reattach
    monkeypatch.setattr(transitive, "reattach", lambda core: right(core) if len(core) < 3 else ())
    detail = failed_only(verify.suite_transitive(), "core matrix round trip")
    assert detail == "9 of 23 failed, first: ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))"
