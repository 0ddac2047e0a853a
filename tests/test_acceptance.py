"""Acceptance criteria: eight end-to-end checks at exact equality.

Each test prints a single PASS or FAIL line (bypassing capture) naming
the criterion, what was checked, and the elapsed time. Every comparison
is exact: integer polynomials, fractions, and counts, never floats.
"""

import time
from collections import Counter
from fractions import Fraction

from webworlds import (
    Colouring,
    IntPolynomial,
    decompose,
    decomposition_poset,
    diagonal_colouring_polynomial,
    diagonal_mixing_value,
    reconstruct,
    represent,
    trace,
    validate_diagram,
    web_world,
    world_matrices,
    world_posets,
    world_size,
)
from webworlds.verify import (
    suite_case1,
    suite_case2,
    suite_case3,
    suite_counting,
    suite_structure,
    suite_transitive,
)

from conftest import NINE_EDGE_EDGES


def _criterion(capsys, number, label, limit_seconds, check):
    started = time.perf_counter()
    try:
        detail = check()
        elapsed = time.perf_counter() - started
        assert elapsed < limit_seconds, (
            f"took {elapsed:.1f}s, limit {limit_seconds}s"
        )
    except BaseException as exc:
        elapsed = time.perf_counter() - started
        with capsys.disabled():
            print(f"\nFAIL criterion {number} ({label}): {exc} [{elapsed:.1f}s]")
        raise
    with capsys.disabled():
        print(f"\nPASS criterion {number} ({label}): {detail} [{elapsed:.1f}s]")


def _run_suite(results):
    failures = [r for r in results if not r.passed]
    assert not failures, "; ".join(f"{r.name}: {r.detail}" for r in failures)
    return len(results)


def test_criterion_1_worked_example(capsys):
    def check():
        diagram = validate_diagram(((1, 2, 1, 1), (2, 3, 2, 1), (3, 4, 2, 1)), 4)
        world = web_world(diagram)
        assert len(world) == 4
        poly, mix = world_matrices(world)
        assert trace(poly) == IntPolynomial((0, 4, 10, 6))
        assert trace(mix) == Fraction(1)
        shapes = Counter(p.cover_pairs() for p in world_posets(world))
        assert shapes == Counter(
            {
                ((1, 2), (2, 3)): 2,
                ((1, 2), (1, 3)): 1,
                ((1, 3), (2, 3)): 1,
            }
        )
        return (
            "four-member world has trace(M) = 4x + 10x^2 + 6x^3, trace(R) = 1, "
            "and poset multiset {chain x2, vee, wedge}"
        )

    _criterion(capsys, 1, "worked example", 1.0, check)


def test_criterion_2_diagonal_formulas(capsys):
    def check():
        diagram = validate_diagram(((1, 2, 1, 1), (1, 3, 2, 1), (2, 4, 2, 1)), 4)
        world = web_world(diagram)
        poly, mix = world_matrices(world)
        i = world.index_of(diagram)
        poset = decomposition_poset(diagram)
        closed_poly = diagonal_colouring_polynomial(poset)
        closed_mix = diagonal_mixing_value(poset)
        assert poly.entries[i][i] == closed_poly == IntPolynomial((0, 1, 3, 2))
        assert mix.entries[i][i] == closed_mix == Fraction(1, 6)
        return (
            "three-block diagonal is x + 3x^2 + 2x^3 and 1/6 by brute force "
            "and by the descent formulas alike"
        )

    _criterion(capsys, 2, "diagonal formulas", 1.0, check)


def test_criterion_3_structure_theorems(capsys):
    def check():
        count = _run_suite(suite_structure(5, 5))
        return (
            f"{count} structure checks over every world with <= 5 pegs and "
            "<= 5 edges: colouring row sums are the ordered Bell polynomials; "
            "mixing row sums are 1 for single-edge worlds and 0 otherwise; "
            "R is idempotent with trace(R) = rank(R), a non-negative integer "
            "that is positive exactly when the web graph is connected; every "
            "entry of M on the worlds with <= 4 edges equals direct colouring "
            "enumeration"
        )

    _criterion(capsys, 3, "structure theorems", 300.0, check)


def test_criterion_4_fan_family(capsys):
    def check():
        count = _run_suite(suite_case1((2, 3, 4)))
        return (
            f"{count} checks for n = 2, 3, 4: every entry matches "
            "x^m (1+x)^(n-m) and (-1)^(m-1) / (n C(n-1, m-1)), traces match "
            "n! x (1+x)^(n-1) and (n-1)!, and entry classes per row follow "
            "the Eulerian numbers"
        )

    _criterion(capsys, 4, "fan closed forms", 120.0, check)


def test_criterion_5_chain_family(capsys):
    def check():
        count = _run_suite(suite_case2((1, 2, 3)))
        return (
            f"{count} checks for n = 1, 2, 3: trace(R) = 1, trace(M) matches "
            "the Stirling difference formula, and the comparison-rule counts "
            "match brute restacking on every diagram pair"
        )

    _criterion(capsys, 5, "chain closed forms", 120.0, check)


def test_criterion_6_cycle_family(capsys):
    def check():
        count = _run_suite(suite_case3((2, 3), keys_max=6))
        return (
            f"{count} checks for n = 2, 3: trace(R) = n + 1, trace(M) matches "
            "the Stirling formula, and the adjacent-distinct word counts "
            "match direct enumeration up to length 6"
        )

    _criterion(capsys, 6, "cycle closed forms", 180.0, check)


def test_criterion_7_counting(capsys):
    def check():
        count = _run_suite(suite_counting(4, 5, 6))
        count += _run_suite(suite_transitive())
        return (
            f"{count} checks: orbit sizes match the factorial formula up to "
            "4 edges, the three counting routes agree for <= 5 pegs and <= 6 "
            "edges, the 3-edge census finds 30 worlds, and exactly 5 of them "
            "are transitive with the pinned matrices"
        )

    _criterion(capsys, 7, "world counting", 300.0, check)


def test_criterion_8_nine_edge_walkthrough(capsys):
    def check():
        diagram = validate_diagram(NINE_EDGE_EDGES, 7)
        assert diagram.peg_heights == (2, 2, 2, 4, 2, 4, 2)
        rows = represent(diagram)
        assert rows == (
            (0, 1, 0, 0, 0, 0, 1),
            (0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 1, 0),
            (0, 0, 0, 0, 0, 2, 0),
            (0, 0, 0, 0, 0, 1, 1),
            (0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0),
        )
        assert world_size(rows) == 9216
        blocks = decompose(diagram)
        assert len(blocks) == 7
        by_label = {b.label: frozenset(tuple(e) for e in b.edges) for b in blocks}
        assert by_label[4] == frozenset(
            {(2, 4, 2, 3), (4, 6, 2, 3), (4, 6, 4, 2)}
        )
        edge_colour = {e: b.label for b in blocks for e in b.edges}
        assignment = tuple(edge_colour[e] for e in diagram.edges)
        assert reconstruct(diagram, Colouring(assignment, 7)) == diagram
        return (
            "nine-edge diagram validates with pegs (2,2,2,4,2,4,2), the "
            "pinned represent matrix, orbit size 9216 by formula, seven "
            "blocks with the expected three-edge block, and a "
            "self-reconstructing block colouring"
        )

    _criterion(capsys, 8, "nine-edge walkthrough", 10.0, check)
