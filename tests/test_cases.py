"""The three closed-form families and the word statistics behind them.

Oracles: direct word enumeration for rule counts (`conftest.rule_word_count`
against the exact-split count of `webworlds.verify`), brute
reconstruction via the generic matrix machinery, and classical
identities for the Stirling and Eulerian tables.
"""

import itertools
import math
from fractions import Fraction

import pytest
from conftest import rule_word_count

from webworlds import (
    Colouring,
    cases,
    IntPolynomial,
    chain_diagram,
    chain_matrices,
    chain_traces,
    cycle_diagram,
    cycle_matrices,
    cycle_traces,
    eulerian,
    fan_diagram,
    fan_matrices,
    fan_traces,
    reconstruct,
    stirling2,
    trace,
    validate_diagram,
    web_world,
    world_matrices,
)
from webworlds.cases import (
    adjacent_distinct_counts,
    chain_reconstruction_count,
    chain_world,
    cycle_reconstruction_count,
    cycle_result_signs,
    cycle_world,
    fan_permutation,
    fan_world,
    minimal_colour_blocks,
    minimal_colour_count,
    rule_codes,
    sign_vectors,
)
from webworlds.errors import BadRange, LengthMismatch
from webworlds.verify import _split_count, suite_case2, suite_case3


# ---------------------------------------------------------------------------
# Number tables.
# ---------------------------------------------------------------------------


def test_stirling_numbers():
    assert stirling2(3, 2) == 3
    assert stirling2(5, 3) == 25
    for n in range(1, 8):
        assert stirling2(n, 1) == 1
        assert stirling2(n, n) == 1
        for k in range(1, n):
            assert stirling2(n + 1, k + 1) == (k + 1) * stirling2(n, k + 1) + stirling2(n, k)


def test_eulerian_numbers():
    assert [eulerian(3, k) for k in (1, 2, 3)] == [1, 4, 1]
    for n in range(1, 7):
        assert eulerian(n, 1) == 1
        assert sum(eulerian(n, k) for k in range(1, n + 1)) == math.factorial(n)


def test_shifted_stirling_identity():
    # Alternating binomial sum of (i+1)^n collapses to a Stirling column.
    for n in range(0, 7):
        for k in range(0, n + 1):
            lhs = sum(
                (-1) ** (k - i) * math.comb(k, i) * (i + 1) ** n for i in range(k + 1)
            )
            assert lhs == math.factorial(k) * stirling2(n + 1, k + 1)


# ---------------------------------------------------------------------------
# Word utilities.
# ---------------------------------------------------------------------------


def test_minimal_colouring_pinned_example():
    source = (2, 8, 5, 4, 1, 3, 7, 6)
    target = (8, 5, 1, 4, 3, 7, 2, 6)
    assert minimal_colour_blocks(source, target) == ((8, 5, 1), (4, 3, 7), (2, 6))
    assert minimal_colour_count(source, target) == 3


def test_minimal_colouring_reconstructs_the_target():
    for source in itertools.permutations(range(1, 4)):
        for target in itertools.permutations(range(1, 4)):
            blocks = minimal_colour_blocks(source, target)
            # letter v labels edge v of the source fan, on peg v
            colour = {v: c for c, block in enumerate(blocks, 1) for v in block}
            colouring = Colouring(tuple(colour[v] for v in range(1, 4)), len(blocks))
            assert reconstruct(fan_diagram(source), colouring) == fan_diagram(target)


def test_adjacent_distinct_counts_pinned_and_brute():
    assert adjacent_distinct_counts(3, 2) == (2, 0, 2)
    assert adjacent_distinct_counts(1, 1) == (1, 0, 1)
    for n in range(2, 6):
        assert adjacent_distinct_counts(n, 1) == (0, 0, 0)
    for n in range(1, 6):
        for k in range(1, n + 1):
            words = [
                w
                for w in itertools.product(range(1, k + 1), repeat=n)
                if set(w) == set(range(1, k + 1))
                and all(a != b for a, b in zip(w, w[1:]))
            ]
            differ = sum(1 for w in words if w[0] != w[-1])
            expected = (len(words), differ, len(words) - differ)
            assert adjacent_distinct_counts(n, k) == expected


def test_exact_split_word_count_matches_enumeration():
    # every code tuple of 1..4 positions, path and cycle, every colour count
    for positions in range(1, 5):
        for codes in itertools.product(range(1, 5), repeat=positions):
            for cyclic in (False, True):
                length = positions if cyclic else positions + 1
                for colours in range(1, length + 1):
                    assert _split_count(length, colours, codes, cyclic) == rule_word_count(
                        length, colours, codes, cyclic
                    ), (codes, cyclic, colours)


def test_exact_split_checks_catch_wrong_rule_counts(monkeypatch):
    true_counts = cases.surjective_rule_counts

    def off_by_one(length, rules, cyclic):
        return tuple(c + 1 for c in true_counts(length, rules, cyclic))

    monkeypatch.setattr(cases, "surjective_rule_counts", off_by_one)
    for results in (suite_case2((2,)), suite_case3((3,))):
        splits = [r for r in results if "exact-split expansion" in r.name]
        assert len(splits) == 1 and not splits[0].passed


def test_comparison_rules_group_mapping():
    # (source, target) signs (1, 1) -> <=, (1, -1) -> >, (-1, 1) -> <, (-1, -1) -> >=
    assert rule_codes((1, 1, -1, -1), (1, -1, 1, -1)) == (3, 1, 4, 2)
    with pytest.raises(LengthMismatch):
        rule_codes((1,), (1, -1))


# ---------------------------------------------------------------------------
# Fan worlds (one tall peg).
# ---------------------------------------------------------------------------


def test_fan_diagram_round_trip():
    for n in range(1, 5):
        for perm in itertools.permutations(range(1, n + 1)):
            diagram = fan_diagram(perm)
            assert diagram.num_pegs == n + 1
            assert fan_permutation(diagram) == perm
    with pytest.raises(BadRange):
        fan_permutation(validate_diagram(((1, 2, 1, 1), (3, 4, 1, 1))))


def test_fan_world_collects_all_permutations():
    world = fan_world(3)
    assert len(world) == 6
    perms = {fan_permutation(d) for d in world}
    assert perms == set(itertools.permutations(range(1, 4)))


def test_fan_entries_against_brute_force():
    world, poly, mix = fan_matrices(3)
    brute_poly, brute_mix = world_matrices(world)
    assert poly.entries == brute_poly.entries
    assert mix.entries == brute_mix.entries


def test_fan_reconstruction_count_is_binomial():
    world, poly, _ = fan_matrices(3)
    perms = [fan_permutation(d) for d in world]
    for i, source in enumerate(perms):
        for j, target in enumerate(perms):
            m = minimal_colour_count(source, target)
            for colours in range(1, 4):
                assert poly.entries[i][j].coefficient(colours) == (
                    math.comb(3 - m, colours - m) if colours >= m else 0
                )


def test_fan_two_element_matrices():
    _, poly, mix = fan_matrices(2)
    x = IntPolynomial((0, 1))
    x2 = IntPolynomial((0, 0, 1))
    assert poly.entries == (
        (x + x2, x2),
        (x2, x + x2),
    )
    half = Fraction(1, 2)
    assert mix.entries == ((half, -half), (-half, half))


def test_fan_entry_closed_forms():
    world, poly, mix = fan_matrices(3)
    source = world.index_of(fan_diagram((1, 2, 3)))
    assert poly.entries[source][source] == IntPolynomial((0, 1, 2, 1))
    assert mix.entries[source][source] == Fraction(1, 3)
    reverse = world.index_of(fan_diagram((3, 2, 1)))
    assert poly.entries[source][reverse] == IntPolynomial((0, 0, 0, 1))
    assert mix.entries[source][reverse] == Fraction(1, 3)


def test_fan_traces_closed_forms():
    poly_trace, mix_trace = fan_traces(3)
    assert poly_trace == IntPolynomial((0, 6, 12, 6))
    assert mix_trace == Fraction(2)
    world, poly, mix = fan_matrices(3)
    assert trace(poly) == poly_trace
    assert trace(mix) == mix_trace


# ---------------------------------------------------------------------------
# Chain worlds (signs on the interior pegs of a path).
# ---------------------------------------------------------------------------


def test_chain_diagram_encoding():
    assert chain_diagram((1,)) == validate_diagram(((1, 2, 1, 1), (2, 3, 2, 1)))
    assert chain_diagram((-1,)) == validate_diagram(((1, 2, 1, 2), (2, 3, 1, 1)))
    assert chain_diagram(()) == validate_diagram(((1, 2, 1, 1),))
    with pytest.raises(BadRange):
        chain_diagram((0,))


def test_chain_two_is_the_path4_world(path4):
    world = chain_world(2)
    assert set(world) == set(web_world(path4))


def test_chain_counts_match_brute_restack():
    # f counts by comparison rules must agree with restacking the
    # concrete diagrams through the generic machinery.
    for n in (1, 2):
        vectors = sign_vectors(n)
        world = chain_world(n)
        poly, _ = world_matrices(world)
        for source in vectors:
            i = world.index_of(chain_diagram(source))
            for target in vectors:
                j = world.index_of(chain_diagram(target))
                for colours in range(1, n + 2):
                    f = chain_reconstruction_count(source, target, colours)
                    assert f == poly.entries[i][j].coefficient(colours)
                    codes = rule_codes(source, target)
                    assert f == _split_count(n + 1, colours, codes, cyclic=False)


def test_chain_matrices_and_traces():
    vectors, poly, mix = chain_matrices(2)
    assert vectors == ((1, 1), (1, -1), (-1, 1), (-1, -1))
    closed_poly, closed_mix = chain_traces(2)
    assert trace(poly) == closed_poly == IntPolynomial((0, 4, 10, 6))
    assert trace(mix) == closed_mix == Fraction(1)
    for n in (0, 1, 3):
        _, poly_n, mix_n = chain_matrices(n)
        poly_t, mix_t = chain_traces(n)
        assert trace(poly_n) == poly_t
        assert trace(mix_n) == mix_t == Fraction(1)


def test_chain_single_edge_case():
    _, poly, mix = chain_matrices(0)
    assert poly.entries == ((IntPolynomial((0, 1)),),)
    assert mix.entries == ((Fraction(1),),)


# ---------------------------------------------------------------------------
# Cycle worlds (signs around a ring of pegs).
# ---------------------------------------------------------------------------


def test_cycle_diagram_encoding():
    signs = (-1, 1, -1, 1, 1, 1)
    diagram = cycle_diagram(signs)
    assert diagram.num_pegs == 6
    wrap = [e for e in diagram.edges if (e.left_peg, e.right_peg) == (1, 6)]
    assert wrap == [(1, 6, 2, 2)]
    with pytest.raises(BadRange):
        cycle_diagram((1,))


def test_cycle_sign_vectors_round_trip():
    for n in (2, 3, 4):
        assert set(cycle_world(n)) == {cycle_diagram(signs) for signs in sign_vectors(n)}
    # Two pegs give a doubled cover: two sign vectors per diagram.
    assert len(cycle_world(2)) == 2
    assert len(cycle_world(3)) == 8
    assert len(cycle_world(4)) == 16


def test_cycle_result_signs_identity_assignment():
    for signs in sign_vectors(3):
        assert cycle_result_signs(signs, (1, 1, 1)) == signs


def test_cycle_counts_match_brute_restack():
    # Sign-level brute force: count surjective words whose restack of
    # the source diagram lands on the target sign vector.
    for n in (2, 3):
        vectors = sign_vectors(n)
        for source in vectors:
            for target in vectors:
                for colours in range(1, n + 1):
                    brute = sum(
                        1
                        for word in itertools.product(
                            range(1, colours + 1), repeat=n
                        )
                        if set(word) == set(range(1, colours + 1))
                        and cycle_result_signs(source, word) == target
                    )
                    f = cycle_reconstruction_count(source, target, colours)
                    assert f == brute
                    codes = rule_codes(source, target)
                    assert f == _split_count(n, colours, codes, cyclic=True)


def test_cycle_matrices_and_traces():
    for n in (2, 3):
        vectors, poly, mix = cycle_matrices(n)
        assert vectors == sign_vectors(n)
        closed_poly, closed_mix = cycle_traces(n)
        assert trace(poly) == closed_poly
        assert trace(mix) == closed_mix == Fraction(n + 1)
    assert cycle_traces(3)[0] == IntPolynomial((0, 8, 12, 6))
    with pytest.raises(BadRange):
        cycle_matrices(1)
