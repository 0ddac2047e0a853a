"""The three closed-form families and the word statistics behind them.

Oracles: direct word enumeration for rule counts (`conftest.rule_word_count`
against the exact-split count of `webworlds.verify`), brute
reconstruction via the generic matrix machinery, and classical
identities for the Stirling and Eulerian tables.
"""

import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from conftest import PATH4_EDGES, rule_word_count

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
    decomposition_poset,
    eulerian,
    fan_diagram,
    fan_matrices,
    fan_traces,
    order_preserving_count,
    reconstruct,
    stirling2,
    surjective_order_preserving_count,
    trace,
    validate_diagram,
    web_world,
    world_matrices,
)
from webworlds.cases import (
    adjacent_distinct_counts,
    chain_world,
    cycle_result_signs,
    cycle_world,
    fan_permutation,
    fan_world,
    minimal_colour_blocks,
    minimal_colour_count,
    rule_codes,
    sign_vectors,
    surjective_rule_counts,
    validate_signs,
)
from webworlds.errors import BadRange, LengthMismatch, MalformedInput, WorldTooLarge
from webworlds import diagram, matrices
from webworlds.matrices import ONE, X, matrix_to_csv, matrix_to_json, reconstruction_count
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


def test_minimal_colouring_needs_equal_sizes():
    with pytest.raises(LengthMismatch, match="permutation sizes differ: 2 vs 3"):
        minimal_colour_blocks((2, 1), (1, 2, 3))


def test_minimal_colouring_needs_a_fan():
    # like fan_diagram(()), no fan has zero edges
    for split in (minimal_colour_blocks, minimal_colour_count):
        with pytest.raises(BadRange, match="a fan needs at least one edge"):
            split((), ())


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


def _fan_rows_cell_by_cell(n):
    """M's and R's rows of the fan, every cell looked up alone in a descent table over the n! values of q."""
    perms = [fan_permutation(d) for d in fan_world(n)]
    denom = math.lcm(*range(1, n + 1))
    entries = [
        ((X**m * (ONE + X) ** (n - m)).coeffs, (-1) ** (m - 1) * (denom // (m * math.comb(n, m))))
        for m in range(1, n + 1)
    ]
    table = {
        q: entries[sum(a > b for a, b in zip(q, q[1:]))] for q in itertools.permutations(range(1, n + 1))
    }
    poly_rows, mix_rows = [], []
    for source in perms:
        position = {v: i for i, v in enumerate(source, 1)}
        poly_row, mix_row = zip(*[table[tuple(position[v] for v in target)] for target in perms])
        poly_rows.append(poly_row)
        mix_rows.append(mix_row)
    return tuple(poly_rows), tuple(mix_rows), denom


@pytest.mark.parametrize("n", range(1, 6))
def test_fan_rows_match_the_cell_by_cell_descent_table(n):
    _, poly, mix = fan_matrices(n)
    assert (poly.rows, mix.rows, mix.denominator) == _fan_rows_cell_by_cell(n)


def test_fan_six_matches_the_generic_matrices_cell_for_cell():
    world, poly, mix = fan_matrices(6)
    generic_poly, generic_mix = world_matrices(world)
    assert poly.rows == generic_poly.rows
    assert (mix.rows, mix.denominator) == (generic_mix.rows, generic_mix.denominator)


def test_fan_five_exports_are_pinned():
    # sha256 of json(M), json(R), csv(M), csv(R), as the closed_forms benchmark pins them
    _, poly, mix = fan_matrices(5)
    texts = [json.dumps(matrix_to_json(m)) for m in (poly, mix)] + [matrix_to_csv(m) for m in (poly, mix)]
    assert [hashlib.sha256(text.encode()).hexdigest() for text in texts] == [
        "15ed42c9f989bc1406048506a73c9eee36977aed695a99e1e03b73f87e977ace",
        "124725593e0bec0c04a50a16c701d9ee13f659850b52c09d05f067629724cfa6",
        "fe38b55d046ad398dd05449920897873f871c4cae7731ed6c115addd76894c38",
        "45f29a3ecbd0662088810c1fdfe7e7cd11674fd25697e98e2590523d575657b6",
    ]


def test_fan_matrices_stay_independent_of_the_generic_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fan closed form used the generic matrix route")

    for name in ("_symmetry_generators", "_SubsetDP", "_colouring_counts"):
        monkeypatch.setattr(matrices, name, refuse)
    monkeypatch.setattr(diagram, "_symmetry_generators", refuse)
    world, poly, mix = fan_matrices(4)
    assert (poly.rows, mix.rows, mix.denominator) == _fan_rows_cell_by_cell(4)


@pytest.mark.parametrize("n", range(1, 7))
def test_fan_world_starts_at_the_identity_fan(n):
    assert fan_world(n).keys[0] == fan_diagram(range(1, n + 1)).edges


def test_fan_matrices_read_heights_without_decoding_members(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fan_matrices decoded a member")

    monkeypatch.setattr(cases, "fan_permutation", refuse)
    _, poly, mix = fan_matrices(5)
    monkeypatch.undo()
    assert (poly.rows, mix.rows, mix.denominator) == _fan_rows_cell_by_cell(5)


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


@pytest.mark.parametrize(
    "traces, n, message",
    [
        (fan_traces, 10**6, "1000000000000 estimated counting steps"),
        (fan_traces, 2000, "an answer of up to 6338 digits exceeds the 4300-digit limit"),
        (chain_traces, 800, "161605255 estimated counting steps"),
        (cycle_traces, 2000, "1378440250 estimated counting steps"),
        (cycle_traces, 10**3000, r"over 2\^29904 estimated counting steps"),
    ],
    ids=["fan-work", "fan-digits", "chain-work", "cycle-work", "cycle-3001-digits"],
)
def test_closed_form_traces_guard_work_and_digits(traces, n, message):
    with pytest.raises(WorldTooLarge, match=message):
        traces(n)


@pytest.mark.parametrize("matrices", [fan_matrices, chain_matrices, cycle_matrices])
def test_family_matrices_refuse_huge_n_before_sizing_it(matrices):
    with pytest.raises(WorldTooLarge, match=r"n = 64 gives over 2\^62 members"):
        matrices(64)
    with pytest.raises(WorldTooLarge, match="matrix exceeds the 4000000-entry guard"):
        matrices(63)


def test_sign_and_rule_values_are_not_coerced():
    calls = [
        lambda: validate_signs((1.0,)),
        lambda: chain_diagram((1.0,)),
        lambda: chain_diagram((True,)),
        lambda: rule_codes((1.0, 1), (1, -1)),
        lambda: surjective_rule_counts(2, (True,), cyclic=False),
        lambda: surjective_rule_counts(2, (1.0,), cyclic=False),
        lambda: surjective_rule_counts(True, (), cyclic=False),
        lambda: surjective_rule_counts(2.0, (1,), cyclic=False),
    ]
    for call in calls:
        with pytest.raises(MalformedInput, match="must be an integer"):
            call()
    # integers out of range stay range errors
    for call in (
        lambda: validate_signs((2,)),
        lambda: surjective_rule_counts(2, (5,), cyclic=False),
    ):
        with pytest.raises(BadRange):
            call()


def _path4():
    return validate_diagram(PATH4_EDGES, 4)


# each count argument that is read as an integer, by the call that reads it
COUNT_ARGUMENTS = {
    "reconstruction_count": lambda v: reconstruction_count(_path4(), _path4(), v),
    "order_preserving_count": lambda v: order_preserving_count(decomposition_poset(_path4()), v),
    "surjective_order_preserving_count": lambda v: surjective_order_preserving_count(
        decomposition_poset(_path4()), v
    ),
    "stirling2_n": lambda v: stirling2(v, 1),
    "stirling2_k": lambda v: stirling2(2, v),
    "eulerian_n": lambda v: eulerian(v, 1),
    "eulerian_k": lambda v: eulerian(2, v),
    "fan_matrices": fan_matrices,
    "chain_matrices": chain_matrices,
    "cycle_matrices": cycle_matrices,
    "fan_traces": fan_traces,
    "chain_traces": chain_traces,
    "cycle_traces": cycle_traces,
}


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("call", sorted(COUNT_ARGUMENTS))
def test_count_arguments_refuse_bool_and_float(call, value):
    with pytest.raises(MalformedInput, match="must be an integer"):
        COUNT_ARGUMENTS[call](value)


@pytest.mark.parametrize(
    "matrices, n, work",
    [(chain_matrices, 9, 144179200), (cycle_matrices, 8, 106954752)],
    ids=["chain", "cycle"],
)
def test_family_work_guard_refuses_before_any_push(monkeypatch, matrices, n, work):
    def no_push(vector, rule):
        raise AssertionError("pushed a vector past the work guard")

    monkeypatch.setattr(cases, "_push", no_push)
    with pytest.raises(WorldTooLarge, match=f"{work} estimated counting steps exceed"):
        matrices(n)


@pytest.mark.parametrize(
    "length, cyclic, work", [(105, True, 41097525), (431, False, 40124376)], ids=["cycle", "path"]
)
def test_rule_counts_work_guard_refuses_before_any_push(monkeypatch, length, cyclic, work):
    def no_push(vector, rule):
        raise AssertionError("pushed a vector past the work guard")

    monkeypatch.setattr(cases, "_push", no_push)
    rules = (1,) * (length if cyclic else length - 1)
    with pytest.raises(WorldTooLarge, match=f"{work} estimated counting steps exceed"):
        surjective_rule_counts(length, rules, cyclic)
    # one letter shorter is within the guard and reaches the walk
    monkeypatch.setattr(cases, "_surjective_walk", lambda *args: [(0, 1)])
    assert surjective_rule_counts(length - 1, rules[1:], cyclic) == (1,)


def test_rule_walk_keeps_one_level_of_vectors():
    # a walk that never branches needs one level of start vectors at a time:
    # about 0.5 MB traced here, against 6.4 MB for all 30 levels at once
    tracemalloc.start()
    try:
        counts = surjective_rule_counts(30, (2,) * 30, cyclic=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a weakly descending cyclic word is constant
    assert counts == (1,) + (0,) * 29
    assert peak < 2_000_000


def test_sign_matrices_match_word_enumeration():
    families = [(chain_matrices, n, False) for n in range(4)]
    families += [(cycle_matrices, n, True) for n in range(2, 5)]
    for matrices, n, cyclic in families:
        vectors, poly, _ = matrices(n)
        length = n if cyclic else n + 1
        for src, row in zip(vectors, poly.rows):
            for tgt, cell in zip(vectors, row):
                codes = rule_codes(src, tgt)
                expected = [rule_word_count(length, c, codes, cyclic) for c in range(1, length + 1)]
                assert cell == (0, *expected), (n, cyclic, src, tgt)


def test_sign_matrices_sum_classes_like_the_one_class_walk():
    # the family walk sums exact-comparison patterns into rule tuples; a lone
    # rule tuple is walked with one class per position and no sum
    families = [(chain_matrices, n, False) for n in range(6)]
    families += [(cycle_matrices, n, True) for n in range(2, 6)]
    for matrices, n, cyclic in families:
        vectors, poly, _ = matrices(n)
        length = n if cyclic else n + 1
        for src, row in zip(vectors, poly.rows):
            for tgt, cell in zip(vectors, row):
                expected = surjective_rule_counts(length, rule_codes(src, tgt), cyclic)
                assert cell == (0, *expected), (n, cyclic, src, tgt)


# the exact comparisons each rule code allows, and each push code of a class (0 is = alone)
RULE_ALLOWS = {1: {">"}, 2: {">", "="}, 3: {"=", "<"}, 4: {"<"}}
PUSH_ALLOWS = {0: {"="}, **RULE_ALLOWS}


def test_rule_classes_split_each_rule_into_exact_comparisons():
    checked = 0
    for size in range(1, 5):
        for level in itertools.permutations(RULE_ALLOWS, size):
            codes, members = cases._rule_classes(level)
            classes = [PUSH_ALLOWS[code] for code in codes]
            assert sum(map(len, classes)) == len(set().union(*classes)), level
            assert len(members) == len(level)
            for rule, indices in zip(level, members):
                assert set().union(*(classes[k] for k in indices)) == RULE_ALLOWS[rule], (level, rule)
            checked += 1
    assert checked == 64
    for rule in RULE_ALLOWS:
        assert cases._rule_classes((rule,)) == ((rule,), ((0,),))


@pytest.mark.parametrize(
    "matrices, cyclic, bound", [(chain_matrices, False, 600), (cycle_matrices, True, 1200)]
)
def test_sign_matrices_push_each_exact_prefix_once(monkeypatch, matrices, cyclic, bound):
    n = 4
    length = n if cyclic else n + 1
    starts = sum(i if cyclic else 1 for i in range(1, length + 1))
    assert starts * (3 ** (n + 1) - 3) // 2 == bound
    pushes = 0
    true_push = cases._push

    def counted(vector, rule):
        nonlocal pushes
        pushes += 1
        return true_push(vector, rule)

    monkeypatch.setattr(cases, "_push", counted)
    matrices(n)
    assert 0 < pushes <= bound


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
                codes = rule_codes(source, target)
                counts = surjective_rule_counts(n + 1, codes, cyclic=False)
                colours = range(1, n + 2)
                assert counts == tuple(poly.entries[i][j].coefficient(k) for k in colours)
                assert counts == tuple(_split_count(n + 1, k, codes, cyclic=False) for k in colours)


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
                brute = tuple(
                    sum(
                        1
                        for word in itertools.product(range(1, colours + 1), repeat=n)
                        if set(word) == set(range(1, colours + 1))
                        and cycle_result_signs(source, word) == target
                    )
                    for colours in range(1, n + 1)
                )
                codes = rule_codes(source, target)
                assert surjective_rule_counts(n, codes, cyclic=True) == brute
                assert brute == tuple(_split_count(n, k, codes, cyclic=True) for k in range(1, n + 1))


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
