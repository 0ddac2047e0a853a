"""Decomposition into blocks, posets, and the diagonal closed forms.

Oracle: order-preserving maps counted by filtering every function
[k] -> [m] directly (`verify._direct_order_preserving`).
"""

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from webworlds import (
    DecompositionPoset,
    IntPolynomial,
    cases,
    decompose,
    decomposition_poset,
    descents,
    diagonal_colouring_polynomial,
    diagonal_mixing_value,
    enumeration,
    linear_extensions,
    order_preserving_count,
    poset_to_json,
    surjective_order_preserving_count,
    trace,
    traces_via_posets,
    validate_diagram,
    web_world,
    world_matrices,
    world_posets,
)
from webworlds.diagram import _symmetry_orbits
from webworlds.errors import BadRange, LabelNotOne, MalformedInput, RepeatedBlocks
from webworlds.posets import _closed_forms
from webworlds.verify import _direct_order_preserving, suite_posets

from conftest import small_worlds

CHAIN2 = DecompositionPoset.from_relations(2, ((1, 2),))
ANTICHAIN2 = DecompositionPoset.from_relations(2, ())
ANTICHAIN3 = DecompositionPoset.from_relations(3, ())
VEE_POSET = DecompositionPoset.from_relations(3, ((1, 2), (1, 3)))
WEDGE_POSET = DecompositionPoset.from_relations(3, ((1, 3), (2, 3)))
DIAMOND = DecompositionPoset.from_relations(4, ((1, 2), (1, 3), (2, 4), (3, 4)))
EMPTY = DecompositionPoset.from_relations(0, ())


def test_nine_edge_blocks_are_the_pinned_seven(nine_edge):
    blocks = decompose(nine_edge)
    assert [b.label for b in blocks] == [1, 2, 3, 4, 5, 6, 7]
    assert [sorted(tuple(e) for e in b.edges) for b in blocks] == [
        [(1, 2, 1, 1)],
        [(3, 4, 1, 1)],
        [(5, 6, 1, 1)],
        [(2, 4, 2, 3), (4, 6, 2, 3), (4, 6, 4, 2)],
        [(3, 6, 2, 4)],
        [(5, 7, 2, 1)],
        [(1, 7, 2, 2)],
    ]


def test_crossed_pair_is_a_single_block():
    # The crossed pair cannot be written as one edge stacked on the
    # other (stacking always uncrosses), so it stays indecomposable.
    crossed = validate_diagram(((1, 2, 1, 2), (1, 2, 2, 1)))
    assert len(decompose(crossed)) == 1
    assert decomposition_poset(crossed).size == 1


def test_path4_world_poset_shapes(path4):
    posets = world_posets(web_world(path4))
    shapes = Counter(p.cover_pairs() for p in posets)
    assert shapes == Counter(
        {
            ((1, 2), (2, 3)): 2,
            ((1, 2), (1, 3)): 1,
            ((1, 3), (2, 3)): 1,
        }
    )


def test_path4_members_decompose_into_three_singletons(path4):
    for member in web_world(path4):
        assert [len(b.edges) for b in decompose(member)] == [1, 1, 1]


def test_linear_extension_counts_and_descents():
    assert len(linear_extensions(CHAIN2)) == 1
    assert len(linear_extensions(ANTICHAIN2)) == 2
    assert len(linear_extensions(VEE_POSET)) == 2
    assert len(linear_extensions(WEDGE_POSET)) == 2
    assert len(linear_extensions(DIAMOND)) == 2
    multiset = sorted(descents(e) for e in linear_extensions(ANTICHAIN3))
    assert multiset == [0, 1, 1, 1, 1, 2]


def test_descents_counts_label_drops():
    assert descents((1, 2, 3)) == 0
    assert descents((3, 1, 2)) == 1
    assert descents((3, 2, 1)) == 2


@pytest.mark.parametrize(
    "poset", [CHAIN2, ANTICHAIN2, ANTICHAIN3, VEE_POSET, WEDGE_POSET, DIAMOND, EMPTY]
)
@pytest.mark.parametrize("colours", [1, 2, 3, 4, 0])
def test_order_preserving_counts_match_brute_force(poset, colours):
    assert order_preserving_count(poset, colours) == _direct_order_preserving(
        poset, colours, surjective=False
    )


@pytest.mark.parametrize(
    "poset", [CHAIN2, ANTICHAIN2, ANTICHAIN3, VEE_POSET, WEDGE_POSET, DIAMOND, EMPTY]
)
def test_surjective_counts_match_brute_force(poset):
    # the colouring polynomial's coefficients, against maps that hit every value
    pairs = poset.strict_pairs()
    for m in range(6):
        brute = sum(
            1
            for values in itertools.product(range(1, m + 1), repeat=poset.size)
            if set(values) == set(range(1, m + 1))
            and all(values[a - 1] <= values[b - 1] for a, b in pairs)
        )
        assert surjective_order_preserving_count(poset, m) == brute, m


def test_pinned_order_preserving_values():
    assert order_preserving_count(VEE_POSET, 2) == 5
    assert surjective_order_preserving_count(CHAIN2, 2) == 1
    for m in range(1, 5):
        assert order_preserving_count(ANTICHAIN2, m) == m * m


def test_surjective_counts_by_inclusion_exclusion():
    # Theta(k) recovers Omega(m) when resummed over colour subsets.
    import math

    for poset in (VEE_POSET, WEDGE_POSET, DIAMOND):
        for m in range(1, 5):
            resummed = sum(
                math.comb(m, k) * surjective_order_preserving_count(poset, k)
                for k in range(1, m + 1)
            )
            assert resummed == order_preserving_count(poset, m)


def test_vee_diagonal_formulas_both_routes(vee):
    world = web_world(vee)
    poly, mix = world_matrices(world)
    i = world.index_of(vee)
    poset = decomposition_poset(vee)
    assert poset.cover_pairs() == ((1, 2), (1, 3))
    closed_poly = diagonal_colouring_polynomial(poset)
    closed_mix = diagonal_mixing_value(poset)
    assert closed_poly == IntPolynomial((0, 1, 3, 2))
    assert closed_mix == Fraction(1, 6)
    assert poly.entries[i][i] == closed_poly
    assert mix.entries[i][i] == closed_mix
    assert [
        surjective_order_preserving_count(poset, k) for k in range(1, 4)
    ] == [1, 3, 2]


def test_traces_via_posets_match_brute_matrices(path4):
    world = web_world(path4)
    poly, mix = world_matrices(world)
    poset_poly, poset_mix = traces_via_posets(world)
    assert poset_poly == trace(poly) == IntPolynomial((0, 4, 10, 6))
    assert poset_mix == trace(mix) == Fraction(1)


def test_repeated_blocks_are_rejected_by_diagonal_formulas():
    doubled = validate_diagram(((1, 2, 1, 1), (1, 2, 2, 2)))
    poset = decomposition_poset(doubled)
    with pytest.raises(RepeatedBlocks):
        diagonal_colouring_polynomial(poset)
    with pytest.raises(RepeatedBlocks):
        diagonal_mixing_value(poset)


def test_poset_traces_rest_on_orbits():
    # the route takes one member per orbit of <Aut(web graph), flip>: every member of an
    # orbit has the same diagonal closed forms, and the traces equal the per-member sums
    worlds = [
        web_world(enumeration.seed_diagram(rows))
        for rows in enumeration.enumerate_worlds(4, 4, no_isolated=True)
        if any(map(any, rows))
    ]
    worlds += [cases.chain_world(n) for n in range(2, 7)]
    worlds += [cases.cycle_world(n) for n in range(2, 8)]
    worlds += [cases.fan_world(n) for n in range(2, 6)]
    checked = Counter()
    for world in worlds:
        checked[world[0].labels_one()] += 1
        if not world[0].labels_one():
            with pytest.raises(LabelNotOne):
                traces_via_posets(world)
            continue
        forms = [_closed_forms(decomposition_poset(member).up) for member in world]
        for orbit in _symmetry_orbits(world):
            assert len({forms[x] for x, _y, _perm in orbit}) == 1, world[orbit[0][0]]
        colouring = sum((poly for poly, _mix in forms), IntPolynomial())
        assert traces_via_posets(world) == (colouring, sum(mix for _poly, mix in forms)), world[0]
    assert checked == Counter({True: 53, False: 85})


def test_parallel_edges_block_the_poset_trace_route():
    world = web_world(validate_diagram(((1, 2, 1, 1), (1, 2, 2, 2))))
    with pytest.raises(LabelNotOne):
        traces_via_posets(world)


def test_poset_json_shape():
    assert poset_to_json(VEE_POSET) == {"k": 3, "relations": [[1, 2], [1, 3]]}


def test_nine_edge_poset_cover_relations(nine_edge):
    poset = decomposition_poset(nine_edge)
    assert poset.size == 7
    assert poset.cover_pairs() == (
        (1, 4),
        (1, 7),
        (2, 4),
        (3, 4),
        (3, 6),
        (4, 5),
        (6, 7),
    )


# sha256 of the JSON list, over every member of every small world in world
# order, of [leq as 0/1 rows, cover pairs, poset_to_json, descent histogram],
# as the posets were before their order became bitmask rows
SMALL_WORLD_POSETS_SHA256 = "c5ac7518bea7a09bc72f9331dd6b37308a2b4ff4c2f02a85ab780e62a71c6036"


def test_member_posets_are_valid_and_unchanged():
    rows = []
    for name, world in small_worlds():
        for member in world:
            poset = decomposition_poset(member)
            # the checking constructor accepts the order and gives back the same rows
            assert DecompositionPoset(poset.blocks, poset.leq) == poset, name
            rows.append(
                [
                    [list(map(int, row)) for row in poset.leq],
                    poset.cover_pairs(),
                    poset_to_json(poset),
                    poset.descent_histogram,
                ]
            )
    assert len(rows) == 1792
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == SMALL_WORLD_POSETS_SHA256


@pytest.mark.parametrize(
    "leq",
    [
        ((True, False), (False, False)),
        ((True, True), (True, True)),
        ((True, False), (True, True)),
        ((True, True, False), (False, True, True), (False, False, True)),
        ((True, True),),
    ],
    ids=["not reflexive", "not antisymmetric", "not natural", "not transitive", "shape"],
)
def test_direct_construction_checks_the_order(leq):
    with pytest.raises(BadRange):
        DecompositionPoset(ANTICHAIN3.blocks[: len(leq[0])], leq)


def test_direct_construction_takes_only_bool_entries():
    # 1.0 and 0.5 are truthy: read as relations they would give up = (2, 0)
    with pytest.raises(MalformedInput, match="bools"):
        DecompositionPoset(ANTICHAIN3.blocks[:2], ((1.0, 0.5), (0, 2)))


def test_abstract_posets_need_a_non_negative_size():
    # [0] * -1 is empty: the size is compared with 0 before any row is made
    with pytest.raises(BadRange, match="non-negative"):
        DecompositionPoset.from_relations(-1, ())
    assert DecompositionPoset.from_relations(0, ()) == EMPTY


def test_repeated_blocks_need_equal_peg_pairs():
    # two crossed pairs on pegs 1 and 2: identical blocks
    twice = validate_diagram(((1, 2, 1, 2), (1, 2, 2, 1), (1, 2, 3, 4), (1, 2, 4, 3)))
    poset = decomposition_poset(twice)
    assert poset.size == 2 and poset.repeated_blocks
    with pytest.raises(RepeatedBlocks):
        diagonal_mixing_value(poset)
    # a crossed pair and a single edge share a peg pair but not the pair list
    once = validate_diagram(((1, 2, 1, 2), (1, 2, 2, 1), (1, 2, 3, 3)))
    poset = decomposition_poset(once)
    assert poset.size == 2 and not poset.repeated_blocks
    assert diagonal_colouring_polynomial(poset) == IntPolynomial((0, 1, 1))


def test_repeated_block_shortcuts_agree_with_the_full_comparison():
    # every member of every world with parallel edges, <= 4 pegs and <= 5 edges
    answers = Counter()
    for rows in enumeration.enumerate_worlds(4, 5, no_isolated=True):
        diagram = enumeration.seed_diagram(rows)
        if diagram.edge_count and max(diagram.peg_pair_counts().values()) > 1:
            for member in web_world(diagram):
                poset = decomposition_poset(member)
                shapes = [block.normalized for block in poset.blocks]
                full = len(set(shapes)) < len(shapes)
                assert poset.repeated_blocks == full, member
                answers[full] += 1
    assert answers == Counter({False: 12125, True: 6231})


def test_poset_suite_passes():
    results = suite_posets()
    assert [r.name for r in results] == [
        "four-peg path world",
        "three-block diagonal",
        "diagonal descent formulas",
        "order-preserving counts",
    ]
    assert all(r.passed for r in results), [r for r in results if not r.passed]
