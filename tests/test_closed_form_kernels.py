"""The counting kernels behind the closed forms, against enumeration.

Oracles: `conftest.rule_word_count` lists every surjective word for the
transfer-matrix rule counts; the descent histogram of a poset is
compared with the descents of its listed linear extensions; the chain
and cycle matrices are compared with the generic world matrices.
"""

import itertools
import random
from collections import Counter

import pytest
from conftest import rule_word_count

from webworlds import (
    DecompositionPoset,
    cases,
    chain_matrices,
    cycle_matrices,
    descents,
    fan_matrices,
    linear_extensions,
    order_preserving_count,
    posets,
    traces_via_posets,
    world_matrices,
    world_posets,
)
from webworlds.cases import (
    chain_diagram,
    chain_world,
    cycle_diagram,
    cycle_world,
    surjective_rule_counts,
)
from webworlds.errors import BadRange


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("positions", [1, 2, 3, 4, 5])
def test_transfer_counts_match_word_enumeration(positions, cyclic):
    length = positions if cyclic else positions + 1
    for codes in itertools.product(range(1, 5), repeat=positions):
        expected = tuple(
            rule_word_count(length, colours, codes, cyclic) for colours in range(1, length + 1)
        )
        assert surjective_rule_counts(length, codes, cyclic) == expected, codes


def test_transfer_counts_reject_bad_rules():
    with pytest.raises(BadRange):
        surjective_rule_counts(3, (1, 2, 3), cyclic=False)
    with pytest.raises(BadRange):
        surjective_rule_counts(3, (1, 5, 3), cyclic=True)


def expected_histogram(poset):
    seen = Counter(descents(e) for e in linear_extensions(poset))
    return tuple(seen[d] for d in range(max(poset.size, 1)))


def naturally_labelled_posets(size):
    """Every poset on 1..size whose order only goes up in label, once each."""
    pairs = list(itertools.combinations(range(1, size + 1), 2))
    seen = {}
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        relations = [pair for pair, keep in zip(pairs, chosen) if keep]
        poset = DecompositionPoset.from_relations(size, relations)
        seen.setdefault(poset.leq, poset)
    return list(seen.values())


def test_histogram_on_every_small_poset():
    counted = 0
    for size in range(0, 5):
        for poset in naturally_labelled_posets(size):
            assert poset.descent_histogram == expected_histogram(poset), poset.leq
            counted += 1
    # 1, 1, 2, 7 and 40 naturally labelled posets of sizes 0..4
    assert counted == 51


def test_histogram_on_random_posets():
    rng = random.Random(20131003)
    for size in (5, 6, 7):
        for density in (0.1, 0.3, 0.5):
            for _ in range(4):
                relations = [
                    (a, b)
                    for a, b in itertools.combinations(range(1, size + 1), 2)
                    if rng.random() < density
                ]
                poset = DecompositionPoset.from_relations(size, relations)
                assert poset.descent_histogram == expected_histogram(poset), relations


@pytest.mark.parametrize("world", [chain_world(5), cycle_world(6)], ids=["chain5", "cycle6"])
def test_histogram_on_member_posets(world):
    for poset in world_posets(world):
        assert poset.descent_histogram == expected_histogram(poset)


@pytest.mark.parametrize(
    "family, n", [(chain_matrices, 4), (cycle_matrices, 5)], ids=["chain4", "cycle5"]
)
def test_sign_family_matrices_match_world_matrices(family, n):
    vectors, poly, mix = family(n)
    world = chain_world(n) if family is chain_matrices else cycle_world(n)
    diagram = chain_diagram if family is chain_matrices else cycle_diagram
    order = [world.index_of(diagram(v)) for v in vectors]
    world_poly, world_mix = world_matrices(world)
    for a, i in enumerate(order):
        for b, j in enumerate(order):
            assert poly.entries[a][b] == world_poly.entries[i][j]
            assert mix.entries[a][b] == world_mix.entries[i][j]


def test_closed_forms_enumerate_no_words_or_extensions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration reached from a closed form")

    # cases binds no word lister of its own; diagram's covers surjective_colourings
    assert not hasattr(cases, "surjection_tuples")
    monkeypatch.setattr("webworlds.diagram.surjection_tuples", refuse)
    monkeypatch.setattr(posets, "linear_extensions", refuse)
    chain_matrices(3)
    cycle_matrices(3)
    fan_matrices(3)
    assert traces_via_posets(chain_world(3)) == cases.chain_traces(3)
    diamond = DecompositionPoset.from_relations(4, ((1, 2), (1, 3), (2, 4), (3, 4)))
    assert [order_preserving_count(diamond, m) for m in range(4)] == [0, 1, 6, 20]
