"""The counting kernels behind the closed forms, against enumeration.

Oracles: `conftest.rule_word_counts` lists every surjective word once
and counts it for each code tuple whose rules it meets, against the
transfer-matrix rule counts; the descent histogram of a poset and its
two diagonal closed forms are compared with sums over its listed linear
extensions; the chain and cycle matrices are compared with the generic
world matrices.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import rule_word_counts

from webworlds import (
    DecompositionPoset,
    IntPolynomial,
    cases,
    chain_matrices,
    cycle_matrices,
    descents,
    diagonal_colouring_polynomial,
    diagonal_mixing_value,
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

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test needs hypothesis; the rest do not
    given = None

# one cache per poset shape: the histogram is made only on its misses
CLOSED_FORM_CACHES = ("_closed_forms",)


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("positions", [1, 2, 3, 4, 5])
def test_transfer_counts_match_word_enumeration(positions, cyclic):
    length = positions if cyclic else positions + 1
    expected = rule_word_counts(length, cyclic)
    assert len(expected) == 4**positions
    for codes, counts in expected.items():
        assert surjective_rule_counts(length, codes, cyclic) == counts, codes


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


def closed_forms_by_extensions(poset):
    """Both diagonal closed forms summed term by term over the linear extensions."""
    p = poset.size
    x, one_plus_x = IntPolynomial((0, 1)), IntPolynomial((1, 1))
    polynomial, mixing = IntPolynomial(), Fraction(0)
    for extension in linear_extensions(poset):
        d = descents(extension)
        polynomial = polynomial + x ** (1 + d) * one_plus_x ** (p - 1 - d)
        mixing += Fraction((-1) ** d, p * math.comb(p - 1, d))
    return polynomial, mixing


def test_closed_form_caches_are_module_attributes():
    cached = {name for name, value in vars(posets).items() if hasattr(value, "cache_clear")}
    assert cached == set(CLOSED_FORM_CACHES)
    for name in CLOSED_FORM_CACHES:
        cache = getattr(posets, name)
        assert cache.cache_info().maxsize == posets.CLOSED_FORM_CACHE_SIZE
        cache.cache_clear()
        assert cache.cache_info().currsize == 0


if given is not None:

    @st.composite
    def natural_posets(draw):
        # a random naturally labelled poset: any set of upward pairs, closed
        size = draw(st.integers(1, 6))
        pairs = list(itertools.combinations(range(1, size + 1), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return DecompositionPoset.from_relations(size, [pair for pair, k in zip(pairs, keep) if k])

    @settings(max_examples=60, deadline=5000)
    @given(natural_posets())
    def test_cached_closed_forms_match_the_extensions_property(poset):
        expected = (expected_histogram(poset), *closed_forms_by_extensions(poset))
        for name in CLOSED_FORM_CACHES:
            getattr(posets, name).cache_clear()
        cold = (
            poset.descent_histogram,
            diagonal_colouring_polynomial(poset),
            diagonal_mixing_value(poset),
        )
        # a second poset with the same rows reads every value from the caches
        twin = DecompositionPoset.from_relations(poset.size, poset.strict_pairs())
        hits = [getattr(posets, name).cache_info().hits for name in CLOSED_FORM_CACHES]
        warm = (
            twin.descent_histogram,
            diagonal_colouring_polynomial(twin),
            diagonal_mixing_value(twin),
        )
        # both closed forms from the one cache entry
        assert [getattr(posets, name).cache_info().hits for name in CLOSED_FORM_CACHES] == [
            hits[0] + 2
        ]
        assert cold == warm == expected


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

    # cases binds no word lister of its own; verify's oracles and
    # surjective_colourings both list through diagram's _surjections
    assert not hasattr(cases, "_surjections")
    monkeypatch.setattr("webworlds.diagram._surjections", refuse)
    monkeypatch.setattr(posets, "linear_extensions", refuse)
    chain_matrices(3)
    cycle_matrices(3)
    fan_matrices(3)
    assert traces_via_posets(chain_world(3)) == cases.chain_traces(3)
    diamond = DecompositionPoset.from_relations(4, ((1, 2), (1, 3), (2, 4), (3, 4)))
    assert [order_preserving_count(diamond, m) for m in range(4)] == [0, 1, 6, 20]
