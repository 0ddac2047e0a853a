"""Transitive worlds: the matrix test, the core bijection, and counts."""

import time

import pytest

from webworlds import (
    core_matrix,
    count_transitive,
    is_transitive,
    reattach,
    represent,
    transitive_matrices,
)
from webworlds.cases import chain_diagram, cycle_diagram, sign_vectors
from webworlds.errors import BadRange, BoundsTooLarge, IsolatedPeg, MalformedInput, NotTransitive

PINNED_THREE_EDGE = {
    ((0, 3), (0, 0)),
    ((0, 1, 0), (0, 0, 2), (0, 0, 0)),
    ((0, 2, 0), (0, 0, 1), (0, 0, 0)),
    ((0, 1, 1), (0, 0, 1), (0, 0, 0)),
    ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
}


def test_is_transitive_examples():
    assert is_transitive(((0, 1), (0, 0)))
    assert is_transitive(((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    # Zero second row: peg 2 receives but never sends.
    assert not is_transitive(((0, 1, 1), (0, 0, 0), (0, 0, 0)))
    # Zero second column: peg 2 sends but never receives.
    assert not is_transitive(((0, 0, 1), (0, 0, 1), (0, 0, 0)))


def test_is_transitive_requires_no_isolated_pegs():
    with pytest.raises(IsolatedPeg):
        is_transitive(((0, 0), (0, 0)))
    with pytest.raises(IsolatedPeg, match="peg 2 touches no edge"):
        is_transitive(((0, 0, 1), (0, 0, 0), (0, 0, 0)))


def test_counts_follow_the_known_sequence():
    assert [count_transitive(t) for t in (1, 2, 3, 4, 5)] == [1, 2, 5, 15, 53]
    assert [len(transitive_matrices(t)) for t in (1, 2, 3, 4, 5)] == [1, 2, 5, 15, 53]


def test_counts_are_the_fishburn_numbers():
    fishburn = [217, 1014, 5335, 31240, 201608, 1422074, 10886503]
    assert [count_transitive(t) for t in range(6, 13)] == fishburn


def test_three_edge_matrices_are_the_pinned_five():
    assert set(transitive_matrices(3)) == PINNED_THREE_EDGE


def test_edge_guards():
    with pytest.raises(BadRange):
        count_transitive(0)
    with pytest.raises(BadRange):
        transitive_matrices(0)
    # the listing is bounded by edges, the series count by its work
    with pytest.raises(BoundsTooLarge):
        transitive_matrices(7)
    assert count_transitive(7) == 1014
    with pytest.raises(BoundsTooLarge):
        count_transitive(1000)


def test_listing_past_six_edges_is_refused_by_the_listers_guard_at_once():
    # e = 7 lists 47,998,550 entries, over the 4*10^7-step guard; nothing is listed
    started = time.perf_counter()
    with pytest.raises(BoundsTooLarge, match="listing steps"):
        transitive_matrices(7)
    for edges in range(8, 12):
        with pytest.raises(BoundsTooLarge, match="candidate matrices"):
            transitive_matrices(edges)
    assert time.perf_counter() - started < 1


def test_core_round_trip():
    for t in (1, 2, 3, 4):
        for rows in transitive_matrices(t):
            core = core_matrix(rows)
            assert len(core) == len(rows) - 1
            assert reattach(core) == rows


def test_core_requires_transitivity():
    with pytest.raises(NotTransitive):
        core_matrix(((0, 1, 1), (0, 0, 0), (0, 0, 0)))


def test_reattach_validation():
    with pytest.raises(BadRange):
        reattach(())
    # A zero row inside the core would recreate a non-transitive matrix.
    with pytest.raises(BadRange):
        reattach(((0, 0), (0, 1)))
    # Entries below the core diagonal would land on the represent diagonal.
    with pytest.raises(BadRange):
        reattach(((1, 0), (1, 1)))
    # Core diagonal entries land on the represent superdiagonal.
    assert reattach(((1,),)) == ((0, 1), (0, 0))
    assert reattach(((1, 1), (0, 1))) == ((0, 1, 1), (0, 0, 1), (0, 0, 0))


@pytest.mark.parametrize("core", [((1.5,),), ((True,),), ((1, 1.0), (0, 1)), ((1,), "x")])
def test_reattach_requires_integers(core):
    # 1.5 was truncated to 1 and True read as 1 before
    with pytest.raises(MalformedInput):
        reattach(core)


def test_chain_and_cycle_worlds_are_transitive():
    for n in range(0, 5):
        for signs in sign_vectors(n):
            assert is_transitive(represent(chain_diagram(signs)))
    for n in range(2, 5):
        for signs in sign_vectors(n):
            assert is_transitive(represent(cycle_diagram(signs)))
