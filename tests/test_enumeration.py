"""Represent matrices, world counting, and the generating-series routes."""

import functools
import math
import time

import pytest

from webworlds import (
    count_proper_worlds,
    count_worlds_no_isolated,
    count_worlds_series,
    enumerate_worlds,
    is_proper,
    represent,
    seed_diagram,
    validate_diagram,
    web_world,
    world_size,
)
from webworlds import enumeration, verify
from webworlds.enumeration import validate_represent
from webworlds.errors import BadRange, BoundsTooLarge
from webworlds.verify import _count_listed as count_worlds_direct

count_worlds_no_isolated_direct = functools.partial(count_worlds_direct, no_isolated=True)
count_proper_worlds_direct = functools.partial(count_worlds_direct, connected=True)

# connected simple graphs on 40 labeled vertices with 60 edges; the former
# two-variable series route gives the same with its work guard lifted
PROPER_40_60_60 = int(
    "5419337334980913067518377386119368826306610508188695"
    "31983016558901106924619983928262656000"
)

NINE_EDGE_REPRESENT = (
    (0, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 0, 2, 0),
    (0, 0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0),
)


def test_represent_of_the_nine_edge_diagram(nine_edge):
    assert represent(nine_edge) == NINE_EDGE_REPRESENT


def test_represent_is_constant_on_a_world(path4):
    world = web_world(path4)
    assert represent(world) == represent(path4)
    assert {represent(d) for d in world} == {represent(path4)}


def test_validate_represent_rejects_bad_shapes():
    with pytest.raises(BadRange):
        validate_represent(((0, 1),))
    with pytest.raises(BadRange):
        validate_represent(((0, -1), (0, 0)))
    with pytest.raises(BadRange):
        validate_represent(((0, 0), (1, 0)))


def test_world_size_formula(nine_edge):
    assert world_size(NINE_EDGE_REPRESENT) == 9216
    assert world_size(represent(nine_edge)) == 9216
    assert world_size(((0, 1), (0, 0))) == 1
    assert world_size(((0, 2), (0, 0))) == 2


def test_seed_diagram_round_trips_represent():
    for rows in enumerate_worlds(4, 3, no_isolated=True):
        diagram = seed_diagram(rows)
        assert represent(diagram) == rows
        assert world_size(rows) == len(web_world(diagram))


def test_is_proper_depends_on_graph_connectivity(path4):
    assert is_proper(path4)
    split = validate_diagram(((1, 2, 1, 1), (3, 4, 1, 1)))
    assert not is_proper(split)
    assert not is_proper(web_world(split))


def test_enumerate_worlds_smallest_case():
    rows = list(enumerate_worlds(2, 2))
    assert rows == [
        ((0, 0), (0, 0)),
        ((0, 1), (0, 0)),
        ((0, 2), (0, 0)),
    ]


def test_enumerate_worlds_filters():
    no_isolated = list(enumerate_worlds(3, 2, no_isolated=True))
    assert ((0, 0), (0, 0)) not in no_isolated
    assert all(
        not any(
            all(r[i] == 0 for r in rows) and all(v == 0 for v in rows[i])
            for i in range(len(rows))
        )
        for rows in no_isolated
    )
    exact = list(enumerate_worlds(3, 5, exact_edges=2))
    assert all(sum(map(sum, rows)) == 2 for rows in exact)
    proper = list(enumerate_worlds(3, 2, proper_only=True))
    assert all(is_proper(web_world(seed_diagram(rows))) for rows in proper)


def test_enumerate_worlds_guards():
    with pytest.raises(BadRange):
        list(enumerate_worlds(1, 1))
    with pytest.raises(BadRange):
        list(enumerate_worlds(3, -1))
    with pytest.raises(BoundsTooLarge):
        list(enumerate_worlds(6, 6, max_matrices=10))


def test_pinned_world_counts():
    for edges in range(1, 5):
        assert count_worlds_direct(2, edges, 1) == 1
    assert count_worlds_direct(3, 2, 2) == 3
    assert count_worlds_no_isolated(2, 1, 1) == 1
    assert count_worlds_no_isolated(3, 1, 1) == 0
    for edges in range(1, 5):
        assert count_proper_worlds(2, edges, 1) == 1
    assert count_proper_worlds(3, 1, 1) == 0
    assert count_proper_worlds(3, 3, 3) == 1


def test_counting_routes_agree_on_a_small_sweep():
    for pegs in range(2, 5):
        for edges in range(5):
            for pairs in range(math.comb(pegs, 2) + 1):
                assert count_worlds_direct(pegs, edges, pairs) == count_worlds_series(
                    pegs, edges, pairs
                )
                if edges and pairs:
                    assert count_worlds_no_isolated(
                        pegs, edges, pairs
                    ) == count_worlds_no_isolated_direct(pegs, edges, pairs)
                assert count_proper_worlds(pegs, edges, pairs) == (
                    count_proper_worlds_direct(pegs, edges, pairs)
                )


def test_three_edge_census_is_thirty():
    census = sum(
        count_worlds_no_isolated(pegs, 3, pairs)
        for pegs in range(2, 5)
        for pairs in range(1, math.comb(pegs, 2) + 1)
    )
    assert census == 30


def test_series_counts_match_the_binomial_formula():
    # choose the occupied pairs, then split the edges over them
    for pegs in range(2, 11):
        for edges in range(1, 11):
            for pairs in range(1, edges + 1):
                expected = math.comb(math.comb(pegs, 2), pairs) * math.comb(edges - 1, pairs - 1)
                assert count_worlds_series(pegs, edges, pairs) == expected


def test_proper_counts_on_trees_follow_cayley():
    # a proper world on n - 1 pairs is a labeled tree with its edges split
    for n in range(2, 9):
        for edges in range(n - 1, n + 3):
            expected = n ** (n - 2) * math.comb(edges - 1, n - 2)
            assert count_proper_worlds(n, edges, n - 1) == expected


def test_proper_counts_on_complete_graphs():
    for n in range(2, 6):
        pairs = math.comb(n, 2)
        for edges in range(pairs, pairs + 3):
            assert count_proper_worlds(n, edges, pairs) == math.comb(edges - 1, pairs - 1)


def test_pinned_proper_counts():
    assert count_proper_worlds(8, 8, 8) == 1_436_568
    assert count_proper_worlds(12, 12, 12) == 787_368_574_080


def test_impossible_cells_count_zero_without_work():
    # more pairs than edges or than peg pairs: zero, far past the work guard
    assert count_worlds_series(2, 10**9, 2) == 0
    assert count_worlds_series(4, 3, 4) == 0
    assert count_proper_worlds(3, 10**9, 4) == 0
    assert count_proper_worlds(5, 2, 3) == 0
    assert count_proper_worlds(1, 0, 0) == 1
    # and for the no-isolated count, more pegs than the pairs can touch
    assert count_worlds_no_isolated(100_000, 5, 3) == 0
    assert count_worlds_no_isolated(2, 10**9, 2) == 0
    assert count_worlds_no_isolated(4, 3, 7) == 0
    assert count_worlds_no_isolated(7, 10**9, 3) == 0
    assert count_worlds_no_isolated(6, 3, 3) == count_worlds_no_isolated_direct(6, 3, 3) == 15


def test_counters_refuse_answers_past_the_digit_limit():
    huge = 10**3000
    with pytest.raises(BoundsTooLarge, match="digits exceeds the 4300-digit limit"):
        count_worlds_series(huge, 1, 1)
    with pytest.raises(BoundsTooLarge, match="digits exceeds"):
        count_worlds_no_isolated(4, huge, 3)
    with pytest.raises(BoundsTooLarge, match="counting steps"):
        count_worlds_no_isolated(huge, huge, huge)
    # a huge peg count alone is fine while the answer stays printable
    assert count_worlds_series(10**20, 1, 1) == math.comb(10**20, 2)
    assert count_worlds_no_isolated(3, 10**20, 2) == 3 * (10**20 - 1)


def test_series_counters_guard_their_work():
    # the edges only enter as C(e - 1, q - 1), so these are cheap
    assert count_worlds_series(2, 100_000, 1) == 1
    assert count_proper_worlds(40, 60, 60) == PROPER_40_60_60
    with pytest.raises(BoundsTooLarge, match="series steps"):
        count_proper_worlds(400, 400, 400)


def test_proper_counter_refuses_answers_past_the_digit_limit():
    with pytest.raises(BoundsTooLarge, match="digits exceeds"):
        count_proper_worlds(3, int("9" * 4299), 3)


def test_proper_cells_with_more_pegs_than_a_tree_spans_count_zero_at_once():
    # connected on n pegs needs n - 1 pairs, so these run no recurrence
    started = time.perf_counter()
    assert count_proper_worlds(2000, 0, 0) == 0
    assert count_proper_worlds(2000, 1998, 1998) == 0
    assert count_proper_worlds(4, 2, 2) == count_proper_worlds_direct(4, 2, 2) == 0
    assert time.perf_counter() - started < 1


def test_direct_listing_guards_its_work():
    started = time.perf_counter()
    with pytest.raises(BoundsTooLarge, match="candidate matrices"):
        count_worlds_direct(5, 100, 3)
    with pytest.raises(BoundsTooLarge, match="candidate matrices"):
        count_worlds_no_isolated_direct(5, 100, 3)
    with pytest.raises(BoundsTooLarge, match="candidate matrices"):
        count_worlds_direct(10**6, 10**6, 1)
    assert time.perf_counter() - started < 1


def test_count_oracles_share_one_listing_per_cell(monkeypatch):
    # one listing for the world-size check, then one per (pegs >= 2, edges) cell
    # of the pegs 2..3, edges 0..2 grid, whichever of the three oracles reads it
    calls = []
    lister = enumeration.enumerate_worlds
    monkeypatch.setattr(
        enumeration, "enumerate_worlds", lambda *a, **k: calls.append(a) or lister(*a, **k)
    )
    verify._listed_worlds.cache_clear()
    assert all(r.passed for r in verify.suite_counting(1, 3, 2))
    assert len(calls) == 1 + 2 * 3


@pytest.mark.parametrize(
    "counter", [count_worlds_series, count_worlds_no_isolated, count_proper_worlds]
)
def test_counts_factor_through_the_edge_splits(counter):
    # with w = y*z/(1-z), [z^e y^q] w^q = C(e - 1, q - 1): the edges only split
    for pegs in range(2, 7):
        for pairs in range(1, math.comb(pegs, 2) + 1):
            base = counter(pegs, pairs, pairs)
            for edges in (pairs, pairs + 1, 10**3, 10**6):
                assert counter(pegs, edges, pairs) == math.comb(edges - 1, pairs - 1) * base


def test_counting_guards():
    with pytest.raises(BadRange):
        count_worlds_no_isolated(2, 0, 1)
    with pytest.raises(BadRange):
        count_proper_worlds(0, 1, 1)


# with one counter off by one: the check that fails and its first failure
OFF_BY_ONE = {
    "count_worlds_series": ("world counts by pegs/edges/pairs", "18 of 18 failed, first: nww(2,0,0) 1 != 2"),
    "count_worlds": ("world counts by pegs/edges/pairs", "18 of 18 failed, first: nww(2,0,0) 2 != 1"),
    "count_worlds_no_isolated": ("no-isolated-peg counts", "8 of 8 failed, first: nwwnip(2,1,1) 2 != 1"),
    "count_proper_worlds_direct": ("proper world counts", "21 of 21 failed, first: npww(1,0,0) 1 != 2"),
}


# the filters of `verify._count_listed` under which each oracle check reads it
ORACLE_FILTERS = {"count_worlds": (False, False), "count_proper_worlds_direct": (False, True)}


@pytest.mark.parametrize("counter", sorted(OFF_BY_ONE))
def test_counting_suite_reports_an_off_by_one_counter(monkeypatch, counter):
    if counter in ORACLE_FILTERS:
        # the brute-force oracle is private to verify: one listing count read
        # with filters, wrong only under the filters of the check it targets
        right = verify._count_listed

        def wrong(*cell, no_isolated=False, connected=False):
            return right(*cell, no_isolated, connected) + (
                (no_isolated, connected) == ORACLE_FILTERS[counter]
            )

        monkeypatch.setattr(verify, "_count_listed", wrong)
    else:
        right = getattr(enumeration, counter)
        monkeypatch.setattr(enumeration, counter, lambda *cell: right(*cell) + 1)
    failed = [(r.name, r.detail) for r in verify.suite_counting(1, 3, 2) if not r.passed]
    assert OFF_BY_ONE[counter] in failed


def test_counting_suite_names_the_one_wrong_cell(monkeypatch):
    right = enumeration.count_worlds_series
    monkeypatch.setattr(
        enumeration, "count_worlds_series", lambda *cell: right(*cell) + (cell == (3, 2, 1))
    )
    results = {r.name: r for r in verify.suite_counting(1, 3, 2)}
    check = results["world counts by pegs/edges/pairs"]
    assert not check.passed
    assert check.detail == "1 of 18 failed, first: nww(3,2,1) 3 != 4"
    assert sum(not r.passed for r in results.values()) == 1
