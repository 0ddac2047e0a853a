"""Diagram validation, world construction, and reconstruction."""

import functools
import time

import pytest

from webworlds import (
    Colouring,
    Edge,
    WebDiagram,
    apply_permutations,
    decompose,
    diagram_from_json,
    diagram_to_json,
    predicted_world_size,
    reconstruct,
    stack,
    subweb,
    surjective_colourings,
    validate_diagram,
    web_world,
)
from webworlds import diagram as diagram_module
from webworlds import enumeration
from webworlds.diagram import _surjections, restack
from webworlds.errors import (
    ArityMismatch,
    BadRange,
    DuplicateSlot,
    EdgeNotInDiagram,
    HeightNotPermutation,
    LengthMismatch,
    MalformedInput,
    NotSurjective,
    PegOrderViolation,
    WorldTooLarge,
)

from webworlds.verify import _orbit_keys

from conftest import small_worlds

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test needs hypothesis; the rest do not
    given = None


def test_edges_are_stored_sorted():
    d = validate_diagram(((3, 4, 2, 1), (1, 2, 1, 1), (2, 3, 2, 1)), 4)
    assert d.edges == (Edge(1, 2, 1, 1), Edge(2, 3, 2, 1), Edge(3, 4, 2, 1))


def test_num_pegs_defaults_to_highest_used_peg():
    d = validate_diagram(((1, 3, 1, 1),))
    assert d.num_pegs == 3
    padded = validate_diagram(((1, 3, 1, 1),), 5)
    assert padded.num_pegs == 5
    assert padded != d


def test_left_peg_must_be_lower():
    with pytest.raises(PegOrderViolation):
        validate_diagram(((2, 1, 1, 1),))
    with pytest.raises(PegOrderViolation):
        validate_diagram(((2, 2, 1, 1),))


def test_two_edges_cannot_share_a_slot():
    with pytest.raises(DuplicateSlot):
        validate_diagram(((1, 2, 1, 1), (1, 3, 1, 1)))


def test_peg_heights_must_fill_an_initial_range():
    with pytest.raises(HeightNotPermutation):
        validate_diagram(((1, 2, 1, 2),))
    with pytest.raises(HeightNotPermutation):
        validate_diagram(((1, 2, 2, 1), (1, 2, 3, 2)))


def test_peg_heights_of_pinned_diagrams(path4, nine_edge):
    assert path4.peg_heights == (1, 2, 2, 1)
    assert nine_edge.peg_heights == (2, 2, 2, 4, 2, 4, 2)


def test_stack_single_edge_on_itself():
    single = validate_diagram(((1, 2, 1, 1),))
    assert stack(single, single) == validate_diagram(((1, 2, 1, 1), (1, 2, 2, 2)))


def test_stack_shifts_top_heights_by_bottom_loads():
    bottom = validate_diagram(((1, 4, 1, 1), (2, 6, 1, 2), (2, 6, 2, 1)), 6)
    top = validate_diagram(((1, 2, 1, 1), (3, 5, 1, 1), (5, 6, 2, 1)), 6)
    combined = stack(bottom, top)
    assert combined == validate_diagram(
        (
            (1, 4, 1, 1),
            (2, 6, 1, 2),
            (2, 6, 2, 1),
            (1, 2, 2, 3),
            (3, 5, 1, 1),
            (5, 6, 2, 3),
        ),
        6,
    )


def test_subweb_compresses_heights_in_place(nine_edge):
    subset = (
        Edge(1, 7, 2, 2),
        Edge(3, 6, 2, 4),
        Edge(4, 6, 2, 3),
        Edge(5, 6, 1, 1),
    )
    reduced = subweb(nine_edge, subset)
    assert reduced == validate_diagram(
        ((1, 7, 1, 1), (3, 6, 1, 3), (4, 6, 1, 2), (5, 6, 1, 1)), 7
    )


def test_subweb_rejects_foreign_edges(path4):
    with pytest.raises(EdgeNotInDiagram):
        subweb(path4, (Edge(1, 4, 1, 1),))


def test_subweb_names_a_repeated_edge_as_given(path4):
    # the repeated edge is refused before its heights are compressed
    with pytest.raises(DuplicateSlot, match=r"edges \(2, 3, 2, 1\) and \(2, 3, 2, 1\) share slot \(2, 2\)"):
        subweb(path4, [(2, 3, 2, 1), (2, 3, 2, 1)])


def test_apply_identity_permutations_is_a_fixed_point(path4):
    family = [tuple(range(1, h + 1)) for h in path4.peg_heights]
    assert apply_permutations(path4, family) == path4


def test_permutation_family_must_match_the_pegs(path4):
    with pytest.raises(ArityMismatch, match="family covers 3 pegs, diagram has 4"):
        apply_permutations(path4, [(1,), (1, 2), (1, 2)])
    with pytest.raises(ArityMismatch, match="peg 2 is not a permutation of 1..2"):
        apply_permutations(path4, [(1,), (1, 1), (1, 2), (1,)])


def test_restack_needs_one_colour_per_edge(path4):
    with pytest.raises(LengthMismatch, match="colouring has 2 entries for 3 edges"):
        restack(path4.edges, path4.num_pegs, (1, 2))


def test_peg_count_is_bounded_before_any_per_peg_list():
    started = time.perf_counter()
    with pytest.raises(WorldTooLarge, match="peg count 1000000000 exceeds the 1000000-peg guard"):
        validate_diagram(((1, 2, 1, 1),), 10**9)
    assert time.perf_counter() - started < 1.0
    assert validate_diagram((), 10**6).num_pegs == 10**6


def test_crossed_pair_world_has_the_uncrossed_twin():
    crossed = validate_diagram(((1, 2, 1, 2), (1, 2, 2, 1)))
    world = web_world(crossed)
    assert set(world) == {
        crossed,
        validate_diagram(((1, 2, 1, 1), (1, 2, 2, 2))),
    }


@pytest.mark.parametrize(
    "edges",
    [
        ((1, 2, 1, 1), (2, 3, 2, 1), (3, 4, 2, 1)),
        ((1, 2, 1, 1), (1, 3, 2, 1), (2, 4, 2, 1)),
        ((1, 2, 1, 1), (1, 2, 2, 2)),
        ((1, 2, 1, 1), (1, 2, 2, 3), (1, 2, 3, 2)),
        ((1, 3, 1, 2), (2, 3, 1, 1), (1, 2, 2, 2), (2, 4, 3, 1)),
    ],
)
def test_world_equals_orbit_closure_and_size_formula(edges):
    diagram = validate_diagram(edges)
    world = web_world(diagram)
    assert set(world.keys) == _orbit_keys(diagram)
    assert len(world) == predicted_world_size(diagram)


def test_world_membership_and_indexing(path4):
    world = web_world(path4)
    assert len(world) == 4
    for i, member in enumerate(world):
        assert world.index_of(member) == i
        assert member in world
    outsider = validate_diagram(((1, 2, 1, 1),))
    assert outsider not in world
    with pytest.raises(BadRange):
        world.index_of(outsider)


def test_membership_checks_the_peg_count(path4):
    world = web_world(path4)
    padded = validate_diagram(path4.edges, 5)
    assert padded != path4 and padded not in world
    with pytest.raises(BadRange):
        world.index_of(padded)


def test_world_members_are_valid_diagrams(nine_edge):
    # orbit generation skips validation, so every member must pass it unchanged
    worlds = [world for _name, world in small_worlds()] + [web_world(nine_edge)]
    for world in worlds:
        # keys are distinct and sorted, and each member wraps its key
        assert world.keys == sorted(set(world.keys))
        for key, member in zip(world.keys, world):
            assert member.edges is key
            assert member == validate_diagram(member.edges, member.num_pegs)


def test_world_guard(path4):
    with pytest.raises(WorldTooLarge):
        web_world(path4, max_size=2)


def test_reconstruct_stacks_colour_classes_bottom_up():
    # Both 2-colourings of the crossed pair stack one edge above the
    # other, which uncrosses them; the uncrossed pair is a fixed point.
    crossed = validate_diagram(((1, 2, 1, 2), (1, 2, 2, 1)))
    uncrossed = validate_diagram(((1, 2, 1, 1), (1, 2, 2, 2)))
    for assignment in ((1, 2), (2, 1)):
        assert reconstruct(crossed, Colouring(assignment, 2)) == uncrossed
        assert reconstruct(uncrossed, Colouring(assignment, 2)) == uncrossed


def test_reconstruct_with_one_colour_is_identity(path4, nine_edge):
    for diagram in (path4, nine_edge):
        assignment = (1,) * diagram.edge_count
        assert reconstruct(diagram, Colouring(assignment, 1)) == diagram


if given is not None:

    @st.composite
    def world_members(draw, max_edges):
        # a random member of a random world: per-peg height permutations
        # of the seed diagram
        pegs = draw(st.integers(2, 4))
        pairs = [(a, b) for a in range(pegs) for b in range(a + 1, pegs)]
        counts = draw(
            st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)).filter(
                lambda counts: 0 < sum(counts) <= max_edges
            )
        )
        rows = [[0] * pegs for _ in range(pegs)]
        for (a, b), count in zip(pairs, counts):
            rows[a][b] = count
        seed = enumeration.seed_diagram(rows)
        family = [draw(st.permutations(range(1, h + 1))) for h in seed.peg_heights]
        return apply_permutations(seed, family)

    @st.composite
    def coloured_diagrams(draw):
        # a random member with a surjective colouring of its edges
        diagram = draw(world_members(6))
        edges = diagram.edge_count
        raw = draw(st.lists(st.integers(1, edges), min_size=edges, max_size=edges))
        # the drawn values ranked, so every colour 1..k is used
        rank = {c: k for k, c in enumerate(sorted(set(raw)), 1)}
        return diagram, Colouring(tuple(rank[c] for c in raw), len(rank))

    @settings(max_examples=60, deadline=5000)
    @given(coloured_diagrams())
    def test_reconstruction_stays_in_the_world_property(case):
        diagram, colouring = case
        assert reconstruct(diagram, colouring) in web_world(diagram)
        moved = restack(diagram.edges, diagram.num_pegs, colouring.assignment)
        assert [e[:2] for e in moved] == [e[:2] for e in diagram.edges]

    @settings(max_examples=60, deadline=5000)
    @given(world_members(5))
    def test_stacking_the_blocks_rebuilds_the_diagram_property(diagram):
        assert functools.reduce(stack, (b.normalized for b in decompose(diagram))) == diagram

    @settings(max_examples=60, deadline=5000)
    @given(world_members(5))
    def test_json_round_trip_property(diagram):
        assert diagram_from_json(diagram_to_json(diagram)) == diagram


def test_colouring_requires_surjectivity_and_range():
    with pytest.raises(NotSurjective):
        Colouring((1, 1), 2)
    with pytest.raises(BadRange):
        Colouring((0, 1), 1)
    with pytest.raises(BadRange):
        Colouring((1, 2), 1)


@pytest.mark.parametrize(
    "edges, num_pegs",
    [
        ([(1, 2, 1, 1.5)], None),
        ([(1, 2.0, 1, 1)], None),
        ([(1, 2, True, 1)], None),
        ([(1, 2, 1)], None),
        ([(1, 2, 1, 1)], 2.0),
        ([(1, 2, 1, 1)], True),
    ],
)
def test_validate_diagram_requires_integers(edges, num_pegs):
    with pytest.raises(MalformedInput):
        validate_diagram(edges, num_pegs)


@pytest.mark.parametrize("raw_edges", [5, None, {}, iter([(1, 2, 1, 1)])])
def test_validate_diagram_requires_a_list_of_rows(raw_edges):
    with pytest.raises(MalformedInput, match="edges must be a list of rows"):
        validate_diagram(raw_edges)


@pytest.mark.parametrize("edges", [((1, 2, 1),), 5, ((1, 2, 1, 1, 1),), (5,), ((1, 2, 1, 1), (1, 2, None, 2))])
def test_diagram_constructor_requires_rows_of_four_integers(edges):
    with pytest.raises(MalformedInput, match="edges must be rows of 4 integers"):
        WebDiagram(edges, 2)


def test_labels_one_is_multiplicity_one_on_every_peg_pair():
    assert validate_diagram(()).labels_one()
    assert not validate_diagram(((1, 2, 1, 1), (1, 2, 2, 2))).labels_one()
    for name, world in small_worlds():
        counts = world[0].peg_pair_counts().values()
        assert world[0].labels_one() == all(m == 1 for m in counts), name


def test_diagram_from_json_checks_each_value_once(monkeypatch, nine_edge):
    calls = []
    check = diagram_module.json_int

    def counted(value, what):
        calls.append(value)
        return check(value, what)

    monkeypatch.setattr(diagram_module, "json_int", counted)
    payload = diagram_to_json(nine_edge)
    assert diagram_from_json(payload) == nine_edge
    # four values per edge and the peg count
    assert len(calls) == 4 * nine_edge.edge_count + 1


@pytest.mark.parametrize(
    "assignment, colours",
    [((1, 2.7), 2), ((1.0, 2), 2), ((True, 2), 2), ((1, 2), 2.0)],
)
def test_colouring_requires_integers(assignment, colours):
    with pytest.raises(MalformedInput):
        Colouring(assignment, colours)


def test_surjection_counts():
    assert len(list(_surjections(3, 2))) == 6
    assert list(_surjections(4, 1)) == [(1, 1, 1, 1)]
    assert len(list(surjective_colourings(4, 2))) == 14
    with pytest.raises(BadRange):
        next(_surjections(2, 3))


def test_surjective_colourings_stream_without_listing():
    # listing all 6! S(12, 6) = 953,029,440 colourings first would not finish
    first = next(surjective_colourings(12, 6))
    assert first == Colouring((1,) * 7 + (2, 3, 4, 5, 6), 6)


def test_diagram_json_round_trip(nine_edge):
    payload = diagram_to_json(nine_edge)
    assert payload["n"] == 7
    assert diagram_from_json(payload) == nine_edge
