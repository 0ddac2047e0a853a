"""Diagram validation, world construction, and reconstruction."""

import pytest

from webworlds import (
    Colouring,
    Edge,
    WebWorld,
    apply_permutations,
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
from webworlds.diagram import surjection_tuples
from webworlds.errors import (
    BadRange,
    DuplicateSlot,
    EdgeNotInDiagram,
    HeightNotPermutation,
    MalformedInput,
    NotSurjective,
    PegOrderViolation,
    WorldTooLarge,
)

from webworlds.verify import _orbit_keys


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


def test_apply_identity_permutations_is_a_fixed_point(path4):
    family = [tuple(range(1, h + 1)) for h in path4.peg_heights]
    assert apply_permutations(path4, family) == path4


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
    assert {d.edge_key() for d in world} == _orbit_keys(diagram)
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


def test_world_rejects_mixed_members(path4):
    with pytest.raises(BadRange):
        WebWorld([path4, validate_diagram(((1, 2, 1, 1),))])


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


@pytest.mark.parametrize(
    "assignment, colours",
    [((1, 2.7), 2), ((1.0, 2), 2), ((True, 2), 2), ((1, 2), 2.0)],
)
def test_colouring_requires_integers(assignment, colours):
    with pytest.raises(MalformedInput):
        Colouring(assignment, colours)


def test_surjection_counts():
    assert len(surjection_tuples(3, 2)) == 6
    assert surjection_tuples(4, 1) == ((1, 1, 1, 1),)
    assert len(list(surjective_colourings(4, 2))) == 14
    with pytest.raises(BadRange):
        surjection_tuples(2, 3)


def test_diagram_json_round_trip(nine_edge):
    payload = diagram_to_json(nine_edge)
    assert payload["n"] == 7
    assert diagram_from_json(payload) == nine_edge
