"""Every integer slot of the library refuses a bool or a float.

One row per slot: the call given True or the float of its integer raises
`MalformedInput`, and given the integer it returns the pinned answer.
"""

import pytest

from webworlds import DecompositionPoset, IntPolynomial, WebDiagram, validate_diagram, web_world, world_matrices
from webworlds.cases import (
    adjacent_distinct_counts,
    chain_world,
    cycle_world,
    fan_diagram,
    fan_world,
    minimal_colour_count,
    sign_vectors,
)
from webworlds.diagram import apply_permutations, subweb
from webworlds.enumeration import (
    count_proper_worlds,
    count_worlds_no_isolated,
    count_worlds_series,
    enumerate_worlds,
)
from webworlds.errors import MalformedInput
from webworlds.matrices import X, ordered_bell_polynomial
from webworlds.transitive import count_transitive, transitive_matrices

# pegs 1..3 with heights 1, 2, 1
BEND = validate_diagram(((1, 2, 1, 1), (2, 3, 2, 1)), 3)
SINGLE = validate_diagram(((1, 2, 1, 1),), 2)
ONE_EDGE = [((0, 1), (0, 0))]

# slot: (call of the slot's value, its integer value, the answer for that integer)
SLOTS = {
    "WebDiagram-left-peg": (lambda v: WebDiagram(((v, 2, 1, 1),), 2).edges, 1, ((1, 2, 1, 1),)),
    "WebDiagram-right-height": (lambda v: WebDiagram(((1, 2, 1, v),), 2).edges, 1, ((1, 2, 1, 1),)),
    "WebDiagram-pegs": (lambda v: WebDiagram(((1, 2, 1, 1),), v).num_pegs, 2, 2),
    "fan_diagram": (lambda v: fan_diagram((v, 2)).edges, 1, ((1, 3, 1, 1), (2, 3, 1, 2))),
    "apply_permutations": (
        lambda v: apply_permutations(BEND, [[1], [v, 1], [1]]).edges,
        2,
        ((1, 2, 1, 2), (2, 3, 1, 1)),
    ),
    "subweb": (lambda v: subweb(BEND, [(1, 2, 1, v)]).edges, 1, ((1, 2, 1, 1),)),
    "minimal_colour_count": (lambda v: minimal_colour_count((v, 2), (2, 1)), 1, 2),
    "chain_world": (lambda v: len(chain_world(v)), 2, 4),
    "cycle_world": (lambda v: len(cycle_world(v)), 3, 8),
    "fan_world": (lambda v: len(fan_world(v)), 3, 6),
    "sign_vectors": (sign_vectors, 2, ((1, 1), (1, -1), (-1, 1), (-1, -1))),
    "count_worlds_series-pegs": (lambda v: count_worlds_series(v, 1, 1), 2, 1),
    "count_worlds_series-edges": (lambda v: count_worlds_series(3, v, 1), 2, 3),
    "count_worlds_series-pairs": (lambda v: count_worlds_series(3, 2, v), 1, 3),
    "count_worlds_no_isolated-pegs": (lambda v: count_worlds_no_isolated(v, 1, 1), 2, 1),
    "count_worlds_no_isolated-edges": (lambda v: count_worlds_no_isolated(3, v, 2), 2, 3),
    "count_worlds_no_isolated-pairs": (lambda v: count_worlds_no_isolated(3, 2, v), 2, 3),
    "count_proper_worlds-pegs": (lambda v: count_proper_worlds(v, 1, 1), 2, 1),
    "count_proper_worlds-edges": (lambda v: count_proper_worlds(3, v, 2), 2, 3),
    "count_proper_worlds-pairs": (lambda v: count_proper_worlds(3, 2, v), 2, 3),
    "count_transitive": (count_transitive, 3, 5),
    "transitive_matrices": (transitive_matrices, 1, tuple(ONE_EDGE)),
    "enumerate_worlds-pegs": (lambda v: list(enumerate_worlds(v, 0)), 2, [((0, 0), (0, 0))]),
    "enumerate_worlds-edges": (lambda v: list(enumerate_worlds(2, v)), 1, [((0, 0), (0, 0)), *ONE_EDGE]),
    "enumerate_worlds-exact": (lambda v: list(enumerate_worlds(2, 0, exact_edges=v)), 1, ONE_EDGE),
    "enumerate_worlds-guard": (lambda v: len(list(enumerate_worlds(2, 1, max_matrices=v))), 3, 2),
    "ordered_bell_polynomial": (ordered_bell_polynomial, 2, IntPolynomial((0, 1, 2))),
    "IntPolynomial-scale": (lambda v: X * v, 2, IntPolynomial((0, 2))),
    "IntPolynomial-rscale": (lambda v: v * X, 2, IntPolynomial((0, 2))),
    "IntPolynomial-power": (lambda v: X**v, 2, IntPolynomial((0, 0, 1))),
    "adjacent_distinct_counts-n": (lambda v: adjacent_distinct_counts(v, 2), 3, (2, 0, 2)),
    "adjacent_distinct_counts-k": (lambda v: adjacent_distinct_counts(3, v), 2, (2, 0, 2)),
    "from_relations-size": (lambda v: DecompositionPoset.from_relations(v, ()).size, 2, 2),
    "from_relations-pair": (lambda v: DecompositionPoset.from_relations(2, [(v, 2)]).strict_pairs(), 1, ((1, 2),)),
    "web_world-guard": (lambda v: len(web_world(BEND, v)), 2, 2),
    "world_matrices-guard": (lambda v: world_matrices(web_world(SINGLE), v)[0].size, 1, 1),
}


@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_integer_slots_refuse_bool_and_float(slot):
    call, value, expected = SLOTS[slot]
    for bad in (True, float(value)):
        with pytest.raises(MalformedInput, match="must be an integer"):
            call(bad)
    assert call(value) == expected
