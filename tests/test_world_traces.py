"""Matrix-free traces: the fixed-point DP and the single-target kernel.

`world_traces` takes trace M(x) and trace R from the fixed-point DP when
the world has no parallel edges, and otherwise from the diagonal cells
of the single-target kernel. Both routes are set against
`world_matrices`, the kernel's single cells against subset-DP rows, and
the kernel's identity-relabelling part against the fixed-point DP on
labelled edges, a second route that needs no matrix.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from webworlds import (
    IntPolynomial,
    enumeration,
    predicted_world_size,
    trace,
    validate_diagram,
    web_world,
    world_matrices,
)
from webworlds import diagram as diagram_module
from webworlds import matrices, verify
from webworlds.errors import BadRange, WorldTooLarge
from webworlds.matrices import (
    _colouring_counts,
    colouring_entry,
    mixing_entry,
    reconstruction_count,
    world_traces,
)

from conftest import NINE_EDGE_EDGES, small_worlds

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test needs hypothesis; the rest do not
    given = None

NINE_EDGE_TRACE = IntPolynomial(
    (0, 9216, 113724, 658278, 2171736, 4416840, 5646240, 4420080, 1935360, 362880)
)


def _world_of(rows):
    return enumeration.seed_diagram(enumeration.validate_represent(rows))


def _complete(n):
    return _world_of([[1 if j > i else 0 for j in range(n)] for i in range(n)])


@pytest.fixture
def no_worlds(monkeypatch):
    """Make building a world fail, so a result provably needs none."""

    def refuse(*args, **kwargs):
        raise AssertionError("a world was built")

    monkeypatch.setattr("webworlds.matrices.web_world", refuse)
    monkeypatch.setattr("webworlds.diagram.web_world", refuse)


def _group_order(diagram):
    return math.prod(map(math.factorial, diagram.peg_pair_counts().values()))


def test_world_traces_match_matrix_traces():
    for name, world in small_worlds():
        if world.edge_count == 0:
            with pytest.raises(BadRange, match="at least one edge"):
                world_traces(world[0])
            continue
        poly, mix = world_matrices(world)
        for member in (world[0], world[len(world) - 1]):
            assert world_traces(member) == (trace(poly), trace(mix)), name


def test_row_diagonals_match_matrix_traces():
    # the diagonal cell of each subset-DP row is the kernel's diagonal
    # cell, and together they sum to the matrix trace
    checked = 0
    for name, world in small_worlds():
        if world.edge_count and _group_order(world[0]) > 1:
            poly, _mix = world_matrices(world)
            dp = matrices._SubsetDP(world, list(world))
            diagonal = []
            for idx, member in enumerate(world):
                cell = dp.unpack(dp.row(member)[idx])
                assert _colouring_counts(member, member) == cell, (name, idx)
                diagonal.append(cell)
            assert IntPolynomial(map(sum, zip(*diagonal))) == trace(poly), name
            checked += 1
    assert checked > 20


def _bundle(size):
    return validate_diagram([(1, 2, h, h) for h in range(1, size + 1)], 2)


def test_kernel_traces_of_bundles(monkeypatch):
    # bundles of parallel edges, with and without a triangle beside them:
    # the kernel alone, since no subset-DP row can be built
    expected = {}
    for size in range(2, 6):
        poly, mix = world_matrices(web_world(_bundle(size)))
        expected[size] = (trace(poly), trace(mix))
    monkeypatch.setattr(matrices, "_SubsetDP", None)
    for size, traces in expected.items():
        assert world_traces(_bundle(size)) == traces, size
    # the full-matrix route's output for a bundle of six
    six = (IntPolynomial((0, 720, 532, 1002, 1920, 1920, 720)), Fraction(572))
    assert world_traces(_bundle(6)) == six
    beside = _world_of([[0, 4, 1], [0, 0, 1], [0, 0, 0]])
    assert predicted_world_size(beside) == 1200
    poly, mix = world_traces(beside)
    assert poly == IntPolynomial((0, 1200, 1678, 2376, 2976, 2280, 720))
    assert mix == 745


def test_kernel_skips_relabellings_that_count_zero(monkeypatch):
    # a bundle of five: 271 of the 120 x 120 relabellings of its diagonal
    # cells count nonzero, and a strict pattern needs one chain count
    calls = 0
    count = matrices._down_set_chains

    def counted(*args):
        nonlocal calls
        calls += 1
        return count(*args)

    world = web_world(_bundle(5))
    poly, _mix = world_matrices(world)
    monkeypatch.setattr(matrices, "_down_set_chains", counted)
    assert IntPolynomial(map(sum, zip(*(_colouring_counts(d, d) for d in world)))) == trace(poly)
    assert calls <= 271


def _identity_part(world, monkeypatch):
    """Sum over members of the identity-relabelling term of the diagonal."""
    with monkeypatch.context() as patch:
        # no parallel edge to place: the identity is the only relabelling
        patch.setattr(matrices, "_parallel_runs", lambda pairs: ((), (-1,) * len(pairs), 1))
        return [sum(column) for column in zip(*(_colouring_counts(d, d) for d in world))]


def test_identity_relabelling_times_group_is_the_fixed_point_dp(monkeypatch):
    worlds = [(name, w) for name, w in small_worlds() if w.edge_count and _group_order(w[0]) > 1]
    worlds.append(("nine-edge", web_world(validate_diagram(NINE_EDGE_EDGES, 7))))
    assert len(worlds) > 20
    for name, world in worlds:
        group = _group_order(world[0])
        labelled = [group * c for c in _identity_part(world, monkeypatch)]
        assert labelled == list(matrices._fixed_point_counts(world[0])), name


def test_structure_checks_catch_wrong_matrix_free_counts(monkeypatch):
    new_checks = ("fixed-point traces match matrix traces", "kernel diagonals match matrices")
    results = {r.name: r for r in verify.suite_structure(3, 3)}
    assert all(results[name].passed for name in new_checks)
    assert results[new_checks[0]].detail.endswith("(5 instances)")
    monkeypatch.setattr(matrices, "_fixed_point_counts", lambda diagram: (0, 1))
    monkeypatch.setattr(verify, "_colouring_counts", lambda d1, d2: (0,) * (d1.edge_count + 1))
    results = {r.name: r for r in verify.suite_structure(3, 3)}
    assert not any(results[name].passed for name in new_checks)
    assert all(r.passed for name, r in results.items() if name not in new_checks)


def test_k4_trace_without_a_world(no_worlds):
    poly, mix = world_traces(_complete(4))
    assert mix == 544
    assert poly.coefficient(1) == 1296


def test_k5_trace_without_a_world(no_worlds):
    k5 = _complete(5)
    assert predicted_world_size(k5) == 7_962_624
    poly, mix = world_traces(k5)
    assert mix == Fraction(3_420_936)
    assert poly.coefficient(1) == 7_962_624
    # every colouring with all ten colours distinct fixes exactly one member
    assert poly.coefficient(10) == math.factorial(10)


def test_nine_edge_world_traces(monkeypatch):
    # two relabellings per kernel cell against 3^9 steps per row: the kernel
    nine = validate_diagram(NINE_EDGE_EDGES, 7)
    assert matrices._kernel_work(nine) < 3**9
    monkeypatch.setattr(matrices, "_SubsetDP", None)
    poly, mix = world_traces(nine)
    assert poly == NINE_EDGE_TRACE
    assert mix == 1014


def test_disconnected_world_has_zero_mixing_trace():
    # a path on pegs 1-3 next to a triangle on pegs 4-6: no parallel edges
    rows = [[0] * 6 for _ in range(6)]
    for a, b in ((0, 1), (1, 2), (3, 4), (3, 5), (4, 5)):
        rows[a][b] = 1
    diagram = _world_of(rows)
    poly, mix = world_traces(diagram)
    assert mix == 0
    # one colour fixes every member
    assert poly.coefficient(1) == predicted_world_size(diagram) == 16


def test_work_guard_refuses_before_counting(no_worlds):
    path = validate_diagram([(i, i + 1, 1 if i == 1 else 2, 1) for i in range(1, 17)], 17)
    with pytest.raises(WorldTooLarge, match="-step guard"):
        world_traces(path)
    # parallel edges: the kernel's estimate is over the guard
    doubled = _world_of([[0, 2, 1, 1], [0, 0, 1, 1], [0, 0, 0, 2], [0, 0, 0, 0]])
    with pytest.raises(WorldTooLarge, match="-step guard"):
        world_traces(doubled)


def test_kernel_estimate_counts_free_edges_as_three_way():
    # two parallel edges and sixteen edges alone on their pegs: the chain DP
    # visits 3^16 pairs of down-sets on the free edges, not 2^16
    pair = [(1, 2, 1, 1), (1, 2, 2, 2)]
    free = [(2 * i + 1, 2 * i + 2, 1, 1) for i in range(1, 17)]
    diagram = validate_diagram(pair + free, 34)
    assert matrices._kernel_work(diagram) == 2 * (18**2 + 6 * 3**16)
    started = time.perf_counter()
    with pytest.raises(WorldTooLarge, match="-step guard"):
        world_traces(diagram)
    with pytest.raises(WorldTooLarge, match="-step guard"):
        colouring_entry(diagram, diagram)
    assert time.perf_counter() - started < 1.0


def _order_preserving_maps(below, size):
    """Maps of the edges to {0, 1, 2} that keep every constraint u <= v."""
    return sum(
        all(c[u] <= c[v] for v in range(size) for u in range(size) if below[v] >> u & 1)
        for c in itertools.product(range(3), repeat=size)
    )


def test_kernel_estimate_bounds_the_down_set_pairs():
    # per relabelling, the chain DP visits at most the order-preserving maps
    # of the constraints to a 3-chain; _kernel_work must bound their sum
    checked = 0
    for name, world in small_worlds():
        if not 0 < world.edge_count <= 4:
            continue
        for diagram in (world[0], world[len(world) - 1]):
            size = diagram.edge_count
            orders = matrices._peg_orders(diagram)
            visited = 0
            runs = itertools.groupby(range(size), key=lambda idx: diagram.edges[idx][:2])
            relabellings = itertools.product(*(itertools.permutations(run) for _, run in runs))
            for images in relabellings:
                m = list(itertools.chain.from_iterable(images))
                below = [0] * size
                for order in orders:
                    for a, b in zip(order, order[1:]):
                        below[m[b]] |= 1 << m[a]
                visited += _order_preserving_maps(below, size) + size * size
            assert visited <= matrices._kernel_work(diagram), name
            checked += 1
    assert checked > 100


def test_entries_guard_their_work():
    # ten parallel edges: 10! relabellings
    bundle = validate_diagram([(1, 2, h, h) for h in range(1, 11)], 2)
    with pytest.raises(WorldTooLarge, match="-step guard"):
        colouring_entry(bundle, bundle)
    # twenty edges that share no peg: 3^20 pairs of down-sets, one relabelling
    isolated = validate_diagram([(2 * i - 1, 2 * i, 1, 1) for i in range(1, 21)], 40)
    with pytest.raises(WorldTooLarge, match="-step guard"):
        colouring_entry(isolated, isolated)


def test_huge_bundle_is_refused_before_any_factorial(monkeypatch):
    # 100,000 parallel edges: prod m! = 100000! >= 2^99999 refuses every
    # route from a lower bound, so the parallel runs are never computed
    bundle = validate_diagram([(1, 2, h, h) for h in range(1, 100_001)], 2)

    def refuse(pairs):
        raise AssertionError("parallel runs computed before the guard")

    monkeypatch.setattr(matrices, "_parallel_runs", refuse)
    with pytest.raises(WorldTooLarge, match=r"at least 2\^99999 diagrams"):
        world_traces(bundle)
    entries = [colouring_entry, mixing_entry, lambda d1, d2: reconstruction_count(d1, d2, 1)]
    for entry in entries:
        with pytest.raises(WorldTooLarge, match=r"over 2\^99999 estimated counting steps"):
            entry(bundle, bundle)


def test_max_size_guards_only_the_kernel_route():
    nine = validate_diagram(NINE_EDGE_EDGES, 7)
    with pytest.raises(WorldTooLarge, match="world has 9216 diagrams, guard is 9215"):
        world_traces(nine, max_size=9215)
    # 17 blocks on 7 pegs: a factor of at least 2^(b - 1) per peg, 2^10 in all
    with pytest.raises(WorldTooLarge, match=r"world has at least 2\^10 diagrams, guard is 100"):
        world_traces(nine, max_size=100)
    assert world_traces(_complete(4), max_size=1)[1] == 544


if given is not None:

    @st.composite
    def multiplicity_free(draw):
        pegs = draw(st.integers(2, 4))
        pairs = [(a, b) for a in range(pegs) for b in range(a + 1, pegs)]
        chosen = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=5))
        rows = [[1 if (a, b) in chosen else 0 for b in range(pegs)] for a in range(pegs)]
        return _world_of(rows)

    @settings(max_examples=40, deadline=5000)
    @given(multiplicity_free())
    def test_fixed_point_traces_property(diagram):
        poly, mix = world_matrices(web_world(diagram))
        assert world_traces(diagram) == (trace(poly), trace(mix))

    @st.composite
    def with_parallel_edges(draw):
        pegs = draw(st.integers(2, 3))
        pairs = [(a, b) for a in range(pegs) for b in range(a + 1, pegs)]
        counts = draw(
            st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)).filter(
                lambda counts: max(counts) > 1 and sum(counts) <= 5
            )
        )
        rows = [[0] * pegs for _ in range(pegs)]
        for (a, b), count in zip(pairs, counts):
            rows[a][b] = count
        return _world_of(rows)

    @st.composite
    def symmetric(draw):
        # multiplicities constant on the orbits of peg pairs under a reversal
        # or a rotation of the pegs: that turn is an automorphism of the web graph
        pegs = draw(st.integers(2, 4))
        turn = draw(st.sampled_from([lambda p: pegs - 1 - p, lambda p: (p + 1) % pegs]))
        drawn = {}
        rows = [[0] * pegs for _ in range(pegs)]
        for pair in itertools.combinations(range(pegs), 2):
            orbit = [pair]
            while (step := tuple(sorted(map(turn, orbit[-1])))) != pair:
                orbit.append(step)
            key = min(orbit)
            if key not in drawn:
                drawn[key] = draw(st.integers(0, 2))
            rows[pair[0]][pair[1]] = drawn[key]
        assume(0 < sum(map(sum, rows)) <= 5)
        diagram = _world_of(rows)
        assume(predicted_world_size(diagram) <= 48)
        return diagram

    @settings(max_examples=25, deadline=5000)
    @given(symmetric())
    def test_symmetric_world_matrices_property(diagram):
        # rows filled by a symmetry against cells counted one by one
        assert diagram_module._peg_automorphisms(diagram)
        world = web_world(diagram)
        poly, _mix = world_matrices(world)
        for i, d1 in enumerate(world):
            for j, d2 in enumerate(world):
                assert poly.rows[i][j] == _colouring_counts(d1, d2), (i, j)

    @settings(max_examples=30, deadline=5000)
    @given(with_parallel_edges(), st.data())
    def test_kernel_property(diagram, data):
        world = web_world(diagram)
        poly, mix = world_matrices(world)
        assert world_traces(diagram) == (trace(poly), trace(mix))
        drawn = [[world[data.draw(st.integers(0, len(world) - 1))] for _ in range(2)] for _ in range(2)]
        dp = matrices._SubsetDP(world, [d1 for d1, _d2 in drawn])
        for d1, d2 in drawn:
            cell = dp.unpack(dp.row(d1)[world.index_of(d2)])
            assert colouring_entry(d1, d2) == IntPolynomial(cell)
