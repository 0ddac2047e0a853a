"""Colouring counts of whole worlds against direct enumeration.

world_matrices counts one row per orbit of the symmetry group generated
by the web graph's peg automorphisms and the height flip, and fills the
other rows by permuting columns; the oracle `verify._enumerated_counts`
restacks every surjective colouring instead.
"""

import ast
import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import webworlds
from webworlds import (
    IntPolynomial,
    cases,
    enumeration,
    predicted_world_size,
    trace,
    validate_diagram,
    web_world,
    world_matrices,
)
from webworlds import diagram as diagram_module
from webworlds import matrices, verify
from webworlds.diagram import flip
from webworlds.errors import InconsistentResult
from webworlds.matrices import _colouring_counts
from webworlds.verify import _enumerated_counts

from conftest import NINE_EDGE_EDGES, flipped, small_worlds

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test needs hypothesis; the rest do not
    given = None


@pytest.fixture(scope="module")
def oracle_worlds():
    return [(name, world, _enumerated_counts(world)) for name, world in small_worlds()]


def test_small_world_sweep_covers_parallel_edges():
    represents = [
        rows
        for rows in enumeration.enumerate_worlds(4, 4, no_isolated=True)
        if any(any(r) for r in rows)
    ]
    assert len(represents) == 123
    assert sum(1 for rows in represents if any(v > 1 for r in rows for v in r)) == 84


def test_world_matrices_equal_enumeration(oracle_worlds):
    for name, world, brute in oracle_worlds:
        poly, mix = world_matrices(world)
        for i, row in enumerate(brute):
            for j, cell in enumerate(row):
                assert poly.entries[i][j] == IntPolynomial(cell), (name, i, j)
                expected = sum(
                    (Fraction((-1) ** (k - 1) * c, k) for k, c in enumerate(cell) if k),
                    Fraction(0),
                )
                assert mix.entries[i][j] == expected, (name, i, j)


def test_flip_identity_holds_for_enumeration(oracle_worlds):
    for name, world, brute in oracle_worlds:
        mirror = [world.index_of(flipped(d)) for d in world]
        assert [world.index_of(flip(d)) for d in world] == mirror, name
        assert sorted(mirror) == list(range(len(world))), name
        for i, row in enumerate(brute):
            for j, cell in enumerate(row):
                assert brute[mirror[i]][mirror[j]] == cell, (name, i, j)


def _relabelled(diagram, sigma):
    """The diagram with peg p renamed sigma[p - 1], built and validated anew."""
    edges = []
    for a, b, ha, hb in diagram.edges:
        x, y = sigma[a - 1], sigma[b - 1]
        edges.append((x, y, ha, hb) if x < y else (y, x, hb, ha))
    return validate_diagram(edges, diagram.num_pegs)


def _automorphisms(diagram):
    """Every peg permutation keeping the peg-pair multiplicities, by listing all."""
    pairs = dict(diagram.peg_pair_counts())
    return [
        sigma
        for sigma in itertools.permutations(range(1, diagram.num_pegs + 1))
        if {tuple(sorted((sigma[a - 1], sigma[b - 1]))): m for (a, b), m in pairs.items()} == pairs
    ]


def test_peg_automorphism_identity_holds_for_enumeration(oracle_worlds):
    # M(s D, s D2) = M(D, D2) for every peg automorphism s, as the flip
    # identity above, with every image built and validated anew
    moved = 0
    for name, world, brute in oracle_worlds:
        sigmas = _automorphisms(world[0])
        assert sigmas[0] == tuple(range(1, world.num_pegs + 1)), name
        for sigma in sigmas[1:]:
            image = [world.index_of(_relabelled(d, sigma)) for d in world]
            assert sorted(image) == list(range(len(world))), name
            moved += image != list(range(len(world)))
            for i, row in enumerate(brute):
                for j, cell in enumerate(row):
                    assert brute[image[i]][image[j]] == cell, (name, i, j)
    assert moved > 150


def _order(gens, size):
    """Order of the group that a strong generating set for the base 0, 1, ... generates."""
    order = 1
    for i in range(size):
        fixing = [g for g in gens if all(g[j] == j for j in range(i))]
        order *= len(diagram_module._orbits(fixing, size)[i])
    return order


def test_peg_automorphisms_generate_every_automorphism():
    for name, world in small_worlds():
        diagram = world[0]
        gens = diagram_module._peg_automorphisms(diagram)
        found = set(map(tuple, _automorphisms(diagram)))
        assert all(tuple(p + 1 for p in g) in found for g in gens), name
        assert _order(gens, diagram.num_pegs) == len(found), name
    # eight edges that share no peg: 8! 2^8 automorphisms, a few generators
    started = time.perf_counter()
    apart = validate_diagram([(2 * i - 1, 2 * i, 1, 1) for i in range(1, 9)], 16)
    gens = diagram_module._peg_automorphisms(apart)
    assert len(gens) <= 16
    assert _order(gens, 16) == math.factorial(8) * 2**8
    assert time.perf_counter() - started < 1.0


def test_pegs_without_endpoints_stay_fixed():
    path = validate_diagram([(1, 2, 1, 1), (2, 3, 2, 1)], 6)
    assert diagram_module._peg_automorphisms(path) == [(2, 1, 0, 3, 4, 5)]


def test_symmetry_generators_match_images_built_edge_by_edge():
    # the flip first, then one permutation per peg automorphism: each member's image,
    # moved edge by edge, sorted and looked up, is the member the permutation names
    triangle = web_world(enumeration.seed_diagram(((0, 2, 1), (0, 0, 1), (0, 0, 0))))
    worlds = [triangle, *(world for _name, world in small_worlds()), cases.fan_world(5), cases.cycle_world(6)]
    for world in worlds:
        sigmas = diagram_module._peg_automorphisms(world[0])
        heights = world[0].peg_heights
        moves = [lambda a, b, ha, hb: (a, b, heights[a - 1] + 1 - ha, heights[b - 1] + 1 - hb)]
        for s in sigmas:
            moves.append(lambda a, b, ha, hb, s=s: (s[a - 1] + 1, s[b - 1] + 1, ha, hb))
        images = [[] for _move in moves]
        for member in world.keys:
            for image, move in zip(images, moves):
                moved = [move(*edge) for edge in member]
                # an edge lists the endpoint on its lower peg first
                moved = [(x, y, hx, hy) if x < y else (y, x, hy, hx) for x, y, hx, hy in moved]
                image.append(world.index[tuple(sorted(moved))])
        assert [flip(d).edges for d in world] == [world.keys[i] for i in images[0]]
        assert diagram_module._symmetry_generators(world) == images, world[0]


def _complete(n):
    return enumeration.seed_diagram([[1 if j > i else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize(
    "world, orbits",
    [
        (cases.fan_world(5), 1),
        (cases.fan_world(6), 1),
        (cases.cycle_world(6), 8),
        (cases.chain_world(5), 10),
        (web_world(_complete(4)), 36),
        (web_world(validate_diagram(NINE_EDGE_EDGES, 7)), 2352),
    ],
    ids=["fan5", "fan6", "cycle6", "chain5", "K4", "nine-edge"],
)
def test_symmetry_orbit_counts(world, orbits):
    found = diagram_module._symmetry_orbits(world)
    assert len(found) == orbits
    assert sorted(x for orbit in found for x, _y, _perm in orbit) == list(range(len(world)))
    for orbit in found:
        start, source, _perm = orbit[0]
        assert start == source == min(x for x, _y, _p in orbit)
        # each later member is one generator step from a member listed before it
        listed = {start}
        for x, y, perm in orbit[1:]:
            assert perm[x] == y and y in listed
            listed.add(x)


def test_k4_matrices_compute_one_row_per_orbit(monkeypatch):
    rows = []
    row = matrices._SubsetDP.row
    monkeypatch.setattr(matrices._SubsetDP, "row", lambda dp, d: rows.append(d) or row(dp, d))
    world = web_world(_complete(4))
    poly, mix = world_matrices(world)
    assert len(rows) == 36
    assert trace(mix) == 544
    assert poly.rows[5][77] == _colouring_counts(world[5], world[77])


@pytest.mark.parametrize("name, orbits", [("K4", 36), ("nine-edge", 2352)])
def test_members_are_built_only_for_orbit_representatives(monkeypatch, name, orbits):
    # world_matrices on K4 and world_traces on the nine-edge world build
    # member 0 and each orbit's representative, every other one once
    diagram = _complete(4) if name == "K4" else validate_diagram(NINE_EDGE_EDGES, 7)
    reps = {orbit[0][0] for orbit in diagram_module._symmetry_orbits(web_world(diagram))}
    asked = []
    getitem = diagram_module.WebWorld.__getitem__
    monkeypatch.setattr(
        diagram_module.WebWorld, "__getitem__", lambda world, i: asked.append(i) or getitem(world, i)
    )
    if name == "K4":
        world_matrices(web_world(diagram))
    else:
        matrices.world_traces(diagram)
    assert len(reps) == orbits and set(asked) == reps
    assert sorted(i for i in asked if i) == sorted(reps - {0})


def _one_row(world, member):
    dp = matrices._SubsetDP(world, [member])
    # one requested row leaves no pair varying: today's single-row pass
    assert not dp.lifts and set(dp.groups) == {0}
    return dp.row(member)


def test_shared_pass_rows_equal_one_row_passes():
    # every member of every small world requested at once, so every pair
    # whose order differs between members varies; the kernel reads the
    # first and the last row
    for name, world in small_worlds():
        if world.edge_count:
            dp = matrices._SubsetDP(world, list(world))
            for i, member in enumerate(world):
                row = dp.row(member)
                assert row == _one_row(world, member), (name, i)
                for j, target in enumerate(world if i in (0, len(world) - 1) else ()):
                    assert dp.unpack(row[j]) == _colouring_counts(member, target), (name, i, j)


def test_k4_shared_pass_rows_equal_one_row_passes():
    world = web_world(_complete(4))
    reps = [world[orbit[0][0]] for orbit in diagram_module._symmetry_orbits(world)]
    dp = matrices._SubsetDP(world, reps)
    assert len(reps) == 36 and dp.lifts
    for member in reps:
        row = dp.row(member)
        assert row == _one_row(world, member)
        for target in reps:
            cell = row[world.index_of(target)]
            assert dp.unpack(cell) == _colouring_counts(member, target)


def test_rows_must_be_requested(path4):
    world = web_world(path4)
    dp = matrices._SubsetDP(world, [world[0]])
    with pytest.raises(KeyError):
        dp.row(world[1])


if given is not None:

    @st.composite
    def requested_rows(draw):
        pegs = draw(st.integers(2, 4))
        pairs = [(a, b) for a in range(pegs) for b in range(a + 1, pegs)]
        counts = draw(
            st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)).filter(
                lambda counts: 0 < sum(counts) <= 4
            )
        )
        rows = [[0] * pegs for _ in range(pegs)]
        for (a, b), count in zip(pairs, counts):
            rows[a][b] = count
        world = web_world(enumeration.seed_diagram(rows))
        picked = draw(st.sets(st.integers(0, len(world) - 1), min_size=1, max_size=len(world)))
        return world, sorted(picked)

    @settings(max_examples=30, deadline=5000)
    @given(requested_rows())
    def test_shared_pass_property(case):
        # any set of requested rows, one row included, against reconstructing
        # every colouring
        world, picked = case
        brute = _enumerated_counts(world)
        dp = matrices._SubsetDP(world, [world[i] for i in picked])
        for i in picked:
            assert list(map(dp.unpack, dp.row(world[i]))) == list(map(tuple, brute[i])), i


@pytest.mark.parametrize(
    "world",
    [
        cases.fan_world(5),
        web_world(enumeration.seed_diagram(((0, 2, 1), (0, 0, 1), (0, 0, 0)))),
    ],
    ids=["fan5", "parallel"],
)
def test_equal_count_cells_share_one_tuple(world):
    cells = [cell for row in world_matrices(world)[0].rows for cell in row]
    assert len({id(cell) for cell in cells}) == len(set(cells))


def test_flip_is_an_involution(nine_edge):
    assert flip(flip(nine_edge)) == nine_edge
    assert flip(nine_edge) != nine_edge
    single = validate_diagram([(1, 2, 1, 1)])
    assert flip(single) == single


def test_world_size_mismatch_raises(monkeypatch, path4):
    monkeypatch.setattr(
        diagram_module, "predicted_world_size", lambda d: predicted_world_size(d) + 1
    )
    with pytest.raises(InconsistentResult, match="size formula 5"):
        web_world(path4)


def test_structure_suite_checks_counts_against_enumeration(monkeypatch):
    results = {r.name: r for r in verify.suite_structure(3, 3)}
    check = results["colouring counts match enumeration"]
    assert check.passed
    # every world of a (3, 3) sweep has at most 4 edges, so all are enumerated
    assert check.detail.endswith("with <= 3 edges, <= 3 pegs (13 instances)")
    assert results["idempotence"].detail.endswith("(13 instances)")

    def off_by_one(world):
        counts = enumerate_directly(world)
        counts[0][0][1] += 1
        return counts

    enumerate_directly = verify._enumerated_counts
    monkeypatch.setattr(verify, "_enumerated_counts", off_by_one)
    results = {r.name: r for r in verify.suite_structure(3, 3)}
    assert not results["colouring counts match enumeration"].passed
    assert all(r.passed for name, r in results.items() if name != "colouring counts match enumeration")


def test_enumeration_oracle_shares_no_code_with_the_routes_it_checks(monkeypatch, path4):
    # the oracle must give the same counts with the subset pass, the kernel,
    # the fixed-point DP and the symmetry generators all out of reach
    worlds = [
        web_world(path4),
        web_world(enumeration.seed_diagram(((0, 2, 1), (0, 0, 1), (0, 0, 0)))),
        cases.fan_world(3),
    ]
    expected = [_enumerated_counts(world) for world in worlds]

    def unreachable(*args, **kwargs):
        raise AssertionError("the enumeration oracle reached a route it checks")

    for module, name in (
        (matrices, "_SubsetDP"),
        (matrices, "_colouring_counts"),
        (matrices, "_fixed_point_counts"),
        (matrices, "_symmetry_generators"),
        (verify, "_colouring_counts"),
        (diagram_module, "_symmetry_generators"),
    ):
        monkeypatch.setattr(module, name, unreachable)
    assert [verify._enumerated_counts(world) for world in worlds] == expected


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check in the library may be one
    source = Path(webworlds.__file__).resolve().parent
    files = sorted(source.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts on lines {lines}"


def test_structure_suite_passes_without_asserts():
    # python -O strips assert statements, so every correctness check must
    # survive it; the subprocess also confirms that -O took effect
    script = (
        "from webworlds import verify\n"
        "results = verify.suite_structure(3, 3)\n"
        "print(__debug__, len(results), all(r.passed for r in results))\n"
    )
    env = dict(os.environ)
    source = str(Path(webworlds.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "8", "True"]
