"""Colouring counts of whole worlds against direct enumeration.

world_matrices counts colourings with a subset DP and fills half the
rows from the height-flip symmetry; the oracle in conftest reconstructs
every surjective colouring instead.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import webworlds
from webworlds import (
    IntPolynomial,
    cases,
    enumeration,
    predicted_world_size,
    validate_diagram,
    web_world,
    world_matrices,
)
from webworlds import diagram as diagram_module
from webworlds import verify
from webworlds.diagram import flip
from webworlds.enumeration import TruncatedSeries
from webworlds.errors import InconsistentResult

from conftest import enumerated_counts, flipped, small_worlds


@pytest.fixture(scope="module")
def oracle_worlds():
    return [(name, world, enumerated_counts(world)) for name, world in small_worlds()]


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


@pytest.mark.parametrize(
    "counter, args",
    [
        (enumeration.count_worlds_series, (3, 2, 1)),
        (enumeration.count_proper_worlds, (3, 2, 2)),
    ],
)
def test_fractional_series_coefficient_raises(monkeypatch, counter, args):
    monkeypatch.setattr(TruncatedSeries, "coefficient", lambda self, key: Fraction(1, 7))
    with pytest.raises(InconsistentResult, match="not an integer"):
        counter(*args)


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
