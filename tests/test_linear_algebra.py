"""Row sums, traces, idempotence and rank on the exact integer rows.

Oracles: plain Fraction arithmetic on the entries (a row-by-row sum, the
product R R, and Gauss elimination in conftest) on every world with at
most 4 pegs and 4 edges, on small fan, chain and cycle worlds, and on
their closed-form matrices.
"""

import math
import operator
from fractions import Fraction
from functools import reduce

import pytest

from webworlds import (
    WorldMatrix,
    cases,
    is_idempotent,
    rank,
    row_sums,
    trace,
    validate_diagram,
    web_world,
    world_matrices,
)
from webworlds import matrices

from conftest import fraction_rank, small_worlds


@pytest.fixture(scope="module")
def world_pairs():
    return [(name, world_matrices(world)) for name, world in small_worlds()]


@pytest.fixture(scope="module")
def case_pairs():
    """Closed-form matrices: fan cells from a table, chain and cycle cells by counting."""
    return (
        [(f"fan{n}", cases.fan_matrices(n)[1:]) for n in range(1, 5)]
        + [(f"chain{n}", cases.chain_matrices(n)[1:]) for n in range(1, 5)]
        + [(f"cycle{n}", cases.cycle_matrices(n)[1:]) for n in range(2, 6)]
    )


def fraction_square_is_self(rows):
    """R R == R over Fractions: row i of R R as a combination of the rows."""
    for row in rows:
        acc = [Fraction(0)] * len(rows)
        for a, other in zip(row, rows):
            if a:
                acc = [x + a * y if y else x for x, y in zip(acc, other)]
        if acc != list(row):
            return False
    return True


def test_rank_and_idempotence_match_fraction_oracles(world_pairs, case_pairs):
    for name, (_poly, mix) in world_pairs + case_pairs:
        assert fraction_square_is_self(mix.entries), name
        assert is_idempotent(mix), name
        assert rank(mix) == fraction_rank(mix.entries), name


def test_structure_checks_build_no_entries():
    # the checks read the integer rows; entries exist only for output
    fresh = [(name, world_matrices(world)) for name, world in small_worlds()]
    fresh += [("fan3", cases.fan_matrices(3)[1:]), ("chain3", cases.chain_matrices(3)[1:])]
    for name, pair in fresh:
        for matrix in pair:
            row_sums(matrix)
            trace(matrix)
            if not matrix.polynomial:
                is_idempotent(matrix)
                rank(matrix)
            assert "entries" not in matrix.__dict__, name


def test_from_entries_round_trips(world_pairs, case_pairs):
    for name, pair in world_pairs + case_pairs:
        for matrix in pair:
            again = WorldMatrix.from_entries(matrix.entries)
            assert again.entries == matrix.entries, name
            assert row_sums(again) == row_sums(matrix), name
            assert trace(again) == trace(matrix), name
            assert row_sums(matrix) == tuple(reduce(operator.add, r) for r in matrix.entries), name
            diagonal = (row[i] for i, row in enumerate(matrix.entries))
            assert trace(matrix) == reduce(operator.add, diagonal), name


@pytest.fixture
def bareiss_calls(monkeypatch):
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return bareiss(rows)

    bareiss = matrices._bareiss_rank
    monkeypatch.setattr(matrices, "_bareiss_rank", spy)
    return calls


def test_idempotent_world_matrices_need_no_bareiss(world_pairs, bareiss_calls):
    for name, (_poly, mix) in world_pairs:
        rank(mix)
    assert bareiss_calls == []


def test_non_idempotent_matrices_fall_back_to_bareiss(bareiss_calls):
    samples = [
        ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1))),
        ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))),
        ((2, 1, 1), (1, 3, 1), (1, 1, 4)),
    ]
    for rows in samples:
        matrix = WorldMatrix.from_entries(rows)
        assert not is_idempotent(matrix)
        assert rank(matrix) == fraction_rank(rows)
    assert bareiss_calls == [2, 2, 3]


def test_certificate_holds_when_the_prime_divides_the_denominator(bareiss_calls):
    p = matrices._PRIME
    # N = [[p, 1], [0, 0]] over L = p: both N and L I - N have rank 1 mod p
    matrix = WorldMatrix.from_entries(((Fraction(1), Fraction(1, p)), (Fraction(0), Fraction(0))))
    assert matrix.denominator == p
    assert is_idempotent(matrix)
    assert rank(matrix) == 1
    assert bareiss_calls == []


def test_short_certificate_falls_back_to_bareiss(bareiss_calls):
    p = matrices._PRIME
    # idempotent of rank 2, but N mod p and L I - N mod p have rank 1 each
    one, zero, tiny = Fraction(1), Fraction(0), Fraction(1, p)
    matrix = WorldMatrix.from_entries(((one, zero, zero), (zero, one, zero), (tiny, zero, zero)))
    assert is_idempotent(matrix)
    assert matrices._rank_mod_p(matrix.rows) == 1
    assert rank(matrix) == 2
    assert bareiss_calls == [3]


def test_forced_short_certificate_still_gives_the_rank(monkeypatch, bareiss_calls):
    monkeypatch.setattr(matrices, "_rank_mod_p", lambda rows: 0)
    _poly, mix = world_matrices(cases.fan_world(4))
    assert rank(mix) == fraction_rank(mix.entries) == 6
    assert bareiss_calls == [24]


def test_possible_field_overflow_falls_back_to_bareiss(monkeypatch, bareiss_calls):
    # with a 31-bit prime, n p^2 no longer fits 64 bits from n = 4 on
    monkeypatch.setattr(matrices, "_PRIME", (1 << 31) - 1)
    _poly, mix = world_matrices(cases.fan_world(3))
    assert matrices._rank_mod_p(mix.rows) is None
    assert rank(mix) == fraction_rank(mix.entries) == 2
    assert bareiss_calls == [6]


def test_modular_rank_alone_can_undercount():
    p = matrices._PRIME
    assert matrices._rank_mod_p([[p, 0], [0, 1]]) == 1
    assert matrices._rank_mod_p([[3, 1], [6, 2 + p]]) == 1
    assert matrices._rank_mod_p([[3, 1], [6, 3]]) == 2


@pytest.mark.parametrize(
    "world",
    [
        web_world(validate_diagram(((1, 2, 1, 1), (2, 3, 2, 1), (3, 4, 2, 1)))),
        web_world(validate_diagram(((1, 2, 1, 1), (1, 2, 2, 3), (1, 3, 3, 1), (2, 3, 2, 2)))),
        cases.fan_world(4),
        cases.cycle_world(4),
    ],
    ids=["path4", "parallel4", "fan4", "cycle4"],
)
def test_single_entry_changes_break_idempotence(world):
    _poly, mix = world_matrices(world)
    entries = [list(row) for row in mix.entries]
    step = Fraction(1, math.lcm(*range(1, world.edge_count + 1)))
    n = len(entries)
    cells = [(i, j) for i in range(n) for j in range(n)]
    negative = next(c for c in cells if entries[c[0]][c[1]] < 0)
    largest = max(cells, key=lambda c: abs(entries[c[0]][c[1]]))
    assert is_idempotent(WorldMatrix.from_entries(entries))
    for i, j in [(n // 2, 0), (n // 2, n - 1), negative, largest]:
        for delta in (step, -step):
            changed = [row[:] for row in entries]
            changed[i][j] += delta
            assert not fraction_square_is_self(changed)
            assert not is_idempotent(WorldMatrix.from_entries(changed)), (i, j, delta)
