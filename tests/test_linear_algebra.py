"""Row sums, traces, idempotence and rank on the exact integer rows and flip blocks.

Oracles: plain Fraction arithmetic on the entries (a row-by-row sum, the
product R R, and Gauss elimination in conftest) on every world with at
most 4 pegs and 4 edges, on small fan, chain and cycle worlds, and on
their closed-form matrices.
"""

import itertools
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
from webworlds import enumeration, matrices
from webworlds.diagram import predicted_world_size
from webworlds.matrices import from_counts, ordered_bell_polynomial

from conftest import fraction_rank, small_worlds

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test needs hypothesis; the rest do not
    given = None


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


def fraction_block(rows, denom):
    return [[Fraction(v, denom) for v in row] for row in rows]


def test_flip_blocks_match_fraction_oracles(world_pairs):
    split = 0
    for name, (_poly, mix) in world_pairs:
        plus, minus = mix._flip_blocks()
        assert len(plus) + len(minus) == mix.size, name
        # a world's R commutes with its flip, so every flip pair splits off
        assert len(plus) - len(minus) == sum(1 for a, fa in enumerate(mix.flip) if a == fa), name
        split += bool(minus)
        ranks = []
        for block, (idempotent, found) in zip(mix._flip_blocks(), mix._block_checks):
            fractions = fraction_block(block, mix.denominator)
            assert idempotent == fraction_square_is_self(fractions), name
            assert found == matrices._block_rank(block, idempotent, mix.denominator), name
            assert found == fraction_rank(fractions), name
            ranks.append(found)
        assert rank(mix) == sum(ranks) == fraction_rank(mix.entries), name
    assert split > 100


def with_mirror_change(mix, a, b, delta):
    """R plus delta at (a, b) and at its flip image: R still commutes with the flip."""
    rows = [list(row) for row in mix.rows]
    for i, j in {(a, b), (mix.flip[a], mix.flip[b])}:
        rows[i][j] += delta
    return WorldMatrix(rows, mix.denominator, flip=mix.flip)


def test_unsplit_matrices_take_the_identity(case_pairs):
    _poly, fan = world_matrices(cases.fan_world(3))
    rows = [list(row) for row in fan.rows]
    a, b = 0, 1
    assert (fan.flip[a], fan.flip[b]) != (a, b)
    rows[a][b] += 1
    samples = [("flip fails", WorldMatrix(rows, fan.denominator, flip=fan.flip))]
    samples += [("from_entries", WorldMatrix.from_entries(fan.entries))]
    samples += [(name, mix) for name, (_poly, mix) in case_pairs]
    for name, matrix in samples:
        plus, minus = matrix._flip_blocks()
        assert plus == [list(row) for row in matrix.rows] and minus == [], name
        assert rank(matrix) == fraction_rank(matrix.entries), name


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


def test_world_matrices_equal_from_counts_of_their_rows(world_pairs):
    # the orbit walk fills R's rows as weighing every cell of M would
    for name, (poly, mix) in world_pairs:
        again_poly, again_mix = from_counts(poly.rows)
        assert again_poly.rows == poly.rows and again_mix.rows == mix.rows, name
        assert again_mix.denominator == mix.denominator, name


def test_matrices_read_their_kind_from_their_cells(world_pairs, case_pairs):
    for name, (poly, mix) in world_pairs + case_pairs:
        assert poly.polynomial and not mix.polynomial, name


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


@pytest.mark.parametrize("prime", [5, 7, 11])
def test_small_primes_rank_idempotent_blocks_without_bareiss(world_pairs, monkeypatch, bareiss_calls, prime):
    # none of these primes divides L = lcm(1..e) for e <= 4 edges
    monkeypatch.setattr(matrices, "_PRIME", prime)
    checked = 0
    for name, (poly, mix) in world_pairs:
        if len(poly.rows[0][0]) > 5:
            continue
        assert mix.denominator % prime, name
        for block in mix._flip_blocks():
            idempotent = matrices._squares_to_itself(block, mix.denominator)
            assert idempotent, name
            found = matrices._block_rank(block, idempotent, mix.denominator)
            assert found == fraction_rank(fraction_block(block, mix.denominator)), name
            checked += 1
    assert bareiss_calls == [] and checked > 200


def test_certificate_holds_when_the_prime_divides_the_denominator(bareiss_calls):
    p = matrices._PRIME
    # N = [[p, 1], [0, 0]] over L = p: p | L, so Bareiss gives the rank
    matrix = WorldMatrix.from_entries(((Fraction(1), Fraction(1, p)), (Fraction(0), Fraction(0))))
    assert matrix.denominator == p
    assert is_idempotent(matrix)
    assert rank(matrix) == 1
    # the unsplit matrix brings its empty N- block along
    assert bareiss_calls == [2, 0]


def test_short_certificate_falls_back_to_bareiss(bareiss_calls):
    p = matrices._PRIME
    # idempotent of rank 2 over L = p, but N mod p has rank 1
    one, zero, tiny = Fraction(1), Fraction(0), Fraction(1, p)
    rows = ((one, zero, zero), (zero, one, zero), (tiny, zero, zero))
    matrix = WorldMatrix.from_entries(rows)
    assert matrix.denominator == p and is_idempotent(matrix)
    assert matrices._rank_mod_p(matrix.rows) == 1
    assert rank(matrix) == fraction_rank(rows) == 2
    assert bareiss_calls == [3, 0]


def test_a_prime_dividing_the_denominator_falls_back_to_bareiss(monkeypatch, bareiss_calls):
    # 3 divides L = 6 on fan 3, whose N+ block has rank 2 but rank 1 mod 3
    monkeypatch.setattr(matrices, "_PRIME", 3)
    _poly, mix = world_matrices(cases.fan_world(3))
    assert [matrices._rank_mod_p(block) for block in mix._flip_blocks()] == [1, 0]
    assert rank(mix) == fraction_rank(mix.entries) == 2
    assert bareiss_calls == [3, 3]


def test_an_empty_block_needs_no_bareiss(bareiss_calls):
    matrix = WorldMatrix.from_entries(world_matrices(cases.fan_world(3))[1].entries)
    assert matrix._flip_blocks()[1] == []
    assert rank(matrix) == fraction_rank(matrix.entries) == 2
    assert matrices._block_rank([], True, matrix.denominator) == 0
    assert bareiss_calls == []


def test_possible_field_overflow_falls_back_to_bareiss(monkeypatch, bareiss_calls):
    # with a 31-bit prime, n p^2 no longer fits 64 bits from n = 4 on
    monkeypatch.setattr(matrices, "_PRIME", (1 << 31) - 1)
    _poly, mix = world_matrices(cases.fan_world(4))
    assert all(matrices._rank_mod_p(block) is None for block in mix._flip_blocks())
    assert rank(mix) == fraction_rank(mix.entries) == 6
    assert bareiss_calls == [12, 12]


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
            # the same change at the flip image keeps the flip split
            mirrored = with_mirror_change(mix, i, j, int(delta / step))
            assert mirrored._flip_blocks()[1], (i, j)
            assert not fraction_square_is_self(mirrored.entries)
            assert not is_idempotent(mirrored), (i, j, delta)
            assert rank(mirrored) == fraction_rank(mirrored.entries), (i, j, delta)


if given is not None:

    @st.composite
    def small_world(draw):
        pegs = draw(st.integers(2, 4))
        pairs = list(itertools.combinations(range(pegs), 2))
        counts = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
        assume(0 < sum(counts) <= 5)
        rows = [[0] * pegs for _ in range(pegs)]
        for (a, b), count in zip(pairs, counts):
            rows[a][b] = count
        diagram = enumeration.seed_diagram(enumeration.validate_represent(rows))
        assume(predicted_world_size(diagram) <= 48)
        return web_world(diagram)

    @settings(max_examples=30, deadline=5000)
    @given(small_world())
    def test_structure_laws_property(world):
        poly, mix = world_matrices(world)
        edges = world.edge_count
        assert set(row_sums(poly)) == {ordered_bell_polynomial(edges)}
        assert set(row_sums(mix)) == {Fraction(edges == 1)}
        assert is_idempotent(mix) and fraction_square_is_self(mix.entries)
        assert trace(mix) == rank(mix) == fraction_rank(mix.entries)
