"""Matrix construction and structure theorems on small worlds.

Oracles: the ordered Bell recurrence, the Fubini number sequence, plain
fraction Gauss elimination for rank, and hand-checked tiny worlds.
"""

import dataclasses
import enum
import json
import random
from fractions import Fraction

import pytest

from webworlds import (
    IntPolynomial,
    WorldMatrix,
    is_idempotent,
    matrix_to_csv,
    matrix_to_json,
    mixing_from_polynomial,
    ordered_bell_polynomial,
    rank,
    row_sums,
    seed_diagram,
    trace,
    validate_diagram,
    web_world,
    world_matrices,
)
from webworlds import cases, matrices
from webworlds.diagram import _orbits, _symmetry_generators
from webworlds.errors import BadRange, DifferentWorlds, MalformedInput
from webworlds.matrices import (
    ONE,
    X,
    _SubsetDP,
    colouring_entry,
    from_counts,
    matrix_to_json_text,
    mixing_entry,
    polynomial_to_coeff_string,
    reconstruction_count,
)

from conftest import fraction_rank, small_worlds

# Values at x=1 of the ordered Bell polynomials.
FUBINI = (1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261)


def test_polynomial_arithmetic_basics():
    p = IntPolynomial((1, 2)) * IntPolynomial((0, 0, 3))
    assert p == IntPolynomial((0, 0, 3, 6))
    assert (X + ONE) ** 2 == IntPolynomial((1, 2, 1))
    assert X - X == IntPolynomial(())
    assert not (X - X)
    assert (3 * X).evaluate(5) == 15
    for add_an_int in (lambda: X + 1, lambda: X - 1):
        with pytest.raises(TypeError):
            add_an_int()
    assert IntPolynomial((1, 0, 0)).degree == 0
    assert str(IntPolynomial((0, 4, 10, 6))) == "4x + 10x^2 + 6x^3"
    assert str(IntPolynomial((-1, 1, 0, -2))) == "-1 + x - 2x^3"
    assert str(IntPolynomial((0, -1, 1))) == "-x + x^2"
    assert str(IntPolynomial(())) == "0"
    # the library builds its results without checking each coefficient again: they
    # equal the checked construction, trailing zeros trimmed
    rng = random.Random(5)
    for _ in range(200):
        a, b = ([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] for _ in range(2))
        p, q, k = IntPolynomial(a), IntPolynomial(b), rng.randint(-3, 3)
        product = [sum(a[i] * b[n - i] for i in range(len(a)) if 0 <= n - i < len(b)) for n in range(len(a) + len(b) - 1)]
        assert p + q == IntPolynomial([x + y for x, y in zip(a + [0] * len(b), b + [0] * len(a))])
        assert p - q == IntPolynomial([x - y for x, y in zip(a + [0] * len(b), b + [0] * len(a))])
        assert -p == IntPolynomial([-x for x in a])
        assert p * k == k * p == IntPolynomial([x * k for x in a])
        assert p * q == IntPolynomial(product)
        assert (p * q).coeffs[-1:] != (0,) and all(type(c) is int for c in (p * q).coeffs)


@pytest.mark.parametrize("coeffs", [(1.7, 2), (True,), (0, 1, 2.0), ("1",)])
def test_polynomial_coefficients_must_be_integers(coeffs):
    # (1.7, 2) printed as 1 + 2x before
    with pytest.raises(MalformedInput):
        IntPolynomial(coeffs)


def derivative(poly):
    return IntPolynomial([k * c for k, c in enumerate(poly.coeffs)][1:])


def polynomial_from_coeff_string(text):
    return IntPolynomial([int(part) for part in text.split(";")])


def test_ordered_bell_satisfies_the_derivative_recurrence():
    # b_{m+1}(x) = x * d/dx ((x+1) * b_m(x)), from appending the new
    # element to a colour class or inserting it as a class of its own.
    for m in range(9):
        current = ordered_bell_polynomial(m)
        expected_next = X * derivative((X + ONE) * current)
        assert ordered_bell_polynomial(m + 1) == expected_next
        assert current.evaluate(1) == FUBINI[m]


def test_single_edge_world_matrices():
    world = web_world(validate_diagram(((1, 2, 1, 1),)))
    poly, mix = world_matrices(world)
    assert poly.entries == ((X,),)
    assert mix.entries == ((Fraction(1),),)


def test_crossed_pair_world_matrices():
    # Two edges between the same pegs. Every 2-colouring stacks its two
    # singleton classes bottom-up, which always lands on the uncrossed
    # member, so the matrix is triangular with the uncrossed row first.
    world = web_world(validate_diagram(((1, 2, 1, 2), (1, 2, 2, 1))))
    poly, mix = world_matrices(world)
    assert [[list(e.coeffs) for e in row] for row in poly.entries] == [
        [[0, 1, 2], []],
        [[0, 0, 2], [0, 1]],
    ]
    assert mix.entries == (
        (Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(1)),
    )


def test_path4_matrix_traces_and_sums(path4):
    world = web_world(path4)
    poly, mix = world_matrices(world)
    assert trace(poly) == IntPolynomial((0, 4, 10, 6))
    assert trace(mix) == Fraction(1)
    assert set(row_sums(mix)) == {Fraction(0)}
    assert set(row_sums(poly)) == {ordered_bell_polynomial(3)}
    assert is_idempotent(mix)
    assert rank(mix) == 1


def test_matrix_builders_agree_with_entry_functions(vee):
    world = web_world(vee)
    poly, mix = world_matrices(world)
    for i, d1 in enumerate(world):
        for j, d2 in enumerate(world):
            assert poly.entries[i][j] == colouring_entry(d1, d2)
            assert mix.entries[i][j] == mixing_entry(d1, d2)
            assert mix.entries[i][j] == mixing_from_polynomial(poly.entries[i][j])
            for k in range(1, world.edge_count + 1):
                assert reconstruction_count(d1, d2, k) == poly.entries[i][j].coefficient(k)


def test_reconstruction_count_basics(path4):
    members = list(web_world(path4))
    assert all(reconstruction_count(d, d, 1) == 1 for d in members)
    assert sum(reconstruction_count(d, d, 3) for d in members) == 6
    with pytest.raises(BadRange):
        reconstruction_count(members[0], members[1], 0)
    with pytest.raises(BadRange):
        reconstruction_count(members[0], members[1], 4)
    with pytest.raises(DifferentWorlds):
        reconstruction_count(members[0], validate_diagram(((1, 2, 1, 1),)), 1)


def test_reconstruction_count_checks_colours_before_the_kernel(path4, monkeypatch):
    members = list(web_world(path4))

    def no_kernel(d1, d2):
        raise AssertionError("ran the kernel before checking the colour count")

    monkeypatch.setattr(matrices, "_colouring_counts", no_kernel)
    with pytest.raises(BadRange):
        reconstruction_count(members[0], members[1], 0)


def test_nine_edge_entries_need_no_world(nine_edge, monkeypatch):
    # reference: the target's cell in nine_edge's row of the subset DP
    world = web_world(nine_edge)
    dp = _SubsetDP(world, [nine_edge])
    row = dp.row(nine_edge)
    best = max(range(len(world)), key=lambda j: sum(dp.unpack(row[j])))
    target, expected = world[best], dp.unpack(row[best])
    assert expected == (0, 0, 5, 121, 936, 3367, 6447, 6794, 3726, 832)
    diagonal = dp.unpack(row[world.index_of(nine_edge)])

    def refuse(*args, **kwargs):
        raise AssertionError("a world was built")

    monkeypatch.setattr("webworlds.matrices.web_world", refuse)
    monkeypatch.setattr("webworlds.diagram.web_world", refuse)
    assert colouring_entry(nine_edge, target) == IntPolynomial(expected)
    assert mixing_entry(nine_edge, target) == mixing_from_polynomial(IntPolynomial(expected))
    assert reconstruction_count(nine_edge, target, 7) == 6794
    assert colouring_entry(nine_edge, nine_edge) == IntPolynomial(diagonal)


def test_rank_and_idempotence_reject_polynomial_matrices(path4):
    poly, _mix = world_matrices(web_world(path4))
    with pytest.raises(BadRange, match="rational matrices only"):
        rank(poly)
    with pytest.raises(BadRange, match="rational matrices only"):
        is_idempotent(poly)
    with pytest.raises(BadRange, match="mixes polynomial and rational"):
        WorldMatrix.from_entries(((X, Fraction(1)), (Fraction(0), X)))


def block_rows_kept(matrix):
    """Names of cached values on the matrix that hold rows as lists, as a flip block does."""
    return [
        name
        for name, value in vars(matrix).items()
        if isinstance(value, tuple) and any(isinstance(part, list) for part in value)
    ]


def test_flip_blocks_are_built_once_and_not_kept(monkeypatch):
    built = []
    flip_blocks = WorldMatrix._flip_blocks

    def counted(matrix):
        built.append(matrix)
        return flip_blocks(matrix)

    monkeypatch.setattr(WorldMatrix, "_flip_blocks", counted)
    # the triangle with one doubled edge: 36 members, both flip blocks non-empty
    _poly, mix = world_matrices(web_world(seed_diagram(((0, 2, 1), (0, 0, 1), (0, 0, 0)))))
    assert all(flip_blocks(mix))
    # idempotence alone leaves each block's (idempotent, rank) pair, not its rows
    assert is_idempotent(mix) and len(built) == 1
    assert block_rows_kept(mix) == []
    found = rank(mix)
    assert found == trace(mix) and len(built) == 1
    assert is_idempotent(mix) and rank(mix) == found and len(built) == 1
    assert block_rows_kept(mix) == []


def test_mixing_from_polynomial_rejects_constant_terms():
    with pytest.raises(BadRange):
        mixing_from_polynomial(ONE)


def test_mixing_from_polynomial_matches_from_counts_with_no_matrix(monkeypatch):
    rng = random.Random(20131003)
    for edges in range(1, 8):
        counts = [
            [(0, *(rng.choice((0, rng.randrange(1, 10**6))) for _ in range(edges))) for _ in range(3)]
            for _ in range(3)
        ]
        mixing = from_counts(counts)[1].entries
        with monkeypatch.context() as patch:
            patch.setattr(matrices, "WorldMatrix", None)
            assert [[mixing_from_polynomial(IntPolynomial(c)) for c in row] for row in counts] == [
                list(row) for row in mixing
            ]


def test_world_matrices_walk_the_orbits_once(monkeypatch):
    readers = []
    picker = matrices._picker
    monkeypatch.setattr(matrices, "_picker", lambda indices: readers.append(indices) or picker(indices))
    # a doubled edge on a triangle, and the fan on four pegs: every generator moves a member
    for world in (
        web_world(seed_diagram(((0, 2, 1), (0, 0, 1), (0, 0, 0)))),
        cases.fan_world(4),
    ):
        generators = _symmetry_generators(world)
        steps = [perm for orbit in _orbits(generators, len(world)) for _x, _y, perm in orbit[1:]]
        used = [g for g in generators if any(perm is g for perm in steps)]
        assert used and len(used) == len(generators)
        for _call in range(2):
            readers.clear()
            world_matrices(world)
            # one reader per generator serves the rows of both M and R
            assert sorted(map(list, readers)) == sorted(map(list, used))


@pytest.mark.parametrize(
    "edges",
    [
        ((1, 2, 1, 1), (2, 3, 2, 1), (3, 4, 2, 1)),
        ((1, 2, 1, 1), (1, 2, 2, 2)),
        ((1, 2, 1, 1), (1, 2, 2, 3), (1, 2, 3, 2)),
        ((1, 2, 1, 1), (3, 4, 1, 1)),
        ((1, 3, 1, 2), (2, 3, 1, 1), (2, 4, 2, 1)),
    ],
)
def test_structure_theorems_on_small_worlds(edges):
    diagram = validate_diagram(edges)
    world = web_world(diagram)
    poly, mix = world_matrices(world)
    m = diagram.edge_count
    expected_row_sum = Fraction(1 if m == 1 else 0)
    assert all(s == expected_row_sum for s in row_sums(mix))
    assert all(s == ordered_bell_polynomial(m) for s in row_sums(poly))
    assert is_idempotent(mix)
    assert trace(mix) == rank(mix) == fraction_rank(mix.entries)


def test_isolated_pegs_do_not_change_the_matrices(path4):
    padded = validate_diagram(path4.edges, 6)
    base_poly, base_mix = world_matrices(web_world(path4))
    pad_poly, pad_mix = world_matrices(web_world(padded))
    assert pad_poly.entries == base_poly.entries
    assert pad_mix.entries == base_mix.entries


def test_rank_matches_fraction_elimination_on_assorted_matrices():
    samples = [
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1))),
        ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))),
        (
            (Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(1), Fraction(2)),
        ),
        (
            (Fraction(2), Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(3), Fraction(1)),
            (Fraction(1), Fraction(1), Fraction(4)),
        ),
    ]
    for rows in samples:
        matrix = WorldMatrix.from_entries(rows)
        assert rank(matrix) == fraction_rank(rows)


@pytest.mark.parametrize("entry", [True, 0.5, 1.0])
def test_matrix_entries_must_be_exact(entry):
    with pytest.raises(MalformedInput):
        WorldMatrix.from_entries(((Fraction(1), entry), (Fraction(0), Fraction(0))))


def test_matrix_must_be_square():
    with pytest.raises(BadRange):
        WorldMatrix.from_entries(((Fraction(1), Fraction(2)),))
    with pytest.raises(BadRange):
        WorldMatrix(((1, 2),))


def test_matrix_kind_comes_from_the_cells():
    # integer cells are numerators: a rational matrix over denominator 1
    numerators = WorldMatrix([[1]])
    assert not numerators.polynomial
    assert trace(numerators) == Fraction(1)
    assert [field.name for field in dataclasses.fields(WorldMatrix)] == ["rows", "denominator", "flip"]
    # coefficient tuples are a polynomial matrix, which has no denominator
    assert trace(WorldMatrix([[(0, 1)]])) == X
    with pytest.raises(BadRange, match="1 for a polynomial matrix"):
        WorldMatrix([[(0, 1)]], denominator=3)
    for denominator in (0, -2):
        with pytest.raises(BadRange, match="denominator must be positive"):
            WorldMatrix([[1]], denominator)


@pytest.mark.parametrize(
    "rows",
    [
        [[(0, 1), 1], [1, 1]],  # a polynomial first cell used to fail late in `trace`
        [[1, (0, 1)], [(0, 1), 1]],  # a rational first cell used to read as trace 2
        [[(0, 1), (0, 1, 1)], [(0, 1), (0, 1)]],
    ],
    ids=["tuple-first", "int-first", "tuple-lengths"],
)
def test_matrix_cells_of_two_kinds_are_refused(rows):
    with pytest.raises(BadRange):
        WorldMatrix(rows)


@pytest.mark.parametrize(
    "rows",
    [[[1, True], [0, 1]], [[1, 0.5], [0, 1]], [[(0, 1), (0, 1.0)], [(0, 1), (0, 1)]], [[(0, False)]], [["1"]]],
    ids=["bool", "float", "float-coefficient", "bool-coefficient", "str"],
)
def test_matrix_cells_must_be_integers(rows):
    with pytest.raises(MalformedInput):
        WorldMatrix(rows)


class Level(enum.IntEnum):
    ONE = 1


def test_int_subclass_cells_pass_as_json_int_passes_them():
    assert WorldMatrix([[Level.ONE]]).rows == ((1,),)
    assert WorldMatrix([[(0, Level.ONE)]]).polynomial
    assert WorldMatrix.from_entries([[Level.ONE]]).rows == ((1,),)
    with pytest.raises(MalformedInput, match=r"a matrix cell must be an integer, got 0\.5"):
        WorldMatrix([[Level.ONE, 0.5], [0, 1]])


def test_library_built_matrices_skip_the_cell_check(monkeypatch, path4):
    def refuse(self):
        raise AssertionError("a library-built matrix ran the cell check")

    monkeypatch.setattr(WorldMatrix, "__post_init__", refuse)
    world_matrices(web_world(path4))
    matrices.from_counts([[(0, 1)]])
    cases.fan_matrices(3)
    cases.chain_matrices(2)


def test_csv_and_json_exports(path4):
    world = web_world(path4)
    poly, mix = world_matrices(world)
    mix_csv = matrix_to_csv(mix)
    assert mix_csv.splitlines()[0] == "1/3,-1/3,-1/3,1/3"
    assert len(mix_csv.splitlines()) == 4
    poly_json = matrix_to_json(poly)
    assert poly_json["size"] == 4
    assert poly_json["kind"] == "polynomial"
    assert poly_json["entries"][0][0] == list(poly.entries[0][0].coeffs)
    mix_json = matrix_to_json(mix)
    assert mix_json["kind"] == "rational"
    assert mix_json["entries"][0][0] == "1/3"


def test_json_text_is_the_dumped_json_export():
    # every world with <= 4 pegs and <= 4 edges, parallel edges included,
    # then the fan, chain and cycle matrices at n <= 4
    named, parallel = [], 0
    for name, world in small_worlds():
        named += zip((name, name), world_matrices(world))
        parallel += not world[0].labels_one()
    for family in ("fan", "chain", "cycle"):
        for n in range(2 if family == "cycle" else 1, 5):
            _, poly, mix = getattr(cases, f"{family}_matrices")(n)
            named += [(f"{family}_matrices({n})", poly), (f"{family}_matrices({n})", mix)]
    for name, matrix in named:
        assert matrix_to_json_text(matrix) == json.dumps(matrix_to_json(matrix)), name
    polynomial = [m for _, m in named if m.polynomial]
    assert len(polynomial) * 2 == len(named)
    assert any(not e for m in polynomial for row in m.entries for e in row)  # "[]" cells
    assert parallel


def test_coefficient_string_round_trip():
    poly = IntPolynomial((0, 4, 10, 6))
    assert polynomial_to_coeff_string(poly) == "0;4;10;6"
    assert polynomial_from_coeff_string("0;4;10;6") == poly
    assert polynomial_to_coeff_string(IntPolynomial(())) == "0"
