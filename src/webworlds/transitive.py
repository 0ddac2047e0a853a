"""Transitive web worlds and their core-matrix correspondence.

A world is transitive when, reading its represent matrix, every peg
except the last sends an edge rightwards and every peg except the first
receives one from the left.  Removing the represent matrix's first
column and last row is then a lossless projection onto upper-triangular
matrices whose rows and columns are all non-zero, which is what makes
these worlds easy to count.
"""

from __future__ import annotations

import math
from typing import Sequence

from .diagram import json_int_rows
from .enumeration import (
    Rows,
    _check_series_work,
    _series_product,
    enumerate_worlds,
    peg_loads,
    validate_represent,
)
from .errors import BadRange, IsolatedPeg, NotTransitive


def is_transitive(rows: Sequence[Sequence[int]]) -> bool:
    """Whether every non-final row and non-initial column is non-zero.

    Isolated pegs are rejected up front because the test below cannot
    distinguish a peg that genuinely breaks transitivity from one that
    merely should not be in the matrix at all.
    """
    rows = validate_represent(rows)
    loads = peg_loads(rows)
    if 0 in loads:
        raise IsolatedPeg(f"peg {loads.index(0) + 1} touches no edge")
    return _spans(rows)


def _spans(rows: Rows) -> bool:
    """is_transitive without validation, for rows the enumerator made."""
    return all(map(any, rows[:-1])) and all(map(any, list(zip(*rows))[1:]))


def core_matrix(rows: Sequence[Sequence[int]]) -> Rows:
    """Drop the first column and last row of a transitive represent matrix.

    The result is upper triangular with its diagonal allowed, has no
    zero row or column, and loses no information: the dropped column
    and row of a strictly upper-triangular matrix are zero by shape.
    """
    if not is_transitive(rows):
        raise NotTransitive("core matrix is only defined for transitive worlds")
    return tuple(tuple(row[1:]) for row in rows[:-1])


def reattach(core: Sequence[Sequence[int]]) -> Rows:
    """Inverse of core_matrix: prepend a zero column and append a zero row.

    Accepts any non-negative upper-triangular (diagonal allowed) matrix
    whose rows and columns are all non-zero; these are exactly the cores
    of transitive represent matrices.
    """
    core = json_int_rows(core, "core matrix")
    if not core:
        raise BadRange("core must be a non-empty square matrix")
    rows = validate_represent([[0, *row] for row in core] + [[0] * (len(core) + 1)])
    if not _spans(rows):
        raise BadRange("core has a zero row or column")
    return rows


def transitive_matrices(edges: int) -> tuple[Rows, ...]:
    """All transitive represent matrices with the given edge count.

    Transitivity forces at most edges + 1 pegs, so the enumeration range
    is complete. The lister's own guard admits edges <= 6 and refuses
    more before it lists a matrix.
    """
    if edges < 1:
        raise BadRange("a transitive world needs at least one edge")
    return tuple(
        enumerate_worlds(
            max_pegs=edges + 1,
            max_edges=edges,
            exact_edges=edges,
            no_isolated=True,
            predicate=_spans,
        )
    )


def count_transitive(edges: int) -> int:
    """Number of transitive web worlds with the given edge count.

    Their cores are the upper-triangular non-negative matrices with no
    zero row or column, which the Fishburn numbers count by entry sum
    (Dukes and Parviainen 2010): the coefficient of x^edges in Zagier's
    series sum_n prod_{i=1..n} (1 - (1 - x)^i). Every factor starts at x,
    so the terms with n > edges vanish there. The series is truncated at
    x^edges, and its multiply-adds must stay within DEFAULT_WORK_GUARD.
    """
    if edges < 1:
        raise BadRange("a transitive world needs at least one edge")
    _check_series_work(edges, edges)
    # product[k] is the x^k term of prod_{i=1..n} (1 - (1 - x)^i)
    product = [1] + [0] * edges
    total = 0
    for i in range(1, edges + 1):
        factor = [0] + [(-1) ** (k + 1) * math.comb(i, k) for k in range(1, edges + 1)]
        product = _series_product(product, factor)
        total += product[edges]
    return total
