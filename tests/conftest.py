"""Shared pinned diagrams and independent brute-force oracles.

The oracles here deliberately avoid the library's own shortcuts: the
rule-word oracle lists every word and tests the surjective ones against
comparison rules, and the rank oracle runs plain fraction Gauss
elimination. The
colouring-count oracle (`_enumerated_counts`, which restacks every
surjective colouring of every member), the direct order-preserving count
and the orbit oracle live in `webworlds.verify`.
Tests compare library output against these slower twins.
"""

import functools
import itertools
import operator
from fractions import Fraction

import pytest

from webworlds import (
    apply_permutations,
    cases,
    enumeration,
    validate_diagram,
    web_world,
)

PATH4_EDGES = ((1, 2, 1, 1), (2, 3, 2, 1), (3, 4, 2, 1))
VEE_EDGES = ((1, 2, 1, 1), (1, 3, 2, 1), (2, 4, 2, 1))
NINE_EDGE_EDGES = (
    (1, 2, 1, 1),
    (1, 7, 2, 2),
    (2, 4, 2, 3),
    (3, 4, 1, 1),
    (3, 6, 2, 4),
    (4, 6, 2, 3),
    (4, 6, 4, 2),
    (5, 6, 1, 1),
    (5, 7, 2, 1),
)


@pytest.fixture
def path4():
    """Four-peg path diagram whose world has exactly four members."""
    return validate_diagram(PATH4_EDGES, 4)


@pytest.fixture
def vee():
    """Three-block diagram whose poset is the three-element vee."""
    return validate_diagram(VEE_EDGES, 4)


@pytest.fixture
def nine_edge():
    """Seven-peg nine-edge diagram used for the end-to-end walkthrough."""
    return validate_diagram(NINE_EDGE_EDGES, 7)


def small_worlds():
    """Every world with <= 4 pegs and <= 4 edges, then fan, chain, cycle."""
    worlds = []
    for rows in enumeration.enumerate_worlds(4, 4, no_isolated=True):
        if any(any(r) for r in rows):
            worlds.append((repr(rows), web_world(enumeration.seed_diagram(rows))))
    worlds += [(f"fan{n}", cases.fan_world(n)) for n in range(1, 5)]
    worlds += [(f"chain{n}", cases.chain_world(n)) for n in range(0, 5)]
    worlds += [(f"cycle{n}", cases.cycle_world(n)) for n in range(2, 6)]
    return worlds


def flipped(diagram):
    """The diagram with every peg turned upside down, by relabelling."""
    family = [tuple(range(h, 0, -1)) for h in diagram.peg_heights]
    return apply_permutations(diagram, family)


# rule code c asks word[i] RULE_OPS[c] word[i + 1]
RULE_OPS = (None, operator.gt, operator.ge, operator.le, operator.lt)


def rule_word_count(length, colours, codes, cyclic):
    """Surjective words over 1..colours meeting one rule code per position:
    one cell of `rule_word_counts`."""
    return rule_word_counts(length, cyclic)[tuple(codes)][colours - 1]


@functools.cache
def rule_word_counts(length, cyclic):
    """Surjective words meeting one rule code per position, for every code
    tuple: {codes: counts for colours 1..length}.

    Lists each word over 1..length once and keeps the surjective ones, a
    word over exactly 1..k for k colours. At each position it finds the
    two codes whose rule holds, and credits the word to every code tuple
    in their product. Position i compares letter i with letter i + 1, and a
    cyclic word's last position compares its last letter with its first.
    """
    positions = length if cyclic else length - 1
    counts = {codes: [0] * length for codes in itertools.product(range(1, 5), repeat=positions)}
    for word in itertools.product(range(1, length + 1), repeat=length):
        colours = max(word)
        if len(set(word)) != colours:
            continue
        held = [
            [c for c in range(1, 5) if RULE_OPS[c](word[i], word[(i + 1) % length])]
            for i in range(positions)
        ]
        for codes in itertools.product(*held):
            counts[codes][colours - 1] += 1
    return {codes: tuple(row) for codes, row in counts.items()}


def fraction_rank(rows):
    """Rank by textbook Gauss elimination over exact fractions."""
    m = [[Fraction(e) for e in row] for row in rows]
    if not m:
        return 0
    r = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = m[r][col]
        m[r] = [v / scale for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
    return r
