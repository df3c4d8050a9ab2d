from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polydiam.ratlin import (
    _independent_rows,
    dot,
    format_rational,
    nullspace,
    parse_rational,
    primitive,
)
from polydiam.constructions import KLEE_WALKUP_POINTS

from oracles import echelon_rank

small_ints = st.integers(min_value=-6, max_value=6)


@pytest.mark.parametrize(
    "text,value",
    [("-3", Fraction(-3)), ("1/2", Fraction(1, 2)), ("+7/14", Fraction(1, 2)),
     ("0", Fraction(0)), ("-10/4", Fraction(-5, 2))],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", ["1.5", "1/-2", "", "a", "1/0", "1 / 2", "0x3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trip():
    for q in (Fraction(0), Fraction(-3), Fraction(22, 7), Fraction(-5, 9)):
        assert parse_rational(format_rational(q)) == q


def rank(rows):
    return len(_independent_rows(rows))


def test_rank_identity():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_proportional_rows():
    assert rank([[1, 2], [2, 4]]) == 1


def test_rank_homogenized_klee_walkup_points():
    # 9 x 5: each point extended with a leading 1; full-dimensionality of the
    # hull means full column rank.  Expected value computed with the
    # independent elimination oracle.
    rows = [[1, *p] for p in KLEE_WALKUP_POINTS.values()]
    assert echelon_rank(rows) == 5
    assert rank(rows) == 5


@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=5))
def test_rank_matches_oracle(rows):
    assert rank(rows) == echelon_rank(rows)


@given(small_ints, st.integers(min_value=1, max_value=6),
       small_ints, st.integers(min_value=1, max_value=6))
def test_fraction_arithmetic_exact(p, q, r, s):
    x, y = Fraction(p, q), Fraction(r, s)
    assert (x + y) - y == x


def test_nullspace_orthogonal():
    rows = [[1, 2, 3], [0, 1, 1]]
    for v in nullspace(rows):
        assert all(dot(r, v) == 0 for r in rows)


def test_primitive():
    assert primitive([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert primitive([0, 0]) == (0, 0)
    assert primitive([Fraction(-2), Fraction(4)]) == (-1, 2)
