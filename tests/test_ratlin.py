from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polydiam.ratlin import (
    _echelon,
    dot,
    format_rational,
    nullspace,
    parse_rational,
    primitive,
)
from polydiam.constructions import KLEE_WALKUP_POINTS

from oracles import echelon_rank, primitive_ints, row_echelon, rref_nullspace

small_ints = st.integers(min_value=-6, max_value=6)
entries = st.one_of(small_ints, st.fractions(min_value=-3, max_value=3, max_denominator=4))
# Small integer and `Fraction` matrices, 1 to 5 columns, 0 to 5 rows.
matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), max_size=5))


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
    return len(_echelon(rows)[0])


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
    assert primitive(("1/2", 0, Fraction(3, 4))) == (2, 0, 3)  # read as `Fraction` reads them
    assert list(map(type, primitive((True, 2)))) == [int, int] and primitive((True, 2)) == (1, 2)
    assert primitive(()) == ()


@given(st.lists(st.one_of(st.integers(-10**20, 10**20), st.sampled_from([0, 6, -12])),
                min_size=1, max_size=6))
def test_primitive_of_ints_is_the_reference(vec):
    got = primitive(vec)
    assert got == primitive_ints(vec) == primitive([Fraction(x) for x in vec])
    assert all(type(x) is int for x in got)


@given(st.lists(st.fractions(max_denominator=10**9), min_size=1, max_size=6),
       st.lists(st.integers(-10**20, 10**20), max_size=3), st.randoms())
def test_primitive_of_rationals_is_the_reference(fracs, ints, rnd):
    # Fractions of mixed denominators, alone or shuffled among ints
    vec = fracs + ints
    rnd.shuffle(vec)
    got = primitive(vec)
    assert got == primitive_ints(vec) == primitive(tuple(vec))
    assert all(type(x) is int for x in got)


@given(matrices)
def test_echelon_is_the_reference_rref(rows):
    # Pivots and every row reduced[c] / reduced[c][c] match the reference
    # `Fraction` reduced row-echelon form.
    kept, reduced = _echelon(rows)
    ref = [list(map(Fraction, r)) for r in rows]
    pivots = row_echelon(ref)
    assert sorted(reduced) == pivots
    assert len(kept) == len(pivots)
    for r, c in enumerate(pivots):
        assert all(isinstance(x, int) for x in reduced[c])
        assert [Fraction(x, reduced[c][c]) for x in reduced[c]] == ref[r]


@given(matrices.filter(bool))
def test_nullspace_is_read_off_the_reference_rref(rows):
    assert nullspace(rows) == rref_nullspace(rows)
