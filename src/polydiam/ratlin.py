"""Exact rational scalars, vectors, and elimination.

Everything downstream (representation conversion, incidence, graph
construction) assumes arithmetic is exact.  This module provides the
substrate: `fractions.Fraction` scalars (always stored in lowest terms with a
positive denominator), vectors as tuples, null spaces, and the package's
one elimination, `_echelon`: a fraction-free Gauss-Jordan pass that keeps
every row in primitive integers, from which every rank, inverse, solve and
null space of the package is read.

Coefficients coming out of conversions on integer data can grow large;
arbitrary-precision integers are mandatory, which `Fraction` gives us for
free.  No floating point appears anywhere in this package's geometry.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def parse_rational(text: str) -> Fraction:
    """Parse the shared text syntax: optional sign, integer, optional "/den".

    Decimal notation is rejected on purpose; every file format of this
    package uses this exact syntax.
    """
    token = text.strip()
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"not an exact rational literal: {text!r}")
    num, _, den = token.partition("/")
    if not den:
        return Fraction(int(num))
    q = int(den)
    if not q:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), q)


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def nullspace(data: Iterable[Sequence]) -> list[Vector]:
    """Basis of the right null space of the given rows.

    One vector per non-pivot column c of the reduced row-echelon form R:
    1 at c and -R[p][c] at each pivot p, so the basis is unique.
    """
    rows = list(data)
    if not rows:
        return []
    ncols = len(rows[0])
    _, reduced = _echelon(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, r in reduced.items():
            v[pc] = Fraction(-r[fc], r[pc])
        basis.append(tuple(v))
    return basis


def primitive(vec: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to primitive integers.

    The zero vector maps to itself.  The direction (sign pattern) is kept,
    so this is safe for inequality rows and for cone rays.  An all-`int`
    vector only needs its gcd divided out; any other is read off the
    numerators and denominators of its entries, scaled by their lcm.
    """
    if set(map(type, vec)) == {int}:
        g = gcd(*vec)
        return tuple(vec) if g <= 1 else tuple([x // g for x in vec])
    try:
        dens = list(map(_denominator, vec))
    except AttributeError:  # not int or Fraction: read as `Fraction` reads it
        vec = list(map(Fraction, vec))
        dens = list(map(_denominator, vec))
    ints = list(map(_numerator, vec))
    den = lcm(*dens)
    if den != 1:
        ints = [z * (den // q) for z, q in zip(ints, dens)]
    g = gcd(*ints)
    return tuple(ints) if g <= 1 else tuple([z // g for z in ints])


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _echelon(
    rows: Iterable[Sequence], limit: int | None = None
) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """The package's one elimination: Gauss-Jordan in primitive integers.

    Returns (kept, reduced).  `kept` lists, in order, the indices of the
    rows independent of the rows kept before them, up to `limit` of them;
    their count is the rank.  `reduced` maps each pivot column c to an integer row led at c
    and zero at every other pivot, so reduced[c] / reduced[c][c] is a row
    of the (unique) reduced row-echelon form of the kept rows.
    """
    kept: list[int] = []
    reduced: dict[int, tuple[int, ...]] = {}
    for idx, row in enumerate(rows):
        r = primitive(row)
        for c, b in reduced.items():
            if r[c]:
                r = primitive([b[c] * x - r[c] * y for x, y in zip(r, b)])
        pivot = next((c for c, x in enumerate(r) if x), None)
        if pivot is None:
            continue
        for c, b in reduced.items():  # back-substitute: clear the new pivot
            if b[pivot]:
                reduced[c] = primitive([r[pivot] * x - b[pivot] * y for x, y in zip(b, r)])
        reduced[pivot] = r
        kept.append(idx)
        if len(kept) == limit:
            break
    return kept, reduced
