"""Exact rational scalars, vectors, and elimination.

Everything downstream (representation conversion, incidence, graph
construction) assumes arithmetic is exact.  This module provides the
substrate: `fractions.Fraction` scalars (always stored in lowest terms with a
positive denominator), vectors as tuples, fraction-managed Gaussian
elimination for inversion and null spaces, and the package's one rank,
`_independent_rows`, a greedy pass in primitive integers.

Coefficients coming out of conversions on integer data can grow large;
arbitrary-precision integers are mandatory, which `Fraction` gives us for
free.  No floating point appears anywhere in this package's geometry.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

# Exact rational scalar used across the package.
Rational = Fraction

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the shared text syntax: optional sign, integer, optional "/den".

    Decimal notation is rejected on purpose; every file format of this
    package uses this exact syntax.
    """
    token = text.strip()
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"not an exact rational literal: {text!r}")
    num, _, den = token.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def row_echelon(rows: list[list[Fraction]]) -> list[int]:
    """Reduce `rows` in place to reduced row-echelon form.

    Returns the pivot column indices.  Plain fraction-managed elimination:
    exactness is the contract, the elimination strategy is internal.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def invert(rows: Sequence[Sequence]) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    pivots = row_echelon(aug)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in aug]


def nullspace(data: Iterable[Sequence]) -> list[Vector]:
    """Basis of the right null space of the given rows."""
    rows = [[Fraction(x) for x in row] for row in data]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = row_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def primitive(vec: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to primitive integers.

    The zero vector maps to itself.  The direction (sign pattern) is kept,
    so this is safe for inequality rows and for cone rays.
    """
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in vec]
    den = 1
    for q in fracs:
        den = den * q.denominator // gcd(den, q.denominator)
    ints = [q.numerator * (den // q.denominator) for q in fracs]
    g = gcd(*ints)
    if g <= 1:
        return tuple(ints)
    return tuple(z // g for z in ints)


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _independent_rows(rows: Iterable[Sequence], limit: int | None = None) -> list[int]:
    """Indices of the rows a greedy pass keeps, in order; their count is the rank.

    A row is kept when it is independent of the rows kept before it; the
    pass stops once `limit` rows are kept.  Each new row is reduced against
    the kept rows only, which are stored reduced with one pivot each, in
    primitive integers (scaling a row does not change independence).
    """
    kept: list[int] = []
    reduced: list[tuple[int, tuple[int, ...]]] = []  # (pivot column, integer row)
    for idx, row in enumerate(rows):
        r = primitive(row)
        for c, b in reduced:
            if r[c]:
                r = primitive([b[c] * x - r[c] * y for x, y in zip(r, b)])
        pivot = next((c for c, x in enumerate(r) if x), None)
        if pivot is None:
            continue
        reduced.append((pivot, r))
        kept.append(idx)
        if len(kept) == limit:
            break
    return kept
