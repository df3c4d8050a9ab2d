"""Closed-form diameter bounds, the known-values table, and the full report.

For a d-polytope with n facets the quantities assembled here are

  lower bound     floor((d-1) n / d) - (d-2)      (exact for d <= 3)
  linear bound    n * 2^(d-3)                      (d >= 3)
  quasi-poly      n^(log2(d) + 1)
  known exact     frozen table of proved values
  Hirsch r.h.s.   n - d

The quasi-polynomial value is irrational for most d, so it is reported as
an up-rounded high-precision real and *compared* with an exact integer
predicate: assertions in this package never ride on floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .dd import hrep_to_vrep  # noqa: F401
from .paths import diameter, monotone_eccentricity, nonrevisiting_property
from .polyhedron import Incidence, Infeasible, classify, facet_row_indices  # noqa: F401

# `hrep_to_vrep` and `facet_row_indices` are not called here.  They stay
# importable by name because perfbench's tracer self-test checks that this
# import site gets the same wrapper as the defining module.

# Proved maximum diameters H(n, d) beyond the closed forms for d <= 3:
# frozen data, no extrapolation.
KNOWN_EXACT_TABLE: dict[tuple[int, int], int] = {
    (8, 4): 4,
    (9, 4): 5,
    (10, 4): 5,
    (11, 4): 6,
    (12, 4): 7,
    (10, 5): 5,
    (11, 5): 6,
    (12, 6): 6,
}


def known_exact(n: int, d: int) -> int | None:
    if d == 2:
        return n // 2
    if d == 3:
        return (2 * n) // 3 - 1
    return KNOWN_EXACT_TABLE.get((n, d))


def lower_bound(n: int, d: int) -> int:
    return (d - 1) * n // d - (d - 2)


def larman_bound(n: int, d: int) -> int | None:
    if d < 3:
        return None
    return n * 2 ** (d - 3)


def power_bound_holds(k: int, n: int, d: int, exponent_offset: int = 1) -> bool:
    """Exact decision of k <= n^(log2(d) + offset).

    Pure integer comparison whenever the power is rational (d or n a power
    of two).  Otherwise log2(d) is bracketed as [p/q, (p+1)/q] by one big
    power, giving the integer sandwich k^q <= n^(offset q + p) (certainly
    below) or k^q > n^(offset q + p + 1) (certainly above); q grows until
    the sandwich decides, which it must unless k equals the irrational
    bound exactly, i.e. never.
    """
    if k <= 0:
        return True
    if d < 1 or n < 1:
        raise ValueError("need positive n and d")
    if d == 1 or n == 1:
        return k <= n**exponent_offset
    if d & (d - 1) == 0:  # d a power of two: integer exponent
        return k <= n ** (d.bit_length() - 1 + exponent_offset)
    if n & (n - 1) == 0:  # n = 2^s: n^log2(d) = d^s exactly
        s = n.bit_length() - 1
        return k <= n**exponent_offset * d**s
    q = 64
    while q <= 1 << 20:
        p = (d**q).bit_length() - 1  # p/q <= log2(d) < (p+1)/q
        kq = k**q
        if kq <= n ** (exponent_offset * q + p):
            return True
        if kq > n ** (exponent_offset * q + p + 1):
            return False
        q *= 8
    raise ArithmeticError(
        f"could not separate {k} from {n}^(log2({d})+{exponent_offset})"
    )


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    frac = Fraction(-man if sign else man)
    return frac * Fraction(2) ** exp if exp >= 0 else frac / Fraction(2) ** (-exp)


def quasi_poly_bound(n: int, d: int, exponent_offset: int = 1) -> Fraction:
    """Up-rounded value of n^(log2(d) + offset), exact when the power is integral.

    Irrational cases are evaluated at 90 bits and nudged up by 2^-80, so the
    returned rational is always >= the true value with ~80 correct bits.
    """
    if d < 1 or n < 1:
        raise ValueError("need positive n and d")
    if d == 1 or n == 1 or d & (d - 1) == 0:
        e = exponent_offset + (d.bit_length() - 1 if d > 1 else 0)
        return Fraction(n**e)
    if n & (n - 1) == 0:
        s = n.bit_length() - 1
        return Fraction(n**exponent_offset * d**s)
    with mpmath.workprec(90):
        val = mpmath.power(n, exponent_offset + mpmath.log(d) / mpmath.log(2))
        up = val * (1 + mpmath.mpf(2) ** -80)
        return _mpf_to_fraction(up)


@dataclass(frozen=True)
class BoundTable:
    n: int
    d: int
    lower: int
    larman: int | None
    kalai_kleitman: Fraction
    known_exact: int | None
    hirsch_rhs: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "lower": self.lower,
            "larman": self.larman,
            "kalai_kleitman": mpmath.nstr(mpmath.mpf(self.kalai_kleitman.numerator)
                                          / self.kalai_kleitman.denominator, 17),
            "known_exact": self.known_exact,
            "hirsch_rhs": self.hirsch_rhs,
        }


def bound_table(n: int, d: int) -> BoundTable:
    if not n > d or not d >= 2:
        raise ValueError("need n > d >= 2")
    table = BoundTable(
        n=n,
        d=d,
        lower=lower_bound(n, d),
        larman=larman_bound(n, d),
        kalai_kleitman=quasi_poly_bound(n, d),
        known_exact=known_exact(n, d),
        hirsch_rhs=n - d,
    )
    if table.known_exact is not None:
        assert table.lower <= table.known_exact <= table.hirsch_rhs
    return table


def hirsch_report(
    inc: Incidence,
    *,
    check_nonrevisiting: bool = False,
    monotone_c=None,
) -> dict:
    """Everything the diameter story says about one polyhedron, as JSON data.

    `inc` is the `Incidence` of the polyhedron (see `dd.analyse`), whose `v`
    names the vertices.  Counts only irredundant facets as n, takes the
    dimension of the affine hull as d, and measures the diameter of the
    bounded-edge graph.  The optional extras run the non-revisiting
    all-pairs check and the monotone path analysis for a given functional.
    """
    v = inc.v
    if not v.vertices:
        raise Infeasible("infeasible")
    n = len(inc.facets)
    d = inc.dim
    bounded = v.bounded
    diam, witness = diameter(inc.graph)
    report: dict = {
        "n": n,
        "d": d,
        "bounded": bounded,
        "vertex_count": len(v.vertices),
        "diameter": diam,
        "n_minus_d": n - d,
        "satisfies_hirsch": diam <= n - d,
        "hirsch_sharp": diam == n - d,
        "witness_pair": list(witness),
        "simple": None,
        "simplicial": None,
    }
    if bounded:
        simple, simplicial = classify(inc)
        report["simple"] = simple
        report["simplicial"] = simplicial
    if check_nonrevisiting:
        if bounded:
            result = nonrevisiting_property(inc)
            report["nonrevisiting"] = result.holds
            if result.witness is not None:
                report["nonrevisiting_witness"] = list(result.witness)
        else:
            report["nonrevisiting"] = None
    if monotone_c is not None:
        mono = monotone_eccentricity(inc, monotone_c)
        report["monotone"] = {
            "optimum": mono.optimum,
            "worst_length": mono.worst_length,
            "unreachable": list(mono.unreachable),
        }
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
