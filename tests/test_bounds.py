"""Bound formulas, the frozen table, exact predicates, and the full report."""

from fractions import Fraction

import pytest

from polydiam import analyse
from polydiam.bounds import (
    KNOWN_EXACT_TABLE,
    bound_table,
    hirsch_report,
    known_exact,
    larman_bound,
    lower_bound,
    power_bound_holds,
    quasi_poly_bound,
)
from polydiam.constructions import cube, klee_walkup, unbound_at_facet
from polydiam.polyhedron import Infeasible, HPolyhedron


def test_bound_table_12_4():
    t = bound_table(12, 4)
    assert t.lower == 36 // 4 - 2 == 7
    assert t.known_exact == 7
    assert t.larman == 12 * 2 == 24
    assert t.kalai_kleitman == 12**3 == 1728
    assert t.hirsch_rhs == 8


def test_bound_table_9_3():
    t = bound_table(9, 3)
    assert t.lower == 5 == t.known_exact == (2 * 9) // 3 - 1


def test_bound_table_9_4_sharp_point():
    t = bound_table(9, 4)
    assert t.known_exact == 5 == t.hirsch_rhs


def test_larman_undefined_below_3():
    assert larman_bound(10, 2) is None
    assert bound_table(10, 2).larman is None


def test_known_exact_closed_forms():
    for n in range(4, 31):
        assert known_exact(n, 2) == n // 2
        assert lower_bound(n, 3) == known_exact(n, 3) == (2 * n) // 3 - 1
    assert known_exact(13, 4) is None


def test_known_table_frozen_values():
    assert KNOWN_EXACT_TABLE == {
        (8, 4): 4, (9, 4): 5, (10, 4): 5, (11, 4): 6, (12, 4): 7,
        (10, 5): 5, (11, 5): 6, (12, 6): 6,
    }


def test_table_invariant_lower_le_known_le_rhs():
    for (n, d), value in KNOWN_EXACT_TABLE.items():
        t = bound_table(n, d)
        assert t.lower <= value <= t.hirsch_rhs


def test_bound_table_domain():
    with pytest.raises(ValueError):
        bound_table(4, 4)
    with pytest.raises(ValueError):
        bound_table(3, 1)


def test_power_predicate_integer_exponent():
    # d = 4: n^(log2 4 + 1) = n^3 exactly
    assert power_bound_holds(1728, 12, 4)
    assert not power_bound_holds(1729, 12, 4)


def test_power_predicate_power_of_two_base():
    # n = 8, d = 5: 8^(log2 5 + 1) = 8 * 5^3 = 1000 exactly
    assert power_bound_holds(1000, 8, 5)
    assert not power_bound_holds(1001, 8, 5)


def test_power_predicate_irrational_case():
    # 9^(log2 3 + 1) = 292.874...: the interval refinement must separate
    assert power_bound_holds(292, 9, 3)
    assert not power_bound_holds(293, 9, 3)


def test_power_predicate_d1():
    assert power_bound_holds(7, 7, 1)
    assert not power_bound_holds(8, 7, 1)


def test_quasi_poly_bound_is_upper():
    for n, d in [(9, 3), (11, 5), (13, 6), (30, 3)]:
        value = quasi_poly_bound(n, d)
        assert isinstance(value, Fraction)
        # the reported value is an upper bound consistent with the predicate
        floor = int(value)
        assert power_bound_holds(floor, n, d)
        assert not power_bound_holds(floor + 1, n, d)
    assert quasi_poly_bound(12, 4) == 1728


def test_quasi_poly_accuracy_50_bits():
    import mpmath

    with mpmath.workprec(120):
        for n, d in [(9, 3), (17, 5), (23, 7)]:
            true = mpmath.power(n, 1 + mpmath.log(d) / mpmath.log(2))
            up = quasi_poly_bound(n, d)
            ratio = (Fraction(up) / _to_frac(true))
            assert 1 <= ratio < 1 + Fraction(1, 2**50)


def _to_frac(x):
    sign, man, exp, _ = x._mpf_
    f = Fraction(-man if sign else man)
    return f * Fraction(2) ** exp if exp >= 0 else f / Fraction(2) ** (-exp)


def test_known_exact_reproduced_by_generators():
    # wherever a diameter-sharp generator exists for a tabulated (n, d),
    # walking the generated polytope reproduces the proved value
    from polydiam import skeleton_graph as _sk
    from polydiam.constructions import hirsch_sharp
    from polydiam.paths import diameter as _diam

    cases = [(3, 2), (4, 2), (4, 3), (5, 3), (6, 3), (8, 4), (9, 4),
             (10, 5), (11, 5), (12, 6)]
    for n, d in cases:
        expected = known_exact(n, d)
        assert expected is not None
        assert _diam(_sk(analyse(hirsch_sharp(d, n))))[0] == expected


def test_hirsch_report_klee_walkup():
    _, q4 = klee_walkup()
    report = hirsch_report(analyse(q4))
    assert report["n"] == 9 and report["d"] == 4
    assert report["diameter"] == 5 == report["n_minus_d"]
    assert report["satisfies_hirsch"] and report["hirsch_sharp"]
    assert report["simple"] is True and report["simplicial"] is False
    assert report["bounded"] is True
    assert report["vertex_count"] == 27


def test_hirsch_report_cube():
    report = hirsch_report(analyse(cube(4)))
    assert report["diameter"] == 4 == report["n_minus_d"]
    assert report["hirsch_sharp"]


def test_hirsch_report_unbounded_counterexample():
    _, q4 = klee_walkup()
    report8 = None
    inc = analyse(q4)
    for k in range(q4.nrows):
        h8 = unbound_at_facet(inc, k)
        report = hirsch_report(analyse(h8))
        assert report["n"] == 8 and report["d"] == 4
        assert report["bounded"] is False
        if report["diameter"] >= 5:
            report8 = report
    assert report8 is not None
    assert report8["satisfies_hirsch"] is False


def test_hirsch_report_nonrevisiting_flag():
    report = hirsch_report(analyse(cube(3)), check_nonrevisiting=True)
    assert report["nonrevisiting"] is True


def test_hirsch_report_monotone():
    report = hirsch_report(analyse(cube(3)), monotone_c=(1, 2, 4))
    assert report["monotone"]["worst_length"] == 3


def test_hirsch_report_infeasible():
    with pytest.raises(Infeasible):
        hirsch_report(analyse(HPolyhedron.from_rows(1, [(-1, 1), (0, -1)])))
