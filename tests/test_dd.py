"""Conversion engine tests: H <-> V, affine hull, reduction, degeneracies."""

from fractions import Fraction
from itertools import product as iproduct
from math import cos, pi, sin
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polydiam import (
    HPolyhedron,
    Infeasible,
    NotPointed,
    VPolyhedron,
    analyse,
    hrep_to_vrep,
    reduce_to_full_dim,
    vrep_to_hrep,
)
from polydiam import dd
from polydiam.constructions import cube, klee_walkup, random_01_polytope, simplex, transportation
from polydiam.dd import _cone_extreme_rays
from polydiam.polyhedron import canonical_row
from polydiam.ratlin import _echelon, primitive

from corpus import corpus
from oracles import (
    brute_force_vertices,
    echelon_rank,
    fraction_columns,
    fraction_incidence,
    fraction_reduce_to_full_dim,
    incidence,
    primitive_ints,
    projected_vrep_to_hrep,
    smallest_first,
    solve_square,
    third_ray_scan_extreme_rays,
)

# Vertex count of the Klee-Walkup polytope; the value is not part of the
# published description, so it is frozen here from the brute-force oracle.
KLEE_WALKUP_VERTEX_COUNT = 27


def test_cube_vertices_are_sign_vectors():
    for d in (1, 2, 3, 4):
        v = hrep_to_vrep(cube(d))
        expected = {tuple(map(Fraction, signs)) for signs in iproduct((-1, 1), repeat=d)}
        assert set(v.vertices) == expected
        assert v.rays == ()


def test_redundant_row_ignored():
    square = cube(2)
    with_extra = HPolyhedron.from_rows(2, [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
                                           (3, -1, 0)])
    assert set(hrep_to_vrep(with_extra).vertices) == set(hrep_to_vrep(square).vertices)


def test_klee_walkup_vertex_count_matches_oracle():
    _, q4 = klee_walkup()
    oracle = brute_force_vertices(q4)
    assert len(oracle) == KLEE_WALKUP_VERTEX_COUNT
    assert list(hrep_to_vrep(q4).vertices) == oracle


def test_vrep_segment():
    h = vrep_to_hrep(VPolyhedron.from_points([(0,), (1,)]))
    assert set(h.rows) == {(Fraction(0), (Fraction(1),)),
                           (Fraction(1), (Fraction(-1),))}


def test_vrep_klee_walkup_simplicial():
    vstar, _ = klee_walkup()
    h = vrep_to_hrep(vstar)
    assert h.d == 4
    for b, a in h.rows:
        tight = [p for p in vstar.vertices
                 if b + sum(x * y for x, y in zip(a, p)) == 0]
        assert len(tight) == 4


def test_vrep_crosspolytope_row_count():
    for d in (2, 3, 4):
        pts = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            pts.append(tuple(e))
            pts.append(tuple(-x for x in e))
        h = vrep_to_hrep(VPolyhedron.from_points(pts))
        assert h.nrows == 2**d


def test_infeasible_is_empty_output():
    h = HPolyhedron.from_rows(1, [(-1, 1), (0, -1)])  # x >= 1 and x <= 0
    v = hrep_to_vrep(h)
    assert v.vertices == () and v.rays == ()


def test_infeasible_with_free_direction_is_still_empty():
    h = HPolyhedron.from_rows(2, [(-1, 1, 0), (0, -1, 0), (0, 0, 1)])
    v = hrep_to_vrep(h)
    assert v.vertices == () and v.rays == ()


def test_not_pointed_raises():
    # a line, and an infeasible set that contains a line (x >= 1, -x >= 0),
    # each as inequalities and as linearity rows (y = 0; x = 0 and x = 1)
    cases = [
        HPolyhedron.from_rows(2, [(0, 1, 0)]),
        HPolyhedron.from_rows(2, [(-1, 1, 0), (0, -1, 0)]),
        HPolyhedron.from_rows(2, [(0, 0, 1)], linearity=(0,)),
        HPolyhedron.from_rows(2, [(0, 1, 0), (-1, 1, 0)], linearity=(0, 1)),
    ]
    for h in cases:
        with pytest.raises(NotPointed) as caught:
            hrep_to_vrep(h)
        assert str(caught.value) == "feasible set contains a line: no vertices exist"


def test_unbounded_half_strip():
    h = HPolyhedron.from_rows(2, [(0, 1, 0), (0, 0, 1), (1, 0, -1)])
    v = hrep_to_vrep(h)
    assert set(v.vertices) == {(0, 0), (0, 1)}
    assert [tuple(map(int, r)) for r in v.rays] == [(1, 0)]


def test_dimension_square_is_ambient():
    h = reduce_to_full_dim(cube(2))
    assert h.d == 2 and not h.linearity
    assert len(hrep_to_vrep(h).vertices) == 4


def test_dimension_transportation_segment():
    assert transportation([1, 1], [1, 1]).d == 1


def test_dimension_point():
    h = HPolyhedron.from_rows(1, [(0, 1), (0, -1)])
    assert reduce_to_full_dim(h).d == 0


def test_dimension_infeasible_raises():
    with pytest.raises(Infeasible):
        reduce_to_full_dim(HPolyhedron.from_rows(1, [(-1, 1), (0, -1)]))


def test_reduce_of_a_line_is_not_pointed():
    with pytest.raises(NotPointed):
        reduce_to_full_dim(HPolyhedron.from_rows(2, [(0, 1, 0), (0, -1, 0)]))


def test_reduce_of_a_half_line_keeps_its_direction():
    # x >= 0 in the line y = 0 of R^2: one vertex, one ray, dimension 1
    h = reduce_to_full_dim(HPolyhedron.from_rows(2, [(0, 1, 0), (0, 0, 1)], linearity=[1]))
    assert h.d == 1 and h.nrows == 1
    assert len(hrep_to_vrep(h).rays) == 1


def test_reduce_transportation_birkhoff2():
    h = reduce_to_full_dim(_raw_transportation([1, 1], [1, 1]))
    # a segment between the two permutation matrices
    assert h.d == 1
    assert len(hrep_to_vrep(h).vertices) == 2


def _raw_transportation(a, b):
    p, q = len(a), len(b)
    d = p * q
    rows = []
    for idx in range(d):
        e = [0] * d
        e[idx] = 1
        rows.append((0, *e))
    for i in range(p):
        coeff = [0] * d
        for j in range(q):
            coeff[i * q + j] = 1
        rows.append((-a[i], *coeff))
    for j in range(q):
        coeff = [0] * d
        for i in range(p):
            coeff[i * q + j] = 1
        rows.append((-b[j], *coeff))
    return HPolyhedron.from_rows(d, rows, linearity=range(d, d + p + q))


def test_vrep_lower_dimensional_input():
    # a segment embedded in the plane gets one linearity row and two facets
    h = vrep_to_hrep(VPolyhedron.from_points([(0, 0), (1, 1)]))
    assert len(h.linearity) == 1
    v = hrep_to_vrep(h)
    assert set(v.vertices) == {(0, 0), (1, 1)}


def test_vrep_single_point():
    h = vrep_to_hrep(VPolyhedron.from_points([(2, 3)]))
    assert set(hrep_to_vrep(h).vertices) == {(2, 3)}


@st.composite
def _points_in_a_flat(draw):
    """Points of a random k-flat of R^d, 0 <= k <= d <= 4, and rays in it:
    (points, rays), the rays pairwise non-parallel, sometimes with the
    opposite of the first one, so that the input holds a line."""
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=d))
    small = st.integers(min_value=-2, max_value=2)
    origin = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2),
                           min_size=d, max_size=d))
    dirs = draw(st.lists(st.lists(small, min_size=d, max_size=d), min_size=k, max_size=k))
    coefs = st.lists(small, min_size=k, max_size=k)

    def along(c):
        return tuple(sum(x * u[j] for x, u in zip(c, dirs)) for j in range(d))

    points = list(dict.fromkeys(
        tuple(o + x for o, x in zip(origin, along(c)))
        for c in draw(st.lists(coefs, min_size=1, max_size=7))))
    rays = {}
    for r in map(along, draw(st.lists(coefs, max_size=2))):
        if any(r):
            rays.setdefault(primitive_ints(r), r)
    if rays and draw(st.booleans()):
        back = tuple(-x for x in next(iter(rays.values())))
        rays.setdefault(primitive_ints(back), back)
    return points, list(rays.values())


@settings(max_examples=200, deadline=None)
@example(([(2, 3)], []))  # a single point
@example(([(0, 0), (1, 1)], []))  # a segment in the plane
@example(([(0, 0)], [(1, 1)]))  # a half-line
@example(([(1, 0)], [(1, 2), (-1, -2)]))  # a line
@given(_points_in_a_flat())
def test_one_cone_matches_the_projected_conversion(data):
    # d, rows in order (with their Fraction types) and linearity, exactly
    points, rays = data
    v = VPolyhedron.from_points(points, rays)
    got, want = vrep_to_hrep(v), projected_vrep_to_hrep(v)
    assert got == want
    assert repr(got.rows) == repr(want.rows)


@st.composite
def _points_with_non_vertices(draw):
    """`_points_in_a_flat` plus midpoints of drawn points, which are not
    vertices, all in a random order: (points, rays)."""
    points, rays = draw(_points_in_a_flat())
    pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)),
                          max_size=3))
    mids = [tuple((x + y) / 2 for x, y in zip(p, q)) for p, q in pairs]
    return draw(st.permutations(list(dict.fromkeys(points + mids)))), rays


@settings(max_examples=200, deadline=None)
@example(([(0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 2)), (0, 1), (1, 1)], []))  # square, centre
@example(([(0, 0), (1, 1), (2, 2), (3, 3)], []))  # a segment and two interior points
@example(([(0, 0), (2, 0)], [(1, 0), (0, 1)]))  # the orthant and a point on a ray
@given(_points_with_non_vertices())
def test_analyse_reads_the_columns_off_the_cone(data):
    # The columns `vrep_to_hrep` hands to `analyse`, over the points kept,
    # are the tightness the `Fraction` oracle finds, and the points kept are
    # the vertices of the H-description, under their own labels.  In these draws the input
    # holds a line exactly when two of its rays are opposite.
    points, rays = data
    v = VPolyhedron.from_points(points, rays)
    if any(primitive_ints([-x for x in r]) == primitive_ints(s) for r in rays for s in rays):
        with pytest.raises(NotPointed):
            analyse(v)
        return
    got = analyse(v)
    assert list(got.masks) == fraction_incidence(got.h, got.v)[0]
    assert list(got.columns) == fraction_columns(got.h, got.v)
    vertices = set(hrep_to_vrep(got.h).vertices)
    kept = [k for k, p in enumerate(points) if tuple(map(Fraction, p)) in vertices]
    assert got.v.vertices == tuple(tuple(map(Fraction, points[k])) for k in kept)
    assert got.v.all_labels() == tuple(f"v{k}" for k in kept)
    assert got.v.rays == v.rays


def _row_strategy(d):
    coef = st.integers(min_value=-3, max_value=3)
    return st.tuples(st.integers(min_value=0, max_value=3),
                     *[coef for _ in range(d)])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=3).flatmap(
    lambda d: st.tuples(st.just(d),
                        st.lists(_row_strategy(d), min_size=0, max_size=4)))
)
def test_round_trip_on_boxed_random_rows(data):
    # random rows intersected with the box [-2, 2]^d: bounded, nonempty,
    # full-dimensional is not guaranteed, so compare vertex sets both ways
    d, extra = data
    rows = list(extra)
    for i in range(d):
        e = [0] * d
        e[i] = 1
        rows.append((2, *e))
        rows.append((2, *[-x for x in e]))
    h = HPolyhedron.from_rows(d, rows)
    v = hrep_to_vrep(h)
    assert v.vertices, "box intersection cannot be empty"
    assert set(v.vertices) == set(brute_force_vertices(h))
    if incidence(h, v).dim == d:  # full-dimensional: round trip is canonical
        h2 = vrep_to_hrep(v)
        v2 = hrep_to_vrep(h2)
        assert set(v2.vertices) == set(v.vertices)
        canon1 = {canonical_row(r) for r in h2.rows}
        h3 = vrep_to_hrep(v2)
        assert {canonical_row(r) for r in h3.rows} == canon1


def test_vrep_quadrant_from_rays():
    q = VPolyhedron.from_points([(0, 0)], rays=[(1, 0), (0, 1)])
    h = vrep_to_hrep(q)
    assert set(h.rows) == {
        (Fraction(0), (Fraction(1), Fraction(0))),
        (Fraction(0), (Fraction(0), Fraction(1))),
    }


def test_vrep_halfline_gets_linearity():
    hl = VPolyhedron.from_points([(0, 0)], rays=[(1, 1)])
    h = vrep_to_hrep(hl)
    assert len(h.linearity) == 1
    v = hrep_to_vrep(h)
    assert v.vertices == ((0, 0),) and v.rays == ((1, 1),)


def test_half_strip_round_trip():
    strip = HPolyhedron.from_rows(2, [(0, 1, 0), (0, 0, 1), (1, 0, -1)])
    v = hrep_to_vrep(strip)
    h2 = vrep_to_hrep(v)
    v2 = hrep_to_vrep(h2)
    assert set(v2.vertices) == set(v.vertices)
    assert set(v2.rays) == set(v.rays)
    assert {canonical_row(r) for r in h2.rows} == {
        canonical_row(r) for r in strip.rows
    }


@settings(max_examples=40, deadline=None)
@given(st.lists(_row_strategy(3), min_size=4, max_size=7))
def test_pointed_unbounded_vertices_match_oracle(rows):
    # no box this time: skip non-pointed draws, compare vertex sets; the
    # oracle enumerates vertices regardless of rays
    h = HPolyhedron.from_rows(3, rows)
    if echelon_rank([r[1] for r in h.rows]) < 3:
        return  # not pointed: out of scope for vertex enumeration
    v = hrep_to_vrep(h)
    assert sorted(v.vertices) == brute_force_vertices(h)


def test_round_trip_canonical_generators():
    for h in (simplex(3), cube(3), klee_walkup()[1]):
        v = hrep_to_vrep(h)
        h2 = vrep_to_hrep(v)
        assert {canonical_row(r) for r in h2.rows} == {canonical_row(r) for r in h.rows}
        assert set(hrep_to_vrep(h2).vertices) == set(v.vertices)


@given(
    st.lists(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                 min_size=4, max_size=4),
        max_size=7,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_independent_rows_is_the_greedy_basis(rows, limit):
    # The kept rows are exactly the rows that raise the rank of the rows
    # before them, checked with the independent elimination oracle.
    kept = _echelon(rows)[0]
    greedy = [i for i in range(len(rows))
              if echelon_rank(rows[:i + 1]) > echelon_rank(rows[:i])]
    assert kept == greedy
    assert len(kept) == echelon_rank(rows)
    assert _echelon(rows, limit)[0] == greedy[:limit]


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_start_rays_are_the_columns_of_the_inverse(rows):
    # With exactly `dim` independent rows, DD returns its start cone: the
    # columns of B^-1 for the rows B in insertion order, smallest first,
    # each as primitive integers.
    n = len(rows)
    basis = sorted({primitive_ints(r) for r in rows}, key=smallest_first)
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    assume(len(basis) == n and solve_square(basis, unit[0]) is not None)
    assert _cone_extreme_rays(basis, n)[0] == [primitive_ints(solve_square(basis, e)) for e in unit]


def _as_pairs(h):
    """`h` with each linearity row written as two opposite inequality rows."""
    rows = list(h.rows)
    rows += [(-h.rows[i][0], tuple(-x for x in h.rows[i][1])) for i in sorted(h.linearity)]
    return HPolyhedron(h.d, tuple(rows))


_SQUARE = [[0, 1, 0], [0, 0, 1], [1, -1, 0], [1, 0, -1]]


@settings(max_examples=150, deadline=None)
@example((2, [[-1, 1, 1]], _SQUARE))  # x + y = 1: a diagonal of the square
@example((2, [[-3, 1, 1]], _SQUARE))  # x + y = 3 misses it: infeasible
@example((2, [[-1, 2, 0], [-1, 0, 2]], []))  # x = y = 1/2: one point
@given(st.integers(min_value=1, max_value=3).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.lists(st.integers(min_value=-2, max_value=2), min_size=d + 1, max_size=d + 1),
             min_size=1, max_size=d + 1),
    st.lists(st.lists(st.integers(min_value=-2, max_value=2), min_size=d + 1, max_size=d + 1),
             min_size=0, max_size=4))))
def test_linearity_rows_give_the_vertices_of_their_pairs(data):
    # Equality rows first, then inequalities, then the box |x_j| <= 3, which
    # keeps every system bounded, so its vertices are the whole answer.
    d, eqs, ineqs = data
    box = [(3, *(s * int(i == j) for i in range(d))) for j in range(d) for s in (1, -1)]
    h = HPolyhedron.from_rows(d, eqs + ineqs + box, linearity=range(len(eqs)))
    assert list(hrep_to_vrep(h).vertices) == brute_force_vertices(_as_pairs(h))


def _cone_rays_match_oracle(rows, dim):
    """Require `_cone_extreme_rays` to return exactly the oracle's list, or
    to raise NotPointed where the oracle finds the rank short.  Returns the
    oracle's rays (None for a short rank)."""
    want = third_ray_scan_extreme_rays(rows, dim)
    if want is None:
        with pytest.raises(NotPointed):
            _cone_extreme_rays(rows, dim)
    else:
        assert _cone_extreme_rays(rows, dim)[0] == want
    return want


def _both_directions(points):
    # V -> H on the cone of (b, a) with b + a.p >= 0 for every point, then
    # H -> V on the homogenized cone of the facet rows found.
    d = len(points[0])
    facets = _cone_rays_match_oracle([primitive_ints((1, *p)) for p in points], d + 1)
    if facets is not None:
        e0 = (1,) + (0,) * d
        _cone_rays_match_oracle([e0] + [f for f in facets if any(f[1:])], d + 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=6).flatmap(
    lambda d: st.tuples(st.just(d), st.sets(st.integers(min_value=0, max_value=2**d - 1),
                                            min_size=d + 1, max_size=12))))
def test_cone_extreme_rays_match_third_ray_scan(data):
    d, codes = data
    _both_directions([tuple(c >> j & 1 for j in range(d)) for c in sorted(codes)])


def test_cone_extreme_rays_match_third_ray_scan_on_degenerate_inputs():
    square_pyramid = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]
    cube_pyramid = [(*(2 * x for x in c), 0) for c in iproduct((0, 1), repeat=3)]
    cube_pyramid.append((1, 1, 1, 1))
    for points in (square_pyramid, cube_pyramid):
        _both_directions(points)
    for _, h in corpus():  # crosspolytopes, cubes, Klee-Walkup, products, ...
        _both_directions(hrep_to_vrep(h).vertices)


def test_cone_extreme_rays_match_third_ray_scan_across_blocks():
    # H -> V on the facets of a 7-dimensional 0/1 polytope, larger than the
    # property's draws: a step of this cone meets 53 negative rays, four
    # blocks of the pair loop's filter.
    h = vrep_to_hrep(random_01_polytope(7, 24, 1000))
    rows = sorted({(1,) + (0,) * 7} | {primitive((b, *a)) for b, a in h.rows})
    assert _cone_extreme_rays(rows, 8)[0] == third_ray_scan_extreme_rays(rows, 8)


def test_smallest_rows_first_runs_fewer_adjacency_ands(monkeypatch):
    # The cone of the test above, 114 rows in dimension 8.  Inserting its
    # rows smallest first runs the AND over the columns 837 times; in plain
    # lexicographic order it ran 1,577 times.
    h = vrep_to_hrep(random_01_polytope(7, 24, 1000))
    rows = sorted({(1,) + (0,) * 7} | {primitive((b, *a)) for b, a in h.rows})
    calls = 0
    tight_on_all = dd._tight_on_all

    def spy(*args):
        nonlocal calls
        calls += 1
        return tight_on_all(*args)

    monkeypatch.setattr(dd, "_tight_on_all", spy)
    assert len(rows) == 114 and len(_cone_extreme_rays(rows, 8)[0]) == 24
    assert calls == 837


def test_a_skipped_block_of_negative_rays_loses_no_ray():
    # The cone over a 20-gon, -990 y0 + u.(y1, y2) >= 0 for 20 normals u
    # around the circle, then a cut, inserted last (its largest coefficient,
    # 1901, is above the polygon's 990), that 18 of its 20 rays violate:
    # the step's negative rays fill one block of 16 and two more.  Each
    # positive ray has one negative neighbour, the first in block one, the
    # second in block two but not its first member, so each positive ray
    # skips one whole block and finds its neighbour in the other.
    polygon = [primitive((-990, round(99 * cos(pi * i / 10)), round(99 * sin(pi * i / 10))))
               for i in range(20)]
    cut = (1901, -186, 68)
    assert smallest_first(cut) > max(map(smallest_first, polygon))
    rays, zero_sets = _cone_extreme_rays(polygon, 3)
    vals = [sum(map(mul, cut, y)) for y in rays]
    pos = [k for k, v in enumerate(vals) if v > 0]
    neg = [k for k, v in enumerate(vals) if v < 0]
    neighbours = [j for j, q in enumerate(neg) if any(zero_sets[p] & zero_sets[q] for p in pos)]
    assert (len(pos), len(neg), neighbours) == (2, 18, [2, 17])
    rays = _cone_extreme_rays(polygon + [cut], 3)[0]
    assert len(rays) == 4
    assert rays == third_ray_scan_extreme_rays(polygon + [cut], 3)


def _index_builds(rows, dim):
    """The zero sets `_cone_extreme_rays(rows, dim)` hands to each
    `_transpose` call, its column index being built by one; the rays and
    zero sets must be exactly the oracle's."""
    built = []
    transpose = dd._transpose

    def spy(sets, width):
        built.append(list(sets))
        return transpose(sets, width)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dd, "_transpose", spy)
        rays, zero_sets = _cone_extreme_rays(rows, dim)
    assert rays == third_ray_scan_extreme_rays(rows, dim)
    ordered = sorted(set(rows))
    assert zero_sets == [sum(1 << i for i, r in enumerate(ordered) if not sum(map(mul, r, y)))
                         for y in rays]
    return built


def _h_to_v_cone(h):
    """(rows, dim) of the one cone `hrep_to_vrep(h)` runs."""
    cones = []
    cone = dd._cone_extreme_rays

    def record(rows, dim):
        cones.append((rows, dim))
        return cone(rows, dim)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dd, "_cone_extreme_rays", record)
        hrep_to_vrep(h)
    (got,) = cones
    return got


def test_a_simple_cone_never_builds_the_column_index():
    # No step of the H -> V cones of cube(7) and of a 3x4 transportation
    # polytope with generic margins, given 4 by 3, meets two degenerate
    # rays, so the count decides every pair and no column is read.
    for h in (cube(7), transportation((16, 14, 15, 15), (19, 21, 20))):
        rows, dim = _h_to_v_cone(h)
        assert _index_builds(rows, dim) == []


def test_the_column_index_is_built_at_the_first_pair_of_degenerate_rays():
    # The start rays are non-degenerate, so the second step is the first
    # that can meet two degenerate rays.  This cone's first step cuts it to
    # the face y3 = 0, whose three rays are tight on four rows each, and
    # its second step pairs two of them: the index starts with those three.
    rows = [(0, 0, 0, 1), (0, 1, 1, 0), (0, -1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0),
            (-1, 0, 0, 0), (0, 0, 0, -1)]
    built = _index_builds(rows, 4)
    assert len(built) == 1 and len(built[0]) == 3
    # A simple polytope's intermediate cones need not be simple: the same
    # 3x4 transportation polytope, given 3 by 4, runs a cone in other
    # coordinates, and one of its steps meets two degenerate rays.
    rows, dim = _h_to_v_cone(transportation((19, 21, 20), (16, 14, 15, 15)))
    assert len(_index_builds(rows, dim)) == 1


def test_the_column_index_is_built_mid_run():
    # A cone found by hypothesis among `_small_cones` draws: its first pair
    # of two degenerate rays comes after two whole steps, once the cone has
    # grown past its five start rays.  The zero sets the index starts from
    # then span at least dim + 3 rows, three of them beyond the start basis.
    rows = [(0, 0, 0, 0, -1), (0, 0, 0, -1, 0), (0, 0, 0, -1, 1), (0, 0, 1, 0, 0),
            (0, 0, 1, 1, 1), (0, -1, 0, 0, 0), (0, -1, 1, 0, 1), (1, 0, 0, 0, 0)]
    built = _index_builds(rows, 5)
    assert len(built) == 1 and len(built[0]) > 5
    union = 0
    for z in built[0]:
        union |= z
    assert union.bit_count() >= 5 + 3


@st.composite
def _small_cones(draw):
    """(dim, rows): up to ten nonzero primitive rows with entries in -2..2,
    dim 2-5, some of them repeats or negations of others, so that rays
    tight on exactly dim - 1 rows mix with rays tight on more."""
    dim = draw(st.integers(min_value=2, max_value=5))
    row = st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim)
    rows = draw(st.lists(row.filter(any), min_size=1, max_size=10))
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.booleans()),
                           max_size=10 - len(rows)))
    rows += [[-x for x in rows[i]] if negate else rows[i] for i, negate in copies]
    return dim, [primitive_ints(r) for r in rows]


@settings(max_examples=300, deadline=None)
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]))  # a square cone: all simple
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0)]))  # an opposite pair: a face
@example((4, [(0, 0, 0, 1), (0, 1, 1, 0), (0, -1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0),
              (-1, 0, 0, 0), (0, 0, 0, -1)]))  # two degenerate rays, not adjacent
@example((4, [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 0, 1),
              (1, 0, 0, 0)]))  # a step with no negative ray still orders them pos + zero
@given(_small_cones())
def test_cone_extreme_rays_and_zero_sets_on_small_cones(data):
    # A pair with a ray tight on exactly dim - 1 rows is decided by the
    # count alone; the rays must still be the oracle's, in its order, and
    # each zero set must be the rows the ray is tight on, computed here.
    dim, rows = data
    want = third_ray_scan_extreme_rays(rows, dim)
    if want is None:
        with pytest.raises(NotPointed):
            _cone_extreme_rays(rows, dim)
        return
    rays, zero_sets = _cone_extreme_rays(rows, dim)
    assert rays == want
    ordered = sorted(set(rows))
    tight = [sum(1 << i for i, r in enumerate(ordered) if not sum(map(mul, r, y))) for y in want]
    assert zero_sets == tight


def _corpus_cone(name, direction):
    """(dim, rows): the H -> V cone of a corpus polytope, its rows with e0,
    or the V -> H cone of its vertices."""
    h = dict(corpus())[name]
    if direction == "h":
        return h.d + 1, [(1,) + (0,) * h.d] + [primitive((b, *a)) for b, a in h.rows]
    return h.d + 1, [primitive_ints((1, *p)) for p in hrep_to_vrep(h).vertices]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_small_cones(), st.builds(
    _corpus_cone, st.sampled_from([name for name, _ in corpus()]), st.sampled_from("hv"))))
def test_rays_and_zero_sets_do_not_depend_on_the_insertion_order(data):
    # Smallest rows first moves only the order of the rays: each ray, with
    # its zero set over the sorted rows, is one the oracle finds inserting
    # the rows in plain lexicographic order, and the other way round.
    dim, rows = data
    want = third_ray_scan_extreme_rays(rows, dim, key=lambda row: row)
    if want is None:
        with pytest.raises(NotPointed):
            _cone_extreme_rays(rows, dim)
        return
    rays, zero_sets = _cone_extreme_rays(rows, dim)
    ordered = sorted(set(rows))
    tight = [sum(1 << i for i, r in enumerate(ordered) if not sum(map(mul, r, y))) for y in want]
    assert len(rays) == len(want)
    assert set(zip(rays, zero_sets)) == set(zip(want, tight))


@st.composite
def _rows_with_linearity(draw):
    """(d, rows, linearity): up to five small integer rows in R^d, d <= 4,
    any of them an equality."""
    d = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=d + 1, max_size=d + 1),
        max_size=5,
    ))
    linearity = draw(st.sets(st.integers(min_value=0, max_value=len(rows) - 1))) if rows else set()
    return d, rows, linearity


@settings(max_examples=200, deadline=None)
@example((2, [[0, 1, 0], [0, 0, 1], [1, -1, 0], [1, 0, -1], [2, 0, 0]], set()))  # square, 2 >= 0
@example((2, [[0, 1, 0], [0, 0, 1], [2, 0, 0]], set()))  # orthant, 2 >= 0: tight on its rays
@example((2, [[0, 1, 0], [0, 0, 1], [1, -1, 0], [1, 0, -1], [0, 0, 0]], set()))  # 0 >= 0
@example((2, [[1, -1, 0], [0, 1, 0], [2, -2, 0], [1, 0, -1], [0, 0, 1]], set()))  # a row, doubled
@example((2, [[-1, 1, 1], [1, -1, -1], [1, -1, 0], [1, 0, -1]], {0}))  # x + y = 1 and x + y <= 1
@example((2, [[-1, 0, 0]], set()))  # -1 >= 0: infeasible, no vertex on either path
@given(_rows_with_linearity())
def test_analyse_reads_the_incidence_off_the_cone(data):
    # The rows x_j >= -3 keep every draw pointed and leave room for rays.
    # The columns the conversion hands to `analyse` are the ones the dot
    # products of `incidence` and of the `Fraction` oracle find.
    d, rows, linearity = data
    box = [(3, *(int(i == j) for i in range(d))) for j in range(d)]
    h = HPolyhedron.from_rows(d, rows + box, linearity)
    got, want = analyse(h), incidence(h, hrep_to_vrep(h))
    assert (got.columns, got.masks, got.v) == (want.columns, want.masks, want.v)
    assert list(got.masks) == fraction_incidence(h, got.v)[0]
    assert list(got.columns) == fraction_columns(h, got.v)


@st.composite
def _rows_under_a_half_box(draw):
    """(d, rows, linearity): `_rows_with_linearity` plus the rows x_j >= -3
    for a drawn set of coordinates j; a coordinate left out can carry a
    line."""
    d, rows, linearity = draw(_rows_with_linearity())
    boxed = draw(st.sets(st.integers(min_value=0, max_value=d - 1)))
    return d, rows + [(3, *(int(i == j) for i in range(d))) for j in sorted(boxed)], linearity


@settings(max_examples=300, deadline=None)
@example((1, [[-1, 1], [-2, 1]], {0, 1}))  # x = 1 and x = 2: empty
@example((2, [[-1, 1, 0], [-2, 1, 0]], {0, 1}))  # the same in R^2, where y is free: a line
@example((2, [[1, 0, 0], [3, 1, 0], [3, 0, 1]], {0}))  # 1 = 0: empty
@example((2, [[0, 0, 0], [3, 1, 0], [3, 0, 1]], {0}))  # 0 = 0: the orthant at (-3, -3)
@example((2, [[-1, 1, 1], [-1, 1, 1], [-2, 2, 2], [1, -1, -1], [3, 1, 0], [3, 0, 1]],
          {0, 1, 2}))  # x + y = 1 twice and doubled, and x + y <= 1: a segment
@example((2, [[-1, 1, 0], [2, -1, 0], [1, -1, 0], [3, 0, 1]], {0}))  # x = 1, x <= 2, x <= 1
@given(_rows_under_a_half_box())
def test_a_linearity_row_is_its_pair(data):
    # The cone in the null space of the linearity rows gives the rows, and
    # the columns, of the cone with each linearity row as two opposite
    # inequality rows, or raises NotPointed where that one does.
    d, rows, linearity = data
    h = HPolyhedron.from_rows(d, rows, linearity)
    try:
        want = analyse(_as_pairs(h))
    except NotPointed:
        with pytest.raises(NotPointed):
            analyse(h)
        return
    got = analyse(h)
    assert (got.v.rows, got.columns) == (want.v.rows, want.columns[: h.nrows])


def test_transportation_runs_one_cone_in_the_null_space_of_its_equalities(monkeypatch):
    # 3x4 margins: 12 nonnegativity rows and 7 equalities of rank 6 in
    # R^12, so the cone has dimension d + 1 - rank E = 7, with e0 and the
    # 12 projected nonnegativity rows; the equalities project to zero.
    calls = []
    cone = dd._cone_extreme_rays

    def spy(rows, dim):
        calls.append((len(set(rows)), dim))
        return cone(rows, dim)

    monkeypatch.setattr(dd, "_cone_extreme_rays", spy)
    transportation((19, 21, 20), (16, 14, 15, 15))
    assert calls == [(13, 7)]


_FRACTION = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                      st.integers(min_value=1, max_value=3))


@settings(max_examples=200, deadline=None)
@example((2, [[-1, 3, 0]], {0}))  # x = 1/3: the vertex (1/3, -3) and the ray (0, 1)
@example((3, [[Fraction(-1, 2), 1, 2, 0], [Fraction(1, 3), -1, 0, 3]], {0}))  # a plane, cut
@given(st.integers(min_value=1, max_value=4).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.lists(_FRACTION, min_size=d + 1, max_size=d + 1), min_size=1, max_size=4),
    st.sets(st.integers(min_value=0, max_value=1)))))
def test_reduce_to_full_dim_matches_its_fraction_form(data):
    # Rows with fractional coefficients, any of the first two an equality,
    # under x_j >= -3, so vertices are fractional and rays occur.  The
    # integer rewrite gives the rows of the `Fraction` one, value and type.
    d, rows, linearity = data
    half_box = [(3, *(int(i == j) for i in range(d))) for j in range(d)]
    h = HPolyhedron.from_rows(d, rows + half_box, linearity & set(range(len(rows))))
    assume(hrep_to_vrep(h).nverts)
    got, want = reduce_to_full_dim(h), fraction_reduce_to_full_dim(h)
    assert got == want
    assert all(type(x) is Fraction for b, a in got.rows for x in (b, *a))
