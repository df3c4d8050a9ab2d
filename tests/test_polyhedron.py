"""Incidence, skeleton and dual graphs, classification, polarity."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from polydiam import (
    HPolyhedron,
    PolyGraph,
    Unbounded,
    VPolyhedron,
    analyse,
    classify,
    dual_graph,
    hrep_to_vrep,
    polar,
    skeleton_graph,
    vrep_to_hrep,
)
from polydiam.bounds import hirsch_report
from polydiam.constructions import (
    crosspolytope,
    cube,
    hirsch_sharp,
    klee_walkup,
    random_01_polytope,
    simplex,
    transportation,
    truncate_vertex,
    wedge,
)
from polydiam import polyhedron
from polydiam.polyhedron import facet_row_indices
from polydiam.paths import bfs_distances
from polydiam.ratlin import primitive

from corpus import ngon
from oracles import incidence


def _pipeline(h):
    v = hrep_to_vrep(h)
    inc = incidence(h, v)
    return v, inc


def test_incidence_cube_every_vertex_on_d_rows():
    for d in (2, 3, 4):
        h = cube(d)
        v, inc = _pipeline(h)
        assert all(inc.masks[k].bit_count() == d for k in range(len(v.vertices)))


def test_incidence_simplex():
    h = simplex(3)
    v, inc = _pipeline(h)
    assert h.nrows == 4
    assert all(inc.masks[k].bit_count() == 3 for k in range(len(v.vertices)))


def test_incidence_counts_duplicate_rows_per_row():
    h = HPolyhedron.from_rows(
        2, [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (1, 0, -1)]
    )
    v, inc = _pipeline(h)
    top = [k for k, p in enumerate(v.vertices) if p[1] == 1]
    # the duplicated facet row is tight twice for the top vertices
    assert all(inc.masks[k].bit_count() == 3 for k in top)


def test_incidence_rejects_inconsistent_pair():
    h = cube(2)
    bad = VPolyhedron.from_points([(5, 0)])
    with pytest.raises(ValueError):
        incidence(h, bad)


@st.composite
def _points_and_rays(draw):
    """Distinct rational points in R^d, d <= 3, and nonzero, pairwise
    non-parallel rational rays."""
    d = draw(st.integers(min_value=1, max_value=3))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    vec = st.tuples(*[coord] * d)
    points = draw(st.lists(vec, min_size=1, max_size=5, unique=True))
    rays = draw(st.lists(vec.filter(any), max_size=3, unique_by=primitive))
    return points, rays


@settings(max_examples=150, deadline=None)
@given(_points_and_rays())
@example(([(Fraction(1, 2), Fraction(-7, 3))], [(Fraction(2, 3), Fraction(4, 3))]))
def test_v_description_reads_back_as_fractions(case):
    # the rows are primitive homogeneous integers; the views give back the
    # `Fraction` points as given and each ray at its primitive scale
    points, rays = case
    v = VPolyhedron.from_points(points, rays)
    assert all(gcd(*row) == 1 for row in v.rows)
    assert v.nverts == len(points) and v.bounded == (not rays)
    assert v.vertices == tuple(tuple(Fraction(x) for x in p) for p in points)
    assert v.rays == tuple(tuple(Fraction(x) for x in primitive(r)) for r in rays)
    assert all(type(x) is Fraction for p in v.vertices + v.rays for x in p)
    # integral coordinates spelled as `int`, and rays at another positive
    # scale, give the same rows: equal and of equal hash
    plain = [tuple(int(x) if x.denominator == 1 else x for x in p) for p in points]
    again = VPolyhedron.from_points(plain, [tuple(3 * x for x in r) for r in rays])
    assert again == v and hash(again) == hash(v)


def test_int_and_fraction_spellings_are_one_polytope():
    as_int = VPolyhedron.from_points([(0, 0), (2, 0), (0, 1)], rays=[(1, 1)])
    as_frac = VPolyhedron.from_points(
        [(Fraction(0), Fraction(0)), (Fraction(4, 2), Fraction(0)), (Fraction(0), Fraction(1))],
        rays=[(Fraction(1, 2), Fraction(1, 2))],
    )
    assert as_int == as_frac and hash(as_int) == hash(as_frac)
    assert as_int.rows == ((1, 0, 0), (1, 2, 0), (1, 0, 1), (0, 1, 1))
    assert as_int.vertices == ((0, 0), (2, 0), (0, 1)) and as_int.rays == ((1, 1),)


@pytest.mark.parametrize("make, want", [
    (lambda: VPolyhedron.from_points([(0, 0), (1, 0), (0, 1)], rays=[(1, 1)]), ("v0", "v1", "v2")),
    (lambda: klee_walkup()[0], tuple("abcdefghw")),
])
def test_all_labels_are_built_once_and_kept(make, want):
    v, again = make(), make()
    assert "_all_labels" not in v.__dict__  # nothing is built until it is read
    first = v.all_labels()
    assert first == want and v.all_labels() is first
    assert tuple(map(v.label, range(v.nverts))) == want
    assert v == again and hash(v) == hash(again)  # equality reads the fields only


@pytest.mark.parametrize("make,message", [
    (lambda: VPolyhedron.from_points([(Fraction(1, 2),), (Fraction(2, 4),)]), "pairwise distinct"),
    (lambda: VPolyhedron.from_points([(0, 0)], rays=[(1, 2), (2, 4)]), "non-parallel"),
    (lambda: VPolyhedron.from_points([(0, 0)], rays=[(0, 0)]), "nonzero"),
    (lambda: VPolyhedron.from_points([(0, 0), (1,)]), "d \\+ 1 entries"),
    (lambda: VPolyhedron.from_points([(0,)], labels=["a", "b"]), "one label"),
    (lambda: VPolyhedron._of_rows(1, ((2, 2),)), "primitive"),
    (lambda: VPolyhedron._of_rows(1, ((1, 0), (0, 2))), "primitive"),
    (lambda: VPolyhedron._of_rows(1, ((-1, 1),)), "t > 0"),
    (lambda: VPolyhedron._of_rows(1, ((1, 0), (-1, 1))), "t > 0"),
    (lambda: VPolyhedron._of_rows(1, ((0, 1), (1, 0))), "t > 0"),
])
def test_v_description_rejects_malformed_rows(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_skeleton_cube_is_hamming_graph():
    h = cube(3)
    v, inc = _pipeline(h)
    g = skeleton_graph(inc)
    labels = v.all_labels()
    for (i, p), (j, q) in combinations(enumerate(v.vertices), 2):
        hamming = sum(1 for a, b in zip(p, q) if a != b)
        edge = tuple(sorted((labels[i], labels[j])))
        assert (edge in g.edges) == (hamming == 1)


def test_skeleton_simplex_complete():
    h = simplex(4)
    v, inc = _pipeline(h)
    g = skeleton_graph(inc)
    assert len(g.edges) == 5 * 4 // 2


def test_skeleton_crosspolytope_misses_antipodal_pairs():
    h = crosspolytope(3)
    v, inc = _pipeline(h)
    g = skeleton_graph(inc)
    labels = v.all_labels()
    missing = {
        tuple(sorted((labels[i], labels[j])))
        for (i, p), (j, q) in combinations(enumerate(v.vertices), 2)
        if tuple(-x for x in p) == q
    }
    all_pairs = {tuple(sorted(e)) for e in combinations(labels, 2)}
    assert g.edges == frozenset(all_pairs - missing)
    assert len(missing) == 3


def _pair_tests(monkeypatch, inc):
    """The vertex pairs `skeleton_graph(inc)` tests by one AND of their
    shared facet columns: the `_tight_on_all` calls whose floor is two
    vertices (an unpaired key passes its one vertex)."""
    tested = []
    real = polyhedron._tight_on_all

    def counting(columns, rows, among, floor):
        if floor.bit_count() == 2:
            tested.append(tuple(polyhedron._bits(floor)))
        return real(columns, rows, among, floor)

    monkeypatch.setattr(polyhedron, "_tight_on_all", counting)
    skeleton_graph(inc)
    return tested


_CUBE3_ROWS = [(b, *a) for b, a in cube(3).rows]


@pytest.mark.parametrize("h", [
    pytest.param(cube(6), id="cube6"),
    pytest.param(transportation((19, 21, 20), (16, 14, 15, 15)), id="transport3x4"),
    pytest.param(hirsch_sharp(5, 11), id="hirsch_sharp_5_11"),
    # rows tight at some vertices that are not facets: a doubled facet row,
    # and the sum of two facet rows, tight on the edge where both are
    pytest.param(HPolyhedron.from_rows(3, _CUBE3_ROWS + [
        [2 * x for x in _CUBE3_ROWS[0]],
        [x + y for x, y in zip(_CUBE3_ROWS[0], _CUBE3_ROWS[2])],
    ]), id="cube3_with_redundant_rows"),
    # the cube in the hyperplane x4 = 0 of R^4: the equality is tight everywhere
    pytest.param(HPolyhedron.from_rows(4, [[*r, 0] for r in _CUBE3_ROWS] + [[0, 0, 0, 0, 1]],
                                       linearity=[6]), id="cube3_in_r4"),
])
def test_skeleton_of_a_simple_polytope_tests_no_vertex_pair(monkeypatch, h):
    # every edge joins two simple vertices with the same dim - 1 facets, so
    # a bounded simple polytope pairs all its keys and runs no column AND
    inc = analyse(h)
    assert inc.v.bounded
    assert all(fm.bit_count() == inc.dim for fm in inc.facet_masks)
    ands = []
    real = polyhedron._tight_on_all

    def counting(*args):
        ands.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedron, "_tight_on_all", counting)
    assert _pair_tests(monkeypatch, inc) == []
    assert ands == []


@pytest.mark.parametrize("poly", [
    pytest.param(crosspolytope(3), id="cross3"),
    pytest.param(klee_walkup()[1], id="q4"),
    pytest.param(random_01_polytope(5, 10, 7), id="zero_one_5_10"),
    pytest.param(VPolyhedron.from_points([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]),
                 id="square_pyramid"),
])
def test_skeleton_tests_only_pairs_of_non_simple_vertices(monkeypatch, poly):
    # an edge lies on at least dim - 1 facets, so only the non-simple pairs
    # whose facet masks share that many are tested
    inc = analyse(poly)
    fms, dim = inc.facet_masks, inc.dim
    non_simple = [u for u, fm in enumerate(fms) if fm.bit_count() != dim]
    candidates = [(u, w) for u, w in combinations(non_simple, 2)
                  if (fms[u] & fms[w]).bit_count() >= dim - 1]
    assert sorted(_pair_tests(monkeypatch, inc)) == candidates


def test_the_skeleton_and_a_truncation_leave_the_row_masks_uncomputed():
    # an edge is one AND of facet columns, so neither the skeleton of the
    # octahedron, whose vertices are all non-simple, nor the truncation of
    # a simple vertex transposes the columns into per-vertex row masks
    inc = analyse(crosspolytope(3))
    skeleton_graph(inc)
    assert "masks" not in inc.__dict__
    q4 = analyse(klee_walkup()[1])
    inc = analyse(wedge(q4, q4.facets[0]))
    truncate_vertex(inc, 0)
    assert "masks" not in inc.__dict__


def _transpose_per_bit(sets, width):
    # the reference: one OR per set bit
    out = [0] * width
    for k, s in enumerate(sets):
        bit = 1 << k
        while s:
            low = s & -s
            out[low.bit_length() - 1] |= bit
            s ^= low
    return out


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(["narrow", "wide", "many"]), seed=st.integers(0, 2**32),
       data=st.data())
def test_transpose_matches_the_per_bit_loop(shape, seed, data):
    # narrow: up to 64 bits per set; wide: 20,000 bits or more per set;
    # many: 20,000 or more sets of up to 64 bits.  Each set has its own
    # density, some are zero, and the width may lie above every set bit
    width = data.draw(st.integers(20_000, 20_100) if shape == "wide" else st.integers(0, 64))
    count = data.draw(st.integers(20_000, 20_100) if shape == "many"
                      else st.integers(0, 6 if shape == "wide" else 70))
    spare = data.draw(st.integers(0, width))  # top bits that no set uses
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        s = rng.getrandbits(width - spare)
        for _ in range(rng.randrange(4)):
            s &= rng.getrandbits(width - spare)  # sparser, down to zero
        sets.append(s)
    assert polyhedron._transpose(sets, width) == _transpose_per_bit(sets, width)


@settings(max_examples=8, deadline=None)
@given(density=st.sampled_from(["sparse", "dense"]), seed=st.integers(0, 2**32))
def test_bits_matches_the_per_bit_reference(density, seed):
    # 100,000-bit sets: the AND of several draws leaves a few hundred bits,
    # the OR of several draws all but a few hundred
    width = 100_000
    rng = random.Random(seed)
    m = rng.getrandbits(width)
    for _ in range(7):
        m = m & rng.getrandbits(width) if density == "sparse" else m | rng.getrandbits(width)
    assert list(polyhedron._bits(m)) == [i for i in range(width) if m >> i & 1]


@pytest.mark.parametrize("sets, width, want", [
    ([], 0, []),
    ([], 3, [0, 0, 0]),
    ([0, 0], 0, []),
    ([0, 0], 2, [0, 0]),
    ([5, 1], 3, [0b11, 0, 0b01]),
    ([5, 1], 8, [0b11, 0, 0b01, 0, 0, 0, 0, 0]),
    ([1 << 20_000], 20_001, [0] * 20_000 + [1]),
])
def test_transpose_edge_cases(sets, width, want):
    assert polyhedron._transpose(sets, width) == want == _transpose_per_bit(sets, width)


@pytest.mark.parametrize("sets, width", [([5], 2), ([0, 1], 0), ([0, 1 << 64], 64)])
def test_transpose_rejects_a_bit_at_or_above_width(sets, width):
    with pytest.raises(ValueError, match="at or above width"):
        polyhedron._transpose(sets, width)


def test_dual_graph_cube_is_octahedron():
    h = cube(3)
    v, inc = _pipeline(h)
    g = dual_graph(inc)
    assert len(g.nodes) == 6
    assert all(nbrs.bit_count() == 4 for nbrs in g.adj)


def test_dual_graph_simplex_complete():
    h = simplex(3)
    v, inc = _pipeline(h)
    g = dual_graph(inc)
    assert len(g.edges) == 4 * 3 // 2


def test_dual_graph_klee_walkup_distance_five():
    vstar, _ = klee_walkup()
    h = vrep_to_hrep(vstar)
    inc = incidence(h, vstar)
    g = dual_graph(inc)
    labels = vstar.all_labels()
    name_of_row = {}
    for i in facet_row_indices(inc):
        tight = "".join(sorted(labels[k] for k in inc.vertices_on_row(i)))
        name_of_row[f"f{i + 1}"] = tight
    start = next(n for n, t in name_of_row.items() if t == "abcd")
    goal = next(n for n, t in name_of_row.items() if t == "efgh")
    assert bfs_distances(g, start)[goal] == 5


# The unit square in the plane z = 0 of R^3, its plane given by an
# equality row or by the pair z >= 0, -z >= 0.
_SQUARE_SIDES = [(0, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0), (1, 0, -1, 0)]
SQUARES_IN_R3 = {
    "linearity": HPolyhedron.from_rows(3, _SQUARE_SIDES + [(0, 0, 0, 1)], linearity=[4]),
    "pair": HPolyhedron.from_rows(3, _SQUARE_SIDES + [(0, 0, 0, 1), (0, 0, 0, -1)]),
}


@pytest.mark.parametrize("form", sorted(SQUARES_IN_R3))
def test_dual_graph_of_lower_dimensional_square_is_four_cycle(form):
    h = SQUARES_IN_R3[form]
    v, inc = _pipeline(h)
    g = dual_graph(inc)
    assert g.nodes == ("f1", "f2", "f3", "f4")
    assert g.edges == frozenset(
        {("f1", "f3"), ("f1", "f4"), ("f2", "f3"), ("f2", "f4")}
    )


# The segment [0, 1] x {0} in the plane, plus the row x + y >= 0: that row
# cuts the same facet {(0, 0)} as x >= 0 although the two rows are not
# multiples of each other.
SEGMENTS_WITH_EXTRA_ROW = {
    "linearity": HPolyhedron.from_rows(
        2, [(0, 1, 0), (1, -1, 0), (0, 0, 1), (0, 1, 1)], linearity=[2]
    ),
    "pair": HPolyhedron.from_rows(
        2, [(0, 1, 0), (1, -1, 0), (0, 0, 1), (0, 0, -1), (0, 1, 1)]
    ),
}


@pytest.mark.parametrize("form", sorted(SEGMENTS_WITH_EXTRA_ROW))
def test_rows_cutting_the_same_facet_are_merged(form):
    h = SEGMENTS_WITH_EXTRA_ROW[form]
    v, inc = _pipeline(h)
    assert facet_row_indices(inc) == [0, 1]
    report = hirsch_report(analyse(h))
    assert (report["n"], report["d"], report["diameter"]) == (2, 1, 1)
    assert report["hirsch_sharp"] is True


def test_dual_graph_rejects_unbounded():
    h = HPolyhedron.from_rows(2, [(0, 1, 0), (0, 0, 1)])
    v = hrep_to_vrep(h)
    with pytest.raises(Unbounded):
        dual_graph(incidence(h, v))


@pytest.mark.parametrize("d", [3, 4])
def test_classify_triples(d):
    for h, expected in (
        (cube(d), (True, False)),
        (crosspolytope(d), (False, True)),
        (simplex(d), (True, True)),
    ):
        v, inc = _pipeline(h)
        assert classify(inc) == expected


def test_classify_square_both():
    # in the plane, cube = crosspolytope combinatorially: simple and simplicial
    h = cube(2)
    v, inc = _pipeline(h)
    assert classify(inc) == (True, True)


def test_classify_placed_cube_like_cube():
    # cube(3) in the hyperplane x4 = 0 of R^4, given by a linearity row
    rows = [(b, *a, 0) for b, a in cube(3).rows] + [(0, 0, 0, 0, 1)]
    placed = HPolyhedron.from_rows(4, rows, linearity=[6])
    assert classify(incidence(placed, hrep_to_vrep(placed))) == (True, False)
    report = hirsch_report(analyse(placed))
    assert report["d"] == 3
    assert report["simple"] is True and report["simplicial"] is False


def test_polar_klee_walkup():
    vstar, q4 = klee_walkup()
    h, shift = polar(analyse(vstar))
    assert h.nrows == 9
    # centroid of the nine points is (0, 0, 0, 2), so the reported
    # translation is its negative and the rows differ from the raw ones
    assert shift == (0, 0, 0, -2)
    vp = hrep_to_vrep(h)
    inc = incidence(h, vp)
    assert classify(inc) == (True, False)
    assert len(vp.vertices) == len(hrep_to_vrep(q4).vertices)


def test_polar_cube_is_crosspolytope():
    h, shift = polar(analyse(cube(3)))
    assert shift == (0, 0, 0)
    assert {tuple(p) for p in hrep_to_vrep(h).vertices} == {
        tuple(q) for q in hrep_to_vrep(crosspolytope(3)).vertices
    }


def test_polar_triangle_is_triangle():
    h, _ = polar(analyse(simplex(2)))
    assert h.nrows == 3
    assert len(hrep_to_vrep(h).vertices) == 3


def test_polarity_swaps_classification_and_graphs():
    for base in (cube(3), simplex(3), crosspolytope(3)):
        v, inc = _pipeline(base)
        s, t = classify(inc)
        hp, _ = polar(inc)
        vp, incp = _pipeline(hp)
        assert classify(incp) == (t, s)
        # G(P*) is isomorphic to the dual graph of P, matching polar
        # vertices to the facets they came from
        gp = skeleton_graph(incp)
        dg = dual_graph(inc)
        # polar row j came from base vertex j, so polar vertex k lies on
        # exactly the rows indexed by the base vertices of one base facet
        mapping = {}
        for k in range(len(vp.vertices)):
            base_verts = frozenset(
                j for j in range(len(v.vertices)) if incp.masks[k] >> j & 1
            )
            row = next(
                i for i in facet_row_indices(inc)
                if frozenset(inc.vertices_on_row(i)) == base_verts
            )
            mapping[vp.label(k)] = f"f{row + 1}"
        mapped = frozenset(
            tuple(sorted((mapping[a], mapping[b]))) for a, b in gp.edges
        )
        assert mapped == dg.edges


def test_euler_formula_for_3_polytopes():
    for h in (cube(3), simplex(3), crosspolytope(3), _pyramid()):
        v, inc = _pipeline(h)
        g = skeleton_graph(inc)
        nfacets = len(facet_row_indices(inc))
        assert len(v.vertices) - len(g.edges) + nfacets == 2


def test_simple_polytopes_have_degree_d_graphs():
    for h, d in ((cube(3), 3), (simplex(4), 4), (klee_walkup()[1], 4)):
        v, inc = _pipeline(h)
        g = skeleton_graph(inc)
        assert all(nbrs.bit_count() == d for nbrs in g.adj)


def test_skeleton_matches_facet_counting_rule_on_simple_polytopes():
    # for a simple polytope, u ~ v iff they share exactly d - 1 facets; the
    # implementation never uses this rule, so it is an independent oracle
    for h in (cube(3), cube(4), simplex(4), klee_walkup()[1]):
        v, inc = _pipeline(h)
        facets = facet_row_indices(inc)
        fmask = 0
        for i in facets:
            fmask |= 1 << i
        labels = v.all_labels()
        g = skeleton_graph(inc)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                shared = (inc.masks[i] & inc.masks[j] & fmask).bit_count()
                edge = tuple(sorted((labels[i], labels[j]))) in g.edges
                assert edge == (shared == h.d - 1)


def test_ngon_graph_is_cycle():
    h = ngon(6)
    v, inc = _pipeline(h)
    g = skeleton_graph(inc)
    assert len(g.edges) == 6
    assert all(nbrs.bit_count() == 2 for nbrs in g.adj)


def _pyramid():
    # square pyramid: a non-simple, non-simplicial 3-polytope
    return vrep_to_hrep(
        VPolyhedron.from_points(
            [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)]
        )
    )


def test_pyramid_is_neither_simple_nor_simplicial():
    h = _pyramid()
    v, inc = _pipeline(h)
    assert classify(inc) == (False, False)


def test_skeleton_of_degenerate_apex():
    # apex of the pyramid has 4 tight facets but only 4 edges; the
    # combinatorial test keeps the graph right despite non-simplicity
    h = _pyramid()
    v, inc = _pipeline(h)
    g = skeleton_graph(inc)
    apex = v.label(list(v.vertices).index((0, 0, 1)))
    assert g.adj[g.nodes.index(apex)].bit_count() == 4
    assert len(g.edges) == 8


@pytest.mark.parametrize("nodes,nbrs,message", [
    (("a", "a"), ((), ()), "duplicate"),
    (("a", "b"), ((1,),), "one neighbour tuple"),
    (("a", "b"), ((1,), ()), "symmetric"),
    (("a", "b"), ((0,), ()), "loops"),
    (("a", "b"), ((1, 2), (0,)), "not a node"),
    (("a", "b"), ((-1,), (0,)), "not a node"),
    (("a", "b", "c"), ((1, 1), (0, 0), ()), "listed twice"),
    (("a", "b", "c"), ((2, 1), (0,), (0,)), "ascending"),
])
def test_polygraph_rejects_malformed_neighbour_tuples(nodes, nbrs, message):
    with pytest.raises(ValueError, match=message):
        PolyGraph(nodes, nbrs)


@pytest.mark.parametrize("nodes,adj,message", [
    (("a", "a"), (0, 0), "duplicate"),
    (("a", "b"), (0b10,), "one neighbour bitset"),
    (("a", "b"), (0b10, 0b00), "symmetric"),
    (("a", "b"), (0b01, 0b00), "loops"),
    (("a", "b"), (0b110, 0b001), "not a node"),
    (("a", "b"), (-2, 0b01), "not a node"),
])
def test_polygraph_rejects_malformed_bitsets(nodes, adj, message):
    with pytest.raises(ValueError, match=message):
        _polygraph_from_bitsets(nodes, adj)


def _polygraph_from_bitsets(nodes, adj):
    """The PolyGraph whose `adj` is the given bitsets, as the graph builders
    once handed them over; PolyGraph's own checks judge the rest."""
    if len(adj) != len(nodes):
        raise ValueError("one neighbour bitset per node required")
    if any(bits < 0 for bits in adj):
        raise ValueError("edge endpoint not a node")
    return PolyGraph(nodes, tuple(tuple(polyhedron._bits(bits)) for bits in adj))


def test_polygraph_edges_are_a_sorted_label_view_of_the_bitsets():
    g = PolyGraph.from_edges(["v2", "v10", "v1"], [("v2", "v10"), ("v2", "v1"), ("v10", "v2")])
    assert g.nbrs == ((1, 2), (0,), (0,))
    assert g.adj == (0b110, 0b001, 0b001)
    assert g.edges == frozenset({("v10", "v2"), ("v1", "v2")})
    assert g == PolyGraph(("v2", "v10", "v1"), ((1, 2), (0,), (0,)))
    with pytest.raises(ValueError, match="not a node"):
        PolyGraph.from_edges(["a"], [("a", "b")])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_polygraph_adj_is_the_bitsets_of_its_edges(data):
    # the bitsets built here by ORing each edge's ends, as the graph
    # builders did before they kept neighbour lists
    n = data.draw(st.integers(0, 70))
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=150)) if pairs else []
    bitsets = [0] * n
    for i, j in edges:
        bitsets[i] |= 1 << j
        bitsets[j] |= 1 << i
    g = PolyGraph.from_edges(range(n), [(j, i) if data.draw(st.booleans()) else (i, j)
                                        for i, j in edges])
    assert g.adj == tuple(bitsets)
    assert g.nbrs == tuple(tuple(j for j in range(n) if b >> j & 1) for b in bitsets)
    assert PolyGraph(g.nodes, g.nbrs).adj == g.adj
    assert _polygraph_from_bitsets(g.nodes, bitsets) == g
