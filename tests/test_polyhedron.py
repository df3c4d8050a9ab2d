"""Incidence, skeleton and dual graphs, classification, polarity."""

from fractions import Fraction
from itertools import combinations

import pytest

from polydiam import (
    HPolyhedron,
    PolyGraph,
    Unbounded,
    VPolyhedron,
    analyse,
    classify,
    dual_graph,
    hrep_to_vrep,
    incidence,
    polar,
    skeleton_graph,
    vrep_to_hrep,
)
from polydiam.bounds import hirsch_report
from polydiam.constructions import crosspolytope, cube, klee_walkup, ngon, simplex
from polydiam.polyhedron import facet_row_indices
from polydiam.paths import bfs_distances


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
    h, shift = polar(vstar)
    assert h.nrows == 9
    # centroid of the nine points is (0, 0, 0, 2), so the reported
    # translation is its negative and the rows differ from the raw ones
    assert shift == (0, 0, 0, -2)
    vp = hrep_to_vrep(h)
    inc = incidence(h, vp)
    assert classify(inc) == (True, False)
    assert len(vp.vertices) == len(hrep_to_vrep(q4).vertices)


def test_polar_cube_is_crosspolytope():
    v = hrep_to_vrep(cube(3))
    h, shift = polar(v)
    assert shift == (0, 0, 0)
    assert {tuple(p) for p in hrep_to_vrep(h).vertices} == {
        tuple(q) for q in hrep_to_vrep(crosspolytope(3)).vertices
    }


def test_polar_triangle_is_triangle():
    v = hrep_to_vrep(simplex(2))
    h, _ = polar(v)
    assert h.nrows == 3
    assert len(hrep_to_vrep(h).vertices) == 3


def test_polarity_swaps_classification_and_graphs():
    for base in (cube(3), simplex(3), crosspolytope(3)):
        v, inc = _pipeline(base)
        s, t = classify(inc)
        hp, _ = polar(v)
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
        PolyGraph(nodes, adj)


def test_polygraph_edges_are_a_sorted_label_view_of_the_bitsets():
    g = PolyGraph.from_edges(["v2", "v10", "v1"], [("v2", "v10"), ("v2", "v1"), ("v10", "v2")])
    assert g.adj == (0b110, 0b001, 0b001)
    assert g.edges == frozenset({("v10", "v2"), ("v1", "v2")})
    assert g == PolyGraph(("v2", "v10", "v1"), (0b110, 0b001, 0b001))
    with pytest.raises(ValueError, match="not a node"):
        PolyGraph.from_edges(["a"], [("a", "b")])
