"""Boundaries of simplicial polytopes: ridge graphs, anti-stars, dual non-revisiting.

The ridge graph of a simplicial polytope is its dual graph, so every fact
here is read off `dual_graph(analyse(poly))`, each facet named by the
sorted labels of its vertices.  The dual non-revisiting question is the
primal one on the polar, checked against the unpruned search over the
facets' label sets in `oracles.dual_nonrevisiting`.
"""

from polydiam import PolyGraph, analyse, classify, dual_graph, polar
from polydiam.constructions import crosspolytope, hirsch_sharp, klee_walkup, simplex
from polydiam.paths import _nonrevisiting_all_pairs, bfs_distances, nonrevisiting_property

from oracles import dual_nonrevisiting

# The fifteen tetrahedra avoiding w on the boundary of the Klee-Walkup
# 9-vertex simplicial polytope, and the 24 adjacencies among them.
ANTISTAR_W = [
    "abcd", "acde", "adeh", "cdeh", "bceh", "begh", "efgh", "adgh",
    "cdgh", "bcgh", "afgh", "adfg", "cdfg", "bcfg", "bcdf",
]
ANTISTAR_W_EDGES = [
    ("abcd", "acde"), ("abcd", "bcdf"), ("acde", "adeh"), ("acde", "cdeh"),
    ("adeh", "cdeh"), ("adeh", "adgh"), ("cdeh", "bceh"), ("cdeh", "cdgh"),
    ("bceh", "begh"), ("bceh", "bcgh"), ("begh", "efgh"), ("bcgh", "begh"),
    ("adgh", "cdgh"), ("cdgh", "bcgh"), ("efgh", "afgh"), ("afgh", "adgh"),
    ("afgh", "adfg"), ("adfg", "cdfg"), ("cdfg", "bcfg"), ("adgh", "adfg"),
    ("cdgh", "cdfg"), ("bcgh", "bcfg"), ("cdfg", "bcdf"), ("bcfg", "bcdf"),
]


def facet_label_sets(inc):
    """The vertex labels of each facet, in the order of `inc.facets`."""
    labels = inc.v.all_labels()
    return [frozenset(labels[k] for k in inc.vertices_on_row(i)) for i in inc.facets]


def ridge_graph(inc):
    """`dual_graph(inc)` with each facet named by its sorted vertex labels."""
    names = tuple("".join(sorted(f)) for f in facet_label_sets(inc))
    return PolyGraph(names, dual_graph(inc).nbrs)


def klee_walkup_boundary():
    """The `Incidence` of Q4* and its ridge graph, facets named like 'abcd'."""
    inc = analyse(klee_walkup()[0])
    return inc, ridge_graph(inc)


def test_boundary_complex_klee_walkup():
    inc, g = klee_walkup_boundary()
    assert inc.v.all_labels() == tuple("abcdefgh") + ("w",)
    assert classify(inc) == (False, True)
    assert len(g.nodes) == 27
    assert all(len(f) == 4 for f in facet_label_sets(inc))


def test_boundary_complex_octahedron():
    facets = facet_label_sets(analyse(crosspolytope(3)))
    assert len(facets) == 8 and all(len(f) == 3 for f in facets)


def test_boundary_complex_simplex():
    for d in (2, 3, 4):
        facets = facet_label_sets(analyse(simplex(d)))
        assert len(facets) == d + 1 and all(len(f) == d for f in facets)


def test_ridge_graph_klee_walkup_distance():
    _, g = klee_walkup_boundary()
    assert bfs_distances(g, "abcd")["efgh"] == 5


def test_ridge_graph_simplex_complete():
    assert len(dual_graph(analyse(simplex(3))).edges) == 6


def test_anti_star_klee_walkup_is_the_fifteen():
    _, g = klee_walkup_boundary()
    assert sorted(name for name in g.nodes if "w" not in name) == sorted(ANTISTAR_W)
    # the remaining tetrahedra all contain w
    assert sum("w" in name for name in g.nodes) == 12


def test_anti_star_figure_edges_exact():
    # the ridge graph of the anti-star is the subgraph induced on the
    # facets that miss w
    _, g = klee_walkup_boundary()
    expected = frozenset(tuple(sorted(e)) for e in ANTISTAR_W_EDGES)
    assert frozenset(e for e in g.edges if "w" not in e[0] + e[1]) == expected


def test_anti_star_simplex():
    # every facet of a simplex but one holds a given vertex
    facets = facet_label_sets(analyse(simplex(3)))
    labels = set().union(*facets)
    for lab in labels:
        assert [f for f in facets if lab not in f] == [frozenset(labels - {lab})]


def test_ridge_graph_matches_dual_graph():
    # facets of a simplicial polytope meet in a ridge exactly when they
    # share all but one vertex
    for poly in (crosspolytope(3), simplex(3), klee_walkup()[0]):
        inc = analyse(poly)
        facets = facet_label_sets(inc)
        g = dual_graph(inc)
        for x, f in enumerate(facets):
            for y, other in enumerate(facets):
                if x != y:
                    assert (g.adj[x] >> y & 1) == (len(f & other) == len(f) - 1)


def test_boundary_facets_have_d_ridge_neighbors():
    for h in (crosspolytope(3), crosspolytope(4), simplex(4)):
        g = dual_graph(analyse(h))
        assert all(nbrs.bit_count() == h.d for nbrs in g.adj)


def test_paths_through_star_of_w_are_long():
    # any walk from abcd to efgh via a tetrahedron containing w needs five
    # steps: one to enter the star plus four to collect e, f, g, h
    _, g = klee_walkup_boundary()
    star = [name for name in g.nodes if "w" in name]
    from_abcd = bfs_distances(g, "abcd")
    to_efgh = bfs_distances(g, "efgh")
    via_star = min(from_abcd[s] + to_efgh[s] for s in star)
    assert via_star >= 5


def _polar_nonrevisiting(poly, **budget):
    """The dual question on the boundary of `poly`, asked of its polar."""
    return nonrevisiting_property(analyse(polar(analyse(poly))[0]), **budget)


def test_dual_nonrevisiting_simplex():
    assert _polar_nonrevisiting(simplex(3)).holds is True


def test_dual_nonrevisiting_octahedron():
    assert _polar_nonrevisiting(crosspolytope(3)).holds is True


def test_dual_nonrevisiting_klee_walkup():
    assert _polar_nonrevisiting(klee_walkup()[0]).holds is True


def test_dual_nonrevisiting_budget():
    # the boundary of the polar of hirsch_sharp(5, 11): the monotone walks
    # leave 252 pairs of its facets on 36 sources, and the greedy passes
    # from those reach 245 facets in all, counted once per pass
    poly = polar(analyse(hirsch_sharp(5, 11)))[0]
    assert _polar_nonrevisiting(poly, budget=245).holds is True
    assert _polar_nonrevisiting(poly, budget=244).holds is None


def test_dual_nonrevisiting_matches_unpruned_search():
    # the dual statement on the boundary complex and the primal one on the
    # polar are the same question
    for poly in (crosspolytope(3), crosspolytope(4), simplex(4), klee_walkup()[0]):
        holds, _ = dual_nonrevisiting(facet_label_sets(analyse(poly)))
        assert holds == _polar_nonrevisiting(poly).holds is True


def test_dual_nonrevisiting_disconnected_pair_spends_no_budget():
    # two triangles abc and def share no ridge: a zero budget still proves
    # there is no path
    result = _nonrevisiting_all_pairs([0, 0], [0b000111, 0b111000], 3, ("abc", "def"), 0)
    assert (result.holds, result.witness) == (False, ("abc", "def"))
