"""Boundary complexes, ridge graphs, anti-stars, dual non-revisiting."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from polydiam import hrep_to_vrep, incidence, vrep_to_hrep, dual_graph
from polydiam.constructions import crosspolytope, cube, klee_walkup, simplex
from polydiam.paths import bfs_distances
from polydiam.polyhedron import facet_row_indices
from polydiam.simplicial import (
    SimplicialComplex,
    anti_star,
    boundary_complex,
    dual_nonrevisiting_property,
    facet_name,
    ridge_graph,
)

from oracles import nonrevisiting_all_pairs

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


def _klee_walkup_boundary():
    vstar, _ = klee_walkup()
    h = vrep_to_hrep(vstar)
    inc = incidence(h, vstar)
    return boundary_complex(inc), h, vstar, inc


def test_boundary_complex_klee_walkup():
    k, *_ = _klee_walkup_boundary()
    assert k.labels == tuple("abcdefgh") + ("w",)
    assert k.facet_size == 4
    assert len(k.facets) == 27


def test_boundary_complex_octahedron():
    h = crosspolytope(3)
    v = hrep_to_vrep(h)
    inc = incidence(h, v)
    k = boundary_complex(inc)
    assert len(k.facets) == 8 and k.facet_size == 3


def test_boundary_complex_simplex():
    for d in (2, 3, 4):
        h = simplex(d)
        v = hrep_to_vrep(h)
        inc = incidence(h, v)
        k = boundary_complex(inc)
        assert len(k.facets) == d + 1 and k.facet_size == d


def test_boundary_complex_rejects_non_simplicial():
    h = cube(3)
    v = hrep_to_vrep(h)
    with pytest.raises(ValueError, match="not simplicial"):
        boundary_complex(incidence(h, v))


def test_ridge_graph_klee_walkup_distance():
    k, *_ = _klee_walkup_boundary()
    g = ridge_graph(k)
    assert bfs_distances(g, "abcd")["efgh"] == 5


def test_ridge_graph_simplex_complete():
    k = SimplicialComplex.from_facets(["abc", "abd", "acd", "bcd"])
    g = ridge_graph(k)
    assert len(g.edges) == 6


def test_anti_star_klee_walkup_is_the_fifteen():
    k, *_ = _klee_walkup_boundary()
    a = anti_star(k, "w")
    assert sorted(facet_name(f) for f in a.facets) == sorted(ANTISTAR_W)
    # the remaining tetrahedra all contain w
    assert len(k.facets) - len(a.facets) == 12


def test_anti_star_figure_edges_exact():
    k, *_ = _klee_walkup_boundary()
    g = ridge_graph(anti_star(k, "w"))
    expected = frozenset(tuple(sorted(e)) for e in ANTISTAR_W_EDGES)
    assert g.edges == expected


def test_anti_star_simplex():
    k = SimplicialComplex.from_facets(["abc", "abd", "acd", "bcd"])
    a = anti_star(k, "d")
    assert {facet_name(f) for f in a.facets} == {"abc"}
    assert anti_star(k, "a").facets == frozenset(
        {frozenset("bcd")}
    )


def test_anti_star_unknown_label():
    k = SimplicialComplex.from_facets(["ab", "bc"])
    with pytest.raises(ValueError):
        anti_star(k, "z")


def test_ridge_graph_matches_dual_graph():
    # same labeled graph once facet rows are renamed by their vertex sets
    vstar, _ = klee_walkup()
    pairs = [
        (crosspolytope(3), hrep_to_vrep(crosspolytope(3))),
        (simplex(3), hrep_to_vrep(simplex(3))),
        (vrep_to_hrep(vstar), vstar),
    ]
    for h, v in pairs:
        inc = incidence(h, v)
        k = boundary_complex(inc)
        rg = ridge_graph(k)
        dg = dual_graph(inc)
        labels = v.all_labels()
        rename = {}
        for i in facet_row_indices(inc):
            rename[f"f{i + 1}"] = facet_name(
                frozenset(labels[j] for j in inc.vertices_on_row(i))
            )
        mapped = frozenset(
            tuple(sorted((rename[a], rename[b]))) for a, b in dg.edges
        )
        assert mapped == rg.edges


def test_boundary_facets_have_d_ridge_neighbors():
    for h in (crosspolytope(3), crosspolytope(4), simplex(4)):
        v = hrep_to_vrep(h)
        inc = incidence(h, v)
        k = boundary_complex(inc)
        g = ridge_graph(k)
        assert all(nbrs.bit_count() == h.d for nbrs in g.adj)


def test_paths_through_star_of_w_are_long():
    # any walk from abcd to efgh via a tetrahedron containing w needs five
    # steps: one to enter the star plus four to collect e, f, g, h
    k, *_ = _klee_walkup_boundary()
    g = ridge_graph(k)
    star = {facet_name(f) for f in k.facets if "w" in f}
    from_abcd = bfs_distances(g, "abcd")
    to_efgh = bfs_distances(g, "efgh")
    via_star = min(from_abcd[s] + to_efgh[s] for s in star)
    assert via_star >= 5


def test_dual_nonrevisiting_simplex():
    k = SimplicialComplex.from_facets(["abc", "abd", "acd", "bcd"])
    assert dual_nonrevisiting_property(k).holds is True


def test_dual_nonrevisiting_octahedron():
    h = crosspolytope(3)
    v = hrep_to_vrep(h)
    inc = incidence(h, v)
    k = boundary_complex(inc)
    assert dual_nonrevisiting_property(k).holds is True


def test_dual_nonrevisiting_klee_walkup():
    k, *_ = _klee_walkup_boundary()
    assert dual_nonrevisiting_property(k).holds is True


def test_dual_nonrevisiting_budget():
    k, *_ = _klee_walkup_boundary()
    assert dual_nonrevisiting_property(k, budget=3).holds is None


def _dual_oracle(k):
    """(holds, witness) of the dual question by the unpruned all-pairs
    search, on facets in name order joined when they share all but one
    vertex."""
    facets = k.sorted_facets()
    masks = [sum(1 << k.labels.index(lab) for lab in f) for f in facets]
    adjacency = {i: [] for i in range(len(facets))}
    for i, j in combinations(range(len(facets)), 2):
        if len(facets[i] & facets[j]) == k.facet_size - 1:
            adjacency[i].append(j)
            adjacency[j].append(i)
    names = [facet_name(f) for f in facets]
    return nonrevisiting_all_pairs(adjacency, masks, len(k.labels) - k.facet_size, names)


def test_dual_nonrevisiting_matches_unpruned_search():
    complexes = [_klee_walkup_boundary()[0], anti_star(_klee_walkup_boundary()[0], "w")]
    for h in (crosspolytope(3), crosspolytope(4), simplex(4)):
        complexes.append(boundary_complex(incidence(h, hrep_to_vrep(h))))
    for k in complexes:
        result = dual_nonrevisiting_property(k)
        assert (result.holds, result.witness) == _dual_oracle(k)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(list(combinations("abcdef", 3))), min_size=2, max_size=12,
                unique=True))
def test_dual_nonrevisiting_matches_unpruned_search_on_random_complexes(facets):
    k = SimplicialComplex.from_facets(facets)
    result = dual_nonrevisiting_property(k)
    assert (result.holds, result.witness) == _dual_oracle(k)


def test_dual_nonrevisiting_disconnected_pair_spends_no_budget():
    # no ridge joins the two facets: a zero budget still proves there is no path
    k = SimplicialComplex.from_facets(["abc", "def"])
    result = dual_nonrevisiting_property(k, budget=0)
    assert (result.holds, result.witness) == (False, ("abc", "def"))


def test_complex_validation():
    with pytest.raises(ValueError, match="not pure"):
        SimplicialComplex.from_facets(["abc", "ab"])
