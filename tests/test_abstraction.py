"""Subset-family graphs: validation, diameters, extremal search."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import polydiam.abstraction
from polydiam import hrep_to_vrep
from polydiam.abstraction import (
    SubsetFamilyGraph,
    _pair_filters,
    _reaches,
    _shuffle,
    _wider_than,
    from_simple_polytope,
    search_max_diameter,
    subset_graph_diameter,
    validate_layer_property,
)
from polydiam.constructions import crosspolytope, cube, klee_walkup, simplex
from polydiam.paths import diameter, mask_diameter
from polydiam import skeleton_graph

from oracles import (
    incidence,
    queue_bfs_diameter,
    reference_search_max_diameter,
    subset_graph_valid,
    subset_pair_filters,
)

# Exact extremal diameter of a valid subset-family graph on 2-subsets of a
# 4-element ground set, frozen from the complete enumeration (2605 valid
# graphs over all node subsets).
EXTREMAL_4_2 = 3


def test_any_connected_graph_valid_for_d1():
    g = SubsetFamilyGraph.make(
        3, 1, [(1,), (2,), (3,)], [((1,), (2,)), ((2,), (3,))]
    )
    ok, witness = validate_layer_property(g)
    assert ok and witness is None


def test_disjoint_edges_sharing_element_invalid():
    g = SubsetFamilyGraph.make(
        5, 2,
        [(1, 2), (1, 3), (2, 4), (4, 5)],
        [((1, 2), (1, 3)), ((2, 4), (4, 5))],
    )
    ok, witness = validate_layer_property(g)
    assert not ok
    assert witness is not None
    u, v = witness
    assert set(u) & set(v)


def test_cube_abstraction_valid():
    h = cube(3)
    v = hrep_to_vrep(h)
    inc = incidence(h, v)
    g = from_simple_polytope(inc)
    assert len(g.nodes) == 8
    assert all(len(node) == 3 for node in g.nodes)
    assert validate_layer_property(g)[0]


def test_q4_abstraction_diameter_five():
    _, q4 = klee_walkup()
    v = hrep_to_vrep(q4)
    inc = incidence(q4, v)
    g = from_simple_polytope(inc)
    assert g.n == 9 and g.d == 4
    res = subset_graph_diameter(g)
    assert res.diameter == 5
    assert res.within_bounds


def test_simplex_abstraction_complete():
    h = simplex(3)
    v = hrep_to_vrep(h)
    inc = incidence(h, v)
    g = from_simple_polytope(inc)
    assert len(g.nodes) == 4
    assert len(g.edges) == 6


def test_from_simple_polytope_rejects_non_simple():
    h = crosspolytope(3)
    v = hrep_to_vrep(h)
    with pytest.raises(ValueError, match="simple"):
        from_simple_polytope(incidence(h, v))


def test_subset_diameter_matches_skeleton_diameter():
    for h in (cube(3), cube(4), simplex(4), klee_walkup()[1]):
        v = hrep_to_vrep(h)
        inc = incidence(h, v)
        g = from_simple_polytope(inc)
        skel = skeleton_graph(inc)
        assert subset_graph_diameter(g).diameter == diameter(skel)[0]


def test_subset_diameter_path_graph_d1():
    # a path on n singleton nodes: diameter n - 1, linear bound n * 2^0 = n
    n = 6
    nodes = [(i,) for i in range(1, n + 1)]
    edges = [(nodes[i], nodes[i + 1]) for i in range(n - 1)]
    g = SubsetFamilyGraph.make(n, 1, nodes, edges)
    assert validate_layer_property(g)[0]
    res = subset_graph_diameter(g)
    assert res.diameter == n - 1
    assert res.bound_linear == n
    assert res.within_bounds


def test_subset_diameter_rejects_disconnected():
    from polydiam import Disconnected

    g = SubsetFamilyGraph.make(4, 1, [(1,), (2,), (3,)], [((1,), (2,))])
    with pytest.raises(Disconnected):
        subset_graph_diameter(g)


def test_subset_diameter_bounds_for_4cube():
    h = cube(4)
    v = hrep_to_vrep(h)
    inc = incidence(h, v)
    g = from_simple_polytope(inc)
    res = subset_graph_diameter(g)
    assert res.diameter == 4
    assert res.bound_linear == 8 * 2**3 == 64
    assert float(res.bound_quasi) == 8.0**3 == 512
    assert res.within_bounds


def test_search_3_1_path():
    res = search_max_diameter(3, 1)
    assert res.diameter == 2
    assert res.complete
    assert validate_layer_property(res.best)[0]


def test_search_4_2_exact_extremal():
    res = search_max_diameter(4, 2)
    assert res.complete
    assert res.diameter == EXTREMAL_4_2
    assert validate_layer_property(res.best)[0]
    bounds = subset_graph_diameter(res.best)
    assert bounds.within_bounds


def test_search_budget_marks_incomplete():
    res = search_max_diameter(4, 2, budget=50)
    assert not res.complete
    assert validate_layer_property(res.best)[0]


def test_search_randomized_needs_seed():
    with pytest.raises(ValueError, match="seed"):
        search_max_diameter(5, 2, budget=100)


def test_search_randomized_with_seed():
    res = search_max_diameter(5, 2, budget=60, seed=9)
    assert not res.complete
    assert res.diameter >= 1
    assert validate_layer_property(res.best)[0]
    assert subset_graph_diameter(res.best).within_bounds


def test_search_guard():
    with pytest.raises(ValueError):
        search_max_diameter(9, 2)
    with pytest.raises(ValueError):
        search_max_diameter(6, 4)


@st.composite
def _thinned_subset_graph(draw):
    """A node family (n <= 6, d <= 3) and a valid graph on it: the complete
    graph with some edges deleted in random order, each deletion kept only
    when the oracle finds the graph still valid."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, min(3, n - 1)))
    family = list(combinations(range(1, n + 1), d))
    nodes = sorted(draw(st.lists(st.sampled_from(family), min_size=2, max_size=10, unique=True)))
    pair_filters = subset_pair_filters(nodes)
    adj = [((1 << len(nodes)) - 1) ^ (1 << i) for i in range(len(nodes))]
    order = draw(st.permutations(range(len(pair_filters))))
    for bit in order[: draw(st.integers(0, len(order)))]:
        i, j, _ = pair_filters[bit]
        trial = list(adj)
        trial[i] ^= 1 << j
        trial[j] ^= 1 << i
        if subset_graph_valid(trial, pair_filters):
            adj = trial
    return nodes, pair_filters, adj


@settings(max_examples=150, deadline=None)
@given(_thinned_subset_graph())
def test_one_reach_deletion_test_matches_full_validation(case):
    nodes, pair_filters, adj = case
    assert subset_graph_valid(adj, pair_filters)
    for i, j, fmask in pair_filters:
        if not adj[i] >> j & 1:
            continue
        without = list(adj)
        without[i] ^= 1 << j
        without[j] ^= 1 << i
        assert _reaches(without, i, j, fmask) == subset_graph_valid(without, pair_filters)


@settings(max_examples=150, deadline=None)
@given(_thinned_subset_graph(), st.data())
def test_validate_layer_property_matches_oracle(case, data):
    # a valid graph, or one edge short of it, which is often invalid
    nodes, pair_filters, adj = case
    edges = [(i, j) for i, j, _ in pair_filters if adj[i] >> j & 1]
    if edges and data.draw(st.booleans()):
        i, j = data.draw(st.sampled_from(edges))
        adj = list(adj)
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
    nbrs = tuple(tuple(j for j in range(len(adj)) if a >> j & 1) for a in adj)
    g = SubsetFamilyGraph(tuple(nodes), nbrs, n=6, d=len(nodes[0]))
    failing = next(((nodes[i], nodes[j]) for i, j, fmask in pair_filters
                    if not subset_graph_valid(adj, [(i, j, fmask)])), None)
    assert validate_layer_property(g) == (failing is None, failing)


@st.composite
def _graph_and_filter(draw):
    """A symmetric graph of up to 12 nodes as neighbour bitsets, two of its
    nodes i != j and a node mask holding both; in two draws of three the
    mask drops every neighbour of i, or of j, other than the two."""
    m = draw(st.integers(2, 12))
    adj = [0] * m
    for a, b in draw(st.lists(st.sampled_from(list(combinations(range(m), 2))), unique=True)):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    ends = 1 << i | 1 << j
    fmask = draw(st.integers(0, (1 << m) - 1)) | ends
    cut = draw(st.sampled_from([None, i, j]))
    if cut is not None:
        fmask = fmask & ~adj[cut] | ends
    return adj, i, j, fmask


@settings(max_examples=300, deadline=None)
@given(_graph_and_filter())
def test_reaches_matches_a_queue_bfs_inside_the_filter(case):
    adj, i, j, fmask = case
    assert _reaches(adj, i, j, fmask) == subset_graph_valid(adj, [(i, j, fmask)])


@st.composite
def _connected_graph_on_ids(draw):
    """A connected graph on m <= 9 nodes placed on sorted global ids below
    16, as a list of neighbour bitsets indexed by global id: a random tree,
    each node hung on an earlier one (often the one before, for long
    paths), plus random chords."""
    m = draw(st.integers(1, 9))
    ids = sorted(draw(st.lists(st.integers(0, 15), min_size=m, max_size=m, unique=True)))
    edges = {(draw(st.one_of(st.just(t - 1), st.integers(0, t - 1))), t) for t in range(1, m)}
    if m > 1:
        edges |= set(draw(st.lists(st.sampled_from(list(combinations(range(m), 2))))))
    adj = [0] * 16
    for a, b in edges:
        adj[ids[a]] |= 1 << ids[b]
        adj[ids[b]] |= 1 << ids[a]
    return adj, ids, [(ids[a], ids[b]) for a, b in edges]


@settings(max_examples=200, deadline=None)
@given(_connected_graph_on_ids())
def test_wider_than_matches_the_queue_bfs_diameter(case):
    adj, ids, edges = case
    diam, _ = queue_bfs_diameter(ids, edges)
    for k in range(-1, len(ids) + 1):
        assert _wider_than(adj, ids, k) == (diam > k), k


# Non-contiguous global ids below 20; the ids outside them, such as 8, have
# no neighbours.
_IDS = (1, 4, 5, 9, 12, 13, 17)
_SHAPES = {
    "path": ([(a, a + 1) for a in range(6)], 6),
    "star": ([(0, b) for b in range(1, 7)], 2),
    "cycle": ([(a, (a + 1) % 7) for a in range(7)], 3),
    "complete": (list(combinations(range(7), 2)), 1),
}


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_wider_than_on_fixed_graphs(shape):
    # a path on 2r + 1 nodes has a ball of radius r holding all of them, and
    # diameter 2r: it tells the exit at 2r <= k from one at 2r <= k + 1
    edges, diam = _SHAPES[shape]
    adj = [0] * 20
    for a, b in edges:
        adj[_IDS[a]] |= 1 << _IDS[b]
        adj[_IDS[b]] |= 1 << _IDS[a]
    assert queue_bfs_diameter(_IDS, [(_IDS[a], _IDS[b]) for a, b in edges])[0] == diam
    for k in range(-1, len(_IDS) + 1):
        assert _wider_than(adj, _IDS, k) == (diam > k), k


def test_shuffle_makes_the_draws_of_random_shuffle():
    for seed in range(20):
        for length in range(61):
            ref, rng = random.Random(seed), random.Random(seed)
            expected, got = list(range(length)), list(range(length))
            ref.shuffle(expected)
            _shuffle(rng.getrandbits, got)
            assert got == expected, (seed, length)
            assert rng.getstate() == ref.getstate(), (seed, length)


def _assert_filters_match_the_oracle(nodes):
    filters = _pair_filters(nodes)
    for i, j, fmask in subset_pair_filters(nodes):
        assert filters[i][j] == filters[j][i] == fmask, (i, j)


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 9) for d in range(1, min(n, 3) + 1)])
def test_pair_filters_match_the_oracle_on_every_full_family(n, d):
    _assert_filters_match_the_oracle(list(combinations(range(1, n + 1), d)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.integers(1, min(n, 4)).flatmap(
    lambda d: st.lists(st.sampled_from(list(combinations(range(1, n + 1), d))),
                       unique=True, max_size=20).map(sorted))))
def test_pair_filters_match_the_oracle_on_sorted_node_lists(nodes):
    _assert_filters_match_the_oracle(nodes)


@pytest.mark.parametrize("n, d, seed, budget", [
    (4, 2, None, 1_000_000),
    (4, 2, None, 5),
    (4, 2, None, 50),
    *[(5, 2, seed, 30) for seed in range(10)],
    *[(5, 3, seed, 30) for seed in range(10)],
    *[(5, 2, seed, 200) for seed in range(11, 15)],  # the benchmark's searches
    *[(6, 2, seed, 40) for seed in range(2)],
    *[(7, 2, seed, 30) for seed in range(2)],
])
def test_search_matches_full_revalidation_reference(n, d, seed, budget):
    res = search_max_diameter(n, d, budget=budget, seed=seed)
    nodes, edges, diam, complete, explored = reference_search_max_diameter(n, d, budget, seed)
    assert res.best.nodes == nodes
    assert res.best.edges == edges
    assert (res.diameter, res.complete, res.explored) == (diam, complete, explored)


def test_search_takes_no_diameter_of_a_graph_that_cannot_win(monkeypatch):
    # a graph on m nodes has diameter at most m - 1
    expected = search_max_diameter(5, 2, budget=200, seed=11)
    calls = []

    def counted(adj):
        calls.append(adj)
        return mask_diameter(adj)

    monkeypatch.setattr(polydiam.abstraction, "mask_diameter", counted)
    res = search_max_diameter(5, 2, budget=200, seed=11)
    assert len(calls) < res.explored
    assert res == expected


def test_subset_graph_is_a_polygraph_on_sorted_subsets():
    g = SubsetFamilyGraph.make(3, 2, [(2, 1), (1, 3), (3, 2)], [((1, 2), (3, 2))])
    assert g.nodes == ((1, 2), (1, 3), (2, 3))
    assert g.nbrs == ((2,), (), (0,))
    assert g.adj == (0b100, 0b000, 0b001)
    assert g.edges == frozenset({((1, 2), (2, 3))})
    with pytest.raises(ValueError, match="sorted order"):
        SubsetFamilyGraph(((1, 3), (1, 2)), ((), ()), n=3, d=2)
    with pytest.raises(ValueError, match="2-subset"):
        SubsetFamilyGraph(((1,), (1, 2)), ((), ()), n=3, d=2)
    with pytest.raises(ValueError, match="ground set"):
        SubsetFamilyGraph(((1, 2), (1, 4)), ((), ()), n=3, d=2)


# sha256 of repr([(best nodes, best adj, diameter, complete, explored), ...])
# of the searches of one (n, d), computed before the randomized walk learned
# to skip the draws and the thinned graphs that cannot beat the best so far:
# both skips keep the random stream, the `explored` count and the best graph.
_PINNED_SEARCHES = {
    (3, 2): ((None, 1_000_000),),
    (4, 2): ((None, 1_000_000), (None, 40)),
    **{(n, d): tuple((seed, budget) for seed in (1, 2, 3) for budget in (20, 120)) + ((7, 400),)
       for n in (5, 6, 7, 8) for d in (2, 3)},
}
_PINNED_SEARCH_DIGESTS = {
    (3, 2): "775f4a8e43026d2310729833664624789ad015bedf2c8eeddfc6cad1caf9c682",
    (4, 2): "1cd3252fc7b48db37ef3a68089f2bc2b0a7761fcf67359ae215a8bfa4b588518",
    (5, 2): "84e42dc781650c69798fd9e846939b4fa5d5bb2bee100b4d532ff091540bca22",
    (5, 3): "82617785464732e0823516686e8899ef58acbaef8271613b5c6aefef8afb77e8",
    (6, 2): "7f9f5858907ea01185f7e5ddf86698cfee3fc1fd13a2ff8f20df493e9a54215e",
    (6, 3): "fcb3234ba80d48c8599c982362fbdbf1bc579b94753a85bab53192587508b650",
    (7, 2): "eb25a7ac0db637678794edd4a3ab55a0b190a0851b7599cff68c2637630d1da7",
    (7, 3): "4847dd3488f149b32fda0e53788e54133d9cf1afb24d8cc14d9fce26c34e3f02",
    (8, 2): "9143df57d29a1a01f7fcff0d64b1fa61f76e6de38e3be5824c36f744dcab0ffd",
    (8, 3): "0ec194055c4021028da1b949b47c74020ddf84e37282efb3dfd692f35deef6ac",
}


def _search_digest(n, d):
    results = [search_max_diameter(n, d, budget=budget, seed=seed)
               for seed, budget in _PINNED_SEARCHES[n, d]]
    key = [(r.best.nodes, r.best.adj, r.diameter, r.complete, r.explored) for r in results]
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n, d", list(_PINNED_SEARCHES))
def test_search_results_are_pinned(n, d):
    assert _search_digest(n, d) == _PINNED_SEARCH_DIGESTS[n, d]
