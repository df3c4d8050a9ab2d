"""BFS, diameters, non-revisiting searches, monotone paths."""

from fractions import Fraction
from itertools import combinations, permutations
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from polydiam import (
    Disconnected,
    GeometryError,
    HPolyhedron,
    PolyGraph,
    VPolyhedron,
    analyse,
    hrep_to_vrep,
    skeleton_graph,
)
from polydiam.constructions import (
    crosspolytope,
    cube,
    hirsch_sharp,
    klee_walkup,
    simplex,
    transportation,
)
from polydiam.paths import (
    SearchBudget,
    _bfs_layers,
    _greedy_misses,
    _monotone_reach,
    _nonrevisiting_all_pairs,
    bfs_distances,
    diameter,
    mask_diameter,
    monotone_eccentricity,
    nonrevisiting_dfs,
    nonrevisiting_property,
)
from polydiam.polyhedron import _bits, facet_row_indices

from corpus import converted, corpus, ngon
from oracles import (
    incidence,
    nonrevisiting_all_pairs,
    nonrevisiting_exists_naive,
    path_is_nonrevisiting,
    pentagon_monotone_worst,
    per_source_diameter,
    queue_bfs_diameter,
    unpruned_nonrevisiting_dfs,
)


def _pipeline(h):
    inc = incidence(h, hrep_to_vrep(h))
    return h, inc.v, inc, skeleton_graph(inc)


def _nonrevisiting_path(inc, source, target):
    """The labels of the first non-revisiting path `nonrevisiting_dfs` finds
    from `source` to `target` within n - d steps, or None when none exists."""
    labels, adj = inc.graph.nodes, inc.graph.adj
    t = labels.index(target)
    found = nonrevisiting_dfs(adj, inc.facet_masks, labels.index(source), t,
                              len(inc.facets) - inc.dim, SearchBudget(None), _bfs_layers(adj, t))
    return None if found is None else tuple(labels[i] for i in found)


def test_bfs_cube_hamming():
    h, v, inc, g = _pipeline(cube(3))
    labels = v.all_labels()
    src = labels[0]
    dist = bfs_distances(g, src)
    p0 = v.vertices[0]
    for k, p in enumerate(v.vertices):
        assert dist[labels[k]] == sum(1 for a, b in zip(p0, p) if a != b)


def test_bfs_complete_graph():
    _, v, _, g = _pipeline(simplex(4))
    src = v.label(0)
    dist = bfs_distances(g, src)
    assert dist[src] == 0
    assert all(dist[v.label(k)] == 1 for k in range(1, len(v.vertices)))


def test_bfs_two_node_path():
    g = PolyGraph.from_edges(["a", "b"], [("a", "b")])
    assert bfs_distances(g, "a") == {"a": 0, "b": 1}


def test_bfs_unknown_source():
    g = PolyGraph.from_edges(["a"], [])
    with pytest.raises(ValueError):
        bfs_distances(g, "zz")


def test_bfs_unreachable_marked_infinite():
    g = PolyGraph.from_edges(["a", "b", "c"], [("a", "b")])
    assert bfs_distances(g, "a")["c"] == inf


def test_diameter_examples():
    for d in (2, 3, 4):
        assert diameter(_pipeline(cube(d))[3])[0] == d
        assert diameter(_pipeline(crosspolytope(d))[3])[0] == 2
        assert diameter(_pipeline(simplex(d))[3])[0] == 1
    _, q4 = klee_walkup()
    assert diameter(_pipeline(q4)[3])[0] == 5


def test_diameter_disconnected_raises():
    g = PolyGraph.from_edges(["a", "b", "c"], [("a", "b")])
    with pytest.raises(Disconnected):
        diameter(g)


def test_diameter_witness_reproducible():
    h, v, inc, g = _pipeline(cube(3))
    assert diameter(g) == diameter(g)


def test_diameter_is_max_of_bfs():
    for name, _ in corpus():
        g = converted(name).graph
        diam = diameter(g)[0]
        assert diam == max(
            max(bfs_distances(g, s).values()) for s in g.nodes
        )


def test_diameter_and_witness_match_queue_bfs_on_corpus():
    for name, _ in corpus():
        g = converted(name).graph
        assert diameter(g) == queue_bfs_diameter(g.nodes, g.edges)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_diameter_and_witness_match_queue_bfs_on_random_graphs(data):
    n = data.draw(st.integers(1, 12))
    labels = data.draw(st.permutations([f"v{k}" for k in range(n)]))
    pairs = list(combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if data.draw(st.booleans()):  # a random spanning tree makes it connected
        chosen += [(data.draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    edges = [(labels[i], labels[j]) for i, j in chosen]
    g = PolyGraph.from_edges(labels, edges)
    expected = queue_bfs_diameter(g.nodes, g.edges)
    if expected is None:
        with pytest.raises(Disconnected):
            diameter(g)
    else:
        assert diameter(g) == expected


def _bitsets(nbrs):
    """Neighbour lists as the neighbour bitsets `per_source_diameter` reads."""
    return [sum(1 << j for j in ns) for ns in nbrs]


@pytest.mark.parametrize("nbrs,expected", [
    pytest.param([], (-1, (0, 0)), id="no_nodes"),
    pytest.param([()], (0, (0, 0)), id="one_node"),
    pytest.param([(1,), (0,)], (1, (0, 1)), id="one_edge"),
    pytest.param([(), ()], None, id="two_nodes_apart"),
    pytest.param([(1,), (0,), ()], None, id="edge_and_isolated_node"),
    pytest.param([(1,), (0,), (3,), (2,)], None, id="two_edges"),
])
def test_mask_diameter_on_tiny_graphs(nbrs, expected):
    assert mask_diameter(nbrs) == expected == per_source_diameter(_bitsets(nbrs))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mask_diameter_matches_the_per_source_reference(data):
    n = data.draw(st.integers(0, 16))
    pairs = list(combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    order = data.draw(st.permutations(range(n)))
    shape = data.draw(st.sampled_from(["as_drawn", "tree", "path"]))
    if shape == "tree":  # connected, with the labels shuffled
        chosen += [(order[data.draw(st.integers(0, k - 1))], order[k]) for k in range(1, n)]
    elif shape == "path":  # the longest diameter for n nodes, and its end ties
        chosen += [(order[k - 1], order[k]) for k in range(1, n)]
    nbrs = [set() for _ in range(n)]
    for i, j in chosen:
        nbrs[i].add(j)
        nbrs[j].add(i)
    nbrs = [sorted(ns) for ns in nbrs]
    assert mask_diameter(nbrs) == per_source_diameter(_bitsets(nbrs))


def test_mask_diameter_matches_the_per_source_reference_on_polytopes():
    graphs = [converted(name).graph for name, _ in corpus()] + [
        analyse(h).graph
        for h in (cube(7), transportation((7, 11, 13), (5, 6, 9, 11)), hirsch_sharp(5, 11))
    ]
    for g in graphs:
        assert mask_diameter(g.nbrs) == per_source_diameter(_bitsets(g.nbrs))


def test_nonrevisiting_cube_antipodal():
    h, v, inc, g = _pipeline(cube(3))
    labels = v.all_labels()
    i = list(v.vertices).index((-1, -1, -1))
    j = list(v.vertices).index((1, 1, 1))
    path = _nonrevisiting_path(inc, labels[i], labels[j])
    assert path is not None and len(path) - 1 == 3


def test_nonrevisiting_klee_walkup_witness_pair():
    _, q4 = klee_walkup()
    h, v, inc, g = _pipeline(q4)
    _, (a, b) = diameter(g)
    path = _nonrevisiting_path(inc, a, b)
    assert path is not None and len(path) - 1 == 5  # 5 = 9 - 4


def test_nonrevisiting_simplex_edge():
    h, v, inc, g = _pipeline(simplex(3))
    path = _nonrevisiting_path(inc, v.label(0), v.label(1))
    assert path is not None and len(path) - 1 == 1


def test_nonrevisiting_path_consecutive_edges_and_cap():
    for name in ("cube3", "q4", "ngon7"):
        inc = converted(name)
        h, v, g = inc.h, inc.v, inc.graph
        labels = v.all_labels()
        nfacets = len(facet_row_indices(inc))
        for a, b in list(combinations(labels, 2))[:40]:
            path = _nonrevisiting_path(inc, a, b)
            assert path is not None
            assert len(path) - 1 <= nfacets - h.d
            for u, w in zip(path, path[1:]):
                assert tuple(sorted((u, w))) in g.edges


def test_nonrevisiting_path_matches_interval_definition():
    h, v, inc, g = _pipeline(cube(3))
    labels = v.all_labels()
    tight = {
        lab: frozenset(i for i in range(inc.h.nrows) if m >> i & 1)
        for lab, m in zip(labels, inc.masks)
    }
    path = _nonrevisiting_path(inc, labels[0], labels[-1])
    assert path_is_nonrevisiting([tight[lab] for lab in path])


def test_nonrevisiting_search_agrees_with_naive_enumeration():
    for name in ("cube3", "cross3", "orthant32"):
        inc = converted(name)
        h, v, g = inc.h, inc.v, inc.graph
        labels = list(v.all_labels())
        adj = {labels[i]: [labels[j] for j in ns] for i, ns in _sorted_neighbours(g).items()}
        tight = {
            lab: frozenset(i for i in range(inc.h.nrows) if m >> i & 1)
            for lab, m in zip(labels, inc.masks)
        }
        nfacets = len(facet_row_indices(inc))
        for a, b in combinations(labels, 2):
            got = _nonrevisiting_path(inc, a, b) is not None
            expected = nonrevisiting_exists_naive(adj, tight, a, b, nfacets - h.d)
            assert got == expected


_SQUARE_SIDES = [(0, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0), (1, 0, -1, 0)]


@pytest.mark.parametrize("plane", [
    HPolyhedron.from_rows(3, _SQUARE_SIDES + [(0, 0, 0, 1)], linearity=[4]),
    HPolyhedron.from_rows(3, _SQUARE_SIDES + [(0, 0, 0, 1), (0, 0, 0, -1)]),
], ids=["linearity", "pair"])
def test_nonrevisiting_on_square_in_a_plane_of_r3(plane):
    # n - d is 4 - 2 with d the dimension of the square, not of R^3
    h, v, inc, g = _pipeline(plane)
    assert nonrevisiting_property(inc).holds is True
    path = _nonrevisiting_path(inc, "v0", "v3")
    assert path is not None and len(path) - 1 == 2


def test_nonrevisiting_property_holds_on_cubes_and_q4():
    for d in (2, 3, 4):
        h, v, inc, g = _pipeline(cube(d))
        assert nonrevisiting_property(inc).holds is True
    _, q4 = klee_walkup()
    h, v, inc, g = _pipeline(q4)
    assert nonrevisiting_property(inc).holds is True


def test_nonrevisiting_property_simplex_trivial():
    h, v, inc, g = _pipeline(simplex(4))
    assert nonrevisiting_property(inc).holds is True


def test_nonrevisiting_property_budget_inconclusive():
    # the monotone walks leave 252 pairs of hirsch_sharp(5, 11) on 38
    # sources; the greedy passes from those reach 264 nodes in all, one unit
    # each, and the walks' tails prove every pair, so no DFS runs
    inc = analyse(hirsch_sharp(5, 11))
    assert nonrevisiting_property(inc, budget=264).holds is True
    result = nonrevisiting_property(inc, budget=263)
    assert result.holds is None
    assert result.witness is None


def _sorted_neighbours(graph):
    """Neighbour positions, ascending, by node position in `graph.nodes`."""
    where = {label: i for i, label in enumerate(graph.nodes)}
    adjacency = {i: [] for i in range(len(graph.nodes))}
    for a, b in graph.edges:
        adjacency[where[a]].append(where[b])
        adjacency[where[b]].append(where[a])
    return {i: sorted(ns) for i, ns in adjacency.items()}


def test_distance_cut_returns_the_unpruned_path_on_every_corpus_pair():
    for name, _ in corpus():
        inc = converted(name)
        labels = inc.graph.nodes
        adjacency = _sorted_neighbours(inc.graph)
        cap = len(inc.facets) - inc.dim
        for s, t in permutations(range(len(labels)), 2):
            expected = unpruned_nonrevisiting_dfs(adjacency, inc.facet_masks, s, t, cap)
            got = _nonrevisiting_path(inc, labels[s], labels[t])
            assert got == tuple(labels[i] for i in expected), (name, s, t)


def test_nonrevisiting_property_matches_unpruned_all_pairs_on_corpus():
    for name, _ in corpus():
        inc = converted(name)
        result = nonrevisiting_property(inc)
        holds, witness = nonrevisiting_all_pairs(
            _sorted_neighbours(inc.graph), inc.facet_masks,
            len(inc.facets) - inc.dim, inc.graph.nodes,
        )
        assert (result.holds, result.witness) == (holds, witness), name


def test_nonrevisiting_dfs_unreachable_target_spends_no_budget():
    # two components, 0-1 and 2-3: node 2 is at infinite distance from 0
    adj = [0b0010, 0b0001, 0b1000, 0b0100]
    masks = [0b0011, 0b0110, 0b1100, 0b1001]
    budget = SearchBudget(None)
    assert nonrevisiting_dfs(adj, masks, 0, 2, 3, budget, [0b0100, 0b1000]) is None
    assert budget.used == 0


@st.composite
def _mask_graphs(draw, antichain=False):
    """(adj, masks, cap): an undirected graph on at most 8 nodes, one mask of
    at most 6 bits per node and a cap of 0-6.  With `antichain`, the masks
    are distinct and of one size, as the dual check's vertex sets are."""
    if antichain:
        size = draw(st.integers(1, 5))
        pool = [sum(1 << b for b in c) for c in combinations(range(6), size)]
        masks = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=min(8, len(pool)), unique=True))
    else:
        masks = draw(st.lists(st.integers(0, 63), min_size=1, max_size=8))
    pairs = list(combinations(range(len(masks)), 2))
    chosen = draw(st.integers(0, (1 << len(pairs)) - 1))
    adj = [0] * len(masks)
    for k, (i, j) in enumerate(pairs):
        if chosen >> k & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj, masks, draw(st.integers(0, 6))


def _matches_unpruned_all_pairs(adj, masks, cap):
    names = tuple(f"v{i}" for i in range(len(adj)))
    adjacency = {i: [j for j in range(len(adj)) if a >> j & 1] for i, a in enumerate(adj)}
    result = _nonrevisiting_all_pairs(adj, masks, cap, names, None)
    return (result.holds, result.witness) == nonrevisiting_all_pairs(adjacency, masks, cap, names)


@settings(max_examples=300, deadline=None)
@given(_mask_graphs())
def test_all_pairs_matches_unpruned_search_on_arbitrary_masks(case):
    # walks may be longer than n - d here, so only the cap, and the tail
    # rounds it bounds, keep the greedy pass from certifying a pair the
    # capped search rejects
    assert _matches_unpruned_all_pairs(*case)


@settings(max_examples=200, deadline=None)
@given(_mask_graphs(antichain=True))
def test_all_pairs_matches_unpruned_search_on_antichain_masks(case):
    assert _matches_unpruned_all_pairs(*case)


def test_all_pairs_without_a_step_left_certifies_nothing():
    # an edge, but a cap of 0: the pass must not take the step the DFS may not
    assert _matches_unpruned_all_pairs([0b10, 0b01], [0, 0], 0)


def test_dfs_runs_where_the_greedy_pass_misses_a_walk(monkeypatch):
    # from node 0 the pass reaches 1 by 0 -> 2 -> 1 first, whose left-set
    # holds facet 3 and so bars 4; the walk 0 -> 3 -> 1 -> 4 exists and the
    # DFS finds it.  No tail proves 4 either: the step 3 -> 1 enters facet 2,
    # which is not on 4, and 2 -> 1 leaves facet 3, which is
    adj = [0b01100, 0b11100, 0b00011, 0b00011, 0b00010]
    masks = [0b10000, 0b00100, 0b01100, 0b10001, 0b01000]
    rounds, allowed = _monotone_reach(adj, masks, 4)
    assert not rounds[-1][0] >> 4 & 1
    assert _greedy_misses(adj, masks, 0, 0b10000, 4, SearchBudget(None), rounds, allowed) == 0b10000
    searched = []

    def spy(adj, masks, source, target, *rest):
        found = nonrevisiting_dfs(adj, masks, source, target, *rest)
        searched.append((source, target, found))
        return found

    monkeypatch.setattr("polydiam.paths.nonrevisiting_dfs", spy)
    assert _matches_unpruned_all_pairs(adj, masks, 4)
    assert (0, 4, [0, 3, 1, 4]) in searched


def _certificate_is_sound_and_symmetric(adj, masks, cap):
    """Every round R_k of `_monotone_reach` is symmetric and holds only
    targets with a non-revisiting walk of at most k steps, and every target
    the greedy pass from i proves has one of at most `cap` steps, by
    enumeration.  Each pair is enumerated once: in the first round that
    holds it, or for the pass when no round does."""
    rounds, allowed = _monotone_reach(adj, masks, cap)
    adjacency = {i: list(_bits(a)) for i, a in enumerate(adj)}
    tight = [frozenset(_bits(m)) for m in masks]
    everyone = (1 << len(adj)) - 1
    before = [0] * len(adj)
    for k, reach in enumerate(rounds):
        for i, j in permutations(range(len(adj)), 2):
            assert reach[i] >> j & 1 == reach[j] >> i & 1, (k, i, j)
            if (reach[i] & ~before[i]) >> j & 1:
                assert nonrevisiting_exists_naive(adjacency, tight, i, j, k), (k, i, j)
        before = reach
    for i in range(len(adj)):
        targets = everyone ^ 1 << i
        missed = _greedy_misses(adj, masks, i, targets, cap, SearchBudget(None), rounds, allowed)
        for j in _bits(targets & ~missed & ~rounds[-1][i]):
            assert nonrevisiting_exists_naive(adjacency, tight, i, j, cap), (i, j)


@settings(max_examples=300, deadline=None)
@given(_mask_graphs())
def test_certificate_is_sound_and_symmetric_on_arbitrary_masks(case):
    # a step may enter nothing here, so only Jacobi rounds and a tail from
    # round cap - k at depth k keep the pass's proofs within `cap` steps
    _certificate_is_sound_and_symmetric(*case)


@settings(max_examples=200, deadline=None)
@given(_mask_graphs(antichain=True))
def test_certificate_is_sound_and_symmetric_on_antichain_masks(case):
    _certificate_is_sound_and_symmetric(*case)


def test_certificate_is_sound_and_symmetric_on_polytopes():
    named = [(name, converted(name)) for name, _ in corpus()]
    named.append(("hirsch_sharp(5, 11)", analyse(hirsch_sharp(5, 11))))
    for name, inc in named:
        adj, masks, cap = inc.graph.adj, inc.facet_masks, len(inc.facets) - inc.dim
        _certificate_is_sound_and_symmetric(adj, masks, cap)


def test_greedy_pass_certifies_only_pairs_with_a_walk_on_corpus():
    for name, _ in corpus():
        inc = converted(name)
        tight = [frozenset(_bits(m)) for m in inc.masks]
        adjacency, adj = _sorted_neighbours(inc.graph), inc.graph.adj
        cap = len(inc.facets) - inc.dim
        rounds, allowed = _monotone_reach(adj, inc.facet_masks, cap)
        for i in range(len(adj)):
            later = (1 << len(adj)) - (2 << i)
            budget = SearchBudget(None)
            missed = _greedy_misses(adj, inc.facet_masks, i, later, cap, budget, rounds, allowed)
            for j in range(i + 1, len(adj)):
                if not missed >> j & 1:
                    assert nonrevisiting_exists_naive(adjacency, tight, i, j, cap), (name, i, j)


def test_greedy_pass_certifies_every_pair_of_a_polytope():
    # so on polytopes the DFS never runs: only the mask tests above reach it
    named = [(name, converted(name)) for name, _ in corpus()]
    named += [(f"hirsch_sharp{dn}", analyse(hirsch_sharp(*dn))) for dn in ((5, 11), (6, 15))]
    for name, inc in named:
        adj, masks, cap = inc.graph.adj, inc.facet_masks, len(inc.facets) - inc.dim
        rounds, allowed = _monotone_reach(adj, masks, cap)
        for i in range(len(adj)):
            later = (1 << len(adj)) - (2 << i)
            budget = SearchBudget(None)
            assert _greedy_misses(adj, masks, i, later, cap, budget, rounds, allowed) == 0, (name, i)


def test_certificate_proves_every_pair_of_a_cube():
    # so on cubes the greedy pass reaches no node, and a zero budget suffices
    for d in range(1, 7):
        inc = analyse(cube(d))
        adj, masks, cap = inc.graph.adj, inc.facet_masks, len(inc.facets) - inc.dim
        rounds, _ = _monotone_reach(adj, masks, cap)
        assert rounds[-1] == [(1 << len(adj)) - 1] * len(adj), d
        assert nonrevisiting_property(inc, budget=0).holds is True, d


def test_greedy_pass_charges_one_unit_per_node_reached():
    # the path a-b-c-d, each node on one facet of its own: the monotone
    # walks prove (a, b), (b, c) and (c, d) for free, as each such step
    # enters the target's facet and leaves one off it.  The pass from a
    # reaches b, whose tail proves c, then c, whose tail proves d: two
    # units; the pass from b reaches a and c, and c's tail proves d: two more
    adj = [0b0010, 0b0101, 0b1010, 0b0100]
    masks = [0b0001, 0b0010, 0b0100, 0b1000]
    names = ("a", "b", "c", "d")
    assert _nonrevisiting_all_pairs(adj, masks, 3, names, 4).holds is True
    assert _nonrevisiting_all_pairs(adj, masks, 3, names, 3).holds is None


def test_pass_past_the_budget_leaves_a_free_proof_to_the_dfs():
    # b is in another component: the pass from a spends the zero budget on
    # reaching c, and the DFS's distance cut still proves (a, b) for free
    result = _nonrevisiting_all_pairs([0b100, 0, 0b001], [0b01, 0b10, 0b10], 2, "abc", 0)
    assert (result.holds, result.witness) == (False, ("a", "b"))


def test_monotone_cube_all_ones():
    h, v, inc, g = _pipeline(cube(3))
    report = monotone_eccentricity(inc, (1, 1, 1))
    assert v.vertices[v.all_labels().index(report.optimum)] == (1, 1, 1)
    assert report.worst_length == 3
    assert report.unreachable == ()


def test_monotone_simplex_generic():
    h, v, inc, g = _pipeline(simplex(3))
    report = monotone_eccentricity(inc, (1, 2, 4))
    assert report.worst_length == 1


@pytest.mark.parametrize("c,expected_worst", [((1, 0), 3), ((2, 7), 2)])
def test_monotone_pentagon_against_hand_oracle(c, expected_worst):
    h, v, inc, g = _pipeline(ngon(5))
    report = monotone_eccentricity(inc, c)
    # oracle works on the explicit cycle
    labels = list(v.all_labels())
    index = {lab: i for i, lab in enumerate(labels)}
    edges = [(index[a], index[b]) for a, b in g.edges]
    opt, worst = pentagon_monotone_worst(list(v.vertices), edges, c)
    assert report.worst_length == worst == expected_worst
    assert index[report.optimum] == opt


@pytest.mark.parametrize("c,optimum", [
    ((1, 1), "v2"),
    ((Fraction(1, 2), Fraction(2, 3)), "v2"),
    ((1, 2), "v1"),
])
def test_monotone_values_of_fractional_vertices(c, optimum):
    # (0, 0), (0, 1/3) and (1/2, 0) are the rows (1, 0, 0), (3, 0, 1) and
    # (2, 1, 0): c.y alone, without the common denominator, would tie or
    # pick the wrong optimum
    points = [(0, 0), (0, Fraction(1, 3)), (Fraction(1, 2), 0)]
    report = monotone_eccentricity(analyse(VPolyhedron.from_points(points)), c)
    assert (report.optimum, report.worst_length, report.unreachable) == (optimum, 1, ())


def test_monotone_rejects_tie_on_edge():
    # (11, -7) ties exactly on one pentagon edge away from the unique maximum
    h, v, inc, g = _pipeline(ngon(5))
    with pytest.raises(GeometryError, match="tie on edge"):
        monotone_eccentricity(inc, (11, -7))


_PYRAMID_TIE = """
from polydiam import GeometryError, VPolyhedron, analyse
from polydiam.paths import monotone_eccentricity
v = VPolyhedron.from_points([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 3)])
try:
    monotone_eccentricity(analyse(v), (0, 0, 1))
except GeometryError as exc:
    print(exc)
"""


@pytest.mark.parametrize("hash_seed", ["1", "3"])
def test_monotone_tie_error_names_the_first_edge_in_node_order(hash_seed):
    # every base edge of the square pyramid ties under c = (0, 0, 1); the
    # error names the first in node order, whatever the string hash seed
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run(
        [sys.executable, "-c", _PYRAMID_TIE], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.startswith("tie on edge v0-v1:"), out


def test_monotone_rejects_non_unique_optimum():
    h, v, inc, g = _pipeline(ngon(4))
    # functional constant zero ties everywhere
    with pytest.raises(GeometryError):
        monotone_eccentricity(inc, (0, 0))


def test_monotone_at_least_bfs_eccentricity():
    # monotone distance to the optimum dominates the plain BFS distance for
    # every source, so the worst monotone length dominates the optimum's
    # eccentricity whenever every source is monotonically reachable
    checked = 0
    for name in ("cube3", "q4", "ngon5"):
        inc = converted(name)
        h, g = inc.h, inc.graph
        c = tuple(Fraction(3**i, 7) for i in range(h.d))  # generically skewed
        try:
            report = monotone_eccentricity(inc, c)
        except GeometryError:
            continue
        assert report.unreachable == ()
        ecc = max(bfs_distances(g, report.optimum).values())
        assert report.worst_length >= ecc
        checked += 1
    assert checked >= 2
