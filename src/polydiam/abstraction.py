"""Subset-family graphs: the combinatorial abstraction of polytope graphs.

Nodes are d-element subsets of {1..n}; the defining hypothesis is that any
two nodes u, v are joined by a path staying inside the nodes that contain
u & v.  Graphs of simple polytopes satisfy it (walk inside the smallest
common face), and the quasi-polynomial and linear diameter bounds

    diam(G) <= min(n^(1 + log2 d), n * 2^(d-1))

hold at this level of generality, yet the class also contains graphs of
near-quadratic diameter; `search_max_diameter` explores that gap at toy
scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .bounds import power_bound_holds, quasi_poly_bound
from .paths import mask_diameter
from .polyhedron import Disconnected, Incidence, PolyGraph, Unbounded, _bits, classify

Node = tuple[int, ...]


@dataclass(frozen=True, kw_only=True)
class SubsetFamilyGraph(PolyGraph):
    """A `PolyGraph` on d-subsets of {1..n}: each node a sorted tuple, the
    nodes in sorted order."""

    n: int
    d: int

    def __post_init__(self) -> None:
        super().__post_init__()
        for node in self.nodes:
            if tuple(sorted(node)) != node or len(set(node)) != self.d:
                raise ValueError(f"node {node} is not a sorted {self.d}-subset")
            if not all(1 <= x <= self.n for x in node):
                raise ValueError(f"node {node} outside ground set 1..{self.n}")
        if list(self.nodes) != sorted(self.nodes):
            raise ValueError("nodes must be in sorted order")

    @classmethod
    def make(cls, n: int, d: int, nodes, edges) -> "SubsetFamilyGraph":
        canon = sorted(tuple(sorted(x)) for x in nodes)
        es = ((tuple(sorted(u)), tuple(sorted(v))) for u, v in edges)
        return cls.from_edges(canon, es, n=n, d=d)


def validate_layer_property(g: SubsetFamilyGraph) -> tuple[bool, tuple[Node, Node] | None]:
    """Check the connectivity-inside-the-filter hypothesis for every pair.

    Returns (True, None) or (False, first failing pair in node order).
    """
    filters = _pair_filters(g.nodes)
    for i, j in combinations(range(len(g.nodes)), 2):
        if not _reaches(g.adj, i, j, filters[i][j]):
            return False, (g.nodes[i], g.nodes[j])
    return True, None


def from_simple_polytope(inc: Incidence) -> SubsetFamilyGraph:
    """Vertices become their d-element tight-facet sets, edges come along.

    Facet rows are renumbered 1..n in row order so the ground set is exactly
    the facets of the polytope.
    """
    if not inc.v.bounded:
        raise Unbounded("abstraction requires a bounded polytope")
    if inc.dim < 1:  # a point has no facets: its one node, the empty set, writes no line
        raise ValueError("abstraction requires a polytope of dimension at least 1")
    simple, _ = classify(inc)
    if not simple:
        raise ValueError("abstraction requires a simple polytope")
    node_of = [tuple(pos + 1 for pos in _bits(m)) for m in inc.facet_masks]
    edges = [(node_of[i], node_of[j]) for i, ns in enumerate(inc.graph.nbrs) for j in ns]
    return SubsetFamilyGraph.make(len(inc.facets), inc.dim, node_of, edges)


@dataclass(frozen=True)
class SubsetDiameter:
    diameter: int
    bound_linear: int  # n * 2^(d-1)
    bound_quasi: float  # n^(1 + log2 d), up-rounded display value
    within_bounds: bool  # checked with the exact comparison predicate


def subset_graph_diameter(g: SubsetFamilyGraph) -> SubsetDiameter:
    """BFS diameter plus the two general bounds it must respect."""
    if not g.nodes:
        raise ValueError("empty graph")
    found = mask_diameter(g.nbrs)
    if found is None:
        raise Disconnected("subset graph is disconnected")
    best = found[0]
    linear = g.n * 2 ** (g.d - 1)
    quasi = quasi_poly_bound(g.n, g.d)
    ok = best <= linear and power_bound_holds(best, g.n, g.d)
    return SubsetDiameter(best, linear, float(quasi), ok)


@dataclass(frozen=True)
class SearchResult:
    best: SubsetFamilyGraph
    diameter: int
    complete: bool  # True only when the enumeration finished within budget
    explored: int


def _pair_filters(nodes) -> list[list[int]]:
    """F(i, j) as `filters[i][j]` for every node pair i != j: the mask of the
    nodes containing both nodes' common elements, the AND of those elements'
    node columns (all nodes when they share none)."""
    sets = [frozenset(x) for x in nodes]
    columns = {x: sum(1 << k for k, s in enumerate(sets) if x in s) for x in set().union(*sets)}
    filters = [[(1 << len(sets)) - 1] * len(sets) for _ in sets]
    for i, j in combinations(range(len(sets)), 2):
        for x in sets[i] & sets[j]:
            filters[i][j] &= columns[x]
        filters[j][i] = filters[i][j]
    return filters


def _reaches(adj, i: int, j: int, fmask: int) -> bool:
    """Whether j is reachable from i in the graph of neighbour bitsets `adj`
    by a walk inside the node bitset `fmask`, which holds both.  The walk
    leaves i and enters j through neighbours inside `fmask`: a common one
    answers yes at once, an endpoint with none no, else BFS layers grow."""
    if adj[i] & adj[j] & fmask:
        return True
    if not adj[i] & fmask or not adj[j] & fmask:
        return False
    frontier = seen = 1 << i
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        if nxt >> j & 1:
            return True
        frontier = nxt & fmask & ~seen
        seen |= frontier
    return False


def _wider_than(adj, ids, k: int) -> bool:
    """Whether two of the nodes `ids` of the connected graph `adj`, a list
    indexed by global id, are more than k steps apart: rounds of
    `mask_diameter`'s all-sources OR grow the balls not yet full from the
    closed neighbourhoods, until radius k or a fixed point.  Once a ball of
    radius r with 2r <= k holds every node, the answer is no: any two nodes
    lie within r of its centre, so the diameter is at most 2r."""
    if k < 1:  # the diameter is at least 1 exactly when there are two nodes
        return len(ids) > k + 1
    chosen = sum(1 << g for g in ids)
    reach = [a | 1 << g for g, a in enumerate(adj)]
    for radius in range(1, k):
        if 2 * radius <= k and chosen in reach:  # a ball is `chosen` only around one of ids
            return False
        step = reach.copy()
        for g in ids:
            if reach[g] != chosen:
                for h in _bits(adj[g]):
                    step[g] |= reach[h]
        if step == reach:  # a fixed point: no ball grows any more
            break
        reach = step
    return any(reach[g] != chosen for g in ids)


def _shuffle(getrandbits, x: list) -> None:
    """`random.Random.shuffle(x)` with its draws inlined: Fisher-Yates from
    the top, each j drawn as `_randbelow(i + 1)` draws it."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def search_max_diameter(
    n: int, d: int, budget: int = 1_000_000, seed: int | None = None
) -> SearchResult:
    """Largest-diameter valid graph found at toy scale.

    Validity is preserved by adding edges, so for each node subset the valid
    graphs form an up-set above the complete graph's down-closure; when few
    enough nodes exist (at most 6) that up-set is walked exhaustively and
    the result is the exact extremum.  Larger parameters fall back to
    seeded random thinning of complete graphs and only ever claim a lower
    bound (`complete=False`).

    Both walks only ever delete one edge from a valid graph, which takes
    one reachability test instead of one per node pair.  Write
    F(a, b) = {k : S_a & S_b <= S_k}, and let e = {i, j} be an edge of a
    valid graph G.  Deleting e changes G[F(a, b)] only when i and j are
    both in F(a, b); then S_a & S_b <= S_i & S_j, so F(a, b) contains
    F(i, j), and a path from i to j inside F(i, j) replaces e.  Hence
    G - e is valid exactly when j is reachable from i inside F(i, j)
    in G - e.  The random walk settles most trials without `_reaches`: a
    common neighbour of i and j inside F(i, j) keeps them connected, and an
    endpoint with no neighbour inside it cuts them apart.

    The walks run on global node ids, positions in the sorted list of all
    d-subsets: the filters, ANDs of element columns, are computed once.
    F(i, j) over a chosen node set is the global one ANDed with the chosen
    mask, but the walks read the global one as it is: every neighbour
    bitset lies inside the chosen mask, and the walks and `_reaches` only
    AND F(i, j) with those.  A graph on m nodes has diameter at most m - 1,
    and only a strictly larger diameter replaces the best, so a graph with
    m - 1 <= best gets no diameter.  The random walk skips such a draw
    before thinning it: the thinning draws nothing, and `_shuffle` makes
    `Random.shuffle`'s draws, which depend on the list's length only, so
    shuffling a stand-in list keeps the stream, and the draw still counts
    as explored.  A thinned graph is valid, hence connected, so it is
    relabelled for its diameter only when `_wider_than` finds two nodes more
    than best apart.
    """
    if n > 8 or d > 3:
        raise ValueError("search is guarded to n <= 8, d <= 3")
    if not 1 <= d <= n:  # d = 0 gives one empty node, which no file can hold
        raise ValueError("need 1 <= d <= n")
    all_nodes = [tuple(c) for c in combinations(range(1, n + 1), d)]
    exhaustive = len(all_nodes) <= 6
    if not exhaustive and seed is None:
        raise ValueError("randomized search needs an explicit seed")
    filters = _pair_filters(all_nodes)

    best_graph: SubsetFamilyGraph | None = None
    best_diam, explored, complete = -1, 0, True

    def complete_graph(ids):
        # `ids` is sorted; the pairs come in the order of `combinations`
        # over its positions
        chosen = sum(1 << g for g in ids)
        adj = [0] * len(all_nodes)
        for g in ids:
            adj[g] = chosen ^ 1 << g
        return adj, list(combinations(ids, 2))

    def consider(ids, adj: list[int]) -> None:
        nonlocal best_graph, best_diam
        if len(ids) - 1 <= best_diam:
            return
        local = {g: b for b, g in enumerate(ids)}  # `ids` is sorted, so each tuple ascends
        nbrs = tuple(tuple(local[h] for h in _bits(adj[g])) for g in ids)
        found = mask_diameter(nbrs)
        if found is not None and found[0] > best_diam:
            best_diam = found[0]
            best_graph = SubsetFamilyGraph(tuple(all_nodes[g] for g in ids), nbrs, n=n, d=d)

    # The complete graph on any node set is valid: F(i, j) holds i and j,
    # and they are adjacent.  So each walk starts from a valid graph.
    if exhaustive:
        subsets = (c for size in range(1, len(all_nodes) + 1)
                   for c in combinations(range(len(all_nodes)), size))
        for ids in subsets:
            adj, pairs = complete_graph(ids)
            seen = set()
            stack = [((1 << len(pairs)) - 1, adj)]
            while stack:
                emask, adj = stack.pop()
                if emask in seen:
                    continue
                if explored >= budget:
                    complete = False
                    break
                seen.add(emask)
                explored += 1
                consider(ids, adj)
                for bit, (i, j) in enumerate(pairs):
                    child = emask & ~(1 << bit)
                    if child != emask and child not in seen:
                        without = adj.copy()
                        without[i], without[j] = adj[i] ^ 1 << j, adj[j] ^ 1 << i
                        if _reaches(without, i, j, filters[i][j]):
                            stack.append((child, without))
            if not complete:
                break
    else:
        rng = random.Random(seed)
        getrandbits = rng.getrandbits
        complete = False
        while explored < budget:
            size = rng.randint(2, len(all_nodes))
            # draws as `rng.sample(all_nodes, size)` does
            ids = sorted(rng.sample(range(len(all_nodes)), size))
            explored += 1
            if size - 1 <= best_diam:  # cannot win: draw the same swaps, thin nothing
                _shuffle(getrandbits, [0] * (size * (size - 1) // 2))
                continue
            adj, pairs = complete_graph(ids)
            _shuffle(getrandbits, pairs)  # the swaps depend on the length only
            for i, j in pairs:
                fmask = filters[i][j]
                ai, aj = adj[i] ^ 1 << j, adj[j] ^ 1 << i
                if ai & aj & fmask:  # a common neighbour inside F(i, j): delete
                    adj[i], adj[j] = ai, aj
                elif ai & fmask and aj & fmask:  # else an end cut off inside it: keep
                    adj[i], adj[j] = ai, aj
                    if not _reaches(adj, i, j, fmask):
                        adj[i], adj[j] = ai ^ 1 << j, aj ^ 1 << i
            if _wider_than(adj, ids, best_diam):
                consider(ids, adj)

    if best_graph is None:
        raise ValueError("no valid connected graph found")
    return SearchResult(best_graph, best_diam, complete, explored)
