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
from .paths import _bfs_layers, mask_diameter
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
    for i, j, fmask in _pair_filters(g.nodes):
        # the layers are disjoint: their sum is everything reached
        if not sum(_bfs_layers(g.adj, i, fmask)) >> j & 1:
            return False, (g.nodes[i], g.nodes[j])
    return True, None


def from_simple_polytope(inc: Incidence) -> SubsetFamilyGraph:
    """Vertices become their d-element tight-facet sets, edges come along.

    Facet rows are renumbered 1..n in row order so the ground set is exactly
    the facets of the polytope.
    """
    if not inc.v.bounded:
        raise Unbounded("abstraction requires a bounded polytope")
    simple, _ = classify(inc)
    if not simple:
        raise ValueError("abstraction requires a simple polytope")
    node_of = [tuple(pos + 1 for pos in _bits(m)) for m in inc.facet_masks]
    edges = [
        (node_of[i], node_of[j]) for i, nbrs in enumerate(inc.graph.adj) for j in _bits(nbrs)
    ]
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
    found = mask_diameter(g.adj)
    if found is None:
        raise Disconnected("subset graph is disconnected")
    best = found[0]
    linear = g.n * 2 ** (g.d - 1)
    quasi = quasi_poly_bound(g.n, g.d, exponent_offset=1)
    ok = best <= linear and power_bound_holds(best, g.n, g.d, exponent_offset=1)
    return SubsetDiameter(best, linear, float(quasi), ok)


@dataclass(frozen=True)
class SearchResult:
    best: SubsetFamilyGraph
    diameter: int
    complete: bool  # True only when the enumeration finished within budget
    explored: int


def _pair_filters(nodes) -> list[tuple[int, int, int]]:
    """(i, j, F(i, j)) for every node pair i < j, in `combinations` order:
    F(i, j) is the mask of the nodes containing both nodes' common elements."""
    sets = [frozenset(x) for x in nodes]
    out = []
    for i, j in combinations(range(len(sets)), 2):
        common = sets[i] & sets[j]
        fmask = 0
        for k, s in enumerate(sets):
            if common <= s:
                fmask |= 1 << k
        out.append((i, j, fmask))
    return out


def _edge_adj(m: int, pair_filters, emask: int) -> list[int]:
    """Neighbour bitsets of the graph whose edges are the set bits of
    `emask`, bit b standing for the pair `pair_filters[b]`."""
    adj = [0] * m
    for bit, (i, j, _) in enumerate(pair_filters):
        if emask >> bit & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _deletable(adj: list[int], i: int, j: int, fmask: int) -> bool:
    """Whether the valid graph `adj` stays valid without its edge {i, j},
    `fmask` being F(i, j); `adj` is left as it was (see the lemma in
    `search_max_diameter`)."""
    adj[i] ^= 1 << j
    adj[j] ^= 1 << i
    ok = sum(_bfs_layers(adj, i, fmask)) >> j & 1
    adj[i] ^= 1 << j
    adj[j] ^= 1 << i
    return bool(ok)


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
    in G - e.
    """
    if n > 8 or d > 3:
        raise ValueError("search is guarded to n <= 8, d <= 3")
    if d > n:
        raise ValueError("need d <= n")
    all_nodes = [tuple(c) for c in combinations(range(1, n + 1), d)]
    exhaustive = len(all_nodes) <= 6
    if not exhaustive and seed is None:
        raise ValueError("randomized search needs an explicit seed")

    best_graph: SubsetFamilyGraph | None = None
    best_diam = -1
    explored = 0
    complete = True

    def consider(nodes: list[Node], adj: list[int]) -> None:
        # `nodes` is always a sorted selection of the sorted `all_nodes`
        nonlocal best_graph, best_diam
        found = mask_diameter(adj)
        if found is not None and found[0] > best_diam:
            best_diam = found[0]
            best_graph = SubsetFamilyGraph(tuple(nodes), tuple(adj), n=n, d=d)

    # The complete graph on any node set is valid: F(i, j) holds i and j,
    # and they are adjacent.  So each walk starts from a valid graph.
    if exhaustive:
        for size in range(1, len(all_nodes) + 1):
            for chosen in combinations(all_nodes, size):
                nodes = list(chosen)
                pair_filters = _pair_filters(nodes)
                seen = set()
                stack = [(1 << len(pair_filters)) - 1]
                while stack:
                    emask = stack.pop()
                    if emask in seen:
                        continue
                    if explored >= budget:
                        complete = False
                        stack = []
                        break
                    seen.add(emask)
                    explored += 1
                    adj = _edge_adj(len(nodes), pair_filters, emask)
                    consider(nodes, adj)
                    for bit, (i, j, fmask) in enumerate(pair_filters):
                        if emask >> bit & 1:
                            child = emask & ~(1 << bit)
                            if child not in seen and _deletable(adj, i, j, fmask):
                                stack.append(child)
                if not complete:
                    break
            if not complete:
                break
    else:
        rng = random.Random(seed)
        complete = False
        while explored < budget:
            size = rng.randint(2, len(all_nodes))
            nodes = sorted(rng.sample(all_nodes, size))
            pair_filters = _pair_filters(nodes)
            adj = _edge_adj(len(nodes), pair_filters, (1 << len(pair_filters)) - 1)
            order = list(range(len(pair_filters)))
            rng.shuffle(order)
            for bit in order:
                i, j, fmask = pair_filters[bit]
                if _deletable(adj, i, j, fmask):
                    adj[i] ^= 1 << j
                    adj[j] ^= 1 << i
            explored += 1
            consider(nodes, adj)

    if best_graph is None:
        raise ValueError("no valid connected graph found")
    return SearchResult(best_graph, best_diam, complete, explored)
