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
from .polyhedron import Disconnected, Incidence, Unbounded, classify

Node = tuple[int, ...]


@dataclass(frozen=True)
class SubsetFamilyGraph:
    """Graph on d-subsets of {1..n}; nodes canonically sorted."""

    n: int
    d: int
    nodes: tuple[Node, ...]
    edges: frozenset[tuple[Node, Node]]

    def __post_init__(self) -> None:
        seen = set()
        for node in self.nodes:
            if tuple(sorted(node)) != node or len(set(node)) != self.d:
                raise ValueError(f"node {node} is not a sorted {self.d}-subset")
            if not all(1 <= x <= self.n for x in node):
                raise ValueError(f"node {node} outside ground set 1..{self.n}")
            seen.add(node)
        if len(seen) != len(self.nodes):
            raise ValueError("duplicate nodes")
        for u, v in self.edges:
            if u not in seen or v not in seen or u >= v:
                raise ValueError("edges must be sorted pairs of known nodes")

    @classmethod
    def make(cls, n: int, d: int, nodes, edges) -> "SubsetFamilyGraph":
        canon = tuple(sorted(tuple(sorted(x)) for x in nodes))
        es = frozenset(
            tuple(sorted((tuple(sorted(u)), tuple(sorted(v))))) for u, v in edges
        )
        return cls(n, d, canon, es)

    def adjacency_masks(self) -> list[int]:
        index = {node: i for i, node in enumerate(self.nodes)}
        adj = [0] * len(self.nodes)
        for u, v in self.edges:
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
        return adj


def _reach(adj: list[int], start: int, allowed: int) -> int:
    """Bitmask of nodes reachable from `start` inside the `allowed` mask."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            nxt |= adj[low.bit_length() - 1]
            rest ^= low
        nxt &= allowed & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def validate_layer_property(g: SubsetFamilyGraph) -> tuple[bool, tuple[Node, Node] | None]:
    """Check the connectivity-inside-the-filter hypothesis for every pair.

    Returns (True, None) or (False, first failing pair in node order).
    """
    m = len(g.nodes)
    adj = g.adjacency_masks()
    sets = [frozenset(node) for node in g.nodes]
    for i in range(m):
        for j in range(i + 1, m):
            common = sets[i] & sets[j]
            allowed = 0
            for k in range(m):
                if common <= sets[k]:
                    allowed |= 1 << k
            if not _reach(adj, i, allowed) >> j & 1:
                return False, (g.nodes[i], g.nodes[j])
    return True, None


def from_simple_polytope(inc: Incidence) -> SubsetFamilyGraph:
    """Vertices become their d-element tight-facet sets, edges come along.

    Facet rows are renumbered 1..n in row order so the ground set is exactly
    the facets of the polytope.
    """
    if inc.v.rays:
        raise Unbounded("abstraction requires a bounded polytope")
    simple, _ = classify(inc)
    if not simple:
        raise ValueError("abstraction requires a simple polytope")
    facets = inc.facets
    node_of = {
        label: tuple(pos + 1 for pos in range(len(facets)) if m >> pos & 1)
        for label, m in zip(inc.v.all_labels(), inc.facet_masks)
    }
    edges = [(node_of[a], node_of[b]) for a, b in inc.graph.edges]
    return SubsetFamilyGraph.make(len(facets), inc.dim, node_of.values(), edges)


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
    found = mask_diameter(g.adjacency_masks())
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


def _subset_masks(nodes: list[Node]) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """Per-pair filter masks and the edge list for a fixed node set."""
    m = len(nodes)
    sets = [frozenset(x) for x in nodes]
    pairs = list(combinations(range(m), 2))
    pair_filters = []
    for i, j in pairs:
        common = sets[i] & sets[j]
        fmask = 0
        for k in range(m):
            if common <= sets[k]:
                fmask |= 1 << k
        pair_filters.append((i, j, fmask))
    return pair_filters, pairs


def _graph_valid(adj: list[int], pair_filters) -> bool:
    for i, j, fmask in pair_filters:
        if not _reach(adj, i, fmask) >> j & 1:
            return False
    return True


def _edge_adj(m: int, pairs, emask: int) -> list[int]:
    adj = [0] * m
    for bit, (i, j) in enumerate(pairs):
        if emask >> bit & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


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

    def consider(nodes: list[Node], emask: int, pairs) -> None:
        nonlocal best_graph, best_diam
        found = mask_diameter(_edge_adj(len(nodes), pairs, emask))
        if found is not None and found[0] > best_diam:
            edges = [
                (nodes[i], nodes[j])
                for bit, (i, j) in enumerate(pairs)
                if emask >> bit & 1
            ]
            best_diam = found[0]
            best_graph = SubsetFamilyGraph.make(n, d, nodes, edges)

    if exhaustive:
        for size in range(1, len(all_nodes) + 1):
            for chosen in combinations(all_nodes, size):
                nodes = list(chosen)
                pair_filters, pairs = _subset_masks(nodes)
                full = (1 << len(pairs)) - 1
                if not _graph_valid(_edge_adj(len(nodes), pairs, full), pair_filters):
                    continue
                seen = set()
                stack = [full]
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
                    consider(nodes, emask, pairs)
                    for bit in range(len(pairs)):
                        if emask >> bit & 1:
                            child = emask & ~(1 << bit)
                            if child not in seen and _graph_valid(
                                _edge_adj(len(nodes), pairs, child), pair_filters
                            ):
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
            pair_filters, pairs = _subset_masks(nodes)
            full = (1 << len(pairs)) - 1
            if not _graph_valid(_edge_adj(len(nodes), pairs, full), pair_filters):
                explored += 1
                continue
            emask = full
            order = list(range(len(pairs)))
            rng.shuffle(order)
            for bit in order:
                trial = emask & ~(1 << bit)
                if emask >> bit & 1 and _graph_valid(
                    _edge_adj(len(nodes), pairs, trial), pair_filters
                ):
                    emask = trial
            explored += 1
            consider(nodes, emask, pairs)

    if best_graph is None:
        raise ValueError("no valid connected graph found")
    return SearchResult(best_graph, best_diam, complete, explored)
