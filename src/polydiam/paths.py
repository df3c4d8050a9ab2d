"""Distances, diameters, non-revisiting paths, and monotone paths.

A graph is one `PolyGraph`: node labels plus one ascending tuple of
neighbour positions per node (`nbrs`), which the diameter reads; the
searches read its bitset view `adj`, built once per graph.  One BFS,
`_bfs_layers`, returns one bitset of nodes per distance; it serves
distances, the monotone BFS (on bitsets of lower-valued neighbours) and the
non-revisiting search's distance cut.  Diameters run every source at once
(`mask_diameter`), with one bitset of sources per node.

The non-revisiting search asks for an edge path that never re-enters a
facet it previously left; such paths are never longer than n - d, with d
the dimension of the affine hull (each step must enter a facet never seen
before, and the d facets of the start vertex do not count), so the
backtracking search is cut off at that depth and is therefore complete:
if it fails, no non-revisiting path exists at all.

Search state is (current vertex, set of facets left so far); the set of
facets merely visited does not constrain future moves, so memoizing on the
left-set is sound.  A walk needs at least dist(node, target) more steps,
so the search cuts a node whose BFS distance to the target exceeds the
steps left; the cut subtrees hold no path, so the search meets the same
paths in the same order, and finds the same first one, as without it.

The all-pairs check proves most pairs without a search.  A walk is
t-monotone when each step enters only facets of t and leaves only facets
off t, so it never re-enters a facet it left, whatever the masks.
`_monotone_reach` gives per node u the bitsets R_k[u] of the targets u
reaches so in at most k steps: its rounds are Jacobi (round k reads round
k - 1 only), and they stop at the cap or at a fixed point, as arbitrary
masks allow steps that enter nothing.  Each source then runs one greedy
pass: a BFS by the DFS's step rule and cap, keeping the first left-set L_w
per node w.  Reaching w at depth k proves every t in R_{cap-k}[w] that is
off every facet of L_w: the tail enters only facets of t, so none of L_w,
and never re-enters a facet it left itself, all within cap steps.  At depth
0 this is R itself, which charges no budget.  The pass stops once its
targets are proved, and only the pairs it misses run the DFS, in pair
order: the witness is unchanged.  Each node the pass reaches costs one unit
of budget; a layer past the limit certifies nothing, so the DFS still
proves an unreachable pair for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import inf, lcm
from typing import Callable, Sequence

from .polyhedron import Disconnected, GeometryError, Incidence, PolyGraph, Unbounded
from .polyhedron import _bits, _transpose
from .ratlin import dot, primitive


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of an exhaustive all-pairs check.

    `holds` is None when the search budget ran out before an answer was
    proven (never reported as a silent False).
    """

    holds: bool | None
    witness: tuple[str, str] | None = None


@dataclass(frozen=True)
class MonotoneReport:
    optimum: str
    worst_length: int
    unreachable: tuple[str, ...] = ()


def _bfs_layers(adj: Sequence[int], source: int) -> list[int]:
    """BFS from `source` over the neighbour bitsets `adj`, as one bitset of
    node positions per distance."""
    frontier = 1 << source
    unseen = ~frontier
    layers = []
    while frontier:
        layers.append(frontier)
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & unseen
        unseen ^= frontier
    return layers


def bfs_distances(graph: PolyGraph, source: str) -> dict[str, int | float]:
    """Exact shortest-path distances from `source`; unreachable nodes get inf."""
    if source not in graph.nodes:
        raise ValueError(f"unknown source node {source!r}")
    dist: dict[str, int | float] = dict.fromkeys(graph.nodes, inf)
    for k, layer in enumerate(_bfs_layers(graph.adj, graph.nodes.index(source))):
        for i in _bits(layer):
            dist[graph.nodes[i]] = k
    return dist


def mask_diameter(nbrs: Sequence[Sequence[int]]) -> tuple[int, tuple[int, int]] | None:
    """Diameter and a witness pair of a graph given as neighbour lists.

    Nodes are positions in `nbrs`; the answer is None when the graph is
    disconnected.  Ties are broken by node order, so the witness is
    reproducible: the first source of greatest eccentricity, and the first
    node in its last BFS layer.

    All sources run at once, as in the multi-source BFS of Then et al.
    (*The More the Merrier*, VLDB 2014): each node keeps the bitset of the
    sources that have reached it, and each layer ORs in its neighbours'
    bitsets, so the cost is one OR per edge end per layer, not one BFS per
    node.  The diameter is the first layer at which every bitset is full;
    a layer that changes nothing before that means the graph is
    disconnected.  The graph is undirected, so the sources within k steps
    of a node are the nodes within k steps of it: the sources of greatest
    eccentricity are the nodes whose bitset is not full one layer earlier,
    and the lowest node missing from the first of them is the first node
    of its last BFS layer.
    """
    if not nbrs:
        return -1, (0, 0)
    n = len(nbrs)
    everyone = (1 << n) - 1
    reach = [1 << i for i in range(n)]  # the sources within `layer` steps
    before, layer = reach, 0
    while reach.count(everyone) != n:
        step = []
        for r, ns in zip(reach, nbrs):
            for w in ns:
                r |= reach[w]
            step.append(r)
        if step == reach:
            return None
        before, reach, layer = reach, step, layer + 1
    source = next((i for i, r in enumerate(before) if r != everyone), 0)
    missing = everyone ^ before[source]
    return layer, (source, (missing & -missing).bit_length() - 1 if missing else source)


def diameter(graph: PolyGraph) -> tuple[int, tuple[str, str]]:
    """Maximum pairwise distance plus one witness pair (see `mask_diameter`)."""
    nodes = graph.nodes
    if not nodes:
        raise ValueError("diameter of an empty graph is undefined")
    found = mask_diameter(graph.nbrs)
    if found is None:
        raise Disconnected("graph is disconnected: diameter undefined")
    best, (s, t) = found
    return best, (nodes[s], nodes[t])


class SearchBudget:
    """Shared work counter of the non-revisiting searches: DFS expansions and pass nodes."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def spend(self, cost: int = 1) -> bool:
        self.used += cost
        return self.limit is None or self.used <= self.limit


def nonrevisiting_dfs(
    adj: Sequence[int],
    masks: list[int],
    source: int,
    target: int,
    cap: int,
    budget: SearchBudget,
    layers: list[int],
) -> list[int] | None:
    """Bounded-depth search for a non-revisiting walk in mask space.

    `adj[i]` is the neighbour bitset of node i; neighbours are tried in
    ascending position, so the first path found is reproducible.
    `masks[i]` is the bitmask of facets (or, dually, vertex stars) the
    node is on.  A move into `w` is allowed when w's mask avoids everything
    already left; proven-failed (node, left-set, depth) states are memoized.
    `layers` is the BFS from `target` (`_bfs_layers`): a node farther from
    the target than the steps left is cut before it spends budget, so an
    unreachable target costs nothing.
    Returns the node path, or None when no path of length <= cap exists.
    Raises TimeoutError when the budget is exhausted.
    """
    # near[r]: the nodes within r steps of the target, for r = 0..cap
    near = list(accumulate(layers[: cap + 1]))
    near += near[-1:] * (cap + 1 - len(near))
    memo: dict[tuple[int, int], int] = {}

    def dfs(node: int, left: int, remaining: int) -> list[int] | None:
        # node is within `remaining` steps of the target
        if node == target:
            return [node]
        key = (node, left)
        if memo.get(key, -1) >= remaining:
            return None
        if not budget.spend():
            raise TimeoutError("search budget exhausted")
        here = masks[node]
        nbrs = adj[node] & near[remaining - 1]
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            nxt = low.bit_length() - 1
            if masks[nxt] & left:
                continue
            tail = dfs(nxt, left | (here & ~masks[nxt]), remaining - 1)
            if tail is not None:
                return [node] + tail
        memo[key] = remaining
        return None

    for depth in range(cap + 1):
        found = dfs(source, 0, depth) if near[depth] >> source & 1 else None
        if found is not None:
            return found
    return None


def _monotone_reach(
    adj: Sequence[int], masks: Sequence[int], cap: int
) -> tuple[list[list[int]], Callable[[int, int], int]]:
    """The rounds R_0, R_1, ... of the module docstring, as bitsets of targets
    per node, and the cached `allowed`.  A step allows the targets on every
    facet it enters and off every facet it leaves: one AND of columns."""
    columns = _transpose(masks, max(masks, default=0).bit_length())
    everyone = (1 << len(adj)) - 1
    @cache  # one AND per distinct (entered, left) pair: a cube has 2d of them
    def allowed(entered: int, left: int) -> int:
        ok = everyone
        for f in _bits(entered):
            ok &= columns[f]
        for f in _bits(left):
            ok &= ~columns[f]
        return ok
    steps = [[(w, ok) for w in _bits(nbrs) if (ok := allowed(masks[w] & ~mu, mu & ~masks[w]))]
             for mu, nbrs in zip(masks, adj)]
    rounds = [[1 << u for u in range(len(adj))]]
    for _ in range(cap):
        # Jacobi: round k reads round k - 1 only, so walks stay within k steps
        reach, nxt = rounds[-1], []
        for was, out in zip(reach, steps):
            r = was
            for w, ok in out:
                r |= reach[w] & ok
            nxt.append(was if r == was else r)  # an unchanged entry shares its int
        if nxt == reach:
            break
        rounds.append(nxt)
    return rounds, allowed


def _greedy_misses(
    adj: Sequence[int], masks: list[int], source: int, targets: int, cap: int,
    budget: SearchBudget, rounds: list[list[int]], allowed: Callable[[int, int], int],
) -> int:
    """The nodes of `targets` the greedy pass (module docstring) from `source`
    does not prove, with `rounds` and `allowed` from `_monotone_reach`."""
    last = len(rounds) - 1
    targets &= ~rounds[min(cap, last)][source]  # depth 0: the monotone walks, for free
    left, frontier = [0] * len(adj), 1 << source
    unseen = (1 << len(adj)) - 1 ^ frontier
    for depth in range(1, cap + 1):
        if not targets:
            break
        tails, before, proved = rounds[min(cap - depth, last)], unseen, 0
        for u in _bits(frontier):
            lu, mu = left[u], masks[u]
            fresh = adj[u] & unseen
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                w = low.bit_length() - 1
                if not masks[w] & lu:
                    left[w] = lw = lu | (mu & ~masks[w])
                    unseen ^= low
                    proved |= tails[w] & allowed(0, lw)
            if not targets & ~proved:
                break
        frontier = before ^ unseen
        if not budget.spend(frontier.bit_count()):
            break
        targets &= ~proved
    return targets


def _nonrevisiting_all_pairs(
    adj: Sequence[int],
    masks: list[int],
    cap: int,
    names: Sequence[str],
    budget: int | None,
) -> PropertyResult:
    """Whether every pair i < j has a non-revisiting walk of at most `cap` steps;
    the first pair without one is the witness.  Source i hands its targets j > i
    to `_greedy_misses`, and the pairs that leaves run `nonrevisiting_dfs` in
    order, each target's BFS built on first use."""
    rounds, allowed = _monotone_reach(adj, masks, cap)
    rows: dict[int, list[int]] = {}
    shared = SearchBudget(budget)
    try:
        for i in range(len(names)):
            later = (1 << len(names)) - (2 << i)
            for j in _bits(_greedy_misses(adj, masks, i, later, cap, shared, rounds, allowed)):
                layers = rows.get(j) or rows.setdefault(j, _bfs_layers(adj, j))
                if nonrevisiting_dfs(adj, masks, i, j, cap, shared, layers) is None:
                    return PropertyResult(holds=False, witness=(names[i], names[j]))
    except TimeoutError:
        return PropertyResult(holds=None, witness=None)
    return PropertyResult(holds=True, witness=None)


def nonrevisiting_property(
    inc: Incidence, budget: int | None = 20_000_000
) -> PropertyResult:
    """Whether every vertex pair admits a non-revisiting path.

    Non-revisiting is symmetric under path reversal (each facet's tight
    stretch must be one interval), so unordered pairs suffice.  Budget
    exhaustion gives holds=None, never a silent False.
    """
    if not inc.v.bounded:
        raise Unbounded("non-revisiting search requires a bounded polytope")
    return _nonrevisiting_all_pairs(
        inc.graph.adj,
        inc.facet_masks,
        len(inc.facets) - inc.dim,
        inc.graph.nodes,
        budget,
    )


def monotone_eccentricity(inc: Incidence, c) -> MonotoneReport:
    """Worst monotone path length toward the unique c-maximal vertex.

    Each edge is directed toward strictly larger c-value; a functional that
    ties on any edge is rejected (callers perturb, we do not).  For every
    source the shortest strictly-increasing path to the optimum is taken;
    sources with no monotone route are reported, not silently dropped.
    `c` needs one coefficient per coordinate (ValueError otherwise).
    """
    if len(c) != inc.v.d:
        raise ValueError(
            f"functional has {len(c)} coefficient{'s' * (len(c) != 1)}: "
            f"the polyhedron is in R^{inc.v.d}"
        )
    if not inc.v.bounded:
        raise Unbounded("monotone analysis requires a bounded polytope")
    # The values are only compared, so c may be scaled to primitive integers
    # and each vertex y / t valued as c.y (L // t) at the common denominator L.
    c, den = primitive(c), lcm(*(t for t, *_ in inc.v.rows))
    values = [dot(c, y) * (den // t) for t, *y in inc.v.rows]
    labels = inc.v.all_labels()
    top = max(values)
    winners = [i for i, val in enumerate(values) if val == top]
    if len(winners) > 1:
        raise GeometryError(
            f"non-unique optimum: {labels[winners[0]]} and {labels[winners[1]]} tie"
        )
    # into[i]: the neighbours of smaller value.  Each edge {i, j} is met
    # once, with i < j, in node order, so the tie reported is the first.
    into = [0] * len(labels)
    for i, ns in enumerate(inc.graph.nbrs):
        for j in filter(i.__lt__, ns):
            if values[i] == values[j]:
                raise GeometryError(
                    f"tie on edge {labels[i]}-{labels[j]}: perturb the functional"
                )
            lo, hi = (i, j) if values[i] < values[j] else (j, i)
            into[hi] |= 1 << lo
    layers = _bfs_layers(into, winners[0])
    reached = sum(layers)
    unreachable = tuple(labels[i] for i in range(len(labels)) if not reached >> i & 1)
    return MonotoneReport(
        optimum=labels[winners[0]], worst_length=len(layers) - 1, unreachable=unreachable
    )
