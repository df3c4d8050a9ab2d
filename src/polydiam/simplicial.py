"""Pure simplicial complexes: ridge graphs, anti-stars, dual non-revisiting.

A boundary sphere of a simplicial polytope is handled purely
combinatorially (labels only, no coordinates); geometry enters exactly once
through `boundary_complex`.  Walking facet-to-facet across ridges is the
dual view of walking the polytope graph, and the dual non-revisiting check
tracks vertex stars entered/left the same way the primal search tracks
facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .paths import PropertyResult, _nonrevisiting_all_pairs
from .polyhedron import Incidence, PolyGraph, classify


def facet_name(facet: frozenset[str]) -> str:
    """Canonical display name: 'abcd' for single-letter labels, else comma-joined."""
    parts = sorted(facet)
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    return ",".join(parts)


@dataclass(frozen=True)
class SimplicialComplex:
    """A pure complex: facets all of one cardinality over named vertices."""

    labels: tuple[str, ...]
    facets: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        sizes = {len(f) for f in self.facets}
        if len(sizes) > 1:
            raise ValueError("complex is not pure: facet sizes differ")
        known = set(self.labels)
        for f in self.facets:
            if not f <= known:
                raise ValueError(f"facet {facet_name(f)} uses unknown labels")

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        fs = frozenset(frozenset(f) for f in facets)
        labels = tuple(sorted(set().union(*fs))) if fs else ()
        return cls(labels, fs)

    @property
    def facet_size(self) -> int:
        return len(next(iter(self.facets))) if self.facets else 0

    def sorted_facets(self) -> list[frozenset[str]]:
        return sorted(self.facets, key=facet_name)


def boundary_complex(inc: Incidence) -> SimplicialComplex:
    """Facet list of the boundary of a simplicial polytope, as label sets."""
    _, simplicial = classify(inc)
    if not simplicial:
        raise ValueError("polytope is not simplicial: boundary facets are not simplices")
    labels = inc.v.all_labels()
    facets = []
    for i in inc.facets:
        facets.append(frozenset(labels[k] for k in inc.vertices_on_row(i)))
    return SimplicialComplex(tuple(sorted(labels)), frozenset(facets))


def ridge_graph(k: SimplicialComplex) -> PolyGraph:
    """Facets as nodes, an edge whenever two facets share all but one vertex."""
    facets = k.sorted_facets()
    size = k.facet_size
    adj = [0] * len(facets)
    for (i, f), (j, g) in combinations(enumerate(facets), 2):
        if len(f & g) == size - 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return PolyGraph(tuple(facet_name(f) for f in facets), tuple(adj))


def anti_star(k: SimplicialComplex, v: str) -> SimplicialComplex:
    """The subcomplex of facets not containing `v`."""
    if v not in k.labels:
        raise ValueError(f"unknown label {v!r}")
    return SimplicialComplex.from_facets(f for f in k.facets if v not in f)


def dual_nonrevisiting_property(
    k: SimplicialComplex, budget: int | None = 20_000_000
) -> PropertyResult:
    """Whether every facet pair admits a ridge path never re-entering a left star.

    The dual of the non-revisiting question: along the path, once some
    vertex stops appearing in the current facet it must never reappear.
    Such paths have length at most (#vertices - facet size), which bounds
    the backtracking search and makes it exhaustive.  Budget exhaustion is
    an explicit inconclusive outcome.
    """
    graph = ridge_graph(k)
    label_bit = {lab: i for i, lab in enumerate(k.labels)}
    masks = [sum(1 << label_bit[lab] for lab in f) for f in k.sorted_facets()]
    cap = len(k.labels) - k.facet_size
    return _nonrevisiting_all_pairs(graph.adj, masks, cap, graph.nodes, budget)
