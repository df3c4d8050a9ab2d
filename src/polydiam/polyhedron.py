"""H- and V-representations, incidence, and the combinatorial face tests.

An `HPolyhedron` is a list of closed half-spaces ``b + a.x >= 0`` (rows),
optionally with some rows marked as equalities ("linearity").  A
`VPolyhedron` is a list of vertices plus extreme-ray directions; rays are
empty exactly when the polyhedron is bounded.  `Incidence` records which
vertex and which ray is tight on which row, as bitmasks both ways; every
graph and classification question in this package is answered from that
tightness data, never from floating point.  The only ranks taken here are
of the implicit equalities behind `Incidence.dim` (usual input has none)
and in `polar`'s full-dimension check, both by `ratlin._echelon`.

For a pointed polyhedron P every nonempty face is conv + cone of the
vertices and rays tight on it, so a face is determined by its tight set
and one face lies in another exactly when its tight set does.  Hence:

* Facets (`facet_row_indices`): an H-description holds a row for every
  facet, and every proper face lies in a facet, so the facets are exactly
  the inclusion-maximal tight sets among the rows whose tight set is
  nonempty and not all of P.
* Edges (`skeleton_graph`): the smallest face holding vertices u and v is
  the set tight on T(u) & T(v); it is the segment uv exactly when the
  vertices tight on those rows are u and v alone and no ray is tight on
  them.  That set is one AND of per-row bitsets, and the test stays right
  on degenerate, non-simple inputs where a rank shortcut would lie.
* Ridges (`dual_graph`): the facets of a facet F are the maximal faces
  F & G over the other facets G, so two facets are adjacent exactly when
  their common vertex set is inclusion-maximal among F's intersections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator, Sequence

from .ratlin import Vector, _echelon, dot, primitive

Row = tuple[Fraction, Vector]  # (b, a) meaning b + a.x >= 0
Point = Vector


class GeometryError(Exception):
    """Base class for domain errors (reported, never a stack trace)."""


class Infeasible(GeometryError):
    """The feasible set is empty."""


class NotPointed(GeometryError):
    """The feasible set contains a line, so it has no vertices."""


class Unbounded(GeometryError):
    """Operation requires a bounded polytope."""


class Disconnected(GeometryError):
    """Graph diameter undefined: some pair is unreachable."""


def make_row(b, a: Sequence) -> Row:
    return (Fraction(b), tuple(Fraction(x) for x in a))


def canonical_row(row: Row) -> Row:
    """Positive-scale a row to primitive integer coefficients.

    Only positive scaling is applied: flipping an inequality's sign would
    change the half-space.  Equality rows get their sign fixed separately
    (see `canonical_equality_row`).
    """
    b, a = row
    prim = primitive((b,) + tuple(a))
    return (Fraction(prim[0]), tuple(Fraction(x) for x in prim[1:]))


def canonical_equality_row(row: Row) -> Row:
    """Like `canonical_row` but with the first nonzero coefficient positive."""
    b, a = canonical_row(row)
    for x in (b, *a):
        if x != 0:
            if x < 0:
                return (-b, tuple(-y for y in a))
            break
    return (b, a)


@dataclass(frozen=True)
class HPolyhedron:
    """Inequality description: rows ``b + a.x >= 0`` in R^d.

    `linearity` holds 0-based indices of rows that are equalities.
    """

    d: int
    rows: tuple[Row, ...]
    linearity: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for b, a in self.rows:
            if len(a) != self.d:
                raise ValueError("row coefficient count must equal d")
        if any(not 0 <= i < len(self.rows) for i in self.linearity):
            raise ValueError("linearity index out of range")

    @classmethod
    def from_rows(cls, d: int, rows: Iterable[Sequence], linearity=()) -> "HPolyhedron":
        made = tuple(make_row(r[0], r[1:]) for r in rows)
        return cls(d, made, frozenset(linearity))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def inequality_indices(self) -> list[int]:
        return [i for i in range(len(self.rows)) if i not in self.linearity]

    def value(self, i: int, x: Sequence) -> Fraction:
        b, a = self.rows[i]
        return b + dot(a, x)

    def contains(self, x: Sequence) -> bool:
        for i in range(len(self.rows)):
            v = self.value(i, x)
            if i in self.linearity:
                if v != 0:
                    return False
            elif v < 0:
                return False
        return True


@dataclass(frozen=True)
class VPolyhedron:
    """Vertex + ray description.  `rays` empty iff the polyhedron is bounded.

    `labels` optionally names the vertices (defaults to v0, v1, ...); the
    Klee-Walkup data uses the letters a..h, w.
    """

    d: int
    vertices: tuple[Point, ...]
    rays: tuple[Vector, ...] = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for p in self.vertices:
            if len(p) != self.d:
                raise ValueError("vertex dimension mismatch")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertices must be pairwise distinct")
        for r in self.rays:
            if len(r) != self.d or all(x == 0 for x in r):
                raise ValueError("rays must be nonzero of dimension d")
        prims = [primitive(r) for r in self.rays]
        if len(set(prims)) != len(prims):
            raise ValueError("ray directions must be pairwise non-parallel")
        if self.labels is not None and len(self.labels) != len(self.vertices):
            raise ValueError("one label per vertex required")

    @classmethod
    def from_points(cls, points: Iterable[Sequence], rays=(), labels=None) -> "VPolyhedron":
        vs = tuple(tuple(Fraction(x) for x in p) for p in points)
        rs = tuple(tuple(Fraction(x) for x in r) for r in rays)
        d = len(vs[0]) if vs else (len(rs[0]) if rs else 0)
        return cls(d, vs, rs, tuple(labels) if labels is not None else None)

    @property
    def bounded(self) -> bool:
        return not self.rays

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else f"v{i}"

    def all_labels(self) -> tuple[str, ...]:
        return tuple(self.label(i) for i in range(len(self.vertices)))

    def centroid(self) -> Point:
        """The average of the vertices (rays ignored)."""
        m = len(self.vertices)
        return tuple(sum(p[j] for p in self.vertices) / m for j in range(self.d))


class Incidence:
    """The combinatorial data of one polyhedron, computed once and shared.

    `h` and `v` are two descriptions of the same polyhedron.  `masks[k]`
    has bit i set when vertex k is tight on row i, and `ray_masks[k]` when
    ray k is (a.r = 0).  `columns[i]` has bit k set when vertex k is tight
    on row i and bit nverts + k when ray k is, so the vertices and rays
    tight on a whole row set are one AND of columns.

    The derived data is computed the first time it is asked for and then
    kept: `facets` (by `facet_row_indices`), `facet_masks`, `dim` and
    `graph` (by `skeleton_graph`).  Build one with `dd.analyse(poly)` from
    either description, or with `incidence(h, v)` when both are known.
    """

    def __init__(
        self, h: HPolyhedron, v: VPolyhedron, masks: Sequence[int], ray_masks: Sequence[int]
    ):
        self.h = h
        self.v = v
        self.nrows = h.nrows
        self.masks = tuple(masks)
        self.ray_masks = tuple(ray_masks)
        self.nverts = len(self.masks)
        self.everything = (1 << (self.nverts + len(self.ray_masks))) - 1
        columns = [0] * self.nrows
        for k, m in enumerate(self.masks + self.ray_masks):
            while m:
                low = m & -m
                columns[low.bit_length() - 1] |= 1 << k
                m ^= low
        self.columns = tuple(columns)

    @cached_property
    def facets(self) -> tuple[int, ...]:
        """Indices of the facet rows, in increasing order."""
        return tuple(facet_row_indices(self))

    @cached_property
    def facet_masks(self) -> tuple[int, ...]:
        """Per vertex, a bitmask of its facets by position in `facets`."""
        return tuple(
            sum(1 << pos for pos, row in enumerate(self.facets) if m >> row & 1)
            for m in self.masks
        )

    @cached_property
    def dim(self) -> int:
        """Dimension of the affine hull of the polyhedron; -1 when it is empty.

        The affine hull of a nonempty polyhedron is cut out by its implicit
        equalities, the rows tight on all of it (Schrijver, *Theory of
        Linear and Integer Programming*, ch. 8).  A row is tight on all of
        conv(V) + cone(R) exactly when it is tight on every vertex and on
        every ray, that is when its column is `everything`; the linearity
        rows are among them.  So the dimension is d minus the rank of those
        rows' normals, and input without such a row needs no elimination.
        """
        if not self.nverts:
            return -1
        implicit = [
            self.h.rows[i][1] for i, col in enumerate(self.columns) if col == self.everything
        ]
        return self.h.d - len(_echelon(implicit)[0])

    @cached_property
    def graph(self) -> PolyGraph:
        """The skeleton graph: vertices and bounded edges."""
        return skeleton_graph(self)

    def vertices_on_row(self, i: int) -> list[int]:
        return list(_bits(self.columns[i] & (1 << self.nverts) - 1))

    def is_edge(self, u: int, w: int) -> bool:
        """Whether vertices u and w are the only vertices, and no ray is,
        tight on every row of T(u) & T(w)."""
        pair = 1 << u | 1 << w
        z = self.masks[u] & self.masks[w]
        return _tight_on_all(self.columns, z, self.everything, pair) == pair


def _tight_on_all(columns: Sequence[int], rows: int, among: int, floor: int) -> int:
    """The members of `among` whose bit is set in `columns[i]` for every row
    i of the bitset `rows`: one AND of the columns over `rows`.

    `floor` must be a subset of the answer (say, the pair whose common rows
    `rows` are); the AND stops as soon as it has shrunk to `floor`, since
    it can shrink no further.
    """
    while rows and among != floor:
        low = rows & -rows
        among &= columns[low.bit_length() - 1]
        rows ^= low
    return among


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class PolyGraph:
    """Simple undirected graph: node labels plus one neighbour bitset per node.

    Bit j of `adj[i]` is set when the nodes at positions i and j of `nodes`
    are adjacent.  Every BFS and search reads `adj`; `edges` is a derived
    view for printing and tests.
    """

    nodes: tuple
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node labels")
        if len(self.adj) != len(self.nodes):
            raise ValueError("one neighbour bitset per node required")
        for i, nbrs in enumerate(self.adj):
            if nbrs >> len(self.nodes):  # also true of a negative int
                raise ValueError("edge endpoint not a node")
            if nbrs >> i & 1:
                raise ValueError("loops not allowed")
            while nbrs:
                low = nbrs & -nbrs
                if not self.adj[low.bit_length() - 1] >> i & 1:
                    raise ValueError("adjacency must be symmetric")
                nbrs ^= low

    @classmethod
    def from_edges(cls, nodes: Iterable, edges: Iterable[tuple], **fields) -> "PolyGraph":
        """The graph on `nodes` whose edges are the given label pairs."""
        nodes = tuple(nodes)
        where = {label: i for i, label in enumerate(nodes)}
        adj = [0] * len(nodes)
        for u, v in edges:
            if u not in where or v not in where:
                raise ValueError("edge endpoint not a node")
            adj[where[u]] |= 1 << where[v]
            adj[where[v]] |= 1 << where[u]
        return cls(nodes, tuple(adj), **fields)

    @cached_property
    def edges(self) -> frozenset[tuple]:
        """The edges as label pairs, each pair sorted."""
        nodes = self.nodes
        return frozenset(
            tuple(sorted((nodes[i], nodes[j])))
            for i, nbrs in enumerate(self.adj)
            for j in _bits(nbrs)
            if j > i
        )


def incidence(h: HPolyhedron, v: VPolyhedron) -> Incidence:
    """The analysis object of the pair, with its exact tightness masks.

    Errors if some vertex violates a row.

    Rows, vertices (as (1, p)) and rays (as (0, r)) are scaled by positive
    factors to primitive integers, which keeps every sign, so each test is
    an integer dot product.
    """
    rows = [primitive((b, *a)) for b, a in h.rows]
    masks = []
    for k, p in enumerate(v.vertices):
        point = primitive((1, *p))
        m = 0
        for i, row in enumerate(rows):
            val = sum(map(mul, row, point))
            if val == 0:
                m |= 1 << i
            elif val < 0 or i in h.linearity:
                raise ValueError(
                    f"vertex {v.label(k)} violates row {i + 1}: H and V are inconsistent"
                )
        masks.append(m)
    ray_masks = []
    for r in v.rays:
        direction = primitive((0, *r))
        m = 0
        for i, row in enumerate(rows):
            if sum(map(mul, row, direction)) == 0:
                m |= 1 << i
        ray_masks.append(m)
    return Incidence(h, v, masks, ray_masks)


def _maximal(sets: Iterable[int]) -> list[int]:
    """The inclusion-maximal bitsets among `sets`, duplicates dropped.

    Checking each set only against the maximal ones already found is
    enough: a set below some larger set is also below a maximal one.
    """
    found: list[int] = []
    for s in sorted(set(sets), key=int.bit_count, reverse=True):
        if all(s & t != s for t in found):
            found.append(s)
    return found


def skeleton_graph(inc: Incidence) -> PolyGraph:
    """Graph of the polyhedron: vertices plus bounded edges.

    Edge test (`Incidence.is_edge`): the minimal face containing {u, v} is
    the set of points tight on T(u) & T(v); it is the segment uv exactly
    when its vertex set is {u, v} and no extreme ray is tight on all those
    rows.
    """
    n = inc.nverts
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if inc.is_edge(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return PolyGraph(inc.v.all_labels(), tuple(adj))


def facet_row_indices(inc: Incidence) -> list[int]:
    """Indices of irredundant, deduplicated facet rows.

    A row's face is the set of vertices and rays tight on it.  A row is
    facet-defining when that set holds a vertex (else the face is empty),
    is not everything (else the row is an implicit equality), and is
    inclusion-maximal among the rows' tight sets; this is exact for
    pointed polyhedra, where a face is determined by its tight set.  Rows
    with the same tight set define the same facet and are reported once,
    by the lowest row index.  This is the `n` of every Hirsch quantity;
    `inc.facets` keeps the answer.
    """
    vertex_bits = (1 << inc.nverts) - 1
    first: dict[int, int] = {}
    for i in inc.h.inequality_indices():
        s = inc.columns[i]
        if s & vertex_bits and s != inc.everything:
            first.setdefault(s, i)
    return sorted(first[s] for s in _maximal(first))


def dual_graph(inc: Incidence) -> PolyGraph:
    """Facet-adjacency graph: facets joined when they meet in a ridge.

    The ridges inside a facet F are the maximal faces F & G over the other
    facets G, so F and G are adjacent iff their common vertex set is
    inclusion-maximal among F's intersections with the other facets.  This
    needs no dimension, so lower-dimensional input works unchanged.  Only
    bounded polytopes: with rays the vertex-only test would be wrong.
    """
    if inc.v.rays:
        raise Unbounded("dual graph requires a bounded polytope")
    cols = [inc.columns[i] for i in inc.facets]
    adj = [0] * len(cols)
    for x, fx in enumerate(cols):
        meets: dict[int, int] = {}
        for y, fy in enumerate(cols):
            if y != x:
                meets[fx & fy] = meets.get(fx & fy, 0) | 1 << y
        for ridge in _maximal(meets):
            for y in _bits(meets[ridge]):
                if y > x:
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
    return PolyGraph(tuple(f"f{i + 1}" for i in inc.facets), tuple(adj))


def classify(inc: Incidence) -> tuple[bool, bool]:
    """(simple, simplicial) for a bounded polytope of dimension d.

    Simple: every vertex lies on exactly d facets.
    Simplicial: every facet has exactly d vertices.
    Here d is the dimension of the affine hull, so the answer does not
    change when the polytope is placed in a larger space.
    """
    if inc.v.rays:
        raise Unbounded("classification requires a bounded polytope")
    d = inc.dim
    simple = all(m.bit_count() == d for m in inc.facet_masks)
    simplicial = all(inc.columns[i].bit_count() == d for i in inc.facets)
    return simple, simplicial


def polar(v: VPolyhedron) -> tuple[HPolyhedron, Vector]:
    """Polar polytope of a full-dimensional bounded V-polytope.

    Translates by the negated vertex centroid so the origin is interior,
    then emits one row ``1 - p.x >= 0`` per translated vertex p.  Returns
    the H-description whose vertex set is the polar, and the translation
    that was applied to the input points.
    """
    if v.rays:
        raise Unbounded("polar requires a bounded polytope")
    span = [[x - y for x, y in zip(p, v.vertices[0])] for p in v.vertices[1:]]
    if not v.vertices or len(_echelon(span, v.d)[0]) != v.d:
        raise GeometryError("polar requires a full-dimensional polytope")
    shift = tuple(-c for c in v.centroid())
    rows = tuple(
        (Fraction(1), tuple(-(p[j] + shift[j]) for j in range(v.d)))
        for p in v.vertices
    )
    return HPolyhedron(v.d, rows), shift
