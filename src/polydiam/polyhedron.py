"""H- and V-representations, their incidence, and the combinatorial face tests.

An `HPolyhedron` is a list of closed half-spaces ``b + a.x >= 0`` (rows),
optionally with some rows marked as equalities ("linearity").  A
`VPolyhedron` is a list of vertices plus extreme-ray directions, kept as
primitive homogeneous integer rows (t, y) for the point y / t and (0, r)
for the ray r; its `Fraction` vertices are built only when read, since
the graph and the counts never need them.  Rays are empty exactly when
the polyhedron is bounded.  `Incidence` records which vertex and which
ray is tight on which row, as one bitset per row handed over by the one
conversion that `dd.analyse` runs; every graph and classification
question in this package is answered from that tightness data, never
from floating point.  The one rank taken here is of the implicit
equalities behind `Incidence.dim` (usual input has none), by
`ratlin._echelon`; those rows are the polyhedron's affine hull, and
`polar` and the operators of `constructions` read the hull from them.

For a pointed polyhedron P every nonempty face is conv + cone of the
vertices and rays tight on it, so a face is determined by its tight set
and one face lies in another exactly when its tight set does.  Hence:

* Facets (`facet_row_indices`): an H-description holds a row for every
  facet, and every proper face lies in a facet, so the facets are exactly
  the inclusion-maximal tight sets among the rows whose tight set is
  nonempty and not all of P.
* Edges (`skeleton_graph`, `_simple_neighbours`): every nonempty face of
  a pointed polyhedron is the intersection of the facets that contain it,
  so an edge is one AND of facet columns, with no other row read (a row
  tight on both ends that defines no facet contains their face and cuts
  nothing more); that test stays right on degenerate input where a rank
  shortcut would lie.  The simple vertices pair up by shared facet sets
  first, so most edges take no AND at all.
* Ridges (`dual_graph`): the facets of a facet F are the maximal faces
  F & G over the other facets G, so two facets are adjacent exactly when
  their common vertex set is inclusion-maximal among F's intersections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
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

    def value(self, i: int, x: Sequence) -> Fraction:
        b, a = self.rows[i]
        return b + dot(a, x)


@dataclass(frozen=True, init=False)
class VPolyhedron:
    """Vertex + ray description, kept as primitive homogeneous integers.

    `rows` lists the vertices and then the rays, as a V-file does: the
    vertex y / t is the row (t, *y) with t > 0, the ray r is the row
    (0, *r), and every row is scaled to primitive integers, so a point or a
    direction has exactly one row.  `nverts` counts the vertex rows.
    Equality and hashing read `rows`.  `vertices` and `rays` are the
    `Fraction` views, built when first read; `rays` is empty iff the
    polyhedron is bounded.

    The constructor takes rational points and rays, as `from_points` does
    with d read off the first point; `_of_rows` takes the integer rows,
    which the double description and the V-file reader already hold.
    `labels` optionally names the vertices (defaults to v0, v1, ...); the
    Klee-Walkup data uses the letters a..h, w.
    """

    d: int
    rows: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __init__(self, d: int, vertices=(), rays=(), labels=None) -> None:
        rows = tuple(primitive((1, *p)) for p in vertices)
        self._store(d, rows + tuple(primitive((0, *r)) for r in rays), labels)

    @classmethod
    def _of_rows(cls, d: int, rows: tuple[tuple[int, ...], ...], labels=None) -> "VPolyhedron":
        v = cls.__new__(cls)
        v._store(d, rows, labels)
        return v

    def _store(self, d: int, rows: tuple[tuple[int, ...], ...], labels) -> None:
        if any(len(row) != d + 1 for row in rows):
            raise ValueError("every row needs d + 1 entries")
        nverts = next((k for k, row in enumerate(rows) if row[0] <= 0), len(rows))
        for row in rows[nverts:]:
            if row[0]:
                raise ValueError("each row is a vertex (t > 0) or a ray (t = 0), vertices first")
            if not any(row):
                raise ValueError("rays must be nonzero")
        if any(gcd(*row) != 1 for row in rows):
            raise ValueError("rows must be primitive integer vectors")
        if len(set(rows)) != len(rows):
            if len(set(rows[:nverts])) != nverts:
                raise ValueError("vertices must be pairwise distinct")
            raise ValueError("ray directions must be pairwise non-parallel")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != nverts:
                raise ValueError("one label per vertex required")
        for name, value in (("d", d), ("rows", rows), ("labels", labels), ("nverts", nverts)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_points(cls, points: Iterable[Sequence], rays=(), labels=None) -> "VPolyhedron":
        points, rays = tuple(points), tuple(rays)
        d = len(points[0]) if points else (len(rays[0]) if rays else 0)
        return cls(d, points, rays, labels)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        """The point y / t of each vertex row (t, *y), as `Fraction`s."""
        return tuple(_point(row) for row in self.rows[: self.nverts])

    @cached_property
    def rays(self) -> tuple[Vector, ...]:
        """The direction r of each ray row (0, *r), as `Fraction`s."""
        return tuple(tuple(map(Fraction, row[1:])) for row in self.rows[self.nverts:])

    @property
    def bounded(self) -> bool:
        return self.nverts == len(self.rows)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else f"v{i}"

    def all_labels(self) -> tuple[str, ...]:
        return self._all_labels

    @cached_property
    def _all_labels(self) -> tuple[str, ...]:
        """`all_labels`, built on first read and then kept."""
        if self.labels is not None:
            return self.labels
        return tuple([f"v{i}" for i in range(self.nverts)])

    def centroid(self) -> Point:
        """The average of the vertices (rays ignored)."""
        m = self.nverts
        return tuple(sum(p[j] for p in self.vertices) / m for j in range(self.d))


def _point(row: Sequence[int]) -> Point:
    """The point y / t of the homogeneous row (t, *y), t > 0."""
    t = row[0]
    if t == 1:
        return tuple(map(Fraction, row[1:]))
    return tuple(Fraction(c, t) for c in row[1:])


class Incidence:
    """The combinatorial data of one polyhedron, computed once and shared.

    `h` and `v` are two descriptions of the same polyhedron.  `columns[i]`
    has bit k set when vertex k is tight on row i and bit nverts + k when
    ray k is (a.r = 0), so the vertices and rays tight on a whole row set
    are one AND of columns.  Each conversion of `dd.analyse` already holds
    them and hands them over.  The rest is computed when first asked for
    and then kept: `masks` (per vertex, the rows tight on it: one transpose
    of `columns`, which the closed-form wedge and truncation of
    `constructions` read; no graph question does), `facets`,
    `facet_masks` (which every per-vertex facet question reads),
    `implicit`, `dim` and `graph`.
    """

    def __init__(self, h: HPolyhedron, v: VPolyhedron, columns: Sequence[int]):
        self.h = h
        self.v = v
        self.columns = tuple(columns)
        self.nverts = v.nverts
        self.everything = (1 << len(v.rows)) - 1

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(_transpose(self.columns, len(self.v.rows))[: self.nverts])

    @cached_property
    def facets(self) -> tuple[int, ...]:
        """Indices of the facet rows, in increasing order."""
        return tuple(facet_row_indices(self))

    @cached_property
    def facet_masks(self) -> tuple[int, ...]:
        """Per vertex, a bitmask of its facets by position in `facets`."""
        vertex_bits = (1 << self.nverts) - 1
        return tuple(_transpose([self.columns[i] & vertex_bits for i in self.facets], self.nverts))

    @cached_property
    def implicit(self) -> tuple[int, ...]:
        """Indices of the implicit equalities, the rows tight on all of the
        polyhedron: a row is tight on all of conv(V) + cone(R) exactly when
        it is tight on every vertex and on every ray, that is when its
        column is `everything`.  The linearity rows are among them, and a
        nonempty polyhedron's affine hull is the set where they all hold
        (Schrijver, *Theory of Linear and Integer Programming*, ch. 8)."""
        return tuple(i for i, col in enumerate(self.columns) if col == self.everything)

    @cached_property
    def dim(self) -> int:
        """Dimension of the affine hull of the polyhedron; -1 when it is empty.

        The hull is cut out by the `implicit` rows, so the dimension is d
        minus the rank of their normals, and input without such a row needs
        no elimination.
        """
        if not self.nverts:
            return -1
        return self.h.d - len(_echelon(self.h.rows[i][1] for i in self.implicit)[0])

    @cached_property
    def graph(self) -> PolyGraph:
        """The skeleton graph: vertices and bounded edges."""
        return skeleton_graph(self)

    def vertices_on_row(self, i: int) -> list[int]:
        return list(_bits(self.columns[i] & (1 << self.nverts) - 1))


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


def _transpose(sets: Sequence[int], width: int) -> list[int]:
    """The transposed bit matrix: bit k of `out[i]` is bit i of `sets[k]`,
    for i below `width`, which must exceed every set bit (else ValueError).
    The loops run in C, over the sets written as `width`-digit strings."""
    if max(sets, default=0) >> width:
        raise ValueError(f"a set has a bit at or above width {width}")
    if not (sets and width):
        return [0] * width
    columns = zip(*map(f"{{:0{width}b}}".format, reversed(sets)))
    return [int("".join(c), 2) for c in columns][::-1]


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class PolyGraph:
    """Simple undirected graph: node labels plus one neighbour tuple per node.

    `nbrs[i]` lists the positions in `nodes` of node i's neighbours, in
    ascending order.  Two views are built on first read and kept: `adj`,
    one neighbour bitset per node, which the BFS layers and the searches
    read, and `edges`, the label pairs, for printing and tests."""

    nodes: tuple
    nbrs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if len(set(self.nodes)) != n:
            raise ValueError("duplicate node labels")
        if len(self.nbrs) != n:
            raise ValueError("one neighbour tuple per node required")
        # back[j]: the nodes that list j, ascending; back == nbrs iff symmetric and ascending
        back: list[list[int]] = [[] for _ in range(n)]
        try:
            for i, ns in enumerate(self.nbrs):
                for j in ns:
                    seen = back[j]
                    if seen and seen[-1] == i:
                        raise ValueError("a neighbour is listed twice")
                    seen.append(i)
        except IndexError:
            raise ValueError("edge endpoint not a node") from None
        if any(i in ns for i, ns in enumerate(self.nbrs)):
            raise ValueError("loops not allowed")
        if tuple(map(tuple, back)) != tuple(self.nbrs):
            if any(j < 0 for ns in self.nbrs for j in ns):  # back[j] wrapped round
                raise ValueError("edge endpoint not a node")
            raise ValueError("adjacency must be symmetric, each tuple in ascending order")

    @classmethod
    def from_edges(cls, nodes: Iterable, edges: Iterable[tuple], **fields) -> "PolyGraph":
        """The graph on `nodes` whose edges are the given label pairs."""
        nodes = tuple(nodes)
        where = {label: i for i, label in enumerate(nodes)}
        nbrs: list[set[int]] = [set() for _ in nodes]
        for u, v in edges:
            if u not in where or v not in where:
                raise ValueError("edge endpoint not a node")
            nbrs[where[u]].add(where[v])
            nbrs[where[v]].add(where[u])
        return cls(nodes, tuple(map(tuple, map(sorted, nbrs))), **fields)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """One neighbour bitset per node: bit j of `adj[i]` is set when j is in `nbrs[i]`."""
        out = []
        for ns in self.nbrs:
            bits = 0
            for j in ns:
                bits |= 1 << j
            out.append(bits)
        return tuple(out)

    @cached_property
    def edges(self) -> frozenset[tuple]:
        """The edges as label pairs, each pair sorted."""
        nodes = self.nodes
        return frozenset(tuple(sorted((nodes[i], nodes[j])))
                         for i, ns in enumerate(self.nbrs) for j in ns if j > i)


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

    A vertex u on exactly `inc.dim` facets (`inc.facet_masks`) is simple,
    and the vertex figure of a simple vertex is a simplex (Ziegler,
    *Lectures on Polytopes*, §3), so each facet f of u leaves one
    1-dimensional face: the face tight on the key `fm ^ f`, the other
    dim - 1 facets of u.  That face is an edge or a ray, so it holds at
    most two vertices, and a second simple vertex with the same key is u's
    neighbour: one dict probe per (simple vertex, facet).  Only a key left
    unpaired runs one AND of its facet columns, which is u and its
    non-simple neighbour, or holds a ray bit when the edge is unbounded.
    A pair u, w of non-simple vertices runs the same AND on the facets
    they share, the smallest face holding both, and is an edge when that
    face is u and w alone; an edge lies on at least dim - 1 facets, so the
    pair runs it only when their facet masks share that many.  Rows tight
    at u that define no facet (redundant rows, scaled duplicates) play no
    part.
    """
    n, dim, fms = inc.nverts, inc.dim, inc.facet_masks
    nbrs: list[list[int]] = [[] for _ in range(n)]
    other = []  # the non-simple vertices
    ends: dict[int, int] = {}  # a key whose face has one simple vertex so far
    for u, fm in enumerate(fms):
        if fm.bit_count() != dim:
            other.append(u)
            continue
        rest = fm
        while rest:
            low = rest & -rest
            rest ^= low
            key = fm ^ low
            w = ends.pop(key, None)
            if w is None:
                ends[key] = u
            else:
                nbrs[u].append(w)
                nbrs[w].append(u)
    columns = [inc.columns[i] for i in inc.facets]
    for key, u in ends.items():
        face = _tight_on_all(columns, key, inc.everything, 1 << u)
        if not face >> n:
            for w in _bits(face & ~(1 << u)):
                nbrs[u].append(w)
                nbrs[w].append(u)
    for x, u in enumerate(other):
        fu = fms[u]
        for w in other[x + 1:]:
            shared = fu & fms[w]
            if shared.bit_count() >= dim - 1:
                pair = 1 << u | 1 << w
                if _tight_on_all(columns, shared, inc.everything, pair) == pair:
                    nbrs[u].append(w)
                    nbrs[w].append(u)
    return PolyGraph(inc.v.all_labels(), tuple(map(tuple, map(sorted, nbrs))))


def _simple_neighbours(inc: Incidence, u: int) -> int:
    """The bounded-edge neighbours of the simple vertex u, as one bitset:
    per facet f of u, the AND of the facet columns on the key `fm ^ f`, its
    other facets, as `skeleton_graph` runs on an unpaired key, is u and one
    neighbour, or it holds a ray bit (bit `nverts` and up) and the edge is
    unbounded."""
    fm = inc.facet_masks[u]
    columns = [inc.columns[i] for i in inc.facets]
    found = 0
    for f in _bits(fm):
        face = _tight_on_all(columns, fm ^ 1 << f, inc.everything, 1 << u)
        if not face >> inc.nverts:
            found |= face
    return found & ~(1 << u)


def facet_row_indices(inc: Incidence) -> list[int]:
    """Indices of irredundant, deduplicated facet rows.

    A row's face is the set of vertices and rays tight on it.  A row is
    facet-defining when that set holds a vertex (else the face is empty),
    is not everything (else the row is an implicit equality, as every
    linearity row is), and is inclusion-maximal among the rows' tight
    sets; this is exact for pointed polyhedra, where a face is determined
    by its tight set.  Rows
    with the same tight set define the same facet and are reported once,
    by the lowest row index.  This is the `n` of every Hirsch quantity;
    `inc.facets` keeps the answer.
    """
    vertex_bits = (1 << inc.nverts) - 1
    first: dict[int, int] = {}
    for i, s in enumerate(inc.columns):
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
    if not inc.v.bounded:
        raise Unbounded("dual graph requires a bounded polytope")
    cols = [inc.columns[i] for i in inc.facets]
    nbrs: list[list[int]] = [[] for _ in cols]
    for x, fx in enumerate(cols):
        meets: dict[int, int] = {}
        for y, fy in enumerate(cols):
            if y != x:
                meets[fx & fy] = meets.get(fx & fy, 0) | 1 << y
        for ridge in _maximal(meets):
            for y in _bits(meets[ridge]):
                if y > x:
                    nbrs[x].append(y)
                    nbrs[y].append(x)
    return PolyGraph(tuple(f"f{i + 1}" for i in inc.facets), tuple(map(tuple, map(sorted, nbrs))))


def classify(inc: Incidence) -> tuple[bool, bool]:
    """(simple, simplicial) for a bounded polytope of dimension d.

    Simple: every vertex lies on exactly d facets.
    Simplicial: every facet has exactly d vertices.
    Here d is the dimension of the affine hull, so the answer does not
    change when the polytope is placed in a larger space.
    """
    if not inc.v.bounded:
        raise Unbounded("classification requires a bounded polytope")
    d = inc.dim
    simple = all(m.bit_count() == d for m in inc.facet_masks)
    simplicial = all(inc.columns[i].bit_count() == d for i in inc.facets)
    return simple, simplicial


def polar(inc: Incidence) -> tuple[HPolyhedron, Vector]:
    """Polar polytope of a bounded polytope, taken inside its affine hull.

    Translates by the negated vertex centroid so the origin is interior to
    the polytope within its hull, then emits one row ``1 - p.x >= 0`` per
    translated vertex p.  Each implicit equality b + a.x = 0 of `inc.h`
    holds at the centroid, so it reads a.x = 0 after the translation and is
    kept as the linearity row ``(0, a)``: the polar lives in the same
    subspace.  Full-dimensional input has no such row.  Returns the
    H-description whose vertex set is the polar, and the translation that
    was applied to the input points.
    """
    v = inc.v
    if not v.nverts:
        raise Infeasible("infeasible")
    if not v.bounded:
        raise Unbounded("polar requires a bounded polytope")
    shift = tuple(-c for c in v.centroid())
    rows = tuple(
        (Fraction(1), tuple(-(p[j] + shift[j]) for j in range(v.d)))
        for p in v.vertices
    ) + tuple((Fraction(0), inc.h.rows[i][1]) for i in inc.implicit)
    return HPolyhedron(v.d, rows, frozenset(range(v.nverts, len(rows)))), shift
