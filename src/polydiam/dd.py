"""Exact conversion between H- and V-descriptions via double description.

Both directions run on a homogenization cone with primitive-integer
arithmetic throughout:

* H -> V: the polyhedron {x : b + a.x >= 0} lifts to the pointed cone
  {(t, x) : t >= 0, b t + a.x >= 0}; extreme rays with t > 0 are vertices,
  rays with t = 0 are extreme directions.  Equality rows are eliminated
  first by exact substitution, so the cone step only ever sees
  inequalities.
* V -> H: the facet inequalities (b, a) of conv(V) + cone(R) form the cone
  {(b, a) : b + a.v >= 0 for all vertices, a.r >= 0 for all rays}; its
  extreme rays with a nonzero linear part are exactly the facet rows when
  the input is full-dimensional.  Lower-dimensional input is projected onto
  the free coordinates of its affine hull first and the facets lifted back.

Ray insertion order is deterministic (rows sorted lexicographically after
canonical scaling) and ray adjacency uses the combinatorial zero-set test
of Fukuda & Prodon, *Double description method revisited* (1996), which
is correct for degenerate inputs where a rank shortcut is not.  It runs on
column bitsets: per processed row, the set of rays tight on it, so "which
rays are tight on all of z" is one AND of |z| big integers rather than a
scan over every ray.  A short rank of the cone rows (a line in the input)
surfaces there too, as `NotPointed`, with no separate rank test.

`analyse` is the one way from a description, H or V, to its `Incidence`:
it converts once and pairs the input with its converse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .polyhedron import (
    HPolyhedron,
    Incidence,
    Infeasible,
    NotPointed,
    Row,
    VPolyhedron,
    _tight_on_all,
    canonical_equality_row,
    canonical_row,
    incidence,
)
from .ratlin import Vector, _echelon, dot, nullspace, primitive


def _cone_extreme_rays(rows: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {y : r.y >= 0 for r in rows}.

    `rows` must be primitive integer vectors whose rank is `dim` (else
    NotPointed); they are deduplicated and processed in sorted order.
    Returns primitive integer rays; returns [] when the cone is the origin
    alone.

    Adjacency is the combinatorial test of Fukuda & Prodon, *Double
    description method revisited* (1996): a positive ray p and a negative
    ray q of a step are adjacent exactly when no third ray present before
    the step is tight on every row of z = Z(p) & Z(q), their common zero
    set.  Each ray keeps one id for its whole life, and `columns[i]` holds
    the ids of the rays tight on processed row i, so the rays tight on all
    of z are one AND of |z| columns, masked by `alive`, the ids present
    before the step; the pair is adjacent when that AND is {p, q}.  Ids of
    removed rays stay in the columns; `alive` hides them.
    """
    rows = sorted(set(rows))
    # Greedy initial basis B in insertion order; the columns of B^-1 are the
    # extreme rays of the simplicial start cone.  Fewer than `dim`
    # independent rows means the rank is short: the cone holds a line.
    basis_idx, _ = _echelon(rows, dim)
    if len(basis_idx) < dim:
        raise NotPointed("cone has a nonzero lineality space")
    # [B | I] reduces to [I | B^-1] with row i scaled by reduced[i][i]; at
    # the common multiple `scale`, each right-half column is a positive
    # multiple of a column of B^-1.
    unit = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    _, reduced = _echelon([rows[k] + unit[i] for i, k in enumerate(basis_idx)])
    scale = lcm(*(reduced[i][i] for i in range(dim)))
    rays = [
        primitive([reduced[i][dim + j] * (scale // reduced[i][i]) for i in range(dim)])
        for j in range(dim)
    ]
    # Ray j has id j and is tight on every basis row but row j, so the
    # start columns equal the start masks; zero-set bitmasks are indexed by
    # processed-row position.
    ids = list(range(dim))
    alive = (1 << dim) - 1
    masks = [alive ^ 1 << j for j in range(dim)]
    columns = masks[:]
    next_id = dim

    chosen = set(basis_idx)
    for row in (row for i, row in enumerate(rows) if i not in chosen):
        bit = 1 << len(columns)
        vals = [dot(row, r) for r in rays]
        pos = [k for k, v in enumerate(vals) if v > 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        column = 0
        for k in zero:
            masks[k] |= bit
            column |= 1 << ids[k]
        columns.append(column)
        if not neg:
            continue

        new_rays: list[tuple[int, ...]] = []
        new_masks: list[int] = []
        for p in pos:
            for q in neg:
                z = masks[p] & masks[q]
                if z.bit_count() < dim - 2:
                    continue
                pair = 1 << ids[p] | 1 << ids[q]
                if _tight_on_all(columns, z, alive, pair) != pair:
                    continue  # not adjacent: some third ray is tight on z
                combo = tuple(
                    vals[p] * rays[q][i] - vals[q] * rays[p][i]
                    for i in range(dim)
                )
                new_rays.append(primitive(combo))
                new_masks.append(z | bit)

        new_ids = list(range(next_id, next_id + len(new_rays)))
        next_id += len(new_rays)
        for m, i in zip(new_masks, new_ids):
            while m:
                low = m & -m
                columns[low.bit_length() - 1] |= 1 << i
                m ^= low
        for q in neg:
            alive ^= 1 << ids[q]
        for i in new_ids:
            alive |= 1 << i
        keep = pos + zero
        rays = [rays[k] for k in keep] + new_rays
        masks = [masks[k] for k in keep] + new_masks
        ids = [ids[k] for k in keep] + new_ids
    return rays


def _eliminate_equalities(
    h: HPolyhedron,
) -> tuple[Vector, list[Vector], list[Row]] | None:
    """Solve the linearity rows exactly.

    Returns (particular point, nullspace basis, reduced inequality rows) or
    None when the equality system is inconsistent.  Without equalities this
    is the identity parametrization.
    """
    d = h.d
    if not h.linearity:
        x0 = tuple(Fraction(0) for _ in range(d))
        basis = [
            tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)
        ]
        return x0, basis, [h.rows[i] for i in h.inequality_indices()]

    # One pass over the homogenized rows (a | b): null vectors (x, 1) are the
    # solutions of b + a.x = 0, and the non-pivot column d carries the
    # particular one; a pivot at d means the system is inconsistent.
    kernel = nullspace((*h.rows[i][1], h.rows[i][0]) for i in sorted(h.linearity))
    if not kernel or kernel[-1][d] == 0:
        return None
    x0 = kernel[-1][:d]
    basis = [n[:d] for n in kernel[:-1]]
    reduced = []
    for i in h.inequality_indices():
        b, a = h.rows[i]
        b2 = b + dot(a, x0)
        a2 = tuple(dot(a, n) for n in basis)
        reduced.append((b2, a2))
    return x0, basis, reduced


def hrep_to_vrep(h: HPolyhedron) -> VPolyhedron:
    """All vertices and one representative per extreme ray, exactly.

    Empty output signals infeasibility.  Raises NotPointed when the
    feasible set contains a line (it then has no vertices at all).
    """
    elim = _eliminate_equalities(h)
    if elim is None:
        return VPolyhedron(h.d, (), ())
    x0, basis, reduced = elim
    k = len(basis)

    if k == 0:
        feasible = all(b >= 0 for b, _ in reduced)
        return VPolyhedron(h.d, (x0,) if feasible else (), ())

    # The cone rows span e0 and every (0, a), so their rank is 1 + rank{a}:
    # the cone is pointed exactly when the feasible set holds no line.
    cone_rows = {primitive((1,) + (0,) * k)}
    for b, a in reduced:
        cone_rows.add(primitive((b, *a)))
    try:
        rays = _cone_extreme_rays(sorted(cone_rows), k + 1)
    except NotPointed:
        raise NotPointed("feasible set contains a line: no vertices exist") from None

    # Without equality rows the parametrization is the identity, and the
    # cone coordinates are already ambient ones.
    identity = not h.linearity
    verts: list[Vector] = []
    dirs: list[Vector] = []
    for ray in rays:
        t, y = ray[0], ray[1:]
        if t > 0:
            red = tuple(Fraction(c, t) for c in y)
            verts.append(
                red if identity else tuple(
                    x0[j] + sum(red[i] * basis[i][j] for i in range(k))
                    for j in range(h.d)
                )
            )
        else:
            amb = y if identity else tuple(
                sum(y[i] * basis[i][j] for i in range(k)) for j in range(h.d)
            )
            dirs.append(tuple(Fraction(z) for z in primitive(amb)))
    if not verts:
        return VPolyhedron(h.d, (), ())  # pointed and vertex-free: infeasible
    return VPolyhedron(h.d, tuple(sorted(verts)), tuple(sorted(dirs)))


@dataclass(frozen=True)
class AffineMap:
    """x = offset + matrix . y, mapping reduced coordinates back to ambient."""

    offset: Vector
    columns: tuple[Vector, ...]  # one ambient vector per reduced coordinate

    def apply(self, y: Vector) -> Vector:
        return tuple(
            self.offset[j] + sum(c * col[j] for c, col in zip(y, self.columns))
            for j in range(len(self.offset))
        )


def _affine_hull(h: HPolyhedron) -> tuple[Vector, list[Vector]]:
    """A point of the polyhedron and a direction basis of its affine hull.

    Works for non-pointed input by first slicing away the lineality space
    (adding u.x = 0 for a lineality basis u keeps the set nonempty and cuts
    its dimension by exactly the lineality dimension).
    """
    lin_dirs = nullspace([a for _, a in h.rows])
    if lin_dirs:
        extra = tuple((Fraction(0), u) for u in lin_dirs)
        sliced = HPolyhedron(
            h.d,
            h.rows + extra,
            h.linearity | frozenset(range(h.nrows, h.nrows + len(extra))),
        )
        v = hrep_to_vrep(sliced)
    else:
        v = hrep_to_vrep(h)
    if not v.vertices:
        raise Infeasible("infeasible")
    p0 = v.vertices[0]
    span = [tuple(x - y for x, y in zip(p, p0)) for p in v.vertices[1:]]
    span += [tuple(r) for r in v.rays]
    span += [tuple(u) for u in lin_dirs]
    return p0, [tuple(Fraction(x) for x in span[i]) for i in _echelon(span)[0]]


def reduce_to_full_dim(h: HPolyhedron) -> tuple[HPolyhedron, AffineMap]:
    """Rewrite `h` in coordinates of its own affine hull.

    The reduced polyhedron is full-dimensional; the returned map
    reconstructs ambient points exactly.  Rows that become identically
    satisfied (equalities of the hull, constant-true inequalities) are
    dropped.
    """
    x0, basis = _affine_hull(h)
    k = len(basis)
    if k == h.d:
        identity = AffineMap(
            tuple(Fraction(0) for _ in range(h.d)),
            tuple(
                tuple(Fraction(int(i == j)) for j in range(h.d)) for i in range(h.d)
            ),
        )
        if not h.linearity:
            return h, identity
        kept = tuple(h.rows[i] for i in h.inequality_indices())
        return HPolyhedron(h.d, kept), identity
    back = AffineMap(x0, tuple(basis))
    rows: list[Row] = []
    for i in h.inequality_indices():
        b, a = h.rows[i]
        b2 = b + dot(a, x0)
        a2 = tuple(dot(a, n) for n in basis)
        if all(x == 0 for x in a2):
            continue  # constant on the hull; feasibility makes it vacuous
        rows.append((b2, a2))
    return HPolyhedron(k, tuple(rows)), back


def _vrep_to_hrep_fulldim(v: VPolyhedron) -> HPolyhedron:
    cone_rows = set()
    for p in v.vertices:
        cone_rows.add(primitive((1, *p)))
    for r in v.rays:
        cone_rows.add(primitive((0, *r)))
    rays = _cone_extreme_rays(sorted(cone_rows), v.d + 1)
    rows = []
    for ray in rays:
        b, a = ray[0], ray[1:]
        if all(x == 0 for x in a):
            continue  # the artifact row "1 >= 0" of unbounded input
        rows.append(canonical_row((Fraction(b), tuple(Fraction(x) for x in a))))
    return HPolyhedron(v.d, tuple(sorted(rows)))


def vrep_to_hrep(v: VPolyhedron) -> HPolyhedron:
    """Irredundant inequality description of conv(vertices) + cone(rays).

    Facet rows come out canonically scaled (primitive integers) and sorted.
    Lower-dimensional input additionally gets linearity rows cutting out its
    affine hull.
    """
    if not v.vertices:
        raise ValueError("V-representation needs at least one vertex")
    p0 = v.vertices[0]
    span = [[x - y for x, y in zip(p, p0)] for p in v.vertices[1:]]
    span += [list(r) for r in v.rays]
    normals = nullspace(span or [[0] * v.d])  # a single point: every e_i
    if not normals:
        return _vrep_to_hrep_fulldim(v)

    # Affine hull equations e.x = e.p0, one per normal direction.
    eq_rows = [
        canonical_equality_row((-dot(e, p0), tuple(e))) for e in normals
    ]
    pivots = _echelon(a for _, a in eq_rows)[1]
    free = [c for c in range(v.d) if c not in pivots]
    if not free:
        return HPolyhedron(v.d, tuple(sorted(eq_rows)), frozenset(range(len(eq_rows))))

    proj = VPolyhedron(
        len(free),
        tuple(tuple(p[j] for j in free) for p in v.vertices),
        tuple(tuple(r[j] for j in free) for r in v.rays),
    )
    reduced = _vrep_to_hrep_fulldim(proj)
    lifted: list[Row] = []
    for b, a in reduced.rows:
        amb = [Fraction(0)] * v.d
        for coef, j in zip(a, free):
            amb[j] = coef
        lifted.append((b, tuple(amb)))
    all_rows = tuple(sorted(eq_rows)) + tuple(sorted(lifted))
    return HPolyhedron(v.d, all_rows, frozenset(range(len(eq_rows))))


def analyse(poly: HPolyhedron | VPolyhedron) -> Incidence:
    """The `Incidence` of a polyhedron given by either description.

    The other description is computed by one conversion.  The vertices of a
    V-description keep their order and labels, so v0, v1, ... name the same
    points for every caller.  A listed point that is not a vertex is
    dropped, the others keeping their labels: point k is a vertex exactly
    when no other point and no ray is tight on every row it is.  No vertex
    at all means the set holds a line.
    """
    if isinstance(poly, HPolyhedron):
        return incidence(poly, hrep_to_vrep(poly))
    inc = incidence(vrep_to_hrep(poly), poly)
    keep = [
        k for k, m in enumerate(inc.masks)
        if _tight_on_all(inc.columns, m, inc.everything, 1 << k) == 1 << k
    ]
    if len(keep) == inc.nverts:
        return inc
    if not keep:  # a pointed polyhedron has a vertex among its points
        raise NotPointed("feasible set contains a line: no vertices exist")
    points = [poly.vertices[k] for k in keep]
    return incidence(inc.h, VPolyhedron.from_points(points, poly.rays, map(poly.label, keep)))
