"""Polytope generators and constructive operators.

Canonical families (simplex, cube, cross-polytope, polygons), Cartesian
products, the wedge over a facet, vertex truncation, the Klee-Walkup
4-polytope with nine facets and diameter five, projective unbounding of a
facet, transportation polytopes, random 0/1 polytopes, and the
diameter-sharp generators that tie them together.

Every generator is deterministic; the one randomized generator takes an
explicit seed and feeds a fixed PRNG (`random.Random`, the Mersenne
Twister).  A `ConstructionRecipe` records how an output was produced and
can be replayed to the identical description.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .dd import analyse, reduce_to_full_dim, vrep_to_hrep
from .paths import diameter
from .polyhedron import (
    GeometryError,
    HPolyhedron,
    Incidence,
    Infeasible,
    Row,
    Unbounded,
    VPolyhedron,
    canonical_row,
)
from .ratlin import Vector, _echelon, dot, nullspace

# Klee-Walkup coordinates: nine points whose convex hull is a simplicial
# 4-polytope; the inequalities point.x <= 1 cut out its simple polar, a
# 4-polytope with nine facets and graph diameter five.
KLEE_WALKUP_POINTS: dict[str, tuple[int, int, int, int]] = {
    "a": (-3, 3, 1, 2),
    "b": (3, -3, 1, 2),
    "c": (2, -1, 1, 3),
    "d": (-2, 1, 1, 3),
    "e": (3, 3, -1, 2),
    "f": (-3, -3, -1, 2),
    "g": (-1, -2, -1, 3),
    "h": (1, 2, -1, 3),
    "w": (0, 0, 0, -2),
}


def simplex(d: int) -> HPolyhedron:
    """Standard d-simplex: x >= 0 and sum(x) <= 1; d+1 facets."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rows = []
    for i in range(d):
        a = [0] * d
        a[i] = 1
        rows.append((0, *a))
    rows.append((1, *([-1] * d)))
    return HPolyhedron.from_rows(d, rows)


def cube(d: int) -> HPolyhedron:
    """The +-1 cube: 2d facets, diameter d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rows = []
    for i in range(d):
        a = [0] * d
        a[i] = 1
        rows.append((1, *a))
    for i in range(d):
        a = [0] * d
        a[i] = -1
        rows.append((1, *a))
    return HPolyhedron.from_rows(d, rows)


def crosspolytope(d: int) -> HPolyhedron:
    """Convex hull of +-e_i, described by its 2^d facet inequalities."""
    if d < 1:
        raise ValueError("d must be >= 1")
    pts = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        pts.append(tuple(e))
        pts.append(tuple(-x for x in e))
    return vrep_to_hrep(VPolyhedron.from_points(pts))


def generate_canonical(kind: str, d: int) -> HPolyhedron:
    makers = {"simplex": simplex, "cube": cube, "crosspolytope": crosspolytope}
    if kind not in makers:
        raise ValueError(f"unknown canonical kind {kind!r}")
    return makers[kind](d)


def ngon(n: int) -> HPolyhedron:
    """A convex n-gon with rational vertices on the unit circle.

    Uses the Pythagorean parametrization t -> ((1-t^2), 2t) / (1+t^2) at
    t = 0..n-1; any n distinct circle points are in convex position, so the
    graph is the n-cycle with diameter floor(n/2).
    """
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    pts = []
    for k in range(n):
        t = Fraction(k)
        den = 1 + t * t
        pts.append(((1 - t * t) / den, 2 * t / den))
    return vrep_to_hrep(VPolyhedron.from_points(pts))


def product(p: HPolyhedron, q: HPolyhedron) -> HPolyhedron:
    """Cartesian product by block-diagonal stacking of the two row systems.

    Dimension, facet count, and diameter are all additive for bounded
    full-dimensional operands.
    """
    if p.linearity or q.linearity:
        raise ValueError("product expects inequality-only descriptions")
    d = p.d + q.d
    rows: list[Row] = []
    zeros_q = tuple(Fraction(0) for _ in range(q.d))
    zeros_p = tuple(Fraction(0) for _ in range(p.d))
    for b, a in p.rows:
        rows.append((b, tuple(a) + zeros_q))
    for b, a in q.rows:
        rows.append((b, zeros_p + tuple(a)))
    return HPolyhedron(d, tuple(rows))


def wedge(poly: Incidence | HPolyhedron, k: int) -> HPolyhedron:
    """Wedge over facet row k (0-based): one dimension and one facet more.

    `poly` is the `Incidence` of the base polytope, or an H-description,
    which `analyse` turns into one first.  In coordinates (x, t): every
    other row keeps coefficient 0 on t, a new row t >= 0 is appended, and
    row k becomes b_k + a_k.x - t >= 0 (the two of them are the copies of
    the base polytope, glued along facet k).  The diameter never decreases.
    """
    inc = poly if isinstance(poly, Incidence) else analyse(poly)
    h = inc.h
    if not inc.v.vertices:
        raise Infeasible("infeasible")
    if not 0 <= k < h.nrows:
        raise ValueError(f"facet index {k} out of range")
    if h.linearity:
        raise ValueError("wedge expects an inequality-only description")
    if inc.v.rays:
        raise Unbounded("wedge requires a bounded polytope")
    if k not in inc.facets:
        raise ValueError(f"row {k} is redundant: wedge needs a facet-defining row")
    rows: list[Row] = []
    zero = Fraction(0)
    for i, (b, a) in enumerate(h.rows):
        t_coef = Fraction(-1) if i == k else zero
        rows.append((b, tuple(a) + (t_coef,)))
    rows.append((zero, tuple(zero for _ in range(h.d)) + (Fraction(1),)))
    return HPolyhedron(h.d + 1, tuple(rows))


def truncate_vertex(inc: Incidence, vertex: str | int) -> HPolyhedron:
    """Cut off a simple vertex by the hyperplane through its edge midpoints.

    The cut passes strictly between the vertex and everything else (any
    vertex on the wrong side would be a convex combination of the vertex and
    its neighbors, impossible for an extreme point), so exactly d new simple
    vertices replace the old one and the facet count grows by one.  The
    polytope must be full-dimensional (d is the ambient dimension).
    """
    h, v = inc.h, inc.v
    if not v.vertices:
        raise Infeasible("infeasible")
    if v.rays:
        raise Unbounded("truncation requires a bounded polytope")
    labels = v.all_labels()
    if isinstance(vertex, str):
        if vertex not in labels:
            raise ValueError(f"unknown vertex {vertex!r}")
        vi = labels.index(vertex)
    else:
        vi = vertex
        if not 0 <= vi < len(v.vertices):
            raise ValueError(f"vertex index {vi} out of range")
    d = h.d
    if inc.facet_masks[vi].bit_count() != d:
        raise ValueError(f"vertex {labels[vi]} is not simple: truncation undefined")

    neighbors = [
        wi for wi in range(len(v.vertices)) if wi != vi and inc.is_edge(vi, wi)
    ]
    if len(neighbors) != d:
        raise ValueError(f"vertex {labels[vi]} is not simple: truncation undefined")

    p = v.vertices[vi]
    midpoints = [
        tuple((a + b) / 2 for a, b in zip(p, v.vertices[wi])) for wi in neighbors
    ]
    normals = nullspace([(1, *m) for m in midpoints])
    assert len(normals) == 1, "midpoints of a simple vertex are affinely independent"
    b_new, a_new = normals[0][0], tuple(normals[0][1:])
    if b_new + dot(a_new, p) > 0:
        b_new, a_new = -b_new, tuple(-x for x in a_new)
    cut = canonical_row((b_new, a_new))
    return HPolyhedron(d, h.rows + (cut,), h.linearity)


def klee_walkup() -> tuple[VPolyhedron, HPolyhedron]:
    """The nine labeled points and the nine inequalities point.x <= 1."""
    pts = KLEE_WALKUP_POINTS
    vstar = VPolyhedron.from_points(pts.values(), labels=pts.keys())
    rows = tuple(
        (Fraction(1), tuple(Fraction(-c) for c in p)) for p in pts.values()
    )
    return vstar, HPolyhedron(4, rows)


def unbound_at_facet(inc: Incidence, k: int) -> HPolyhedron:
    """Send facet row k of `inc.h` to infinity by a projective change of coordinates.

    After translating the vertex centroid to the origin (so every offset
    b_i is positive), the map keeps all vertices off facet k, turns the
    vertices on it into extreme rays, and drops the row: n-1 facets, same
    dimension, unbounded.  The bounded-edge graph of the result is the
    subgraph induced on the surviving vertices.
    """
    h, v = inc.h, inc.v
    if not v.vertices:
        raise Infeasible("infeasible")
    if not 0 <= k < h.nrows:
        raise ValueError(f"facet index {k} out of range")
    if h.linearity:
        raise ValueError("unbound expects an inequality-only description")
    if v.rays:
        raise Unbounded("input must be bounded")
    centroid = v.centroid()
    shifted = [(b + dot(a, centroid), a) for b, a in h.rows]
    bk, ak = shifted[k]
    if bk <= 0:
        raise GeometryError("facet offset not positive after centering: not full-dimensional")
    rows = []
    for i, (b, a) in enumerate(shifted):
        if i == k:
            continue
        coeffs = tuple(bk * ai - b * aki for ai, aki in zip(a, ak))
        rows.append(canonical_row((b, coeffs)))
    return HPolyhedron(h.d, tuple(rows))


def unbound_point_map(inc: Incidence, k: int, point: Vector) -> Vector:
    """Image of a point under the `unbound_at_facet` transformation.

    Used to track named vertices across the change of coordinates: x maps
    to (x - centroid) / (b_k' + a_k.(x - centroid)) with b_k' the offset
    after centering on the vertex centroid of `inc.v`.
    """
    centroid = inc.v.centroid()
    b, a = inc.h.rows[k]
    x = tuple(p - c for p, c in zip(point, centroid))
    s = b + dot(a, centroid) + dot(a, x)
    return tuple(xi / s for xi in x)


def transportation(a, b) -> HPolyhedron:
    """Transportation polytope of margins (a, b), in full-dimensional form.

    Nonnegative p x q matrices with row sums a and column sums b: pq
    nonnegativity rows plus p + q equality rows, reduced to coordinates of
    the affine hull.  Generic margins give dimension (p-1)(q-1) with at
    most pq facets, and the Hirsch bound then reads p + q - 1.
    """
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    p, q = len(a), len(b)
    if p < 1 or q < 1:
        raise ValueError("margins must be nonempty")
    if any(x <= 0 for x in a + b):
        raise ValueError("margins must be positive")
    if sum(a) != sum(b):
        raise ValueError("unbalanced margins: row and column sums must agree")
    d = p * q
    rows: list[Row] = []
    for idx in range(d):
        e = [Fraction(0)] * d
        e[idx] = Fraction(1)
        rows.append((Fraction(0), tuple(e)))
    for i in range(p):
        coeff = [Fraction(0)] * d
        for j in range(q):
            coeff[i * q + j] = Fraction(1)
        rows.append((-a[i], tuple(coeff)))
    for j in range(q):
        coeff = [Fraction(0)] * d
        for i in range(p):
            coeff[i * q + j] = Fraction(1)
        rows.append((-b[j], tuple(coeff)))
    raw = HPolyhedron(d, tuple(rows), frozenset(range(d, d + p + q)))
    reduced, _ = reduce_to_full_dim(raw)
    return reduced


def random_01_polytope(d: int, m: int, seed: int, retries: int = 50) -> VPolyhedron:
    """Convex hull of m distinct random 0/1 points, guaranteed full-dimensional.

    The PRNG is `random.Random(seed)` (Mersenne Twister); draws that fail to
    span dimension d are redrawn from the same stream up to `retries` times.
    Tests assert properties of the output, never a particular stream.
    """
    if m < d + 1:
        raise ValueError("need at least d+1 points for full dimension")
    if m > 2**d:
        raise ValueError(f"only 2^{d} distinct 0/1 points exist")
    rng = random.Random(seed)
    for _ in range(retries):
        codes = rng.sample(range(2**d), m)
        pts = [tuple(Fraction(code >> i & 1) for i in range(d)) for code in codes]
        p0 = pts[0]
        span = [[x - y for x, y in zip(pt, p0)] for pt in pts[1:]]
        if len(_echelon(span, d)[0]) == d:
            return VPolyhedron.from_points(sorted(pts))
    raise GeometryError(f"could not reach full dimension in {retries} draws")


def orthant_polytope(d: int, k: int) -> HPolyhedron:
    """Intersection of the nonnegative orthant with k half-spaces at distance k.

    The k extra functionals vanish at (1,..,1,0,..,0) (k ones) and are
    positive at the origin; walking between those two vertices must enter
    each of the k facets x_j = 0 one step at a time, so the diameter is at
    least k = n - d.  One functional is k - sum(x), which bounds the
    polytope; the others carry distinct small tilts to keep it simple.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    rows: list[tuple] = []
    for i in range(d):
        e = [Fraction(0)] * d
        e[i] = Fraction(1)
        rows.append((Fraction(0), tuple(e)))
    rows.append((Fraction(k), tuple(Fraction(-1) for _ in range(d))))
    for j in range(1, k):
        coeff = [Fraction(0)] * d
        coeff[j] = Fraction(-1)
        eps = Fraction(1, j + 2)
        for i in range(k, d):
            coeff[i] = eps
        rows.append((Fraction(1), tuple(coeff)))
    return HPolyhedron(d, tuple(rows))


def _sharp_witness(inc: Incidence, d: int, n: int) -> tuple[Vector, Vector]:
    """A diameter witness pair of vertices, after checking diameter n - d."""
    diam, (lu, lv) = diameter(inc.graph)
    if diam != n - d:
        raise GeometryError(
            f"construction lost sharpness at (d={d}, n={n}): diameter {diam}"
        )
    labels = inc.graph.nodes
    return inc.v.vertices[labels.index(lu)], inc.v.vertices[labels.index(lv)]


def _facet_avoiding(inc: Incidence, u: Vector, w: Vector) -> int:
    """Lowest-index facet row tight on neither witness vertex."""
    for i in inc.facets:
        if inc.h.value(i, u) > 0 and inc.h.value(i, w) > 0:
            return i
    raise GeometryError("no facet avoids both witness vertices (needs n > 2d)")


def hirsch_sharp(d: int, n: int) -> HPolyhedron:
    """A simple d-polytope with n facets and diameter exactly n - d.

    For n <= 2d this is a product of simplices over the fixed
    largest-part-first partition of d into n - d parts.  For
    2d < n <= 3d - 3 it is built from the Klee-Walkup block: wedge on a
    facet avoiding a diameter witness pair, then truncate one or both of
    the lifted witnesses, repeating until (d, n) is reached; the diameter
    is re-verified after every step.
    """
    if not d < n:
        raise ValueError("need n > d")
    if n <= 2 * d:
        k = n - d
        parts = [d - k + 1] + [1] * (k - 1)
        result = simplex(parts[0])
        for part in parts[1:]:
            result = product(result, simplex(part))
        return result
    if d < 4 or n > 3 * d - 3:
        raise ValueError(
            f"no construction for (d={d}, n={n}): diameter-sharp polytopes are "
            "available for d < n <= 2d, or 2d < n <= 3d-3 with d >= 4"
        )

    wedges = d - 4
    truncations = n - d - 5
    h = klee_walkup()[1]
    cur_d, cur_n = 4, 9
    inc = analyse(h)
    wu, wv = _sharp_witness(inc, cur_d, cur_n)
    for _ in range(wedges):
        h = wedge(inc, _facet_avoiding(inc, wu, wv))
        cur_d += 1
        cur_n += 1
        zero = (Fraction(0),)
        wu, wv = wu + zero, wv + zero  # lifted copies on the facet t = 0
        inc = analyse(h)
        for target in (wu, wv):
            if truncations == 0:
                break
            h = truncate_vertex(inc, inc.v.vertices.index(target))
            cur_n += 1
            truncations -= 1
            inc = analyse(h)
        wu, wv = _sharp_witness(inc, cur_d, cur_n)
    return h


@dataclass(frozen=True)
class ConstructionRecipe:
    """Replayable record of how a description was generated.

    `kind` is one of simplex, cube, crosspolytope, product, wedge, truncate,
    kleewalkup, unbound, transportation, zeroone, hirsch_sharp.  Operator
    recipes carry their operands in `base` (and `other` for products);
    facet/vertex parameters use the 1-based external convention.
    """

    kind: str
    parameters: dict = field(default_factory=dict)
    base: "ConstructionRecipe | None" = None
    other: "ConstructionRecipe | None" = None

    @property
    def provenance(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        me = f"{self.kind}[{params}]" if params else self.kind
        if self.kind == "product" and self.base and self.other:
            return f"({self.base.provenance} x {self.other.provenance})"
        if self.base is not None:
            return f"{me}({self.base.provenance})"
        return me

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "parameters": self.parameters}
        if self.base is not None:
            out["base"] = self.base.to_dict()
        if self.other is not None:
            out["other"] = self.other.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ConstructionRecipe":
        return cls(
            kind=data["kind"],
            parameters=dict(data.get("parameters", {})),
            base=cls.from_dict(data["base"]) if "base" in data else None,
            other=cls.from_dict(data["other"]) if "other" in data else None,
        )


def replay(recipe: ConstructionRecipe) -> HPolyhedron | VPolyhedron:
    """Rebuild the exact description a recipe was recorded for."""
    kind, p = recipe.kind, recipe.parameters
    if kind in ("simplex", "cube", "crosspolytope"):
        return generate_canonical(kind, int(p["d"]))
    if kind == "kleewalkup":
        return klee_walkup()[1]
    if kind == "transportation":
        return transportation(
            [Fraction(x) for x in p["rows"]], [Fraction(x) for x in p["cols"]]
        )
    if kind == "zeroone":
        return random_01_polytope(int(p["dim"]), int(p["points"]), int(p["seed"]))
    if kind == "hirsch_sharp":
        return hirsch_sharp(int(p["dim"]), int(p["facets"]))
    if kind == "wedge":
        return wedge(analyse(_replay_operand(recipe.base)), int(p["facet"]) - 1)
    if kind == "unbound":
        return unbound_at_facet(analyse(_replay_operand(recipe.base)), int(p["facet"]) - 1)
    if kind == "truncate":
        return truncate_vertex(analyse(_replay_operand(recipe.base)), p["vertex"])
    if kind == "product":
        return product(_replay_h(recipe.base), _replay_h(recipe.other))
    raise ValueError(f"unknown recipe kind {kind!r}")


def _replay_operand(recipe: ConstructionRecipe | None) -> HPolyhedron | VPolyhedron:
    if recipe is None:
        raise ValueError("operator recipe is missing its operand")
    return replay(recipe)


def _replay_h(recipe: ConstructionRecipe | None) -> HPolyhedron:
    out = _replay_operand(recipe)
    return vrep_to_hrep(out) if isinstance(out, VPolyhedron) else out
