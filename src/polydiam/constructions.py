"""Polytope generators and constructive operators.

Canonical families (simplex, cube, cross-polytope), Cartesian
products, the wedge over a facet, vertex truncation, the Klee-Walkup
4-polytope with nine facets and diameter five, projective unbounding of a
facet, transportation polytopes, random 0/1 polytopes, and the
diameter-sharp generators that tie them together.  Those analyse the
Klee-Walkup block once per process; each later wedge and truncation
hands over its `Incidence` in closed form, and its diameter is checked.
The handed-over vertices are emitted in the order `hrep_to_vrep` sorts
them, by their points, so no step sorts: a wedge keeps the old order and
puts each vertex's lifted copy right after it, and a truncation keeps the
survivors and puts each edge midpoint in its place by binary search.

Every generator is deterministic; the one randomized generator takes an
explicit seed and feeds a fixed PRNG (`random.Random`, the Mersenne
Twister).  A `ConstructionRecipe` records how an output was produced and
can be replayed to the identical description.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import lcm

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
    _bits,
    _simple_neighbours,
    _transpose,
    canonical_row,
)
from .ratlin import Vector, _echelon, dot, nullspace, primitive

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


def product(p: HPolyhedron, q: HPolyhedron) -> HPolyhedron:
    """Cartesian product by block-diagonal stacking of the two row systems.

    Linearity rows of either operand stay equalities.  Dimension, facet
    count, and diameter are all additive for bounded operands.
    """
    d = p.d + q.d
    rows: list[Row] = []
    zeros_q = tuple(Fraction(0) for _ in range(q.d))
    zeros_p = tuple(Fraction(0) for _ in range(p.d))
    for b, a in p.rows:
        rows.append((b, tuple(a) + zeros_q))
    for b, a in q.rows:
        rows.append((b, zeros_p + tuple(a)))
    return HPolyhedron(d, tuple(rows), p.linearity | {i + p.nrows for i in q.linearity})


def wedge(poly: Incidence | HPolyhedron, k: int) -> HPolyhedron:
    """Wedge over facet row k (0-based): one dimension and one facet more.

    `poly` is the `Incidence` of the base polytope, or an H-description,
    which `analyse` turns into one first.  In coordinates (x, t): every
    other row keeps coefficient 0 on t, a new row t >= 0 is appended, and
    row k becomes b_k + a_k.x - t >= 0 (the two of them are the copies of
    the base polytope, glued along facet k).  Linearity rows stay
    equalities, so a base that is not full-dimensional keeps its hull
    equations and the wedge lies in hull x R.  The diameter never
    decreases.  Error messages give k 1-based, as the command line does.
    """
    inc = poly if isinstance(poly, Incidence) else analyse(poly)
    h = inc.h
    if not inc.nverts:
        raise Infeasible("infeasible")
    if not 0 <= k < h.nrows:
        raise ValueError(f"facet index {k + 1} out of range")
    if not inc.v.bounded:
        raise Unbounded("wedge requires a bounded polytope")
    if k not in inc.facets:
        raise ValueError(f"row {k + 1} is redundant: wedge needs a facet-defining row")
    rows: list[Row] = []
    zero = Fraction(0)
    for i, (b, a) in enumerate(h.rows):
        t_coef = Fraction(-1) if i == k else zero
        rows.append((b, tuple(a) + (t_coef,)))
    rows.append((zero, tuple(zero for _ in range(h.d)) + (Fraction(1),)))
    return HPolyhedron(h.d + 1, tuple(rows), h.linearity)


def truncate_vertex(inc: Incidence, vertex: str | int) -> HPolyhedron:
    """Cut off a simple vertex by the hyperplane through its edge midpoints.

    The cut passes strictly between the vertex and everything else (any
    vertex on the wrong side would be a convex combination of the vertex and
    its neighbors, impossible for an extreme point), so exactly dim new
    simple vertices replace the old one.  For dim >= 2 the facet count
    grows by one; on a segment the cut makes the vertex's own facet row
    redundant, so the count stays 2.  Here dim is `inc.dim`, the dimension
    of the affine hull: the vertex is simple when it lies on dim facets,
    and its dim neighbours are one AND of facet columns each
    (`_simple_neighbours`).  The midpoint of the edge from (t_u, y_u) to
    (t_w, y_w) is the integer row (2 t_u t_w, t_w y_u + t_u y_w); those
    rows have a null space of dimension 1 + d - dim, the directions of the
    hull equations vanish at the vertex too, so the cut is the first null
    vector that does not (`_cut`).  A string `vertex` is a label of `inc.v`
    if it is one, and else a 1-based index, as on the command line; an
    integer `vertex` is 0-based.  Error messages give an index 1-based.
    """
    v = inc.v
    if not v.nverts:
        raise Infeasible("infeasible")
    if not v.bounded:
        raise Unbounded("truncation requires a bounded polytope")
    labels = v.all_labels()
    if isinstance(vertex, int):
        vi = vertex
    elif vertex in labels:
        vi = labels.index(vertex)
    else:
        try:
            vi = int(vertex) - 1
        except ValueError:
            raise ValueError(f"unknown vertex {vertex!r}") from None
    if not 0 <= vi < v.nverts:
        raise ValueError(f"vertex index {vi + 1} out of range")
    vertex_facets = inc.facet_masks[vi]
    if vertex_facets.bit_count() != inc.dim:
        raise ValueError(f"vertex {labels[vi]} is not simple: truncation undefined")
    if not vertex_facets:
        raise GeometryError(f"vertex {labels[vi]} has no edge: truncation undefined")
    return _cut(inc, vi)[0]


def _cut(inc: Incidence, u: int) -> tuple[HPolyhedron, dict[int, tuple[int, ...]]]:
    """`inc.h` with the simple vertex u cut off, and the primitive integer
    row of each edge's midpoint, keyed by the neighbour w.  A row scaled
    by a positive factor leaves the null space's basis as it is, and
    n.(t_u, y_u) = t_u (n_0 + n.p) at the vertex p = y_u / t_u, so the cut
    is the one of the rational midpoints (1, m)."""
    h, here = inc.h, inc.v.rows[u]
    tu, *yu = here
    mids = {}
    for w in _bits(_simple_neighbours(inc, u)):
        tw, *yw = inc.v.rows[w]
        mids[w] = primitive((2 * tu * tw, *(tw * p + tu * q for p, q in zip(yu, yw))))
    n = next(n for n in nullspace(mids.values()) if dot(n, here))
    if dot(n, here) > 0:
        n = [-x for x in n]
    cut = canonical_row((n[0], tuple(n[1:])))
    return HPolyhedron(h.d, h.rows + (cut,), h.linearity), mids


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

    After translating the vertex centroid to the origin, every row is
    b_i + a_i.x >= 0 with b_i >= 0, and b_k > 0 since facet k misses the
    centroid.  The map x -> x / (b_k + a_k.x) keeps all vertices off facet
    k, turns the vertices on it into extreme rays, and drops the row: n-1
    facets, same dimension, unbounded.  Row i becomes
    b_i + (b_k a_i - b_i a_k).y >= 0.  An equality holds at the centroid,
    so its b_i is 0 and its image (0, b_k a_i) is an equality again; the
    linearity rows stay linearity rows.  The bounded-edge graph of the
    result is the subgraph induced on the surviving vertices.  Row k must
    be facet-defining; error messages give it 1-based, as the command line
    does.
    """
    h, v = inc.h, inc.v
    if not v.nverts:
        raise Infeasible("infeasible")
    if not 0 <= k < h.nrows:
        raise ValueError(f"facet index {k + 1} out of range")
    if not v.bounded:
        raise Unbounded("input must be bounded")
    if k not in inc.facets:
        raise ValueError(f"row {k + 1} is redundant: unbound needs a facet-defining row")
    centroid = v.centroid()
    shifted = [(b + dot(a, centroid), a) for b, a in h.rows]
    bk, ak = shifted[k]
    rows = []
    for i, (b, a) in enumerate(shifted):
        if i == k:
            continue
        coeffs = tuple(bk * ai - b * aki for ai, aki in zip(a, ak))
        rows.append(canonical_row((b, coeffs)))
    linearity = frozenset(i - (i > k) for i in h.linearity)
    return HPolyhedron(h.d, tuple(rows), linearity)


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
    return reduce_to_full_dim(raw)


def random_01_polytope(d: int, m: int, seed: int) -> VPolyhedron:
    """Convex hull of m distinct random 0/1 points, guaranteed full-dimensional.

    The PRNG is `random.Random(seed)` (Mersenne Twister); draws that fail to
    span dimension d are redrawn from the same stream, up to 50 times.
    Tests assert properties of the output, never a particular stream.
    """
    if m < d + 1:
        raise ValueError("need at least d+1 points for full dimension")
    if m > 2**d:
        raise ValueError(f"only 2^{d} distinct 0/1 points exist")
    rng = random.Random(seed)
    for _ in range(50):
        codes = rng.sample(range(2**d), m)
        pts = [tuple(code >> i & 1 for i in range(d)) for code in codes]
        p0 = pts[0]
        span = [[x - y for x, y in zip(pt, p0)] for pt in pts[1:]]
        if len(_echelon(span, d)[0]) == d:
            return VPolyhedron.from_points(sorted(pts))
    raise GeometryError("could not reach full dimension in 50 draws")


def _sharp_witness(inc: Incidence, d: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The vertex rows of a diameter witness pair, after checking diameter n - d."""
    diam, (lu, lv) = diameter(inc.graph)
    if diam != n - d:
        raise GeometryError(
            f"construction lost sharpness at (d={d}, n={n}): diameter {diam}"
        )
    labels = inc.graph.nodes
    return inc.v.rows[labels.index(lu)], inc.v.rows[labels.index(lv)]


def _facet_avoiding(inc: Incidence, u: tuple[int, ...], w: tuple[int, ...]) -> int:
    """Lowest-index facet row tight on neither witness vertex row."""
    pair = 1 << inc.v.rows.index(u) | 1 << inc.v.rows.index(w)
    for i in inc.facets:
        if not inc.columns[i] & pair:
            return i
    raise GeometryError("no facet avoids both witness vertices (needs n > 2d)")


def _handed_over(h: HPolyhedron, vertices: list[tuple[tuple[int, ...], int]]) -> Incidence:
    """The `Incidence` of the polytope `h` from its vertex rows and their
    tight-row masks, given in the order `hrep_to_vrep` returns them (sorted
    by their points) and kept as its `masks`.  When the facets are every
    row of `h` in order, the facet masks are those masks too."""
    rows, masks = zip(*vertices)
    inc = Incidence(h, VPolyhedron._of_rows(h.d, rows), _transpose(masks, h.nrows))
    inc.masks = masks
    if inc.facets == tuple(range(h.nrows)):
        inc.facet_masks = masks
    return inc


def _wedged(inc: Incidence, k: int) -> Incidence:
    """`wedge(inc, k)` with its `Incidence` in closed form: each vertex
    (t, y) gives (t, y, 0) on the new row t >= 0, and when it is off facet
    k, at s = (B, A).(t, y) > 0 for row k at the lcm D of its denominators,
    (D t, D y, s) on row k as well.  The vertices of `inc` must be sorted,
    as `hrep_to_vrep` returns them; the two copies of a vertex share its
    point's first coordinates and differ last, 0 < s / (D t), so emitting
    them in that order, copy after copy, keeps the vertices sorted."""
    h = wedge(inc, k)
    b, a = inc.h.rows[k]
    den = lcm(b.denominator, *(x.denominator for x in a))
    bk, *ak = (int(x * den) for x in (b, *a))
    vertices = []
    for (t, *y), m in zip(inc.v.rows, inc.masks):
        vertices.append(((t, *y, 0), m | 1 << inc.h.nrows))
        s = bk * t + dot(ak, y)
        if s > 0:
            vertices.append((primitive((den * t, *(den * c for c in y), s)), m | 1 << k))
    return _handed_over(h, vertices)


def _truncated(inc: Incidence, u: int) -> Incidence:
    """`truncate_vertex(inc, u)` with its `Incidence` in closed form: the
    other vertices keep their rows, and the cut meets each edge uw at its
    midpoint from `_cut`, tight on the rows tight on both ends and on the
    cut.  The vertices of `inc` must be sorted, as `hrep_to_vrep` returns
    them; the others keep that order, and each midpoint goes in by binary
    search, (t, y) before (s, z) when [s*c for c in y] < [t*c for c in z],
    which is y / t before z / s."""
    h, mids = _cut(inc, u)
    mu = inc.masks[u]
    vertices = [vm for i, vm in enumerate(zip(inc.v.rows, inc.masks)) if i != u]
    for w, row in mids.items():
        t, *y = row
        lo, hi = 0, len(vertices)
        while lo < hi:
            mid = (lo + hi) // 2
            s, *z = vertices[mid][0]
            if [s * c for c in y] < [t * c for c in z]:
                hi = mid
            else:
                lo = mid + 1
        vertices.insert(lo, (row, mu & inc.masks[w] | 1 << inc.h.nrows))
    return _handed_over(h, vertices)


@cache
def _klee_walkup_block() -> tuple[Incidence, tuple[tuple[int, ...], tuple[int, ...]]]:
    """The Klee-Walkup block's `Incidence` and witness rows, once per process; read only."""
    inc = analyse(klee_walkup()[1])
    return inc, _sharp_witness(inc, 4, 9)


def hirsch_sharp(d: int, n: int) -> HPolyhedron:
    """A simple d-polytope with n facets and diameter exactly n - d.

    For n <= 2d this is a product of simplices over the fixed
    largest-part-first partition of d into n - d parts.  For
    2d < n <= 3d - 3 it is built from the Klee-Walkup block: wedge on a
    facet avoiding a diameter witness pair, then truncate one or both of
    the lifted witnesses, repeating until (d, n) is reached.  Only the
    block runs a double description, once per process; each wedge and
    truncation hands over its `Incidence` in closed form (`_wedged`,
    `_truncated`), and the diameter is re-verified on it after every step.
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
    cur_d, cur_n = 4, 9
    inc, (wu, wv) = _klee_walkup_block()
    for _ in range(wedges):
        inc = _wedged(inc, _facet_avoiding(inc, wu, wv))
        cur_d += 1
        cur_n += 1
        wu, wv = wu + (0,), wv + (0,)  # lifted copies on the facet t = 0
        for target in (wu, wv):
            if truncations == 0:
                break
            inc = _truncated(inc, inc.v.rows.index(target))
            cur_n += 1
            truncations -= 1
        wu, wv = _sharp_witness(inc, cur_d, cur_n)
    return inc.h


@dataclass(frozen=True)
class ConstructionRecipe:
    """Replayable record of how a description was generated.

    `kind` is one of simplex, cube, crosspolytope, product, wedge, truncate,
    kleewalkup, unbound, transportation, zeroone, hirsch_sharp.  Operator
    recipes carry their operands in `base` (and `other` for products) and
    replay through the step the command line runs: a `facet` parameter is
    1-based, a `vertex` a label or a 1-based index.
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
        """The recipe `data` records; ValueError unless it has a recipe's shape."""
        if not (isinstance(data, dict) and isinstance(data.get("kind"), str) and all(
                isinstance(data.get(k, {}), dict) for k in ("parameters", "base", "other"))):
            raise ValueError("malformed recipe: needs a string kind, dict parameters and operands")
        return cls(
            kind=data["kind"],
            parameters=dict(data.get("parameters", {})),
            base=cls.from_dict(data["base"]) if "base" in data else None,
            other=cls.from_dict(data["other"]) if "other" in data else None,
        )


def replay(recipe: ConstructionRecipe) -> HPolyhedron | VPolyhedron:
    """Rebuild the exact description a recipe was recorded for."""
    kind, p = recipe.kind, recipe.parameters
    canonical = {"simplex": simplex, "cube": cube, "crosspolytope": crosspolytope}
    if kind in canonical:
        return canonical[kind](int(p["d"]))
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
    if kind in ("wedge", "unbound", "truncate", "product"):
        operands = (recipe.base, recipe.other) if kind == "product" else (recipe.base,)
        if None in operands:
            raise ValueError("operator recipe is missing its operand")
        return _operate(kind, p, [replay(r) for r in operands])
    raise ValueError(f"unknown recipe kind {kind!r}")


def _operate(kind: str, parameters: dict, operands: list) -> HPolyhedron:
    """One operator step, as the command line and `replay` take it: the
    `wedge`, `unbound` or `truncate` of the one operand, or the `product`
    of the two, H- or V-descriptions.  A `facet` is 1-based, a `vertex` is
    a label or a 1-based index (`truncate_vertex`), and a V operand of
    `product` is converted to H."""
    if kind == "product":
        return product(*(vrep_to_hrep(x) if isinstance(x, VPolyhedron) else x
                         for x in operands))
    inc = analyse(operands[0])
    if kind == "truncate":
        return truncate_vertex(inc, str(parameters["vertex"]))
    step = wedge if kind == "wedge" else unbound_at_facet
    return step(inc, int(parameters["facet"]) - 1)
