"""Exact conversion between H- and V-descriptions via double description.

Both directions run on a homogenization cone with primitive-integer
arithmetic throughout:

* H -> V: the polyhedron {x : b + a.x >= 0} lifts to the pointed cone
  {(t, x) : t >= 0, b t + a.x >= 0}; extreme rays with t > 0 are vertices,
  rays with t = 0 are extreme directions.  Equality rows E are solved
  first: the cone lies in the null space of E, so with a primitive basis N
  of it the other rows r run as r.N, in dim N coordinates, and each ray t
  lifts to N t (Fukuda & Prodon 1996).
* V -> H: the valid inequalities (b, a) of conv(V) + cone(R) form the cone
  {(b, a) : b + a.v >= 0 for all vertices, a.r >= 0 for all rays}.  Its
  lineality (the null space of its rows) is the set of affine hull
  equations; with their pivot coefficients fixed at zero the cone is
  pointed, and its extreme rays with a nonzero linear part are the facet
  rows.  One cone serves every input, lower-dimensional or not.

`_cone_extreme_rays` runs the cone, inserting its rows smallest first, by
(max |c|, sum |c|, row): on the facet cones of 0/1 polytopes that makes
about half the new rays and pair tests of lexicographic order (insertion
order governs DD cost: Fukuda & Prodon; Avis, Bremner & Seidel, *How good
are convex hull algorithms?*, 1997).  The answer does not depend on the
order: a pointed cone's primitive extreme rays and their zero sets are its
own, only their list order moves, and both conversions sort what they
return.  Its docstring states the contract and the adjacency test, the
combinatorial zero-set test of Fukuda & Prodon, *Double description method
revisited* (1996), with the block filter and the count rule in front of it.

`analyse` is the one way from a description, H or V, to its `Incidence`:
it converts once and pairs the input with its converse.  The cone already
holds the zero set of every extreme ray over its rows, and the cone rows
stand for the input's rows, so each conversion can hand over the
`Incidence`'s columns, per row of the H-description the rows of the
V-description tight on it: H -> V transposes its zero sets once, V -> H
reads them as they are.  No dot product follows the DD either way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .polyhedron import (
    HPolyhedron,
    Incidence,
    Infeasible,
    NotPointed,
    Row,
    VPolyhedron,
    _tight_on_all,
    _transpose,
    canonical_equality_row,
)
from .ratlin import _echelon, nullspace, primitive

_BLOCK = 16  # negative rays per zero-set union in the pair loop


def _cone_extreme_rays(
    rows: list[tuple[int, ...]], dim: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Extreme rays of the pointed cone {y : r.y >= 0 for r in rows}.

    `rows` must be distinct, nonzero, primitive integer vectors, and bit i
    of a zero set stands for `rows[i]` as passed.  Their rank must be `dim`
    (else NotPointed: the cone holds a line).  They are inserted in
    `order`, smallest first by (max |c|, sum |c|, row), the start basis
    being the first `dim` independent rows in it.  Returns the primitive
    integer rays, [] when the cone is the origin alone, and each ray's zero
    set, in ray order.  The key ends in the row itself, so the rays and
    their order do not depend on the order of `rows`: a permutation of
    `rows` permutes the bits of every zero set alike.

    Adjacency is the combinatorial test of Fukuda & Prodon, *Double
    description method revisited* (1996): a positive ray p and a negative
    ray q of a step are adjacent exactly when no third ray present before
    the step is tight on every row of z = Z(p) & Z(q), their common zero
    set.  Each ray keeps one id for its whole life, and `columns[i]` holds
    the ids of the rays tight on processed row i, so the rays tight on all
    of z are one AND of |z| columns, masked by `alive`, the ids present
    before the step; the pair is adjacent when that AND is {p, q}.  Ids of
    removed rays stay in the columns; `alive` hides them.

    An adjacent pair shares at least dim - 2 rows.  The negative rays of a
    step are cut, in order, into blocks of `_BLOCK`, each with `touched`,
    the union of its zero sets, which bounds |Z(p) & Z(q)| for every q in
    the block (the flat form of the bit-pattern tree of Terzer & Stelling,
    *Bioinformatics* 24(19), 2008): when Z(p) & touched has fewer than
    dim - 2 rows, p skips the block whole.  When p or q is non-degenerate,
    tight on exactly dim - 1 processed rows, the count decides, with no
    AND.  (1) An extreme ray's zero set has rank dim - 1, so the dim - 1
    rows of Z(p) are independent, and so is their subset z.  (2) |z| =
    dim - 1 would make q a multiple of p, so a pair sharing dim - 2 rows
    cuts out a pointed 2-dimensional face.  (3) Its only extreme rays are
    p and q: no third ray is tight on z.  So pairs of two degenerate rays
    are the only readers of the index, and it is built at the first one:
    ids are then list positions, and the columns the transpose of the zero
    sets, which hold the step's row for its zero rays already.  A cone
    without such a pair never builds it.  The scan only lists the pairs, p
    outer and q in `neg` order, as the plain double loop meets them; the
    new rays (each its pair's integer combination divided by its gcd) and
    their ids follow after the scan, in that order, and each step's rays
    go positive, zero, new.
    """
    # Greedy initial basis B in insertion order; the columns of B^-1 are the
    # extreme rays of the simplicial start cone.  Fewer than `dim`
    # independent rows means the rank is short: the cone holds a line.
    size = [(max(map(abs, row)), sum(map(abs, row)), row) for row in rows]
    order = sorted(range(len(rows)), key=size.__getitem__)
    basis_idx = [order[i] for i in _echelon([rows[r] for r in order], dim)[0]]
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
    # Ray j is tight on every basis row but the j-th.  Bit r of a zero set,
    # and `columns[r]`, stand for rows[r].  The columns, with `ids`, `alive`
    # and `next_id`, appear at the first pair of two degenerate rays; a cone
    # without such a pair never builds them.
    start = sum(1 << k for k in basis_idx)
    masks = [start ^ 1 << k for k in basis_idx]
    columns: list[int] | None = None

    chosen = set(basis_idx)
    least = dim - 2  # the rows an adjacent pair shares at least
    for r in order:
        if r in chosen:
            continue
        row, bit = rows[r], 1 << r
        vals, pos, neg, zero = [], [], [], []
        for k, y in enumerate(rays):
            v = sum(map(mul, row, y))
            vals.append(v)
            if v > 0:
                pos.append(k)
            elif v < 0:
                neg.append(k)
            else:
                zero.append(k)
                masks[k] |= bit
        if columns is not None:
            column = 0
            for k in zero:
                column |= 1 << ids[k]
            columns[r] = column

        blocks = []
        for i in range(0, len(neg), _BLOCK):
            members = [(q, masks[q]) for q in neg[i : i + _BLOCK]]
            touched = 0
            for _, zq in members:
                touched |= zq
            blocks.append((touched, members))
        pairs = []
        for p in pos:
            mp = masks[p]
            idp = 0 if columns is None else 1 << ids[p]
            nondegenerate = mp.bit_count() == dim - 1
            for touched, members in blocks:
                zp = mp & touched
                if zp.bit_count() < least:
                    continue
                for q, zq in members:
                    z = zp & zq  # = Z(p) & Z(q), as zq lies within `touched`
                    if z.bit_count() < least:
                        continue
                    if not (nondegenerate or zq.bit_count() == dim - 1):  # both degenerate
                        if columns is None:  # the first such pair: index the rays by position
                            ids, next_id = list(range(len(rays))), len(rays)
                            alive, idp = (1 << next_id) - 1, 1 << p
                            columns = _transpose(masks, len(rows))  # row r's holds the zero rays
                        pair = idp | 1 << ids[q]
                        if _tight_on_all(columns, z, alive, pair) != pair:
                            continue  # not adjacent: some third ray is tight on z
                    pairs.append((p, q, z))

        new_rays: list[tuple[int, ...]] = []
        new_masks: list[int] = []
        for p, q, z in pairs:
            vp, vq = vals[p], vals[q]
            combo = [vp * b - vq * a for a, b in zip(rays[p], rays[q])]
            g = gcd(*combo)  # > 0: p and q are independent, so combo is not zero
            new_rays.append(tuple([x // g for x in combo]) if g > 1 else tuple(combo))
            new_masks.append(z | bit)
        keep = pos + zero
        rays = [rays[k] for k in keep] + new_rays
        masks = [masks[k] for k in keep] + new_masks
        if columns is None:
            continue
        idb = 1 << next_id  # the id bit of the next new ray
        for _, _, z in pairs:
            while z:  # its id joins the columns of z; row r's follows below
                low = z & -z
                columns[low.bit_length() - 1] |= idb
                z ^= low
            idb <<= 1
        for q in neg:
            alive ^= 1 << ids[q]
        added = ((1 << len(new_rays)) - 1) << next_id
        columns[r] |= added
        alive |= added
        ids = [ids[k] for k in keep] + list(range(next_id, next_id + len(new_rays)))
        next_id += len(new_rays)
    return rays, masks


def _vertex_order(rows: Sequence[tuple[int, ...]], among: Sequence[int]) -> list[int]:
    """The indices `among` of vertex rows (t, *y) sorted by their points y / t:
    coordinate c / t compares as the integer c * (L // t), L the lcm of the t."""
    den = lcm(*(rows[k][0] for k in among))
    return sorted(among, key=lambda k: tuple(map((den // rows[k][0]).__mul__, rows[k][1:])))


def hrep_to_vrep(h: HPolyhedron, columns: list[int] | None = None) -> VPolyhedron:
    """All vertices and one representative per extreme ray, exactly.

    The linearity rows cut out the subspace that the cone runs in: the
    other rows are projected onto a primitive basis of the null space of
    theirs, and the rays are lifted back.  The answer is the one of the
    pair of opposite rows b + a.x >= 0 and -b - a.x >= 0 for each linearity
    row b + a.x = 0.  Without linearity rows there is no projection.  Empty
    output signals infeasibility.  Raises NotPointed when the linear parts
    a of the rows have rank below d, so that a nonempty feasible set holds
    a line; an inconsistent system with such rows raises it too.

    The cone's rays are handed over as the `VPolyhedron`'s rows, which are
    primitive homogeneous integers too; no `Fraction` is built.  Vertices
    come out in the sorted order of their points, compared as integer
    vectors at a common denominator.
    When `columns` is a list, it is extended by one column per row i of
    `h`, the column of its cone row: bit k is set when the k-th returned
    row (vertices, then rays) is tight on row i.  `analyse` builds the
    `Incidence` from them, with no dot product.
    """
    # The cone lies in the null space of the linearity rows E; with N a
    # primitive basis of it, y = N t, and each other row r reads r.N on t.
    # The cone rows are the distinct nonzero rows, e0 first: duplicates and
    # positive multiples share one, and a row (b, 0) with b > 0 scales to
    # e0.  A row that projects to zero, every linearity row among them, is
    # tight on every ray.  rank[E; G] = rank E + rank G.N for the other
    # rows G, which span e0 and every (0, a): the cone is pointed exactly
    # when the feasible set holds no line, with or without linearity rows.
    rows = [primitive((b, *a)) for b, a in h.rows]
    e0, dim = (1,) + (0,) * h.d, h.d + 1
    if h.linearity:
        basis = nullspace(rows[i] for i in sorted(h.linearity))
        e0, *rows = [primitive([sum(map(mul, r, n)) for n in basis]) for r in [e0, *rows]]
        dim = len(basis)
    at = {c: i for i, c in enumerate(dict.fromkeys(r for r in [e0, *rows] if any(r)))}
    try:
        rays, masks = _cone_extreme_rays(list(at), dim)
    except NotPointed:
        raise NotPointed("feasible set contains a line: no vertices exist") from None
    if h.linearity:
        rays = [primitive([sum(map(mul, t, y)) for y in zip(*basis)]) for t in rays]

    verts = _vertex_order(rays, [k for k, ray in enumerate(rays) if ray[0] > 0])
    dirs = sorted((k for k, ray in enumerate(rays) if ray[0] == 0), key=rays.__getitem__)
    order = verts + dirs if verts else []  # pointed and vertex-free: infeasible
    if columns is not None:  # a zero row, at -1, takes the all-ones column
        of_cone_row = _transpose([masks[k] for k in order], len(at)) + [(1 << len(order)) - 1]
        columns.extend([of_cone_row[at.get(c, -1)] for c in rows])
    return VPolyhedron._of_rows(h.d, tuple(rays[k] for k in order))


def reduce_to_full_dim(h: HPolyhedron) -> HPolyhedron:
    """Rewrite a pointed `h` in coordinates of its own affine hull.

    The coordinates are those of the first vertex plus a greedy basis of
    the differences to the other vertices, in vertex order, then of the
    rays.  The reduced polyhedron is full-dimensional.  Rows that become
    identically satisfied (equalities of the hull, constant-true
    inequalities) are dropped.  Each row is computed in integers and built
    as one `Fraction` per coefficient.  Raises NotPointed when `h` holds a
    line.
    """
    v = hrep_to_vrep(h)
    if not v.nverts:
        raise Infeasible("infeasible")
    # Row (t, y) after the first vertex (t0, y0) gives span = t0 y - t y0,
    # which is s = t0 t times the difference of the points, or s = t0 times
    # the ray, so the greedy basis is picked in integers.  A row (b, a) at
    # its common denominator D is the integer row (B, A), so its
    # coefficient on the member span / s is A.span / (D s), and its
    # constant b + a.y0 / t0 is (B t0 + A.y0) / (D t0).
    (t0, *y0), others = v.rows[0], v.rows[1:]
    span = [[t0 * c - t * c0 for c, c0 in zip(y, y0)] for t, *y in others]
    limit = h.d - len(_echelon(h.rows[i][1] for i in h.linearity)[0])  # >= the hull's dim
    basis = [(span[i], t0 * others[i][0] or t0) for i in _echelon(span, limit)[0]]
    rows: list[Row] = []
    for b, a in h.rows:
        den = lcm(b.denominator, *(x.denominator for x in a))
        int_b, *int_a = (x.numerator * (den // x.denominator) for x in (b, *a))
        dots = [sum(map(mul, int_a, n)) for n, _ in basis]
        if not any(dots):
            continue  # constant on the hull; feasibility makes it vacuous
        b2 = Fraction(int_b * t0 + sum(map(mul, int_a, y0)), den * t0)
        rows.append((b2, tuple(Fraction(x, den * s) for x, (_, s) in zip(dots, basis))))
    return HPolyhedron(len(basis), tuple(rows))


def vrep_to_hrep(v: VPolyhedron, columns: list[int] | None = None) -> HPolyhedron:
    """Irredundant inequality description of conv(vertices) + cone(rays).

    The rows (b, a) with b + a.p >= 0 on every vertex p and a.r >= 0 on
    every ray r form one cone whatever the dimension of the input.  Its
    lineality is the set of affine hull equations, which come first, as
    linearity rows.  Setting their pivot coefficients to zero leaves a
    pointed cone whose extreme rays with a nonzero linear part are the
    facet rows.  Every row is primitive integers, and each block is sorted.
    When `columns` is a list, it is extended by the zero set of each
    returned row: bit k is set when `v.rows[k]` is tight, so a hull
    equation's is every row.  These are the `Incidence`'s columns, which
    `analyse` hands over.
    """
    if not v.nverts:
        raise ValueError("V-representation needs at least one vertex")
    eq_rows = sorted(canonical_equality_row((e[0], e[1:])) for e in nullspace(v.rows))
    pivots = _echelon(a for _, a in eq_rows)[1]
    free = [0] + [j + 1 for j in range(v.d) if j not in pivots]
    # Cone row k is `v.rows[k]` on the free coordinates.  Its pivot
    # coordinates follow from those by the hull equations, so the distinct
    # rows of v stay distinct, and each facet's zero set is its column.
    cone = [primitive([c[j] for j in free]) for c in v.rows]
    rays, masks = _cone_extreme_rays(cone, len(free))
    facets = []
    for ray, z in zip(rays, masks):
        y = [0] * (v.d + 1)
        for j, x in zip(free, ray):
            y[j] = x
        if any(y[1:]):  # a = 0 is the artifact row "1 >= 0" of unbounded input
            facets.append((y, z))
    facets.sort()  # the integer rows are distinct and order like their Fractions
    if columns is not None:
        columns.extend([(1 << len(v.rows)) - 1] * len(eq_rows))
        columns.extend(z for _, z in facets)
    # One `Fraction` per distinct coefficient: the rows share them.
    frac = {x: Fraction(x) for x in set().union(*(y for y, _ in facets))}
    rows = tuple((frac[y[0]], tuple(map(frac.__getitem__, y[1:]))) for y, _ in facets)
    return HPolyhedron(v.d, tuple(eq_rows) + rows, frozenset(range(len(eq_rows))))


def analyse(poly: HPolyhedron | VPolyhedron) -> Incidence:
    """The `Incidence` of a polyhedron given by either description.

    The other description is computed by one conversion, which also hands
    over the `Incidence`'s columns (`hrep_to_vrep(h, columns)`,
    `vrep_to_hrep(v, columns)`), so no dot product follows the DD.  The
    vertices of an H-description come out sorted.  The vertices of a
    V-description keep their order and labels, so v0, v1, ... name the
    same points for every caller.  A listed point that is not a vertex is
    dropped, the others keeping their labels: point k is a vertex exactly
    when no other point and no ray is tight on every row it is.  No vertex
    at all means the set holds a line.
    """
    columns: list[int] = []
    if isinstance(poly, HPolyhedron):
        return Incidence(poly, hrep_to_vrep(poly, columns), columns)
    h = vrep_to_hrep(poly, columns)
    masks = _transpose(columns, len(poly.rows))
    everything = (1 << len(poly.rows)) - 1
    keep = [
        k for k in range(poly.nverts)
        if _tight_on_all(columns, masks[k], everything, 1 << k) == 1 << k
    ]
    if not keep:  # a pointed polyhedron has a vertex among its points
        raise NotPointed("feasible set contains a line: no vertices exist")
    if len(keep) == poly.nverts:
        return Incidence(h, poly, columns)
    rows = tuple(poly.rows[k] for k in keep) + poly.rows[poly.nverts:]
    v = VPolyhedron._of_rows(poly.d, rows, tuple(map(poly.label, keep)))
    return Incidence(h, v, _transpose([masks[k] for k in keep] + masks[poly.nverts:], h.nrows))
