"""Independent oracles the tests check the library against.

Everything here is deliberately written from scratch against the
definitions, not by calling the library: brute-force vertex enumeration
over row subsets, forward-elimination rank counting, `Fraction`
reduced row-echelon form and the null spaces read off it, `Fraction`
incidence, facets and ridges by affine rank, the literal third-vertex
edge test and the all-pairs AND-of-columns skeleton, double description
with the literal third-ray adjacency scan, a queue BFS and a per-source
bitset BFS for diameters and their witness pairs, simple-path
enumeration for the non-revisiting property, a literal interval check
of what "never revisits a facet" means, the non-revisiting search
without its distance cut (also in its dual form, over the facets of a
boundary complex given as label sets), and the subset-graph search that
re-checks the layer property on every pair after every trial deletion.

Two references do call the library.  `projected_vrep_to_hrep`, the
V -> H conversion that projects lower-dimensional input onto the free
coordinates of its affine hull, converts there and lifts the facets
back, uses the library's null space, elimination and cone, and checks
the one-cone reduction around them.  `incidence` builds the library's
`Incidence` of a known pair of descriptions from integer dot products,
the reference for the zero sets that `analyse` reads off its conversion.
`fraction_reduce_to_full_dim` rewrites the rows of an H-description in
its affine hull with `Fraction` dot products, against the vertices and
the greedy basis the library finds, the reference for the integer form of
`reduce_to_full_dim`.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from polydiam.dd import _cone_extreme_rays, hrep_to_vrep
from polydiam.polyhedron import (
    HPolyhedron,
    Incidence,
    VPolyhedron,
    canonical_equality_row,
    canonical_row,
)
from polydiam.ratlin import _echelon, dot, nullspace, primitive


def solve_square(rows, rhs):
    """Solve a square rational system by textbook elimination; None if singular."""
    n = len(rows)
    m = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][n] for i in range(n))


def row_echelon(rows):
    """Reduce `rows` (lists of `Fraction`) in place to reduced row-echelon form.

    Returns the pivot column indices.  Plain fraction-managed Gauss-Jordan
    elimination, the reference for the library's integer pass.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rref_nullspace(rows):
    """Null-space basis read off the reference RREF: per free column c, the
    vector with 1 at c and minus that column's entry at each pivot."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots = row_echelon(m)
    basis = []
    for fc in (c for c in range(len(m[0])) if c not in pivots):
        v = [Fraction(0)] * len(m[0])
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def brute_force_vertices(h):
    """All vertices of an inequality-only H-polyhedron by d-subset enumeration.

    Solves every d-row subsystem exactly and keeps solutions satisfying all
    rows.  Exponential and proud of it; the point is independence.
    """
    assert not h.linearity
    d = h.d
    found = set()
    for subset in combinations(range(h.nrows), d):
        a = [h.rows[i][1] for i in subset]
        b = [-h.rows[i][0] for i in subset]
        x = solve_square(a, b)
        if x is None:
            continue
        if all(h.rows[i][0] + sum(c * xi for c, xi in zip(h.rows[i][1], x)) >= 0
               for i in range(h.nrows)):
            found.add(x)
    return sorted(found)


def echelon_rank(rows):
    """Rank as the count of nonzero rows after plain forward elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return sum(1 for row in m if any(x != 0 for x in row))


def primitive_ints(vec):
    """The positive multiple of a rational vector with coprime integer entries."""
    fracs = [Fraction(x) for x in vec]
    den = lcm(*(q.denominator for q in fracs))
    ints = [int(q * den) for q in fracs]
    g = gcd(*ints)
    return tuple(z // g for z in ints) if g > 1 else tuple(ints)


def smallest_first(row):
    """The insertion key of the double description: the largest absolute
    coefficient, then the sum of the absolute coefficients, then the row."""
    return (max(abs(x) for x in row), sum(abs(x) for x in row), row)


def third_ray_scan_extreme_rays(rows, dim, key=smallest_first):
    """Extreme rays of the cone {y : r.y >= 0 for r in rows}, or None when
    the rows have rank below `dim` (the cone then holds a line).

    Textbook double description: rows deduplicated and sorted, then taken
    in the order of `key` (the package's smallest-first order by default;
    `key=lambda row: row` keeps the sorted order), the first `dim` rows
    that raise the rank as the simplicial start cone, then one row at a
    time.  A positive ray p and a negative ray q are combined when no third
    ray present is tight on every row both are tight on (the combinatorial
    adjacency test, checked by scanning every ray, with no count filter in
    front).  Rays come out primitive, in the order the steps produce them.
    """
    rows = sorted(set(rows))
    order = sorted(range(len(rows)), key=lambda i: key(rows[i]))
    basis = []
    for i in order:
        if len(basis) < dim and echelon_rank([rows[j] for j in basis] + [rows[i]]) > len(basis):
            basis.append(i)
    if len(basis) < dim:
        return None
    square = [rows[i] for i in basis]
    rays = [primitive_ints(solve_square(square, [int(i == j) for i in range(dim)]))
            for j in range(dim)]
    zeros = [{basis[i] for i in range(dim) if i != j} for j in range(dim)]
    for r in order:
        if r in basis:
            continue
        row = rows[r]
        vals = [sum(a * y for a, y in zip(row, ray)) for ray in rays]
        pos = [k for k, x in enumerate(vals) if x > 0]
        neg = [k for k, x in enumerate(vals) if x < 0]
        zero = [k for k, x in enumerate(vals) if x == 0]
        new_rays, new_zeros = [], []
        for p in pos:
            for q in neg:
                common = zeros[p] & zeros[q]
                if any(zeros[t] >= common for t in range(len(rays)) if t not in (p, q)):
                    continue
                new_rays.append(primitive_ints(
                    [vals[p] * y - vals[q] * x for x, y in zip(rays[p], rays[q])]))
                new_zeros.append(common | {r})
        keep = pos + zero
        rays = [rays[k] for k in keep] + new_rays
        zeros = [zeros[k] | ({r} if k in zero else set()) for k in keep] + new_zeros
    return rays


def fraction_incidence(h, v):
    """(vertex masks, ray masks): bit i set when b + a.p = 0, resp. a.r = 0."""

    def mask(point, homog):
        return sum(
            1 << i for i, (b, a) in enumerate(h.rows)
            if homog * b + sum(c * x for c, x in zip(a, point)) == 0
        )

    return [mask(p, 1) for p in v.vertices], [mask(r, 0) for r in v.rays]


def fraction_columns(h, v):
    """Per row of `h`, bit k set when vertex k is tight on it and bit
    nverts + k when ray k is, by `fraction_incidence`."""
    vmasks, rmasks = fraction_incidence(h, v)
    return [sum(1 << k for k, m in enumerate(vmasks + rmasks) if m >> i & 1)
            for i in range(h.nrows)]


def incidence(h, v):
    """The `Incidence` of the pair, with its exact tightness columns.

    Errors if some vertex violates a row.  Rows are scaled by positive
    factors to primitive integers, which keeps every sign, and `v.rows`
    already are, so each test is an integer dot product: n x m of them.
    """
    rows = [primitive((b, *a)) for b, a in h.rows]
    columns = [0] * len(rows)
    for k, point in enumerate(v.rows):
        for i, row in enumerate(rows):
            val = sum(map(mul, row, point))
            if val == 0:
                columns[i] |= 1 << k
            elif k < v.nverts and (val < 0 or i in h.linearity):
                raise ValueError(
                    f"vertex {v.label(k)} violates row {i + 1}: H and V are inconsistent"
                )
    return Incidence(h, v, columns)


def rank_affine_dim(points, rays=()):
    """Dimension of the affine hull of the points plus the ray directions."""
    if not points:
        return -1
    p0 = points[0]
    span = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    return echelon_rank(span + [list(r) for r in rays])


def rank_facet_rows(h, v, vmasks, rmasks):
    """Facet rows by rank: the vertices and rays tight on the row span an
    affine space of dimension dim(P) - 1.  Rows cutting the same face are
    reported once, by the lowest index."""
    dim = rank_affine_dim(v.vertices, v.rays)
    seen = set()
    out = []
    for i in range(h.nrows):
        if i in h.linearity:
            continue
        on_v = frozenset(k for k, m in enumerate(vmasks) if m >> i & 1)
        on_r = frozenset(k for k, m in enumerate(rmasks) if m >> i & 1)
        if not on_v or (on_v, on_r) in seen:
            continue
        pts = [v.vertices[k] for k in sorted(on_v)]
        dirs = [v.rays[k] for k in sorted(on_r)]
        if rank_affine_dim(pts, dirs) == dim - 1:
            seen.add((on_v, on_r))
            out.append(i)
    return out


def third_vertex_edges(vmasks, rmasks):
    """Vertex pairs (u, w), u < w, such that no third vertex and no ray is
    tight on every row tight at both."""
    n = len(vmasks)
    edges = set()
    for u in range(n):
        for w in range(u + 1, n):
            z = vmasks[u] & vmasks[w]
            if any(vmasks[k] & z == z for k in range(n) if k not in (u, w)):
                continue
            if any(r & z == z for r in rmasks):
                continue
            edges.add((u, w))
    return edges


def pairwise_skeleton_adj(masks, columns, everything):
    """Neighbour bitsets by the all-pairs edge test: vertices u and w are
    adjacent when the AND of the columns of the rows tight at both is
    exactly {u, w}, with no ray bit.  Every vertex pair is tested."""
    n = len(masks)
    adj = [0] * n
    for u in range(n):
        for w in range(u + 1, n):
            common = masks[u] & masks[w]
            face = everything
            for i, col in enumerate(columns):
                if common >> i & 1:
                    face &= col
            if face == 1 << u | 1 << w:
                adj[u] |= 1 << w
                adj[w] |= 1 << u
    return tuple(adj)


def rank_ridge_pairs(points, vmasks, facets):
    """Facet row pairs (i, j), i < j in `facets` order, whose common
    vertices span an affine space of dimension dim(P) - 2."""
    dim = rank_affine_dim(points)
    pairs = set()
    for x, i in enumerate(facets):
        for j in facets[x + 1:]:
            shared = [p for p, m in zip(points, vmasks) if m >> i & 1 and m >> j & 1]
            if rank_affine_dim(shared) == dim - 2:
                pairs.add((i, j))
    return pairs


def queue_bfs_diameter(nodes, edges):
    """(diameter, witness) by one queue BFS per source, or None when the
    graph is disconnected.  The witness is the first source, in node order,
    of greatest eccentricity and the first node, in node order, at that
    distance from it."""
    adjacency = {u: [] for u in nodes}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    best, witness = -1, None
    for source in nodes:
        dist = {source: 0}
        queue = [source]
        for u in queue:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) < len(nodes):
            return None
        far = max(dist.values())
        if far > best:
            best = far
            witness = (source, next(u for u in nodes if dist[u] == far))
    return best, witness


def per_source_diameter(adj):
    """(diameter, (source, target)) of a graph given as neighbour bitsets,
    by one bitset BFS per source, or None when it is disconnected.  The
    witness is the first source of greatest eccentricity and the lowest
    node of its last BFS layer; no nodes give (-1, (0, 0))."""
    everyone = (1 << len(adj)) - 1
    best, witness = -1, (0, 0)
    for source in range(len(adj)):
        layers = []
        frontier = seen = 1 << source
        while frontier:
            layers.append(frontier)
            nxt = 0
            for i in range(len(adj)):
                if frontier >> i & 1:
                    nxt |= adj[i]
            frontier = nxt & ~seen
            seen |= frontier
        if seen != everyone:
            return None
        if len(layers) - 1 > best:
            best = len(layers) - 1
            last = layers[-1]
            witness = (source, min(i for i in range(len(adj)) if last >> i & 1))
    return best, witness


def path_is_nonrevisiting(tight_sets):
    """Literal definition: every facet's tight stretch is one interval."""
    facets = set().union(*tight_sets)
    for f in facets:
        hits = [i for i, t in enumerate(tight_sets) if f in t]
        if hits and hits[-1] - hits[0] + 1 != len(hits):
            return False
    return True


def nonrevisiting_exists_naive(adjacency, tight, source, target, max_len):
    """Enumerate all simple paths up to max_len, re-testing the definition."""

    def extend(path):
        if path[-1] == target:
            return path_is_nonrevisiting([tight[v] for v in path])
        if len(path) > max_len:
            return False
        for nxt in adjacency[path[-1]]:
            if nxt in path:
                continue
            if not path_is_nonrevisiting([tight[v] for v in path] + [tight[nxt]]):
                continue
            if extend(path + [nxt]):
                return True
        return False

    return extend([source])


def pentagon_monotone_worst(points, edges, c):
    """Hand-rolled monotone eccentricity on an explicit polygon."""
    vals = [sum(ci * pi for ci, pi in zip(c, p)) for p in points]
    assert len(set(vals)) == len(vals), "tied functional in oracle input"
    opt = vals.index(max(vals))
    succ = {i: [] for i in range(len(points))}
    for i, j in edges:
        if vals[i] < vals[j]:
            succ[i].append(j)
        else:
            succ[j].append(i)
    worst = 0
    for s in range(len(points)):
        frontier = {s}
        seen = {s}
        steps = 0
        while opt not in seen and frontier:
            steps += 1
            frontier = {w for u in frontier for w in succ[u]} - seen
            seen |= frontier
        assert opt in seen, "monotone sink other than the maximum"
        worst = max(worst, steps if s != opt else 0)
    return opt, worst


def unpruned_nonrevisiting_dfs(adjacency, masks, source, target, cap):
    """The first shortest non-revisiting walk found by iterative deepening,
    with the moves tried in `adjacency` order and no distance cut: a node
    is given up only when no step is left.  None when there is none."""

    def dfs(node, left, remaining):
        if node == target:
            return [node]
        if remaining == 0:
            return None
        for nxt in adjacency[node]:
            if masks[nxt] & left:
                continue
            tail = dfs(nxt, left | (masks[node] & ~masks[nxt]), remaining - 1)
            if tail is not None:
                return [node] + tail
        return None

    for depth in range(cap + 1):
        found = dfs(source, 0, depth)
        if found is not None:
            return found
    return None


def nonrevisiting_all_pairs(adjacency, masks, cap, names):
    """(holds, witness) over the unordered pairs i < j in order, by
    `unpruned_nonrevisiting_dfs`; the witness is the first pair without a
    path."""
    for i, j in combinations(range(len(names)), 2):
        if unpruned_nonrevisiting_dfs(adjacency, masks, i, j, cap) is None:
            return False, (names[i], names[j])
    return True, None


def dual_nonrevisiting(facets):
    """(holds, witness) of the dual non-revisiting question on a pure
    complex given by its facets' vertex-label sets: facets in name order,
    joined when they share all but one vertex, and a ridge path may never
    re-enter the star of a vertex it has left; by the unpruned all-pairs
    search, with the cap #vertices - facet size."""
    facets = sorted(map(frozenset, facets), key=lambda f: "".join(sorted(f)))
    labels = sorted(set().union(*facets))
    size = len(facets[0])
    masks = [sum(1 << labels.index(lab) for lab in f) for f in facets]
    adjacency = {i: [] for i in range(len(facets))}
    for i, j in combinations(range(len(facets)), 2):
        if len(facets[i] & facets[j]) == size - 1:
            adjacency[i].append(j)
            adjacency[j].append(i)
    names = ["".join(sorted(f)) for f in facets]
    return nonrevisiting_all_pairs(adjacency, masks, len(labels) - size, names)


def subset_pair_filters(nodes):
    """(i, j, F) for node pairs i < j: F is the bitmask of the nodes that
    contain every element nodes i and j have in common."""
    sets = [set(x) for x in nodes]
    return [
        (i, j, sum(1 << k for k, s in enumerate(sets) if sets[i] & sets[j] <= s))
        for i, j in combinations(range(len(nodes)), 2)
    ]


def subset_graph_valid(adj, pair_filters):
    """The layer property, pair by pair: j is reachable from i by a walk
    that stays on the nodes of F(i, j) (a queue BFS per pair)."""
    neighbours = [[w for w in range(len(adj)) if row >> w & 1] for row in adj]
    for i, j, fmask in pair_filters:
        seen = {i}
        queue = [i]
        for u in queue:
            for w in neighbours[u]:
                if fmask >> w & 1 and w not in seen:
                    seen.add(w)
                    queue.append(w)
        if j not in seen:
            return False
    return True


def _edge_bitsets(m, pair_filters, emask):
    adj = [0] * m
    for bit, (i, j, _) in enumerate(pair_filters):
        if emask >> bit & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def reference_search_max_diameter(n, d, budget=1_000_000, seed=None):
    """(nodes, edges, diameter, complete, explored) of the largest-diameter
    subset graph found, by the walks of `abstraction.search_max_diameter`
    with every candidate graph re-validated on all pairs: exhaustive
    below seven nodes, seeded random thinning of complete graphs above."""
    all_nodes = [tuple(c) for c in combinations(range(1, n + 1), d)]
    best = None
    best_diam = -1
    explored = 0
    complete = True

    def consider(nodes, pair_filters, emask):
        nonlocal best, best_diam
        edges = [(i, j) for bit, (i, j, _) in enumerate(pair_filters) if emask >> bit & 1]
        found = queue_bfs_diameter(list(range(len(nodes))), edges)
        if found is not None and found[0] > best_diam:
            best_diam = found[0]
            best = (tuple(nodes), frozenset((nodes[i], nodes[j]) for i, j in edges))

    def valid(nodes, pair_filters, emask):
        return subset_graph_valid(_edge_bitsets(len(nodes), pair_filters, emask), pair_filters)

    if len(all_nodes) <= 6:
        for size in range(1, len(all_nodes) + 1):
            for chosen in combinations(all_nodes, size):
                nodes = list(chosen)
                pair_filters = subset_pair_filters(nodes)
                seen = set()
                stack = [(1 << len(pair_filters)) - 1]
                while stack and complete:
                    emask = stack.pop()
                    if emask in seen:
                        continue
                    if explored >= budget:
                        complete = False
                        break
                    seen.add(emask)
                    explored += 1
                    consider(nodes, pair_filters, emask)
                    for bit in range(len(pair_filters)):
                        child = emask & ~(1 << bit)
                        if (emask >> bit & 1 and child not in seen
                                and valid(nodes, pair_filters, child)):
                            stack.append(child)
                if not complete:
                    break
            if not complete:
                break
    else:
        rng = random.Random(seed)
        complete = False
        while explored < budget:
            nodes = sorted(rng.sample(all_nodes, rng.randint(2, len(all_nodes))))
            pair_filters = subset_pair_filters(nodes)
            emask = (1 << len(pair_filters)) - 1
            order = list(range(len(pair_filters)))
            rng.shuffle(order)
            for bit in order:
                if valid(nodes, pair_filters, emask & ~(1 << bit)):
                    emask &= ~(1 << bit)
            explored += 1
            consider(nodes, pair_filters, emask)
    return best[0], best[1], best_diam, complete, explored


def _fulldim_vrep_to_hrep(v):
    cone_rows = set()
    for p in v.vertices:
        cone_rows.add(primitive((1, *p)))
    for r in v.rays:
        cone_rows.add(primitive((0, *r)))
    rays = _cone_extreme_rays(sorted(cone_rows), v.d + 1)[0]
    rows = []
    for ray in rays:
        b, a = ray[0], ray[1:]
        if all(x == 0 for x in a):
            continue  # the artifact row "1 >= 0" of unbounded input
        rows.append(canonical_row((Fraction(b), tuple(Fraction(x) for x in a))))
    return HPolyhedron(v.d, tuple(sorted(rows)))


def projected_vrep_to_hrep(v):
    """`vrep_to_hrep` by projection: full-dimensional input converts
    directly; lower-dimensional input takes its hull equations from the
    null space of the vertex differences and rays, converts its projection
    onto the non-pivot coordinates, and lifts the facets back."""
    if not v.vertices:
        raise ValueError("V-representation needs at least one vertex")
    p0 = v.vertices[0]
    span = [[x - y for x, y in zip(p, p0)] for p in v.vertices[1:]]
    span += [list(r) for r in v.rays]
    normals = nullspace(span or [[0] * v.d])  # a single point: every e_i
    if not normals:
        return _fulldim_vrep_to_hrep(v)

    # Affine hull equations e.x = e.p0, one per normal direction.
    eq_rows = [
        canonical_equality_row((-dot(e, p0), tuple(e))) for e in normals
    ]
    pivots = _echelon(a for _, a in eq_rows)[1]
    free = [c for c in range(v.d) if c not in pivots]
    if not free:
        return HPolyhedron(v.d, tuple(sorted(eq_rows)), frozenset(range(len(eq_rows))))

    proj = VPolyhedron.from_points(
        [tuple(p[j] for j in free) for p in v.vertices],
        [tuple(r[j] for j in free) for r in v.rays],
    )
    reduced = _fulldim_vrep_to_hrep(proj)
    lifted = []
    for b, a in reduced.rows:
        amb = [Fraction(0)] * v.d
        for coef, j in zip(a, free):
            amb[j] = coef
        lifted.append((b, tuple(amb)))
    all_rows = tuple(sorted(eq_rows)) + tuple(sorted(lifted))
    return HPolyhedron(v.d, all_rows, frozenset(range(len(eq_rows))))


def fraction_reduce_to_full_dim(h):
    """`reduce_to_full_dim` in `Fraction`s: the first vertex x0 and the
    greedy basis of the differences to the other vertices, then of the
    rays, each row read as (b + a.x0, (a.n for n in the basis))."""
    v = hrep_to_vrep(h)
    points = [tuple(Fraction(c, row[0]) for c in row[1:]) for row in v.rows[: v.nverts]]
    x0 = points[0]
    (t0, *y0), others = v.rows[0], v.rows[1:]
    span = [[t0 * c - t * c0 for c, c0 in zip(y, y0)] for t, *y in others]
    basis = [
        tuple(x - y for x, y in zip(points[i + 1], x0)) if others[i][0]
        else tuple(map(Fraction, others[i][1:]))
        for i in _echelon(span)[0]
    ]
    rows = []
    for b, a in h.rows:
        a2 = tuple(dot(a, n) for n in basis)
        if any(a2):
            rows.append((b + dot(a, x0), a2))
    return HPolyhedron(len(basis), tuple(rows))
