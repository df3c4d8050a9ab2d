"""The bitset kernel of `polydiam.polyhedron` against rank-based oracles.

Incidence, facet rows, skeleton edges, dual-graph edges and the affine
dimension are compared with the from-scratch versions in `oracles.py` on
corpus polytopes placed by a random signed permutation and shift, with
rows rescaled, duplicated and padded by redundant rows; on random 0/1
polytopes; and on unbounded inputs, so the ray masks are covered.  The
skeleton, which pairs simple vertices by their shared facets and tests
only the non-simple pairs that share enough of them, is also compared with
the all-pairs edge test on non-simple, unbounded and re-embedded
lower-dimensional input, and on random 0/1 polytopes and their unbounded
derivatives.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polydiam import analyse, hrep_to_vrep, skeleton_graph, vrep_to_hrep
from polydiam.constructions import (
    crosspolytope,
    klee_walkup,
    random_01_polytope,
    unbound_at_facet,
)
from polydiam.polyhedron import HPolyhedron, VPolyhedron, dual_graph, facet_row_indices

from corpus import corpus
from oracles import (
    fraction_columns,
    fraction_incidence,
    incidence,
    pairwise_skeleton_adj,
    rank_affine_dim,
    rank_facet_rows,
    rank_ridge_pairs,
    third_vertex_edges,
)
from test_reembedding import _embedded_rows, _embedding

_Q4 = klee_walkup()[1]
_Q4_INC = incidence(_Q4, hrep_to_vrep(_Q4))
UNBOUNDED = (
    ("q4_unbound_1", unbound_at_facet(_Q4_INC, 0)),
    ("q4_unbound_6", unbound_at_facet(_Q4_INC, 5)),
    ("quadrant_cut", HPolyhedron.from_rows(2, [(0, 1, 0), (0, 0, 1), (-1, 1, 1)])),
)
BASES = dict(corpus() + UNBOUNDED)
SCALES = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(7, 2)]


@st.composite
def placed(draw):
    """(name, base, placed copy): coordinates y_j = s_j x_p(j) + t_j, every
    row scaled by a positive rational, some rows duplicated (rescaled),
    redundant rows added (a loosened row, the sum of two rows, the constant
    row 1 >= 0), rows shuffled."""
    name = draw(st.sampled_from(sorted(BASES)))
    h = BASES[name]
    d = h.d
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    shift = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    rows = []
    for b, a in h.rows:
        a2 = [signs[j] * a[perm[j]] for j in range(d)]
        rows.append((b - sum(a2[j] * shift[j] for j in range(d)), a2))
    index = st.integers(0, len(rows) - 1)
    extra = []
    for i in draw(st.lists(index, max_size=3)):
        extra.append(rows[i])
    for i in draw(st.lists(index, max_size=2)):
        extra.append((rows[i][0] + draw(st.integers(1, 5)), rows[i][1]))
    for i, j in draw(st.lists(st.tuples(index, index), max_size=2)):
        extra.append((rows[i][0] + rows[j][0], [x + y for x, y in zip(rows[i][1], rows[j][1])]))
    if draw(st.booleans()):
        extra.append((1, [0] * d))  # 1 >= 0: tight on every ray, on no vertex
    rows = draw(st.permutations(rows + extra))
    scaled = []
    for b, a in rows:
        k = draw(st.sampled_from(SCALES))
        scaled.append((k * b, tuple(k * x for x in a)))
    return name, h, HPolyhedron(d, tuple(scaled))


def _check_against_oracles(h, v):
    inc = incidence(h, v)
    vmasks, rmasks = fraction_incidence(h, v)
    assert list(inc.masks) == vmasks
    assert list(inc.columns) == fraction_columns(h, v)
    facets = facet_row_indices(inc)
    assert facets == rank_facet_rows(h, v, vmasks, rmasks)
    assert list(inc.facet_masks) == [
        sum(1 << p for p, i in enumerate(inc.facets) if m >> i & 1) for m in inc.masks
    ]
    assert inc.dim == rank_affine_dim(v.vertices, v.rays)
    where = {label: k for k, label in enumerate(v.all_labels())}
    edges = {
        tuple(sorted((where[a], where[b]))) for a, b in skeleton_graph(inc).edges
    }
    assert edges == third_vertex_edges(vmasks, rmasks)
    assert skeleton_graph(inc).adj == pairwise_skeleton_adj(inc.masks, inc.columns, inc.everything)
    if v.bounded:
        ridges = {
            (int(a[1:]) - 1, int(b[1:]) - 1) for a, b in dual_graph(inc).edges
        }
        ridges = {(min(p), max(p)) for p in ridges}
        assert ridges == rank_ridge_pairs(v.vertices, vmasks, facets)
    return facets


@settings(max_examples=60, deadline=None)
@given(placed())
def test_kernel_matches_oracles_on_placed_inputs(case):
    name, base, h = case
    v = hrep_to_vrep(h)
    facets = _check_against_oracles(h, v)
    base_inc = incidence(base, hrep_to_vrep(base))
    assert len(facets) == len(base_inc.facets)
    assert base_inc.dim == rank_affine_dim(v.vertices, v.rays)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 10**6))
def test_kernel_matches_oracles_on_01_hulls(seed):
    v = random_01_polytope(5, 10, seed)
    h = vrep_to_hrep(v)
    facets = _check_against_oracles(h, v)
    assert facets == list(range(h.nrows))  # a hull's rows are all facets


# Lower-dimensional and unbounded: an implicit equality must be tight on
# every ray as well as on every vertex, and need not be a linearity row.
_HALF_LINE_H = HPolyhedron.from_rows(2, [(0, 1, 0), (0, 0, 1), (0, 0, -1)])
_QUADRANT_Z0_ROWS = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


@pytest.mark.parametrize("poly,dim", [
    pytest.param(_HALF_LINE_H, 1, id="half_line/h"),
    pytest.param(VPolyhedron.from_points([(0, 0)], rays=[(1, 0)]), 1, id="half_line/v"),
    pytest.param(HPolyhedron.from_rows(3, _QUADRANT_Z0_ROWS, linearity=[2]), 2,
                 id="quadrant_z0_linearity/h"),
    pytest.param(HPolyhedron.from_rows(3, _QUADRANT_Z0_ROWS + [(0, 0, 0, -1)]), 2,
                 id="quadrant_z0_implicit_pair/h"),
    pytest.param(VPolyhedron.from_points([(0, 0, 0)], rays=[(1, 0, 0), (0, 1, 0)]), 2,
                 id="quadrant_z0/v"),
])
def test_dim_of_lower_dimensional_unbounded_input(poly, dim):
    if isinstance(poly, HPolyhedron):
        inc = incidence(poly, hrep_to_vrep(poly))
    else:
        inc = incidence(vrep_to_hrep(poly), poly)
    assert inc.v.rays
    assert inc.dim == dim == rank_affine_dim(inc.v.vertices, inc.v.rays)


# Inputs with non-simple vertices, with rays, or both.  In the square
# pyramid the apex is on four facets and each base vertex on three.
PYRAMID = VPolyhedron.from_points([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])
# The ±1 cube plus a row tight only at (1, 1, 1) and a scaled copy of
# 1 - x >= 0: that vertex is on five tight rows but only three facets.
_CUBE_WITH_REDUNDANT_ROWS = HPolyhedron.from_rows(
    3,
    [(1, *(s * int(i == j) for i in range(3))) for j in range(3) for s in (1, -1)]
    + [(3, -1, -1, -1), (2, -2, 0, 0)],
)
# The octahedron plus a doubled facet row and the sum of two facet rows
# that meet in the edge from e1 to e2: every vertex is non-simple, and the
# ends of that edge share two rows that define no facet.
_CROSS3_ROWS = [(b, *a) for b, a in crosspolytope(3).rows]
_CROSS3_WITH_REDUNDANT_ROWS = HPolyhedron.from_rows(3, _CROSS3_ROWS + [
    [2 * x for x in _CROSS3_ROWS[0]],
    [x + y for x, y in zip(_CROSS3_ROWS[0], _CROSS3_ROWS[1])],
])
SKELETON_CASES = {
    "cross3": crosspolytope(3),
    "cross3_with_redundant_rows": _CROSS3_WITH_REDUNDANT_ROWS,
    "cross4": crosspolytope(4),
    "klee_walkup_star": klee_walkup()[0],
    "q4": _Q4,
    "pyramid": PYRAMID,
    "cube_with_redundant_rows": _CUBE_WITH_REDUNDANT_ROWS,
    "zero_one_5_10": random_01_polytope(5, 10, 7),
    "zero_one_6_16": random_01_polytope(6, 16, 3),
    "half_line": _HALF_LINE_H,
    "quadrant_z0": HPolyhedron.from_rows(3, _QUADRANT_Z0_ROWS + [(0, 0, 0, -1)]),
    "cone_over_square": VPolyhedron.from_points(
        [(0, 0, 0)], rays=[(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    ),
    **dict(UNBOUNDED),
}


@pytest.mark.parametrize("name", sorted(SKELETON_CASES))
def test_skeleton_matches_the_all_pairs_reference(name):
    inc = analyse(SKELETON_CASES[name])
    assert skeleton_graph(inc).adj == pairwise_skeleton_adj(inc.masks, inc.columns, inc.everything)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(BASES)),
    k=st.integers(1, 2),
    way=st.sampled_from(["linearity", "pairs", "redundant"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_skeleton_matches_the_all_pairs_reference_when_re_embedded(name, k, way, seed):
    rng = random.Random(seed)
    base = BASES[name]
    m, shift = _embedding(base.d, k, rng)
    inc = analyse(_embedded_rows(base, m, shift, way, rng))
    assert inc.dim == analyse(base).dim < inc.h.d
    assert skeleton_graph(inc).adj == pairwise_skeleton_adj(inc.masks, inc.columns, inc.everything)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(3, 6), extra=st.integers(0, 12), seed=st.integers(0, 10**6),
       pick=st.integers(0, 10**6))
# the 0/1 hull (4, 12, 1) and its derivative off its second facet hold all
# three cases: simple vertices with a non-simple neighbour (unpaired keys),
# rays, and non-simple pairs on fewer than dim - 1 common facets
@example(d=4, extra=7, seed=1, pick=1)
def test_skeleton_matches_the_all_pairs_reference_on_01_polytopes(d, extra, seed, pick):
    inc = analyse(random_01_polytope(d, min(d + 1 + extra, 2**d), seed))
    derived = analyse(unbound_at_facet(inc, inc.facets[pick % len(inc.facets)]))
    assert derived.v.rays
    for case in (inc, derived):
        assert skeleton_graph(case).adj == pairwise_skeleton_adj(
            case.masks, case.columns, case.everything)
