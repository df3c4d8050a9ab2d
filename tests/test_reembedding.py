"""Report fields do not change under an affine re-embedding.

A corpus polytope P in R^d is placed in R^(d+k), k <= 2, by a seeded
random injective rational affine map.  Pick an invertible M of size d+k
and a shift s; the image is {y : z = M(y - s) has z[:d] in P and
z[d:] = 0}, so every row of P is a row in y and the last k coordinates of
z are the equalities of the affine hull.  The hull is written three ways:
as `linearity` rows, as pairs of opposite inequalities, and as pairs plus
redundant rows.  Vertices are matched back through x = M(y - s)[:d].

The operators work in the polytope's own affine hull, so each of them
commutes with the embedding: the report of op(embed(P)) is the report of
op(P).
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from polydiam import HPolyhedron, analyse, dual_graph, hrep_to_vrep, polar
from polydiam.bounds import hirsch_report
from polydiam.constructions import truncate_vertex, unbound_at_facet, wedge
from polydiam.ratlin import dot

from corpus import converted, corpus
from oracles import echelon_rank, incidence

# names, not facts: these fields depend on the vertex order of the input
_NAME_FIELDS = ("witness_pair", "nonrevisiting_witness", "monotone")


def _embedding(d, k, rng):
    """(M, s): a random invertible rational M of size d+k and a shift s."""
    size = d + k
    entry = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))  # noqa: E731
    while True:
        m = [[entry() for _ in range(size)] for _ in range(size)]
        if echelon_rank(m) == size:
            return m, [entry() for _ in range(size)]


def _embedded_rows(h, m, shift, way, rng):
    """The image of `h` under y = M^-1 z + s, z = (x, 0), as an H-description."""
    d, size = h.d, len(m)
    ms = [dot(row, shift) for row in m]  # z = M y - ms
    rows = []
    for b, a in h.rows:
        coeff = [sum(a[j] * m[j][c] for j in range(d)) for c in range(size)]
        rows.append([b - dot(a, ms[:d]), *coeff])
    equalities = [[-ms[r], *m[r]] for r in range(d, size)]
    if way == "linearity":
        lin = range(len(rows), len(rows) + len(equalities))
        return HPolyhedron.from_rows(size, rows + equalities, lin)
    pairs = [row for eq in equalities for row in (eq, [-x for x in eq])]
    extra = []
    if way == "redundant":
        for _ in range(3):
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            lam = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            extra.append([2 * x for x in rows[i]])  # the same facet again
            extra.append([x + y for x, y in zip(rows[i], rows[j])])  # a sum of valid rows
            for eq in equalities:  # equal to row i on the affine hull
                extra.append([x + lam * y for x, y in zip(rows[i], eq)])
        extra.append([Fraction(1)] + [Fraction(0)] * size)  # never tight
        rng.shuffle(extra)
    return HPolyhedron.from_rows(size, rows + pairs + extra)


def _back(base, inc, m, shift):
    """Embedded vertex label -> base vertex label, through x = M(y - s)[:d]."""
    d = base.h.d
    ms = [dot(row, shift) for row in m]
    where = {p: lab for p, lab in zip(base.v.vertices, base.v.all_labels())}
    back = {
        lab: where[tuple(dot(m[r], y) - ms[r] for r in range(d))]
        for y, lab in zip(inc.v.vertices, inc.v.all_labels())
    }
    assert sorted(back.values()) == sorted(where.values())
    return back


def _facet_vertex_sets(inc, rename):
    """Dual-graph node name -> the facet's vertex set, labels renamed."""
    labels = inc.v.all_labels()
    return {
        f"f{i + 1}": frozenset(rename[labels[k]] for k in inc.vertices_on_row(i))
        for i in inc.facets
    }


def _report(inc, c):
    report = hirsch_report(inc, check_nonrevisiting=True, monotone_c=c)
    return {key: val for key, val in report.items() if key not in _NAME_FIELDS}, report


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from([name for name, _ in corpus()]),
    k=st.integers(0, 2),
    way=st.sampled_from(["linearity", "pairs", "redundant"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_report_and_dual_graph_survive_affine_reembedding(name, k, way, seed):
    rng = random.Random(seed)
    base = converted(name)
    d = base.h.d
    m, shift = _embedding(d, k, rng)
    h = _embedded_rows(base.h, m, shift, way, rng)
    inc = incidence(h, hrep_to_vrep(h))
    back = _back(base, inc, m, shift)

    c = tuple(Fraction(3**i, 7) + Fraction(1, 2**i) for i in range(d))  # generic
    c_embedded = tuple(sum(c[j] * m[j][col] for j in range(d)) for col in range(len(m)))
    got, got_full = _report(inc, c_embedded)
    want, want_full = _report(base, c)
    assert got == want
    got_mono, want_mono = got_full["monotone"], want_full["monotone"]
    assert back[got_mono["optimum"]] == want_mono["optimum"]
    assert got_mono["worst_length"] == want_mono["worst_length"]
    assert sorted(back[lab] for lab in got_mono["unreachable"]) == sorted(
        want_mono["unreachable"]
    )

    # the dual graph, its facets matched by their (base-labelled) vertex sets
    key = _facet_vertex_sets(inc, back)
    base_key = _facet_vertex_sets(base, {lab: lab for lab in back.values()})
    assert len(key) == len(base_key) and set(key.values()) == set(base_key.values())
    edges = {frozenset((key[a], key[b])) for a, b in dual_graph(inc).edges}
    base_edges = {frozenset((base_key[a], base_key[b])) for a, b in dual_graph(base).edges}
    assert edges == base_edges


@pytest.mark.parametrize("way", ["linearity", "pairs", "redundant"])
def test_reembedded_klee_walkup_keeps_its_report(way):
    rng = random.Random(7)
    base = converted("q4")
    m, shift = _embedding(4, 2, rng)
    h = _embedded_rows(base.h, m, shift, way, rng)
    got, _ = _report(incidence(h, hrep_to_vrep(h)), None)
    want, _ = _report(base, None)
    assert got == want
    assert (got["n"], got["d"], got["diameter"], got["nonrevisiting"]) == (9, 4, 5, True)


@lru_cache(maxsize=None)
def _placed(name, k, way):
    """The base `Incidence`, its embedded copy and the vertex correspondence."""
    rng = random.Random(f"{name} {k} {way}")
    base = converted(name)
    m, shift = _embedding(base.h.d, k, rng)
    inc = analyse(_embedded_rows(base.h, m, shift, way, rng))
    return base, inc, _back(base, inc, m, shift)


def _simple_vertex(inc):
    """The first vertex on exactly dim facets, or None."""
    return next(
        (i for i, m in enumerate(inc.facet_masks) if m.bit_count() == inc.dim), None
    )


_OPERATORS = {
    # the facet is the base row index: the embedding keeps base rows first
    "wedge": lambda inc, facet, vertex: wedge(inc, facet),
    "unbound": lambda inc, facet, vertex: unbound_at_facet(inc, facet),
    "polar": lambda inc, facet, vertex: polar(inc)[0],
    "truncate": lambda inc, facet, vertex: truncate_vertex(inc, vertex),
}


# every corpus polytope under every operator, but truncation only where
# some vertex is simple (not the cross-polytopes of dimension 3 and 4)
_CASES = [
    (op, name)
    for op in _OPERATORS
    for name, _ in corpus()
    if op != "truncate" or _simple_vertex(converted(name)) is not None
]


@pytest.mark.parametrize("way", ["linearity", "pairs", "redundant"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("op,name", _CASES)
def test_operators_commute_with_affine_reembedding(op, name, k, way):
    base, inc, back = _placed(name, k, way)
    vertex = _simple_vertex(base)
    label = None if vertex is None else base.v.label(vertex)
    placed_vertex = next((lab for lab, b in back.items() if b == label), None)
    got = analyse(_OPERATORS[op](inc, base.facets[0], placed_vertex))
    want = analyse(_OPERATORS[op](base, base.facets[0], label))
    assert got.dim == want.dim < got.h.d
    assert _report(got, None)[0] == _report(want, None)[0]
