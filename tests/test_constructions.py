"""Generators and constructive operators."""

from fractions import Fraction

import pytest

from polydiam import (
    GeometryError,
    Unbounded,
    classify,
    hrep_to_vrep,
    skeleton_graph,
    vrep_to_hrep,
)
from polydiam.constructions import (
    ConstructionRecipe,
    _truncated,
    _wedged,
    crosspolytope,
    cube,
    hirsch_sharp,
    klee_walkup,
    product,
    random_01_polytope,
    replay,
    simplex,
    transportation,
    truncate_vertex,
    unbound_at_facet,
    unbound_point_map,
    wedge,
)
from polydiam import constructions
from polydiam.dd import analyse
from polydiam.paths import bfs_distances, diameter
from polydiam.polyhedron import facet_row_indices

from corpus import converted, corpus, ngon, orthant_polytope
from oracles import brute_force_vertices, incidence


def _full(h):
    inc = incidence(h, hrep_to_vrep(h))
    return inc.v, inc, skeleton_graph(inc)


def _diam(h):
    return diameter(_full(h)[2])[0]


def _nfacets(h):
    v, inc, _ = _full(h)
    return len(facet_row_indices(inc))


def test_canonical_counts_and_diameters():
    assert cube(3).nrows == 6 and _diam(cube(3)) == 3
    for d in (2, 3, 4):
        assert simplex(d).nrows == d + 1 and _diam(simplex(d)) == 1
        assert crosspolytope(d).nrows == 2**d and _diam(crosspolytope(d)) == 2


def test_generate_canonical_dispatch():
    # `replay` builds the three canonical kinds from their dimension alone
    assert replay(ConstructionRecipe("cube", {"d": 2})) == cube(2)
    assert replay(ConstructionRecipe("crosspolytope", {"d": 3})) == crosspolytope(3)
    with pytest.raises(ValueError):
        replay(ConstructionRecipe("dodecahedron", {"d": 3}))


def test_ngon():
    for n in (3, 5, 8):
        h = ngon(n)
        assert h.nrows == n
        assert _diam(h) == n // 2


def test_product_simplices():
    h = product(simplex(2), simplex(2))
    v, inc, g = _full(h)
    assert h.d == 4
    assert len(facet_row_indices(inc)) == 6
    assert diameter(g)[0] == 2


def test_product_segments_is_square():
    h = product(cube(1), cube(1))
    assert {tuple(p) for p in hrep_to_vrep(h).vertices} == {
        (x, y) for x in (-1, 1) for y in (-1, 1)
    }


def test_product_q4_segment():
    _, q4 = klee_walkup()
    h = product(q4, simplex(1))
    assert h.d == 5 and _nfacets(h) == 11
    assert _diam(h) == 6


def test_product_additivity():
    pool = [simplex(2), cube(2), crosspolytope(2), simplex(3)]
    for a in pool[:2]:
        for b in pool:
            prod = product(a, b)
            assert prod.d == a.d + b.d
            assert _nfacets(prod) == _nfacets(a) + _nfacets(b)
            assert _diam(prod) == _diam(a) + _diam(b)


def test_wedge_of_pentagon():
    h = wedge(_full(ngon(5))[1], 0)
    v, inc, _ = _full(h)
    assert h.d == 3
    assert len(facet_row_indices(inc)) == 6


def test_wedge_of_square_is_prism():
    h = wedge(_full(cube(2))[1], 1)
    v, inc, _ = _full(h)
    assert h.d == 3
    assert len(facet_row_indices(inc)) == 5
    assert len(v.vertices) == 6


def test_wedge_klee_walkup_keeps_diameter():
    _, q4 = klee_walkup()
    inc = _full(q4)[1]
    for k in range(q4.nrows):
        w = wedge(inc, k)
        assert w.d == 5
        assert _diam(w) >= 5


def test_wedge_rejects_redundant_row():
    square_extra = vrep_to_hrep(hrep_to_vrep(cube(2)))
    from polydiam.polyhedron import HPolyhedron

    padded = HPolyhedron(2, square_extra.rows + ((Fraction(9), (Fraction(1), Fraction(0))),))
    with pytest.raises(ValueError, match="redundant"):
        wedge(_full(padded)[1], padded.nrows - 1)


def test_wedge_rejects_unbounded():
    from polydiam.polyhedron import HPolyhedron

    strip = HPolyhedron.from_rows(2, [(0, 1, 0), (0, 0, 1), (1, 0, -1)])
    with pytest.raises(Unbounded):
        wedge(_full(strip)[1], 0)


def test_truncate_cube_vertex():
    h = cube(3)
    v, inc, _ = _full(h)
    t = truncate_vertex(inc, "v0")
    vt, inct, _ = _full(t)
    assert len(facet_row_indices(inct)) == 7
    assert len(vt.vertices) == 10


def test_truncate_simplex_vertex():
    h = simplex(3)
    v, inc, _ = _full(h)
    t = truncate_vertex(inc, 0)
    vt = hrep_to_vrep(t)
    assert t.nrows == 5 and len(vt.vertices) == 6


def test_truncate_keeps_simplicity():
    h = cube(3)
    v, inc, _ = _full(h)
    t = truncate_vertex(inc, "v3")
    vt, inct, _ = _full(t)
    assert classify(inct)[0] is True


def test_truncate_rejects_non_simple_vertex():
    h = crosspolytope(3)
    v, inc, _ = _full(h)
    with pytest.raises(ValueError, match="not simple"):
        truncate_vertex(inc, 0)


def test_truncate_rejects_the_vertex_of_a_point():
    from polydiam.polyhedron import HPolyhedron

    point = HPolyhedron.from_rows(2, [(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    with pytest.raises(GeometryError, match="has no edge"):
        truncate_vertex(_full(point)[1], 0)


def test_unbound_keeps_linearity_rows_after_the_dropped_facet():
    # the square in z = 0 of R^3, the equality written between facet rows
    from polydiam.polyhedron import HPolyhedron

    rows = [(1, 1, 0, 0), (0, 0, 0, 1), (1, -1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)]
    placed = HPolyhedron.from_rows(3, rows, linearity=[1])
    out = unbound_at_facet(_full(placed)[1], 0)
    assert out.linearity == {0} and out.rows[0] == (0, (0, 0, 1))
    assert unbound_at_facet(_full(placed)[1], 2).linearity == {1}


def test_klee_walkup_counts():
    vstar, q4 = klee_walkup()
    assert len(vstar.vertices) == 9
    assert q4.nrows == 9 and q4.d == 4
    assert _diam(q4) == 5


def test_unbound_square():
    h = unbound_at_facet(_full(cube(2))[1], 1)
    v = hrep_to_vrep(h)
    assert h.nrows == 3
    assert len(v.vertices) == 2 and len(v.rays) == 2


def test_unbound_vertex_map_label_preserving():
    for base in (cube(2), simplex(3), ngon(5)):
        v0, inc, _ = _full(base)
        for k in range(base.nrows):
            out = unbound_at_facet(inc, k)
            vout = hrep_to_vrep(out)
            survivors = {
                unbound_point_map(inc, k, p)
                for p in v0.vertices
                if base.value(k, p) > 0
            }
            assert set(vout.vertices) == survivors


def test_transportation_birkhoff2_segment():
    h = transportation([1, 1], [1, 1])
    v = hrep_to_vrep(h)
    assert h.d == 1 and len(v.vertices) == 2


def test_transportation_generic_2x3():
    h = transportation([2, 1], [1, 1, 1])
    assert h.d == 2
    assert _diam(h) <= 2 + 3 - 1


def test_transportation_birkhoff3():
    h = transportation([1, 1, 1], [1, 1, 1])
    v = hrep_to_vrep(h)
    assert h.d == 4
    assert len(v.vertices) == 6
    d = _diam(h)
    assert d == 1
    assert d <= 3 * (3 + 3 - 1)


def test_transportation_rejects_unbalanced():
    with pytest.raises(ValueError, match="unbalanced"):
        transportation([1, 2], [1, 1, 2])
    with pytest.raises(ValueError):
        transportation([0, 2], [1, 1])


def test_zeroone_all_points_is_cube():
    v = random_01_polytope(3, 8, seed=5)
    assert {tuple(map(int, p)) for p in v.vertices} == {
        (x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)
    }


def test_zeroone_deterministic_per_seed():
    assert random_01_polytope(4, 7, seed=3) == random_01_polytope(4, 7, seed=3)


def test_zeroone_full_dimensional():
    for seed in range(5):
        v = random_01_polytope(4, 6, seed=seed)
        assert incidence(vrep_to_hrep(v), v).dim == 4


def test_zeroone_rejects_bad_sizes():
    with pytest.raises(ValueError):
        random_01_polytope(3, 3, seed=0)
    with pytest.raises(ValueError):
        random_01_polytope(2, 5, seed=0)


def test_hirsch_sharp_products():
    assert _diam(hirsch_sharp(4, 8)) == 4  # the 4-cube
    assert _diam(hirsch_sharp(4, 5)) == 1
    assert _diam(hirsch_sharp(5, 8)) == 3


def test_hirsch_sharp_klee_walkup_cases():
    assert _diam(hirsch_sharp(4, 9)) == 5
    assert _diam(hirsch_sharp(5, 10)) == 5


def test_hirsch_sharp_wedge_truncate_route():
    h = hirsch_sharp(5, 11)
    assert h.d == 5 and _nfacets(h) == 11
    assert _diam(h) == 6


def test_each_truncation_of_hirsch_sharp_finds_its_neighbours_once(monkeypatch):
    # (6, 14): two wedges and three truncations; each truncation reads its
    # vertex's neighbours once, for the cut and the midpoints alike
    calls = []
    real = constructions._simple_neighbours

    def counting(inc, u):
        calls.append(u)
        return real(inc, u)

    monkeypatch.setattr(constructions, "_simple_neighbours", counting)
    hirsch_sharp(6, 14)
    assert len(calls) == 3


def test_the_shared_block_is_analysed_once_and_only_read(monkeypatch):
    # every (d, n) starts from one analysis of the Klee-Walkup block per
    # process; after five outputs it still equals a fresh analysis, and a
    # second call of each pair returns an equal output
    pairs = [(5, 11), (5, 12), (6, 13), (6, 14), (7, 18)]
    calls = []
    real = constructions.analyse

    def counting(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(constructions, "analyse", counting)
    constructions._klee_walkup_block.cache_clear()
    first = [hirsch_sharp(d, n) for d, n in pairs]
    assert len(calls) == 1
    block, witness = constructions._klee_walkup_block()
    fresh = real(klee_walkup()[1])
    assert (block.h, block.v.rows, block.columns) == (fresh.h, fresh.v.rows, fresh.columns)
    assert block.masks == fresh.masks and block.facets == fresh.facets
    assert witness == constructions._sharp_witness(fresh, 4, 9)
    assert [hirsch_sharp(d, n) for d, n in pairs] == first
    assert len(calls) == 1


def test_each_handover_of_hirsch_sharp_sorts_nothing_and_transposes_once(monkeypatch):
    # (7, 18): three wedges and six truncations after the block's cached
    # analysis; each step emits its vertices in sorted order and, its rows
    # being its facets, shares its masks as the facet masks, so the only
    # transpose of a handover is the one of its columns
    from polydiam import dd, polyhedron

    constructions._klee_walkup_block()
    calls = {"_vertex_order": 0, "_transpose": 0, "_handed_over": 0}

    def spy(name, *modules):  # counts the calls through every module that holds the name
        for module in modules:
            if hasattr(module, name):
                def counting(*args, real=getattr(module, name)):
                    calls[name] += 1
                    return real(*args)
                monkeypatch.setattr(module, name, counting)

    spy("_vertex_order", dd, constructions)
    spy("_transpose", polyhedron, constructions)
    spy("_handed_over", constructions)
    hirsch_sharp(7, 18)
    assert calls == {"_vertex_order": 0, "_transpose": 9, "_handed_over": 9}


def test_hirsch_sharp_rejects_out_of_range():
    with pytest.raises(ValueError):
        hirsch_sharp(4, 4)
    with pytest.raises(ValueError):
        hirsch_sharp(4, 10)  # beyond 3d - 3 for d = 4
    with pytest.raises(ValueError):
        hirsch_sharp(3, 7)


def test_orthant_polytope_simple_bounded_sharp():
    for d, k in ((2, 2), (3, 2), (4, 3), (5, 4)):
        h = orthant_polytope(d, k)
        v, inc, g = _full(h)
        assert not v.rays
        assert len(facet_row_indices(inc)) == d + k
        assert classify(inc)[0] is True
        assert diameter(g)[0] >= k


def test_dstep_common_facet_when_n_below_2d():
    # every vertex pair of an instance with n < 2d shares a facet
    for h in (simplex(4), hirsch_sharp(5, 7)):
        v, inc, _ = _full(h)
        nfacets = len(facet_row_indices(inc))
        assert nfacets < 2 * h.d
        for i in range(len(v.vertices)):
            for j in range(i + 1, len(v.vertices)):
                assert inc.masks[i] & inc.masks[j]


def test_recipe_replay_identity():
    from polydiam import fileio

    recipes = [
        ConstructionRecipe("cube", {"d": 3}),
        ConstructionRecipe("kleewalkup"),
        ConstructionRecipe("hirsch_sharp", {"dim": 5, "facets": 11}),
        ConstructionRecipe("zeroone", {"dim": 3, "points": 6, "seed": 2}),
        ConstructionRecipe("wedge", {"facet": 3}, base=ConstructionRecipe("kleewalkup")),
        ConstructionRecipe(
            "product", {},
            base=ConstructionRecipe("simplex", {"d": 2}),
            other=ConstructionRecipe("simplex", {"d": 2}),
        ),
        ConstructionRecipe(
            "transportation", {"rows": ["2", "1"], "cols": ["1", "1", "1"]}
        ),
    ]
    for recipe in recipes:
        out1, out2 = replay(recipe), replay(ConstructionRecipe.from_dict(recipe.to_dict()))
        from polydiam.polyhedron import VPolyhedron

        if isinstance(out1, VPolyhedron):
            assert fileio.write_vfile(out1, recipe) == fileio.write_vfile(out2, recipe)
        else:
            assert fileio.write_hfile(out1, recipe) == fileio.write_hfile(out2, recipe)


def test_wedge_vertex_count_doubles_off_facet():
    # vertices off the wedged facet lift twice, those on it once
    h = cube(2)
    v, inc, _ = _full(h)
    on_facet = len(inc.vertices_on_row(0))
    w = wedge(inc, 0)
    vw = hrep_to_vrep(w)
    assert len(vw.vertices) == 2 * len(v.vertices) - on_facet


def test_brute_force_agreement_on_wedges():
    _, q4 = klee_walkup()
    w = wedge(_full(q4)[1], 4)
    assert set(hrep_to_vrep(w).vertices) == set(brute_force_vertices(w))


def _handed_over_cases(inc):
    """The wedge on every facet and the truncation of every simple vertex,
    each with the `Incidence` `hirsch_sharp` builds for it in closed form."""
    for k in inc.facets:
        yield f"wedge {k + 1}", _wedged(inc, k)
    for u, fm in enumerate(inc.facet_masks):
        if fm.bit_count() == inc.dim:
            yield f"truncate {u + 1}", _truncated(inc, u)


def _assert_hands_over_its_double_description(inc):
    count = 0
    for case, got in _handed_over_cases(inc):
        want = analyse(got.h)
        assert got.v.rows == want.v.rows, case
        assert got.v.labels == want.v.labels, case
        assert got.columns == want.columns, case
        assert got.masks == want.masks, case
        assert got.facets == want.facets, case
        assert got.facet_masks == want.facet_masks, case
        count += 1
    return count


def test_wedge_and_truncation_hand_over_the_incidence_of_their_output():
    # every bounded corpus polytope: the handed-over vertex rows, labels and
    # columns are those of a double description of the emitted rows, on 93
    # facets and 101 simple vertices
    count = sum(_assert_hands_over_its_double_description(converted(name))
                for name, _ in corpus())
    assert count == 93 + 101


def test_hand_over_in_a_hull_with_a_redundant_row():
    # cube(3) in x4 = 0 of R^4, the hull given by a linearity row, plus the
    # redundant row 3 + x1 + x2 + x3 >= 0, tight at the vertex (-1, -1, -1)
    # alone and at none of its midpoints
    from polydiam.polyhedron import HPolyhedron

    rows = [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0), (1, -1, 0, 0, 0),
            (1, 0, -1, 0, 0), (1, 0, 0, -1, 0), (0, 0, 0, 0, 1), (3, 1, 1, 1, 0)]
    inc = analyse(HPolyhedron.from_rows(4, rows, linearity=[6]))
    assert inc.facets == (0, 1, 2, 3, 4, 5) and inc.dim == 3
    assert _assert_hands_over_its_double_description(inc) == 6 + 8
