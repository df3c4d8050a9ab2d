"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  All equality assertions are exact integer comparisons; the only
real-valued quantity (the quasi-polynomial bound) is checked through the
exact integer predicate, never through floating point.
"""

import json
import time
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations

from polydiam import (
    analyse,
    classify,
    hrep_to_vrep,
    skeleton_graph,
    vrep_to_hrep,
)
from polydiam.abstraction import (
    from_simple_polytope,
    search_max_diameter,
    subset_graph_diameter,
    validate_layer_property,
)
from polydiam.bounds import (
    KNOWN_EXACT_TABLE,
    bound_table,
    known_exact,
    lower_bound,
    power_bound_holds,
)
from polydiam.cli import main as cli_main
from polydiam.constructions import (
    crosspolytope,
    cube,
    hirsch_sharp,
    klee_walkup,
    product,
    random_01_polytope,
    simplex,
    transportation,
    truncate_vertex,
    unbound_at_facet,
    unbound_point_map,
    wedge,
)
from polydiam.paths import bfs_distances, diameter, nonrevisiting_property
from polydiam.polyhedron import HPolyhedron, facet_row_indices

from corpus import converted, corpus, ngon, orthant_polytope
from oracles import brute_force_vertices, incidence
from test_paths import _nonrevisiting_path
from test_simplicial import ANTISTAR_W, ANTISTAR_W_EDGES, klee_walkup_boundary


@contextmanager
def criterion(num, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {num:2d}] PASS  {description}  ({elapsed:.2f}s < {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {num} exceeded {limit_seconds}s"


@lru_cache(maxsize=None)
def _analyzed(h):
    return analyse(h)


def test_criterion_01_klee_walkup(capsys, tmp_path):
    with criterion(1, "Klee-Walkup: diameter 5, anti-star, dual graph", 5):
        path = tmp_path / "q4.ine"
        assert cli_main(["gen", "kleewalkup", "--out", str(path)]) == 0
        assert cli_main(["check", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["d"] == 4 and report["n"] == 9
        assert report["diameter"] == 5

        # the ridge graph of Q4* is its dual graph, and the anti-star of w
        # is the subgraph induced on the facets that miss w
        _, rg = klee_walkup_boundary()
        assert bfs_distances(rg, "abcd")["efgh"] == 5

        antistar = [name for name in rg.nodes if "w" not in name]
        assert sorted(antistar) == sorted(ANTISTAR_W)
        expected_edges = frozenset(tuple(sorted(e)) for e in ANTISTAR_W_EDGES)
        assert frozenset(e for e in rg.edges if "w" not in e[0] + e[1]) == expected_edges


def test_criterion_02_canonical_diameters():
    with criterion(2, "canonical diameters: simplex/cube/cross d=2..6, n-gons", 10):
        for d in range(2, 7):
            assert diameter(_analyzed(simplex(d)).graph)[0] == 1
            assert diameter(_analyzed(cube(d)).graph)[0] == d
            assert diameter(_analyzed(crosspolytope(d)).graph)[0] == 2
        for n in range(3, 13):
            assert diameter(_analyzed(ngon(n)).graph)[0] == n // 2


def test_criterion_03_wedge_law():
    with criterion(3, "wedge law on every corpus polytope and facet", 60):
        for name, h in corpus():
            inc = converted(name)
            diam = diameter(inc.graph)[0]
            facets = facet_row_indices(inc)
            for k in facets:
                w = wedge(inc, k)
                winc = _analyzed(w)
                wn, wdiam = len(facet_row_indices(winc)), diameter(winc.graph)[0]
                assert w.d == h.d + 1
                assert wn == len(facets) + 1
                assert wdiam >= diam


def test_criterion_04_product_law():
    with criterion(4, "product additivity on 20 generator pairs", 30):
        pool = [
            simplex(2), simplex(3), simplex(4),
            cube(2), cube(3), crosspolytope(2), crosspolytope(3),
            ngon(5), klee_walkup()[1], orthant_polytope(3, 2),
        ]
        stats = [
            (len(facet_row_indices(_analyzed(h))), diameter(_analyzed(h).graph)[0])
            for h in pool
        ]
        pairs = [(i, j) for i in range(len(pool)) for j in range(i, len(pool))]
        assert len(pairs) >= 20
        for i, j in pairs[:20]:
            prod = product(pool[i], pool[j])
            n = len(facet_row_indices(_analyzed(prod)))
            diam = diameter(_analyzed(prod).graph)[0]
            assert prod.d == pool[i].d + pool[j].d
            assert n == stats[i][0] + stats[j][0]
            assert diam == stats[i][1] + stats[j][1]


def test_criterion_05_unbounded_counterexample():
    with criterion(5, "projective unbounding of the Klee-Walkup block", 5):
        _, q4 = klee_walkup()
        inc = _analyzed(q4)
        v = inc.v
        _, (lu, lv) = diameter(inc.graph)
        labels = list(v.all_labels())
        wu = v.vertices[labels.index(lu)]
        wv = v.vertices[labels.index(lv)]
        k = next(
            i for i in facet_row_indices(inc)
            if q4.value(i, wu) > 0 and q4.value(i, wv) > 0
        )
        h8 = unbound_at_facet(inc, k)
        v8 = hrep_to_vrep(h8)
        inc8 = incidence(h8, v8)
        assert len(facet_row_indices(inc8)) == 8
        assert inc8.dim == 4
        assert v8.rays, "result must be unbounded"
        g8 = skeleton_graph(inc8)
        image_u = unbound_point_map(inc, k, wu)
        image_v = unbound_point_map(inc, k, wv)
        labels8 = list(v8.all_labels())
        lu8 = labels8[list(v8.vertices).index(image_u)]
        lv8 = labels8[list(v8.vertices).index(image_v)]
        dist = bfs_distances(g8, lu8)[lv8]
        assert dist >= 5 > 8 - 4


def test_criterion_06_hirsch_sharp_generators():
    with criterion(6, "diameter-sharp generators match n - d exactly", 120):
        cases = [(d, n) for d in range(2, 7) for n in range(d + 1, 2 * d + 1)]
        cases += [(4, 9), (5, 10), (5, 11), (5, 12)]
        for d, n in cases:
            h = hirsch_sharp(d, n)
            nfacets = len(facet_row_indices(_analyzed(h)))
            diam = diameter(_analyzed(h).graph)[0]
            assert h.d == d and nfacets == n
            assert diam == n - d
        assert known_exact(9, 4) == 5 == diameter(_analyzed(hirsch_sharp(4, 9)).graph)[0]
        assert known_exact(10, 5) == 5 == diameter(_analyzed(hirsch_sharp(5, 10)).graph)[0]


def test_criterion_07_zero_one_polytopes():
    with criterion(7, "100 random 0/1 polytopes: diam <= n - d and <= d", 120):
        cases = 0
        for d in (2, 3, 4, 5):
            for seed in range(25):
                m = min(2**d, d + 2 + (seed % (d + 3)))
                v = random_01_polytope(d, m, seed=seed)
                h = vrep_to_hrep(v)
                v2 = hrep_to_vrep(h)
                inc = incidence(h, v2)
                graph = skeleton_graph(inc)
                diam, _ = diameter(graph)
                n = len(facet_row_indices(inc))
                dim = inc.dim
                assert dim == d
                assert diam <= n - dim
                assert diam <= dim  # lattice polytope in [0,1]^d: k = 1
                cases += 1
        assert cases == 100


def test_criterion_08_transportation():
    with criterion(8, "20 balanced transportation instances", 60):
        import random as _random

        done = 0
        seed = 0
        while done < 20:
            rng = _random.Random(seed)
            seed += 1
            p = rng.randint(2, 4)
            q = rng.randint(2, 4)
            a = [rng.randint(1, 5) for _ in range(p)]
            total = sum(a)
            if total < q:
                continue
            cuts = sorted(rng.sample(range(1, total), q - 1))
            b = [c2 - c1 for c1, c2 in zip([0] + cuts, cuts + [total])]
            h = transportation(a, b)
            assert h.d == (p - 1) * (q - 1)
            inc = _analyzed(h)
            nfacets = len(facet_row_indices(inc))
            diam = diameter(inc.graph)[0]
            assert nfacets <= p * q
            assert diam <= p + q - 1
            assert diam <= 3 * (p + q - 1)
            done += 1


def test_criterion_09_oracle_equivalence():
    with criterion(9, "conversion matches brute-force vertex enumeration", 120):
        from polydiam import VPolyhedron

        _, q4 = klee_walkup()
        square_redundant = HPolyhedron.from_rows(
            2, [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (3, -1, 0)]
        )
        pyramid = vrep_to_hrep(
            VPolyhedron.from_points(
                [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)]
            )
        )
        instances = [
            *(simplex(d) for d in range(2, 6)),
            *(cube(d) for d in range(2, 6)),
            crosspolytope(2), crosspolytope(3),
            *(ngon(n) for n in range(3, 13)),
            q4,
            *(wedge(_analyzed(q4), k) for k in (0, 4, 8)),
            square_redundant,
            pyramid,
            orthant_polytope(4, 3),
            hirsch_sharp(5, 8),
            transportation([1, 1], [1, 1]),
            transportation([2, 1], [1, 1, 1]),
            transportation([1, 1, 1], [1, 1, 1]),
            unbound_at_facet(_analyzed(cube(2)), 1),
            unbound_at_facet(_analyzed(q4), 0),
            product(simplex(2), simplex(2)),
            wedge(_analyzed(ngon(5)), 0),
        ]
        for h in instances:
            assert h.nrows <= 12 and h.d <= 5, "instance outside the sweep range"
            got = sorted(hrep_to_vrep(h).vertices)
            assert got == brute_force_vertices(h)


def test_criterion_10_abstraction():
    with criterion(10, "subset-graph abstraction: validity, bounds, extremum", 120):
        for h in (cube(3), cube(4), simplex(4), klee_walkup()[1], hirsch_sharp(5, 8)):
            g = from_simple_polytope(_analyzed(h))
            ok, witness = validate_layer_property(g)
            assert ok and witness is None
            res = subset_graph_diameter(g)
            assert res.within_bounds
            assert power_bound_holds(res.diameter, g.n, g.d)
            assert res.diameter <= g.n * 2 ** (g.d - 1)
        search = search_max_diameter(4, 2)
        assert search.complete
        assert search.diameter == 3  # frozen from the complete enumeration
        assert validate_layer_property(search.best)[0]


def test_criterion_11_bounds_consistency():
    with criterion(11, "bound table, closed forms, corpus diameters", 10):
        for (n, d), value in KNOWN_EXACT_TABLE.items():
            assert bound_table(n, d).known_exact == value
        for n in range(4, 31):
            assert lower_bound(n, 3) == (2 * n) // 3 - 1 == known_exact(n, 3)
        for name, h in corpus():
            inc = converted(name)
            diam = diameter(inc.graph)[0]
            nfacets = len(facet_row_indices(inc))
            d = h.d
            if d >= 3:
                assert diam <= nfacets * 2 ** (d - 3)
            assert power_bound_holds(diam, nfacets, d)


def test_criterion_12_nonrevisiting():
    with criterion(12, "non-revisiting paths and the all-pairs property", 300):
        # every found path is within the n - d cap
        for name in ("cube3", "q4", "cross3", "ngon7"):
            inc = converted(name)
            h, v = inc.h, inc.v
            nfacets = len(facet_row_indices(inc))
            labels = list(v.all_labels())
            for a, b in list(combinations(labels, 2))[:30]:
                path = _nonrevisiting_path(inc, a, b)
                assert path is not None
                assert len(path) - 1 <= nfacets - h.d

        # the property holds on cubes, the Klee-Walkup block, and every
        # diameter-sharp generator of reasonable size
        targets = [cube(d) for d in (2, 3, 4)]
        targets.append(klee_walkup()[1])
        targets += [
            hirsch_sharp(d, n)
            for d in range(2, 7)
            for n in range(d + 1, 2 * d + 1)
        ]
        targets += [hirsch_sharp(4, 9), hirsch_sharp(5, 10),
                    hirsch_sharp(5, 11), hirsch_sharp(5, 12)]
        for h in targets:
            inc = _analyzed(h)
            if len(inc.v.vertices) > 400:
                continue
            result = nonrevisiting_property(inc)
            assert result.holds is True, f"failed on d={h.d}, rows={h.nrows}"
