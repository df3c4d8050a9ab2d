#!/usr/bin/env python3
"""Walk through the Klee-Walkup story end to end, printing each fact.

The nine-point simplicial 4-polytope, its simple polar with nine facets and
graph diameter five, the anti-star of the apex with its 15 tetrahedra, and
the unbounded eight-facet counterexample obtained by sending a facet to
infinity.

Run with the package on the path, e.g. `PYTHONPATH=src python
scripts/klee_walkup_tour.py`; CI compares its stdout with
`scripts/klee_walkup_tour.expected`.
"""

from polydiam import analyse
from polydiam.bounds import bound_table, hirsch_report
from polydiam.constructions import klee_walkup, unbound_at_facet, unbound_point_map
from polydiam.paths import bfs_distances, diameter
from polydiam.simplicial import anti_star, boundary_complex, facet_name, ridge_graph


def main() -> None:
    vstar, q4 = klee_walkup()
    print("Q4* points:")
    for label, point in zip(vstar.all_labels(), vstar.vertices):
        print(f"  {label} = {tuple(int(x) for x in point)}")

    complex_ = boundary_complex(analyse(vstar))
    print(f"\nboundary of Q4*: {len(complex_.facets)} tetrahedra on 9 vertices")
    rg = ridge_graph(complex_)
    dist = bfs_distances(rg, "abcd")
    print(f"ridge distance abcd -> efgh: {dist['efgh']}")

    star_15 = anti_star(complex_, "w")
    print(f"anti-star of w: {len(star_15.facets)} tetrahedra")
    print(" ", " ".join(sorted(facet_name(f) for f in star_15.facets)))

    inc = analyse(q4)
    report = hirsch_report(inc)
    print("\nQ4 (polar view):")
    for key in ("n", "d", "vertex_count", "diameter", "n_minus_d",
                "satisfies_hirsch", "hirsch_sharp", "simple"):
        print(f"  {key}: {report[key]}")

    # pick a facet avoiding a diameter witness pair and unbound it
    v = inc.v
    _, (lu, lv) = diameter(inc.graph)
    labels = v.all_labels()
    wu, wv = v.vertices[labels.index(lu)], v.vertices[labels.index(lv)]
    k = next(i for i in inc.facets if q4.value(i, wu) > 0 and q4.value(i, wv) > 0)
    h8 = unbound_at_facet(inc, k)
    inc8 = analyse(h8)
    v8 = inc8.v
    iu, iv = unbound_point_map(inc, k, wu), unbound_point_map(inc, k, wv)
    labels8 = v8.all_labels()
    d8 = bfs_distances(inc8.graph, labels8[v8.vertices.index(iu)])[
        labels8[v8.vertices.index(iv)]
    ]
    print(f"\nafter sending facet {k + 1} to infinity:")
    print(f"  facets: {len(inc8.facets)}, "
          f"rays: {len(v8.rays)}, witness distance: {d8} > n - d = 4")

    table = bound_table(9, 4)
    print(f"\nbound table at (9, 4): lower {table.lower}, known {table.known_exact}, "
          f"Hirsch r.h.s. {table.hirsch_rhs}")


if __name__ == "__main__":
    main()
