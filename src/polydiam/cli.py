"""Command-line front end.

Verbs: convert, graph, dualgraph, diameter, distance, wedge, product,
truncate, polar, unbound, gen, check, bounds, abstraction.  Data goes to
stdout (or --out), diagnostics to stderr.  Exit codes: 0 success, 1 domain
error (infeasible input, non-pointed set, bad parameters), 2 usage error.

Facet and vertex indices in flags are 1-based, matching the `linearity`
convention of the H-file format.  Every randomized command requires an
explicit --seed; every generated file embeds its construction recipe as a
`# recipe` comment and is byte-identical under replay (`gen` writes the
replay of the recipe it names).  Every verb that reads a polyhedron builds
its `Incidence` by `dd.analyse`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import abstraction as abst
from . import bounds as bnd
from . import constructions as cons
from . import fileio
from .dd import analyse, hrep_to_vrep, vrep_to_hrep
from .paths import bfs_distances, diameter
from .polyhedron import GeometryError, HPolyhedron, VPolyhedron, dual_graph, polar
from .ratlin import format_rational, parse_rational


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_h(text: str) -> HPolyhedron:
    obj = fileio.read_polyfile(text)
    if isinstance(obj, VPolyhedron):
        return vrep_to_hrep(obj)
    return obj


def _parse_rational_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",") if part]


def _graph_text(graph) -> str:
    lines = ["nodes " + " ".join(graph.nodes)]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


def _gen_recipe(args) -> cons.ConstructionRecipe:
    """The recipe named on the command line; `gen` writes its replay."""
    kind = args.generator
    if kind in ("simplex", "cube", "crosspolytope"):
        return cons.ConstructionRecipe(kind, {"d": args.d})
    if kind == "transportation":
        rows = _parse_rational_list(args.rows)
        cols = _parse_rational_list(args.cols)
        return cons.ConstructionRecipe(
            kind,
            {"rows": [format_rational(x) for x in rows],
             "cols": [format_rational(x) for x in cols]},
        )
    if kind == "zeroone":
        return cons.ConstructionRecipe(
            kind, {"dim": args.dim, "points": args.points, "seed": args.seed}
        )
    if kind == "hirschsharp":
        return cons.ConstructionRecipe(
            "hirsch_sharp", {"dim": args.dim, "facets": args.facets}
        )
    return cons.ConstructionRecipe(kind)  # kleewalkup, which has no parameters


def _cmd_gen(args) -> int:
    recipe = _gen_recipe(args)
    out = cons.replay(recipe)
    write = fileio.write_vfile if isinstance(out, VPolyhedron) else fileio.write_hfile
    _write_text(write(out, recipe), args.out)
    return 0


def _cmd_convert(args) -> int:
    text = _read_text(args.file)
    obj = fileio.read_polyfile(text)
    if args.to == "v":
        v = hrep_to_vrep(obj) if isinstance(obj, HPolyhedron) else obj
        _write_text(fileio.write_vfile(v), args.out)
    else:
        h = vrep_to_hrep(obj) if isinstance(obj, VPolyhedron) else obj
        _write_text(fileio.write_hfile(h), args.out)
    return 0


def _cmd_graph(args) -> int:
    graph = analyse(fileio.read_polyfile(_read_text(args.file))).graph
    _write_text(_graph_text(graph), args.out)
    return 0


def _cmd_dualgraph(args) -> int:
    graph = dual_graph(analyse(fileio.read_polyfile(_read_text(args.file))))
    _write_text(_graph_text(graph), args.out)
    return 0


def _cmd_diameter(args) -> int:
    inc = analyse(fileio.read_polyfile(_read_text(args.file)))
    value, witness = diameter(inc.graph)
    if args.json:
        print(json.dumps({"diameter": value, "witness": list(witness)}))
    else:
        print(value)
    return 0


def _cmd_distance(args) -> int:
    inc = analyse(fileio.read_polyfile(_read_text(args.file)))
    dist = bfs_distances(inc.graph, args.src)
    value = dist.get(args.dst)
    if value is None:
        raise ValueError(f"unknown target node {args.dst!r}")
    shown = int(value) if value != float("inf") else "unreachable"
    if args.json:
        print(json.dumps({"source": args.src, "target": args.dst, "distance": shown}))
    else:
        print(shown)
    return 0


def _wrap_recipe(kind: str, parameters: dict, text: str):
    base = fileio.read_recipe(text)
    if base is None:
        return None
    return cons.ConstructionRecipe(kind, parameters, base=base)


def _cmd_wedge(args) -> int:
    text = _read_text(args.file)
    out = cons.wedge(analyse(fileio.read_polyfile(text)), args.facet - 1)
    recipe = _wrap_recipe("wedge", {"facet": args.facet}, text)
    _write_text(fileio.write_hfile(out, recipe), args.out)
    return 0


def _cmd_product(args) -> int:
    text_a, text_b = _read_text(args.a), _read_text(args.b)
    out = cons.product(_load_h(text_a), _load_h(text_b))
    ra, rb = fileio.read_recipe(text_a), fileio.read_recipe(text_b)
    recipe = None
    if ra is not None and rb is not None:
        recipe = cons.ConstructionRecipe("product", {}, base=ra, other=rb)
    _write_text(fileio.write_hfile(out, recipe), args.out)
    return 0


def _cmd_truncate(args) -> int:
    text = _read_text(args.file)
    inc = analyse(fileio.read_polyfile(text))
    vertex: str | int = args.vertex
    if vertex not in inc.v.all_labels():
        try:
            vertex = int(args.vertex) - 1
        except ValueError:
            raise ValueError(f"unknown vertex {args.vertex!r}") from None
    out = cons.truncate_vertex(inc, vertex)
    recipe = _wrap_recipe("truncate", {"vertex": args.vertex}, text)
    _write_text(fileio.write_hfile(out, recipe), args.out)
    return 0


def _cmd_polar(args) -> int:
    inc = analyse(fileio.read_polyfile(_read_text(args.file)))
    out, shift = polar(inc.v)
    body = fileio.write_hfile(out)
    comment = "# polar translation applied: " + " ".join(
        format_rational(x) for x in shift
    )
    _write_text(comment + "\n" + body, args.out)
    return 0


def _cmd_unbound(args) -> int:
    text = _read_text(args.file)
    out = cons.unbound_at_facet(analyse(fileio.read_polyfile(text)), args.facet - 1)
    recipe = _wrap_recipe("unbound", {"facet": args.facet}, text)
    _write_text(fileio.write_hfile(out, recipe), args.out)
    return 0


def _cmd_check(args) -> int:
    inc = analyse(fileio.read_polyfile(_read_text(args.file)))
    c = _parse_rational_list(args.monotone) if args.monotone else None
    report = bnd.hirsch_report(
        inc, check_nonrevisiting=args.nonrevisiting, monotone_c=c
    )
    if args.json:
        print(bnd.report_to_json(report))
    else:
        order = [
            "n", "d", "bounded", "vertex_count", "diameter", "n_minus_d",
            "satisfies_hirsch", "hirsch_sharp", "simple", "simplicial",
            "witness_pair", "nonrevisiting", "nonrevisiting_witness", "monotone",
        ]
        for key in order:
            if key in report:
                print(f"{key}: {report[key]}")
    return 0


def _cmd_bounds(args) -> int:
    table = bnd.bound_table(args.n, args.d)
    if args.json:
        print(json.dumps(table.to_dict()))
    else:
        data = table.to_dict()
        width = max(len(k) for k in data)
        for key in ("n", "d", "lower", "larman", "kalai_kleitman",
                    "known_exact", "hirsch_rhs"):
            print(f"{key:<{width}}  {data[key]}")
    return 0


def _cmd_abstraction(args) -> int:
    if args.action == "validate":
        g = fileio.read_subset_graph(_read_text(args.file))
        ok, witness = abst.validate_layer_property(g)
        if args.json:
            print(json.dumps({"valid": ok, "witness": witness and
                              [list(witness[0]), list(witness[1])]}))
        elif ok:
            print("valid")
        else:
            u, v = witness
            print(f"invalid {' '.join(map(str, u))} / {' '.join(map(str, v))}")
        return 0
    if args.action == "diameter":
        g = fileio.read_subset_graph(_read_text(args.file))
        res = abst.subset_graph_diameter(g)
        if args.json:
            print(json.dumps({
                "diameter": res.diameter,
                "bound_linear": res.bound_linear,
                "bound_quasi": res.bound_quasi,
                "within_bounds": res.within_bounds,
            }))
        else:
            print(res.diameter)
        return 0
    # search
    res = abst.search_max_diameter(args.n, args.d, budget=args.budget, seed=args.seed)
    comment = (
        f"search n={args.n} d={args.d} diameter={res.diameter} "
        f"complete={str(res.complete).lower()} explored={res.explored}"
    )
    _write_text(fileio.write_subset_graph(res.best, comment), args.out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="polydiam",
        description="Exact polytope graphs, diameters, and diameter-extremal constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_out=True):
        p.add_argument("file", nargs="?", default="-",
                       help="H- or V-file path, or - for stdin (default)")
        if with_out:
            p.add_argument("--out", default=None, help="output path (default stdout)")

    gen = sub.add_parser("gen", help="generate a polytope description")
    gsub = gen.add_subparsers(dest="generator", required=True)
    for kind in ("simplex", "cube", "crosspolytope"):
        g = gsub.add_parser(kind)
        g.add_argument("d", type=int)
        g.add_argument("--out", default=None)
    g = gsub.add_parser("kleewalkup")
    g.add_argument("--out", default=None)
    g = gsub.add_parser("transportation")
    g.add_argument("--rows", required=True, help="comma-separated row sums")
    g.add_argument("--cols", required=True, help="comma-separated column sums")
    g.add_argument("--out", default=None)
    g = gsub.add_parser("zeroone")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--points", type=int, required=True)
    g.add_argument("--seed", type=int, required=True,
                   help="explicit PRNG seed (required: no hidden default)")
    g.add_argument("--out", default=None)
    g = gsub.add_parser("hirschsharp")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--facets", type=int, required=True)
    g.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    p = sub.add_parser("convert", help="convert between H- and V-representations")
    p.add_argument("--to", choices=("h", "v"), required=True)
    add_io(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("graph", help="skeleton graph (vertices and bounded edges)")
    add_io(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("dualgraph", help="facet-ridge adjacency graph")
    add_io(p)
    p.set_defaults(func=_cmd_dualgraph)

    p = sub.add_parser("diameter", help="graph diameter")
    add_io(p, with_out=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("distance", help="BFS distance between two vertices")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    add_io(p, with_out=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("wedge", help="wedge over a facet (1-based row index)")
    p.add_argument("--facet", type=int, required=True)
    add_io(p)
    p.set_defaults(func=_cmd_wedge)

    p = sub.add_parser("product", help="Cartesian product of two polytopes")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("truncate", help="cut off a simple vertex")
    p.add_argument("--vertex", required=True,
                   help="vertex label (as in `graph`) or 1-based index")
    add_io(p)
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("polar", help="polar polytope (centroid-translated)")
    add_io(p)
    p.set_defaults(func=_cmd_polar)

    p = sub.add_parser("unbound", help="send a facet to infinity projectively")
    p.add_argument("--facet", type=int, required=True)
    add_io(p)
    p.set_defaults(func=_cmd_unbound)

    p = sub.add_parser("check", help="full Hirsch report")
    add_io(p, with_out=False)
    p.add_argument("--nonrevisiting", action="store_true",
                   help="also run the all-pairs non-revisiting search")
    p.add_argument("--monotone", default=None, metavar="c1,c2,...",
                   help="also analyze monotone paths for this functional")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bounds", help="bound table for (n, d)")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("abstraction", help="subset-family graph tools")
    asub = p.add_subparsers(dest="action", required=True)
    a = asub.add_parser("validate")
    a.add_argument("file", nargs="?", default="-")
    a.add_argument("--json", action="store_true")
    a = asub.add_parser("diameter")
    a.add_argument("file", nargs="?", default="-")
    a.add_argument("--json", action="store_true")
    a = asub.add_parser("search")
    a.add_argument("n", type=int)
    a.add_argument("d", type=int)
    a.add_argument("--budget", type=int, default=1_000_000)
    a.add_argument("--seed", type=int, default=None,
                   help="required when the parameters exceed full enumeration")
    a.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_abstraction)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GeometryError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
