"""End-to-end command-line tests: pipelines, replay, exit codes."""

import json

import pytest

from polydiam.cli import main
from polydiam.constructions import replay
from polydiam.fileio import (
    read_hfile,
    read_recipe,
    read_subset_graph,
    read_vfile,
    write_hfile,
    write_vfile,
)
from polydiam import HPolyhedron, NotPointed, VPolyhedron, analyse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_cube_diameter_pipeline(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "gen", "cube", "3", "--out", str(tmp_path / "c.ine"))
    assert code == 0
    code, out, _ = run(capsys, "diameter", str(tmp_path / "c.ine"))
    assert code == 0 and out.strip() == "3"


def test_gen_kleewalkup_check_json(capsys, tmp_path):
    path = tmp_path / "q4.ine"
    assert run(capsys, "gen", "kleewalkup", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "check", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["diameter"] == 5
    assert report["n"] == 9 and report["d"] == 4
    assert report["hirsch_sharp"] is True


def test_bounds_text_and_json(capsys):
    code, out, _ = run(capsys, "bounds", "12", "4")
    assert code == 0
    assert "known_exact" in out and "7" in out
    code, out, _ = run(capsys, "bounds", "12", "4", "--json")
    data = json.loads(out)
    assert data["known_exact"] == 7 and data["larman"] == 24


def test_gen_wedge_check_pipeline(capsys, tmp_path):
    q4 = tmp_path / "q4.ine"
    w = tmp_path / "w.ine"
    run(capsys, "gen", "kleewalkup", "--out", str(q4))
    code, _, _ = run(capsys, "wedge", "--facet", "3", str(q4), "--out", str(w))
    assert code == 0
    code, out, _ = run(capsys, "check", str(w), "--json")
    report = json.loads(out)
    assert report["n"] == 10 and report["d"] == 5 and report["diameter"] == 5


# stdout of `gen`, pinned byte for byte by sha256.  `gen` writes the replay
# of the recipe it names, so these pins are what catches a changed byte.
_PINNED_GEN_OUTPUT = {
    "simplex": (("simplex", "3"),
                "f48e41012d64c50915c378c47ea8b60afd6187717ee26ef15e20c748a8c5beea"),
    "cube": (("cube", "3"),
             "928ca2288ebc3e8dc8c322359483d9ecc226c527b02f49a725b4ad5743994f11"),
    "crosspolytope": (("crosspolytope", "3"),
                      "98f6a35b2d362abbb291204b82d8784db55dee52588ce17e2b1082a7e3573cfd"),
    "kleewalkup": (("kleewalkup",),
                   "08b3463cba837cc5221859c4bb2f0dab791cb11f74654facfd418376a4e0f21e"),
    "transportation": (("transportation", "--rows", "2/4,3/2", "--cols", "1,1"),
                       "9a29b7a701c2165b6af7dbf33d3a53467f243d81befb65f18096bee2e25a6eaa"),
    "zeroone": (("zeroone", "--dim", "4", "--points", "7", "--seed", "3"),
                "58d3a7ff21301a213ee38ba82f0125c01e5bbafb33a86eac1ad9635c03982810"),
    "hirschsharp-5-11": (("hirschsharp", "--dim", "5", "--facets", "11"),
                         "9715e5dd7ff3b954f4f21c630d15503b98fa4694a595abf36c244e7ab2e489eb"),
    "hirschsharp-4-6": (("hirschsharp", "--dim", "4", "--facets", "6"),
                        "f993a509daacdd75f38ea57c43d78fefa661aca9e2c4ffe65f038d70421c6e3d"),
}


@pytest.mark.parametrize("generator", list(_PINNED_GEN_OUTPUT))
def test_recipe_replay_byte_identical(capsys, generator):
    import hashlib

    argv, digest = _PINNED_GEN_OUTPUT[generator]
    code, text, err = run(capsys, "gen", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, text
    recipe = read_recipe(text)
    assert recipe is not None
    write = write_vfile if generator == "zeroone" else write_hfile
    assert write(replay(recipe), recipe) == text


@pytest.mark.parametrize("argv,err", [
    (("cube", "0"), "error: d must be >= 1\n"),
    (("hirschsharp", "--dim", "3", "--facets", "9"),
     "error: no construction for (d=3, n=9): diameter-sharp polytopes are available "
     "for d < n <= 2d, or 2d < n <= 3d-3 with d >= 4\n"),
], ids=["cube-0", "hirschsharp-3-9"])
def test_gen_errors_are_pinned(capsys, argv, err):
    assert run(capsys, "gen", *argv) == (1, "", err)


def test_wedge_recipe_wraps_base(capsys, tmp_path):
    q4 = tmp_path / "q4.ine"
    w = tmp_path / "w.ine"
    run(capsys, "gen", "kleewalkup", "--out", str(q4))
    run(capsys, "wedge", "--facet", "1", str(q4), "--out", str(w))
    text = w.read_text()
    recipe = read_recipe(text)
    assert recipe.kind == "wedge" and recipe.base.kind == "kleewalkup"
    assert write_hfile(replay(recipe), recipe) == text


def test_gen_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.ine", tmp_path / "b.ine"
    run(capsys, "gen", "zeroone", "--dim", "4", "--points", "8", "--seed", "7",
        "--out", str(a))
    run(capsys, "gen", "zeroone", "--dim", "4", "--points", "8", "--seed", "7",
        "--out", str(b))
    assert a.read_text() == b.read_text()


def test_zeroone_requires_seed(capsys):
    code, _, _ = run(capsys, "gen", "zeroone", "--dim", "3", "--points", "5")
    assert code == 2


def test_usage_error_exit_2(capsys):
    assert run(capsys, "nosuchverb")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "bounds", "12")[0] == 2


def test_domain_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.ine"
    bad.write_text(write_hfile(HPolyhedron.from_rows(1, [(-1, 1), (0, -1)])))
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "H-representation\n",
    "H-representation\nbegin\n2 3 rational\n0 1 0\n",
    "V-representation\nbegin\n1 3 rational\n1 0 0\n",
], ids=["h-header-only", "h-missing-row", "v-missing-end"])
def test_truncated_file_exit_1(capsys, tmp_path, text):
    p = tmp_path / "cut.ine"
    p.write_text(text)
    code, _, err = run(capsys, "check", str(p))
    assert code == 1
    assert err.startswith("error: unexpected end of file")


def test_subset_graph_edge_to_missing_node_exit_1(capsys, tmp_path):
    p = tmp_path / "cut.sfg"
    p.write_text("2 1\n1\nedges:\n1 5\n")
    code, _, err = run(capsys, "abstraction", "validate", str(p))
    assert code == 1 and err.startswith("error: edge 1 5")


def test_not_pointed_exit_1(capsys, tmp_path):
    p = tmp_path / "line.ine"
    p.write_text(write_hfile(HPolyhedron.from_rows(2, [(0, 1, 0)])))
    code, _, err = run(capsys, "graph", str(p))
    assert code == 1 and "error" in err
    # a line, and an infeasible set that contains a line (x >= 1, -x >= 0)
    empty = tmp_path / "empty_line.ine"
    empty.write_text(write_hfile(HPolyhedron.from_rows(2, [(-1, 1, 0), (0, -1, 0)])))
    for path in (p, empty):
        code, out, err = run(capsys, "convert", "--to", "v", str(path))
        assert code == 1 and out == ""
        assert err == "error: feasible set contains a line: no vertices exist\n"


def test_check_vfile_names_vertices_as_graph_does(capsys, tmp_path):
    # The square in file order (1,1), (0,0), (1,0), (0,1): `graph` calls
    # (1,1) v0 and (0,0) v1, and `check` must use the same names.
    p = tmp_path / "square.ext"
    p.write_text(write_vfile(VPolyhedron.from_points([(1, 1), (0, 0), (1, 0), (0, 1)])))
    code, out, _ = run(capsys, "graph", str(p))
    assert code == 0
    edges = {tuple(line.split()) for line in out.strip().splitlines()[1:]}
    assert edges == {("v0", "v2"), ("v0", "v3"), ("v1", "v2"), ("v1", "v3")}
    code, out, _ = run(capsys, "check", "--json", "--monotone", "1,2", str(p))
    assert code == 0
    report = json.loads(out)
    assert report["monotone"]["optimum"] == "v0"  # (1,1) maximises x + 2y
    assert report["diameter"] == 2
    assert tuple(report["witness_pair"]) not in edges
    assert report["witness_pair"] == ["v0", "v1"]


def test_convert_round_trip(capsys, tmp_path):
    q4 = tmp_path / "q4.ine"
    v = tmp_path / "q4.ext"
    h2 = tmp_path / "q4b.ine"
    run(capsys, "gen", "kleewalkup", "--out", str(q4))
    assert run(capsys, "convert", "--to", "v", str(q4), "--out", str(v))[0] == 0
    assert run(capsys, "convert", "--to", "h", str(v), "--out", str(h2))[0] == 0
    back = read_hfile(h2.read_text())
    assert back.nrows == 9 and back.d == 4


def test_graph_and_distance(capsys, tmp_path):
    c = tmp_path / "cube.ine"
    run(capsys, "gen", "cube", "2", "--out", str(c))
    code, out, _ = run(capsys, "graph", str(c))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("nodes ")
    assert len(lines) == 1 + 4
    code, out, _ = run(capsys, "distance", "--from", "v0", "--to", "v3", str(c),
                       "--json")
    assert json.loads(out)["distance"] == 2


# stdout of each graph verb, pinned byte for byte by sha256.  cube(4) has
# sixteen labels, so string order (v10 before v2) decides the edge order.
_PINNED_GRAPH_OUTPUT = {
    ("cube", "graph"): "8814253fe94291dee0b8a21a9a54d49838f3980cc3aba87be5f1a02c726e8e88",
    ("cube", "dualgraph"): "7e68b276d4bd2b728ba2f2e1ad4e85d5bf84b2b7be01af85ef167023450f4402",
    ("kleewalkup", "graph"): "0370a3de4507f9f8e43a971b8adf7462a2e58c1562b8fc404a377024fd173406",
    ("kleewalkup", "dualgraph"): "2cb739b3ae4faca7f549f5dffa0c34074250c43c3734dc89950d7afe57a75721",
}
_PINNED_JSON_OUTPUT = {
    "cube": [
        (("diameter",), '{"diameter": 4, "witness": ["v0", "v15"]}\n'),
        (("distance", "--from", "v10", "--to", "v5"),
         '{"source": "v10", "target": "v5", "distance": 4}\n'),
    ],
    "kleewalkup": [
        (("diameter",), '{"diameter": 5, "witness": ["v12", "v14"]}\n'),
        (("distance", "--from", "v12", "--to", "v14"),
         '{"source": "v12", "target": "v14", "distance": 5}\n'),
    ],
}


# stdout of each operator verb on the generated H-file ("ine") and on its
# `convert --to v` V-file ("ext"), pinned byte for byte by sha256.
_OPERATOR_VERBS = {
    "wedge": ("wedge", "--facet", "1"),
    "unbound": ("unbound", "--facet", "1"),
    "truncate": ("truncate", "--vertex", "1"),
    "polar": ("polar",),
    "check": ("check", "--json"),
}
_PINNED_OPERATOR_OUTPUT = {
    ("cube", "ine", "wedge"): "3ac1615151f3a61ce1bb18ab6493ca85c90c31a2e40429f3d9560c06f1adf315",
    ("cube", "ine", "unbound"): "49b37f5cbf64d950f98b4e1ab93ee25344cf88322d949e31c722f87b39d9327a",
    ("cube", "ine", "truncate"): "bbbd7a25d3ed97d834702f747f378066c135465c499bf7435943f8fd36bf5286",
    ("cube", "ine", "polar"): "07afcdd65eafc25c47203c72cab2769170ccc083201d0fd667dbc8f8806471cf",
    ("cube", "ine", "check"): "f1df3835603b211208154fe5edbd071f55cabcddf69fdf094230ee676014fb1e",
    ("cube", "ext", "wedge"): "e2e7c25c22f1aec756e5fb3379b71bfe51d77b93234347d49f5cf497ac6ccdc1",
    ("cube", "ext", "unbound"): "0dc89e4297362da922338a822a2c32d4e00db485d8a8f24834fd0b41d79867a4",
    ("cube", "ext", "truncate"): "b074fd3a6ab2c958616849dde5670a8a833830014aa6cf2b7f8bd13b7d65e748",
    ("cube", "ext", "polar"): "07afcdd65eafc25c47203c72cab2769170ccc083201d0fd667dbc8f8806471cf",
    ("cube", "ext", "check"): "f1df3835603b211208154fe5edbd071f55cabcddf69fdf094230ee676014fb1e",
    ("kleewalkup", "ine", "wedge"): "9c65122478f0cc9ac8eb80bcceb5b9005ebe699dacd9ed8a7406b97c894b6863",
    ("kleewalkup", "ine", "unbound"): "fde6bf6158580543fecfc602c6f9eab80f6f48a0d953b7e6441855b7da09ac19",
    ("kleewalkup", "ine", "truncate"): "0bb6359374087197e4df7fe7cf603ae5d170ebec02c2b29a476e3106a7a825ca",
    ("kleewalkup", "ine", "polar"): "cf372483202de38b36e0539fb0dcf428dec90f4ceccb15dbaa62f12f8d51b6ab",
    ("kleewalkup", "ine", "check"): "cd3864a57732a9067c4a082c27ae3c6ef1034fab38a807abc60823a547cf9629",
    ("kleewalkup", "ext", "wedge"): "33d3d8182cd2e1e622bcb6bd807140490a33bacda5ad183a4575ead998d89e36",
    ("kleewalkup", "ext", "unbound"): "81689db387b082ad985599301b5f4007304419541ae1e8493ef03096565546b6",
    ("kleewalkup", "ext", "truncate"): "52387cbb6ee449b01308535decf5aeef0e4a7dfc1873ddc06111ab609b9b902c",
    ("kleewalkup", "ext", "polar"): "cf372483202de38b36e0539fb0dcf428dec90f4ceccb15dbaa62f12f8d51b6ab",
    ("kleewalkup", "ext", "check"): "cd3864a57732a9067c4a082c27ae3c6ef1034fab38a807abc60823a547cf9629",
}


@pytest.mark.parametrize("generator", ["cube", "kleewalkup"])
def test_graph_verbs_stdout_is_pinned(capsys, tmp_path, generator):
    import hashlib

    path = tmp_path / "p.ine"
    gen_args = ("cube", "4") if generator == "cube" else ("kleewalkup",)
    assert run(capsys, "gen", *gen_args, "--out", str(path))[0] == 0
    for verb in ("graph", "dualgraph"):
        code, out, _ = run(capsys, verb, str(path))
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == _PINNED_GRAPH_OUTPUT[generator, verb], (verb, out)
    for argv, expected in _PINNED_JSON_OUTPUT[generator]:
        code, out, _ = run(capsys, *argv, "--json", str(path))
        assert (code, out) == (0, expected)
    if generator == "cube":
        lines = run(capsys, "graph", str(path))[1].splitlines()
        assert lines.index("v10 v8") + 1 == lines.index("v11 v15")
        assert lines.index("v1 v9") + 1 == lines.index("v10 v11")
    vpath = tmp_path / "p.ext"
    assert run(capsys, "convert", "--to", "v", str(path), "--out", str(vpath))[0] == 0
    for form, file in (("ine", path), ("ext", vpath)):
        for verb, argv in _OPERATOR_VERBS.items():
            code, out, _ = run(capsys, *argv, str(file))
            assert code == 0
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert digest == _PINNED_OPERATOR_OUTPUT[generator, form, verb], (form, verb, out)


_ONE_CONVERSION_VERBS = [
    ("convert", "--to", "v"),
    ("convert", "--to", "h"),
    ("graph",),
    ("dualgraph",),
    ("diameter",),
    ("distance", "--from", "v0", "--to", "v7"),
    ("wedge", "--facet", "1"),
    ("unbound", "--facet", "1"),
    ("truncate", "--vertex", "1"),
    ("polar",),
    ("check",),
]


@pytest.mark.parametrize("form", ["ine", "ext"])
def test_each_verb_runs_at_most_one_conversion(capsys, tmp_path, monkeypatch, form):
    import sys

    import polydiam.dd

    path = tmp_path / "c.ine"
    assert run(capsys, "gen", "cube", "3", "--out", str(path))[0] == 0
    if form == "ext":
        vpath = tmp_path / "c.ext"
        assert run(capsys, "convert", "--to", "v", str(path), "--out", str(vpath))[0] == 0
        path = vpath
    calls = []
    for name in ("hrep_to_vrep", "vrep_to_hrep"):
        original = getattr(polydiam.dd, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        for mod in [m for key, m in sys.modules.items() if key.startswith("polydiam")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    for argv in _ONE_CONVERSION_VERBS:
        calls.clear()
        code, _, err = run(capsys, *argv, str(path))
        assert code == 0, (argv, err)
        assert len(calls) <= 1, (argv, calls)


def test_dualgraph(capsys, tmp_path):
    c = tmp_path / "cube.ine"
    run(capsys, "gen", "cube", "3", "--out", str(c))
    code, out, _ = run(capsys, "dualgraph", str(c))
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 12


def _point_file(tmp_path, points):
    """A V-file of planar points, one "x y" string each."""
    f = tmp_path / "pts.ext"
    f.write_text("V-representation\nbegin\n"
                 f"{len(points)} 3 rational\n" + "".join(f"1 {p}\n" for p in points) + "end\n")
    return f


def test_polar_ignores_listed_points_that_are_not_vertices(capsys, tmp_path):
    # The square alone, and the square with the inner point (1/2, 1/2).
    square = ["0 0", "2 0", "0 2", "2 2"]
    outs = []
    for points in (square, square + ["1/2 1/2"]):
        f = _point_file(tmp_path, points)
        code, out, _ = run(capsys, "polar", str(f))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("# polar translation applied: -1 -1\n")
    assert read_hfile(outs[0]).nrows == 4


def test_polar_output(capsys, tmp_path):
    c = tmp_path / "cube.ine"
    p = tmp_path / "polar.ine"
    run(capsys, "gen", "cube", "3", "--out", str(c))
    assert run(capsys, "polar", str(c), "--out", str(p))[0] == 0
    text = p.read_text()
    assert "# polar translation applied: 0 0 0" in text
    assert read_hfile(text).nrows == 8


def test_unbound_pipeline(capsys, tmp_path):
    q4 = tmp_path / "q4.ine"
    u = tmp_path / "u.ine"
    run(capsys, "gen", "kleewalkup", "--out", str(q4))
    assert run(capsys, "unbound", "--facet", "1", str(q4), "--out", str(u))[0] == 0
    code, out, _ = run(capsys, "check", str(u), "--json")
    report = json.loads(out)
    assert report["bounded"] is False and report["n"] == 8


def test_truncate_pipeline(capsys, tmp_path):
    c = tmp_path / "cube.ine"
    t = tmp_path / "t.ine"
    run(capsys, "gen", "cube", "3", "--out", str(c))
    assert run(capsys, "truncate", "--vertex", "v0", str(c), "--out", str(t))[0] == 0
    assert read_hfile(t.read_text()).nrows == 7


def test_truncate_vertex_label_as_in_graph_on_v_file(capsys, tmp_path):
    # Out of sorted order, so `graph` names (1, 1) v0 and (0, 0) v1.
    square = VPolyhedron.from_points([(1, 1), (0, 0), (1, 0), (0, 1)])
    path, out_path = tmp_path / "square.ext", tmp_path / "t.ine"
    path.write_text(write_vfile(square))
    code, out, _ = run(capsys, "graph", str(path))
    assert code == 0
    assert out == "nodes v0 v1 v2 v3\nv0 v2\nv0 v3\nv1 v2\nv1 v3\n"
    assert run(capsys, "truncate", "--vertex", "v0", str(path), "--out", str(out_path))[0] == 0
    cut = read_hfile(out_path.read_text())
    assert not cut.contains((1, 1))
    assert cut.contains((0, 0))


def test_product_pipeline(capsys, tmp_path):
    a, b, p = (tmp_path / x for x in ("a.ine", "b.ine", "p.ine"))
    run(capsys, "gen", "simplex", "2", "--out", str(a))
    run(capsys, "gen", "simplex", "2", "--out", str(b))
    assert run(capsys, "product", str(a), str(b), "--out", str(p))[0] == 0
    code, out, _ = run(capsys, "diameter", str(p))
    assert out.strip() == "2"
    recipe = read_recipe(p.read_text())
    assert recipe.kind == "product"


def test_check_monotone_flag(capsys, tmp_path):
    c = tmp_path / "cube.ine"
    run(capsys, "gen", "cube", "3", "--out", str(c))
    code, out, _ = run(capsys, "check", str(c), "--monotone", "1,2,4", "--json")
    report = json.loads(out)
    assert report["monotone"]["worst_length"] == 3


def test_check_nonrevisiting_flag(capsys, tmp_path):
    c = tmp_path / "cube.ine"
    run(capsys, "gen", "cube", "3", "--out", str(c))
    code, out, _ = run(capsys, "check", str(c), "--nonrevisiting", "--json")
    assert json.loads(out)["nonrevisiting"] is True


def test_abstraction_cli(capsys, tmp_path):
    g = tmp_path / "g.sfg"
    code, _, _ = run(capsys, "abstraction", "search", "4", "2", "--out", str(g))
    assert code == 0
    text = g.read_text()
    assert "diameter=3" in text and "complete=true" in text
    parsed = read_subset_graph(text)
    code, out, _ = run(capsys, "abstraction", "validate", str(g))
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "abstraction", "diameter", str(g), "--json")
    assert json.loads(out)["diameter"] == 3


def test_abstraction_search_needs_seed_when_randomized(capsys):
    code, _, err = run(capsys, "abstraction", "search", "5", "2", "--budget", "50")
    assert code == 1 and "seed" in err


def test_pipelines_compose_for_every_generator(capsys, tmp_path):
    # gen X | wedge --facet k | check succeeds for each generator kind
    gens = [
        ("simplex", ["gen", "simplex", "3"]),
        ("cube", ["gen", "cube", "3"]),
        ("crosspolytope", ["gen", "crosspolytope", "3"]),
        ("kleewalkup", ["gen", "kleewalkup"]),
        ("transportation", ["gen", "transportation", "--rows", "2,1",
                            "--cols", "1,1,1"]),
        ("hirschsharp", ["gen", "hirschsharp", "--dim", "4", "--facets", "7"]),
        ("zeroone", ["gen", "zeroone", "--dim", "3", "--points", "6",
                     "--seed", "4"]),
    ]
    from polydiam import hrep_to_vrep, incidence
    from polydiam.polyhedron import facet_row_indices

    for name, argv in gens:
        src = tmp_path / f"{name}.ine"
        assert run(capsys, *argv, "--out", str(src))[0] == 0
        if name == "zeroone":  # V-file: check directly, wedge needs H
            code, out, _ = run(capsys, "check", str(src), "--json")
            assert code == 0 and json.loads(out)["satisfies_hirsch"]
            continue
        h = read_hfile(src.read_text())
        v = hrep_to_vrep(h)
        valid = facet_row_indices(incidence(h, v))
        k = valid[0] + 1  # 1-based flag
        w = tmp_path / f"{name}.w.ine"
        assert run(capsys, "wedge", "--facet", str(k), str(src),
                   "--out", str(w))[0] == 0
        code, out, _ = run(capsys, "check", str(w), "--json")
        assert code == 0
        assert json.loads(out)["satisfies_hirsch"] is True


def test_check_json_field_set(capsys, tmp_path):
    q4 = tmp_path / "q4.ine"
    run(capsys, "gen", "kleewalkup", "--out", str(q4))
    code, out, _ = run(capsys, "check", str(q4), "--nonrevisiting", "--json")
    report = json.loads(out)
    assert set(report) >= {
        "n", "d", "bounded", "vertex_count", "diameter", "n_minus_d",
        "satisfies_hirsch", "hirsch_sharp", "simple", "simplicial",
        "witness_pair", "nonrevisiting",
    }


def test_linearity_file_through_cli(capsys, tmp_path):
    # raw equality-constrained system: the segment x + y = 1, x, y >= 0
    text = (
        "H-representation\nlinearity 1 3\nbegin\n"
        "3 3 rational\n0 1 0\n0 0 1\n-1 1 1\nend\n"
    )
    f = tmp_path / "seg.ine"
    f.write_text(text)
    code, out, _ = run(capsys, "diameter", str(f))
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "convert", "--to", "v", str(f))
    assert code == 0 and "1 0 1" in out and "1 1 0" in out


def test_stdin_pipeline(capsys, monkeypatch, tmp_path):
    import io

    c = tmp_path / "cube.ine"
    run(capsys, "gen", "cube", "3", "--out", str(c))
    monkeypatch.setattr("sys.stdin", io.StringIO(c.read_text()))
    code, out, _ = run(capsys, "diameter")
    assert code == 0 and out.strip() == "3"


@pytest.mark.parametrize("points,graph,diam", [
    (["0 0", "2 0", "0 2", "2 2", "1/2 1/2"],
     "nodes v0 v1 v2 v3\nv0 v1\nv0 v2\nv1 v3\nv2 v3\n", "2"),
    (["0 0", "1 1", "2 2"], "nodes v0 v2\nv0 v2\n", "1"),
], ids=["square-and-inner-point", "segment-and-midpoint"])
def test_listed_points_that_are_not_vertices_are_dropped(capsys, tmp_path, points, graph, diam):
    # The kept vertices keep their labels from the file.
    f = _point_file(tmp_path, points)
    inc = analyse(read_vfile(f.read_text()))
    assert " ".join(inc.v.all_labels()) == graph.splitlines()[0].removeprefix("nodes ")
    assert run(capsys, "graph", str(f)) == (0, graph, "")
    assert run(capsys, "diameter", str(f)) == (0, diam + "\n", "")
    code, out, _ = run(capsys, "check", str(f), "--json")
    assert code == 0 and json.loads(out)["diameter"] == int(diam)


def test_points_of_a_line_have_no_vertex(capsys, tmp_path):
    f = tmp_path / "line.ext"
    f.write_text("V-representation\nbegin\n3 2 rational\n1 0\n0 1\n0 -1\nend\n")
    with pytest.raises(NotPointed):
        analyse(read_vfile(f.read_text()))
    code, out, err = run(capsys, "graph", str(f))
    assert (code, out) == (1, "")
    assert err == "error: feasible set contains a line: no vertices exist\n"


@pytest.mark.parametrize("argv", [
    ["unbound", "--facet", "1"], ["wedge", "--facet", "1"], ["truncate", "--vertex", "1"],
], ids=lambda argv: argv[0])
def test_empty_input_says_infeasible(capsys, tmp_path, argv):
    f = tmp_path / "empty.ine"
    f.write_text(write_hfile(HPolyhedron.from_rows(1, [(-1, 1), (0, -1)])))  # x >= 1, x <= 0
    code, out, err = run(capsys, *argv, str(f))
    assert (code, out, err) == (1, "", "error: infeasible\n")
