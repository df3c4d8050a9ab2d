"""End-to-end command-line tests: pipelines, replay, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polydiam.abstraction import search_max_diameter
from polydiam import cli
from polydiam.cli import main
from polydiam.constructions import ConstructionRecipe, cube, replay
from polydiam.fileio import (
    read_polyfile,
    read_recipe,
    read_subset_graph,
    write_hfile,
    write_subset_graph,
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
    "transportation-3x4": (("transportation", "--rows", "19,21,20", "--cols", "16,14,15,15"),
                           "11fc477d563c33485046cc94e70a372800cc8198c7a30677fd4e4d6a42ea11fc"),
    "transportation-3x5": (("transportation", "--rows", "45,52,7", "--cols", "6,15,55,22,6"),
                           "8b9ba842e46e5ac5b2de48021e4efcd47f4b33345a907c6dc11ee29217be28fa"),
    "zeroone": (("zeroone", "--dim", "4", "--points", "7", "--seed", "3"),
                "58d3a7ff21301a213ee38ba82f0125c01e5bbafb33a86eac1ad9635c03982810"),
    "hirschsharp-5-11": (("hirschsharp", "--dim", "5", "--facets", "11"),
                         "9715e5dd7ff3b954f4f21c630d15503b98fa4694a595abf36c244e7ab2e489eb"),
    "hirschsharp-5-12": (("hirschsharp", "--dim", "5", "--facets", "12"),
                         "ccbc7cf1a4ba0e7e361910bdf11497e253f038ecb9dc458b52c6ee38484ad241"),
    "hirschsharp-6-13": (("hirschsharp", "--dim", "6", "--facets", "13"),
                         "8dbb1f134b7f8782f09cbe52f199d6ae486e828f0698186dd8125a74675169f0"),
    "hirschsharp-6-14": (("hirschsharp", "--dim", "6", "--facets", "14"),
                         "130e8965ea68100a747f7c14666cc44024e728444777a0a16aa7c660ad72b214"),
    "hirschsharp-6-15": (("hirschsharp", "--dim", "6", "--facets", "15"),
                         "f16c8d1ade88fa3b165134ccb87c0835a8fc1c8df5f796f5040302aec6fe06f9"),
    "hirschsharp-7-18": (("hirschsharp", "--dim", "7", "--facets", "18"),
                         "79b79ca3e63478958b6bf1aea308996f957e18afe7cc387b41d2d59d4033a28b"),
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


# sha256 of `convert --to h` of `gen zeroone --dim 7 --points 24 --seed S`,
# then of `convert --to v` of that H-file: degenerate 0/1 polytopes from the
# benchmark's hull pool, seed 1024 being its largest (184 facets).
_PINNED_ZEROONE_ROUND_TRIP = {
    1000: ("cd6223edb673b863acf987ce281074c041dc246466057f3afc9b60687e05a2a5",
           "2ee2d447ac32bf805aa706025e55e552222d2f778c2f8ac97f214759e15ec099"),
    1024: ("f323557fddac42b2566b2e91d1e402273298ae23c48614a289621ad1d2fec231",
           "c2096c022bf273de24c6249087d241b5dac1118845734a5d714f00f8a0de91c8"),
}


@pytest.mark.parametrize("seed", list(_PINNED_ZEROONE_ROUND_TRIP))
def test_zeroone_round_trip_is_pinned(capsys, tmp_path, seed):
    import hashlib

    ext, ine = tmp_path / "p.ext", tmp_path / "p.ine"
    argv = ("zeroone", "--dim", "7", "--points", "24", "--seed", str(seed))
    assert run(capsys, "gen", *argv, "--out", str(ext))[0] == 0
    digests = []
    for target, source, out in (("h", ext, ine), ("v", ine, None)):
        code, text, err = run(capsys, "convert", "--to", target, str(source))
        assert (code, err) == (0, "")
        digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        if out is not None:
            out.write_text(text)
    assert tuple(digests) == _PINNED_ZEROONE_ROUND_TRIP[seed]


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


# Each operator verb through the command line, on generated files or on
# the output of an earlier step; "{i}" stands for the output of step i.
_OPERATOR_CHAINS = {
    "wedge-facet": [["gen", "kleewalkup"], ["wedge", "--facet", "3", "{0}"]],
    "unbound-facet": [["gen", "kleewalkup"], ["unbound", "--facet", "1", "{0}"]],
    "truncate-label": [["gen", "cube", "3"], ["truncate", "--vertex", "v0", "{0}"]],
    "truncate-index": [["gen", "cube", "3"], ["truncate", "--vertex", "1", "{0}"]],
    "truncate-truncated": [["gen", "cube", "3"], ["truncate", "--vertex", "v0", "{0}"],
                           ["truncate", "--vertex", "2", "{1}"]],
    "product-h-v": [["gen", "cube", "2"],
                    ["gen", "zeroone", "--dim", "3", "--points", "6", "--seed", "2"],
                    ["product", "{0}", "{1}"]],
}


@pytest.mark.parametrize("steps", _OPERATOR_CHAINS.values(), ids=_OPERATOR_CHAINS)
def test_every_operator_output_replays(capsys, tmp_path, steps):
    paths = []
    for i, argv in enumerate(steps):
        code, text, err = run(capsys, *(arg.format(*paths) for arg in argv))
        assert (code, err) == (0, ""), argv
        paths.append(tmp_path / f"step{i}.txt")
        paths[-1].write_text(text)
    recipe = read_recipe(text)
    assert recipe.kind == steps[-1][0]
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
    # a line, and an infeasible set that contains a line (x >= 1, -x >= 0),
    # each as inequalities and as linearity rows (y = 0; x = 0 and x = 1)
    empty = tmp_path / "empty_line.ine"
    empty.write_text(write_hfile(HPolyhedron.from_rows(2, [(-1, 1, 0), (0, -1, 0)])))
    eq_line = tmp_path / "eq_line.ine"
    eq_line.write_text(write_hfile(HPolyhedron.from_rows(2, [(0, 0, 1)], linearity=[0])))
    eq_empty = tmp_path / "eq_empty_line.ine"
    eq_empty.write_text(write_hfile(
        HPolyhedron.from_rows(2, [(0, 1, 0), (-1, 1, 0)], linearity=[0, 1])))
    for path in (p, empty, eq_line, eq_empty):
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
    back = read_polyfile(h2.read_text())
    assert back.nrows == 9 and back.d == 4


def test_convert_changes_the_format_only(capsys, tmp_path):
    # the square plus its inner point (1/2, 1/2): `convert --to v` copies
    # all five points, the round trip through H keeps the four vertices
    sq, h = tmp_path / "sq.ext", tmp_path / "sq.ine"
    points = [(0, 0), (2, 0), (0, 2), (2, 2), (Fraction(1, 2), Fraction(1, 2))]
    sq.write_text(write_vfile(VPolyhedron.from_points(points)))
    code, out, _ = run(capsys, "convert", "--to", "v", str(sq))
    assert code == 0 and len(read_polyfile(out).vertices) == 5
    assert run(capsys, "convert", "--to", "h", str(sq), "--out", str(h))[0] == 0
    code, out, _ = run(capsys, "convert", "--to", "v", str(h))
    assert code == 0 and len(read_polyfile(out).vertices) == 4


def test_convert_writes_a_ray_at_primitive_scale(capsys, tmp_path):
    # the points are copied, but a ray is a direction: `convert --to v` writes
    # it primitive, as the H -> V conversion does
    ext = tmp_path / "wedge.ext"
    ext.write_text("V-representation\nbegin\n3 3 rational\n1 0 0\n1 1/2 -1/3\n0 2 4\nend\n")
    code, out, err = run(capsys, "convert", "--to", "v", str(ext))
    assert (code, err) == (0, "")
    assert out == "V-representation\nbegin\n3 3 rational\n1 0 0\n1 1/2 -1/3\n0 1 2\nend\n"


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


# sha256 of `convert --to h` on the 3-dimensional V-file that `convert --to v`
# makes of cube(3) placed in x4 = 0 of R^4 (the operator smoke's placed.ine)
_PINNED_PLACED_HULL = "b7eeb4f879b139e1e8452d1bca7bbcd62627ba5562506b7884bb18b2aa7195a4"


def test_lower_dimensional_v_file_to_h_is_pinned(capsys, tmp_path):
    import hashlib

    placed, ext = tmp_path / "placed.ine", tmp_path / "placed.ext"
    rows = [(b, *a, 0) for b, a in cube(3).rows] + [(0, 0, 0, 0, 1)]
    placed.write_text(write_hfile(HPolyhedron.from_rows(4, rows, linearity=[6])))
    assert run(capsys, "convert", "--to", "v", str(placed), "--out", str(ext))[0] == 0
    code, out, err = run(capsys, "convert", "--to", "h", str(ext))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _PINNED_PLACED_HULL, out
    assert read_polyfile(out).linearity == frozenset({0})


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
    assert read_polyfile(outs[0]).nrows == 4


def test_polar_output(capsys, tmp_path):
    c = tmp_path / "cube.ine"
    p = tmp_path / "polar.ine"
    run(capsys, "gen", "cube", "3", "--out", str(c))
    assert run(capsys, "polar", str(c), "--out", str(p))[0] == 0
    text = p.read_text()
    assert "# polar translation applied: 0 0 0" in text
    assert read_polyfile(text).nrows == 8


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
    assert read_polyfile(t.read_text()).nrows == 7


def test_truncate_vertex_label_as_in_graph_on_v_file(capsys, tmp_path):
    # Out of sorted order, so `graph` names (1, 1) v0 and (0, 0) v1.
    square = VPolyhedron.from_points([(1, 1), (0, 0), (1, 0), (0, 1)])
    path, out_path = tmp_path / "square.ext", tmp_path / "t.ine"
    path.write_text(write_vfile(square))
    code, out, _ = run(capsys, "graph", str(path))
    assert code == 0
    assert out == "nodes v0 v1 v2 v3\nv0 v2\nv0 v3\nv1 v2\nv1 v3\n"
    assert run(capsys, "truncate", "--vertex", "v0", str(path), "--out", str(out_path))[0] == 0
    cut = read_polyfile(out_path.read_text())
    assert not cut.linearity
    assert any(cut.value(i, (1, 1)) < 0 for i in range(cut.nrows))
    assert all(cut.value(i, (0, 0)) >= 0 for i in range(cut.nrows))


def test_truncate_of_a_segment_adds_no_facet(capsys, tmp_path):
    # The cut through the one edge midpoint makes the vertex's own facet row
    # redundant, so the segment keeps two facets.
    c, t = tmp_path / "c.ine", tmp_path / "t.ine"
    run(capsys, "gen", "cube", "1", "--out", str(c))
    assert run(capsys, "truncate", "--vertex", "1", str(c), "--out", str(t))[0] == 0
    code, out, _ = run(capsys, "check", "--json", str(t))
    report = json.loads(out)
    assert code == 0 and (report["d"], report["n"], report["vertex_count"]) == (1, 2, 2)


def test_product_keeps_linearity_rows(capsys, tmp_path):
    # cube(3) in the hyperplane x4 = 0 of R^4, given by a linearity row,
    # times the triangle, in either order, checks as cube(3) x simplex(2) does
    placed, tri, p = (tmp_path / x for x in ("placed.ine", "s.ine", "p.ine"))
    rows = [(b, *a, 0) for b, a in cube(3).rows] + [(0, 0, 0, 0, 1)]
    placed.write_text(write_hfile(HPolyhedron.from_rows(4, rows, linearity=[6])))
    run(capsys, "gen", "simplex", "2", "--out", str(tri))
    for pair in ((placed, tri), (tri, placed)):
        assert run(capsys, "product", *map(str, pair), "--out", str(p))[0] == 0
        code, out, _ = run(capsys, "check", "--json", str(p))
        report = json.loads(out)
        assert code == 0
        assert tuple(report[k] for k in ("d", "n", "diameter", "vertex_count")) == (5, 9, 4, 24)


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


@pytest.mark.parametrize("c,count", [
    ("1,2,4,100", "4 coefficients"), ("1,2", "2 coefficients"), ("1", "1 coefficient"),
    (",", "0 coefficients"), ("", "0 coefficients"),
])
def test_check_monotone_needs_one_coefficient_per_coordinate(capsys, tmp_path, c, count):
    cube3 = tmp_path / "cube.ine"
    run(capsys, "gen", "cube", "3", "--out", str(cube3))
    code, out, err = run(capsys, "check", str(cube3), "--monotone", c, "--json")
    assert (code, out) == (1, "")
    assert err == f"error: functional has {count}: the polyhedron is in R^3\n"


_CUBE3_TEXT_REPORT = """\
n: 6
d: 3
bounded: True
vertex_count: 8
diameter: 3
n_minus_d: 3
satisfies_hirsch: True
hirsch_sharp: True
simple: True
simplicial: False
witness_pair: ['v0', 'v7']
"""


@pytest.mark.parametrize("argv,text,expected", [
    (["check"], write_hfile(cube(3)), _CUBE3_TEXT_REPORT),
    (["check", "--nonrevisiting", "--monotone", "1,2,4"], write_hfile(cube(3)),
     _CUBE3_TEXT_REPORT + "nonrevisiting: True\n"
     "monotone: {'optimum': 'v7', 'worst_length': 3, 'unreachable': []}\n"),
    # the wedge x >= 0, y >= 0, x + y >= 1: unbounded, so not classified
    (["check", "--nonrevisiting"],
     "H-representation\nbegin\n3 3 rational\n0 1 0\n0 0 1\n-1 1 1\nend\n",
     "n: 3\nd: 2\nbounded: False\nvertex_count: 2\ndiameter: 1\nn_minus_d: 1\n"
     "satisfies_hirsch: True\nhirsch_sharp: True\nsimple: None\nsimplicial: None\n"
     "witness_pair: ['v0', 'v1']\nnonrevisiting: None\n"),
    (["bounds", "12", "4"], None,
     "n               12\nd               4\nlower           7\nlarman          24\n"
     "kalai_kleitman  1728.0\nknown_exact     7\nhirsch_rhs      8\n"),
    (["bounds", "30", "10"], None,
     "n               30\nd               10\nlower           19\nlarman          3840\n"
     "kalai_kleitman  2421095.1087778611\nknown_exact     None\nhirsch_rhs      20\n"),
], ids=["check", "check-nonrevisiting-monotone", "check-unbounded", "bounds-12-4",
        "bounds-30-10"])
def test_check_and_bounds_text_output_is_pinned(capsys, tmp_path, argv, text, expected):
    if text is not None:
        (tmp_path / "in.txt").write_text(text)
        argv = [*argv, str(tmp_path / "in.txt")]
    assert run(capsys, *argv) == (0, expected, "")


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


def test_abstraction_of_a_simple_polytope(capsys, tmp_path):
    q4, g = tmp_path / "q4.ine", tmp_path / "q4.sfg"
    run(capsys, "gen", "kleewalkup", "--out", str(q4))
    code, _, _ = run(capsys, "abstraction", "of", str(q4), "--out", str(g))
    assert code == 0
    parsed = read_subset_graph(g.read_text())
    assert (parsed.n, parsed.d, len(parsed.nodes)) == (9, 4, 27)
    code, out, _ = run(capsys, "abstraction", "validate", str(g))
    assert (code, out) == (0, "valid\n")
    code, out, _ = run(capsys, "abstraction", "diameter", str(g), "--json")
    assert code == 0 and json.loads(out)["diameter"] == 5


def test_abstraction_of_rejects_non_simple_and_unbounded(capsys, tmp_path):
    cross, q4, unbounded = (tmp_path / name for name in ("x.ine", "q4.ine", "u.ine"))
    run(capsys, "gen", "crosspolytope", "3", "--out", str(cross))
    run(capsys, "gen", "kleewalkup", "--out", str(q4))
    run(capsys, "unbound", "--facet", "1", str(q4), "--out", str(unbounded))
    assert run(capsys, "abstraction", "of", str(cross)) == (
        1, "", "error: abstraction requires a simple polytope\n")
    assert run(capsys, "abstraction", "of", str(unbounded)) == (
        1, "", "error: abstraction requires a bounded polytope\n")


def test_abstraction_of_rejects_a_point(capsys, tmp_path):
    # A point's one node is the empty facet set, which the subset-graph
    # format cannot write as a line, so no file is written for it.
    point, g = tmp_path / "p.ext", tmp_path / "p.sfg"
    point.write_text("V-representation\nbegin\n1 3 rational\n1 1 2\nend\n")
    assert run(capsys, "diameter", str(point)) == (0, "0\n", "")
    assert run(capsys, "abstraction", "of", str(point), "--out", str(g)) == (
        1, "", "error: abstraction requires a polytope of dimension at least 1\n")
    assert not g.exists()


def test_abstraction_search_rejects_d_zero(capsys, tmp_path):
    # Its one node, the empty set, would write a file that does not read back.
    g = tmp_path / "g.sfg"
    assert run(capsys, "abstraction", "search", "2", "0", "--out", str(g)) == (
        1, "", "error: need 1 <= d <= n\n")
    assert not g.exists()


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
    for name, argv in gens:
        src = tmp_path / f"{name}.ine"
        assert run(capsys, *argv, "--out", str(src))[0] == 0
        if name == "zeroone":  # V-file: check directly, wedge needs H
            code, out, _ = run(capsys, "check", str(src), "--json")
            assert code == 0 and json.loads(out)["satisfies_hirsch"]
            continue
        k = analyse(read_polyfile(src.read_text())).facets[0] + 1  # 1-based flag
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
    inc = analyse(read_polyfile(f.read_text()))
    assert " ".join(inc.v.all_labels()) == graph.splitlines()[0].removeprefix("nodes ")
    assert run(capsys, "graph", str(f)) == (0, graph, "")
    assert run(capsys, "diameter", str(f)) == (0, diam + "\n", "")
    code, out, _ = run(capsys, "check", str(f), "--json")
    assert code == 0 and json.loads(out)["diameter"] == int(diam)


def test_points_of_a_line_have_no_vertex(capsys, tmp_path):
    f = tmp_path / "line.ext"
    f.write_text("V-representation\nbegin\n3 2 rational\n1 0\n0 1\n0 -1\nend\n")
    with pytest.raises(NotPointed):
        analyse(read_polyfile(f.read_text()))
    code, out, err = run(capsys, "graph", str(f))
    assert (code, out) == (1, "")
    assert err == "error: feasible set contains a line: no vertices exist\n"


@pytest.mark.parametrize("argv", [
    ["unbound", "--facet", "1"], ["wedge", "--facet", "1"], ["truncate", "--vertex", "1"],
    ["polar"],
], ids=lambda argv: argv[0])
def test_empty_input_says_infeasible(capsys, tmp_path, argv):
    f = tmp_path / "empty.ine"
    f.write_text(write_hfile(HPolyhedron.from_rows(1, [(-1, 1), (0, -1)])))  # x >= 1, x <= 0
    code, out, err = run(capsys, *argv, str(f))
    assert (code, out, err) == (1, "", "error: infeasible\n")


@pytest.mark.parametrize("argv,err", [
    (["wedge", "--facet", "9"], "facet index 9 out of range"),
    (["wedge", "--facet", "7"], "row 7 is redundant: wedge needs a facet-defining row"),
    (["unbound", "--facet", "0"], "facet index 0 out of range"),
    (["unbound", "--facet", "7"], "row 7 is redundant: unbound needs a facet-defining row"),
    (["truncate", "--vertex", "99"], "vertex index 99 out of range"),
    (["truncate", "--vertex", "0"], "vertex index 0 out of range"),
], ids=["wedge-9", "wedge-redundant", "unbound-0", "unbound-redundant", "truncate-99",
        "truncate-0"])
def test_operator_errors_give_the_flag_1_based(capsys, tmp_path, argv, err):
    # cube(3) plus the redundant row 5 + x1 >= 0 as row 7
    rows = [(b, *a) for b, a in cube(3).rows] + [(5, 1, 0, 0)]
    f = tmp_path / "cube_plus.ine"
    f.write_text(write_hfile(HPolyhedron.from_rows(3, rows)))
    assert run(capsys, *argv, str(f)) == (1, "", f"error: {err}\n")


@pytest.mark.parametrize("argv", [
    ["truncate", "--vertex", "1"], ["polar"], ["wedge", "--facet", "1"],
    ["unbound", "--facet", "1"],
], ids=lambda argv: argv[0])
def test_operators_accept_a_linearity_row(capsys, tmp_path, argv):
    # cube(3) in the hyperplane x4 = 0 of R^4, given by a linearity row:
    # each operator's output checks like its output on cube(3) in R^3
    flat, placed = tmp_path / "cube.ine", tmp_path / "placed.ine"
    flat.write_text(write_hfile(cube(3)))
    rows = [(b, *a, 0) for b, a in cube(3).rows] + [(0, 0, 0, 0, 1)]
    placed.write_text(write_hfile(HPolyhedron.from_rows(4, rows, linearity=[6])))
    reports = []
    for f in (flat, placed):
        code, out, err = run(capsys, *argv, str(f))
        assert (code, err) == (0, "")
        (f.parent / "out.ine").write_text(out)
        code, out, _ = run(capsys, "check", "--json", str(f.parent / "out.ine"))
        assert code == 0
        reports.append({k: v for k, v in json.loads(out).items() if k != "witness_pair"})
    assert reports[0] == reports[1]
    want = {"truncate": (3, 7), "polar": (3, 8), "wedge": (4, 7), "unbound": (3, 5)}
    assert (reports[1]["d"], reports[1]["n"]) == want[argv[0]]


def test_mpmath_is_imported_on_first_use_only():
    # `bounds` needs it for an irrational quasi-polynomial bound and for
    # `--json`; loading the CLI, and the verbs that never reach either, do not
    script = ("import sys, polydiam.cli; assert 'mpmath' not in sys.modules; "
              "sys.exit(polydiam.cli.main(['bounds', '11', '5', '--json']))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        '{"n": 11, "d": 5, "lower": 5, "larman": 44, "kalai_kleitman": '
        '"2880.2595059592031", "known_exact": 6, "hirsch_rhs": 6}\n'
    )


# Small H- and V-texts: cube(3); the square with its recipe; the unit
# square in z = 0 of R^3 by a linearity row; a V-file with a ray; a square
# listed with points that are not vertices, plus a ray.
_TEXTS = [
    write_hfile(cube(3)),
    write_hfile(cube(2), ConstructionRecipe("cube", {"d": 2})),
    "H-representation\nlinearity 1 5\nbegin\n5 4 rational\n"
    "0 1 0 0\n1 -1 0 0\n0 0 1 0\n1 0 -1 0\n0 0 0 1\nend\n",
    "V-representation\nbegin\n4 3 rational\n1 0 0\n1 0 1/3\n1 1/2 0\n0 1 1\nend\n",
    "V-representation\nbegin\n7 3 rational\n"
    "1 0 0\n1 1/2 1/2\n1 1 0\n1 1/2 0\n1 0 1\n1 1 1\n0 1 1\nend\n",
]


@st.composite
def _mutated_text(draw, texts):
    """One of `texts` after one to three edits: a line dropped, duplicated
    or swapped with another, or a token negated or dropped."""
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "swap", "negate", "drop token"]))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif tokens := lines[i].split():
            k = draw(st.integers(0, len(tokens) - 1))
            if kind == "negate":
                tokens[k] = tokens[k][1:] if tokens[k].startswith("-") else "-" + tokens[k]
            else:
                del tokens[k]
            lines[i] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


def _run_on_text(verb, text):
    """(exit code, stderr) of `verb` on `text` written to a file, given
    once (twice for `product`)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.txt")
        with open(path, "w") as f:
            f.write(text)
        out, err = io.StringIO(), io.StringIO()
        argv = [*verb, path, path] if verb == ["product"] else [*verb, path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


def _exits_cleanly(verb, text):
    """Run `verb` on `text`: exit code 0, 1 or 2 and no traceback."""
    code, err = _run_on_text(verb, text)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


_RECIPE_VERBS = [["wedge", "--facet", "1"], ["unbound", "--facet", "1"],
                 ["truncate", "--vertex", "1"], ["product"]]

# `# recipe` comments that are not a recipe: JSON of the wrong shape, an
# operand that is not one, truncated JSON, and JSON nested deeper than
# the parser recurses.
_BAD_RECIPES = {
    "empty": "{}",
    "list": "[1]",
    "base": '{"kind":"wedge","parameters":{"facet":1},"base":7}',
    "truncated": '{"kind":"cube","parameters":{"d":',
    "deep": "[" * 3000 + "]" * 3000,
}


@pytest.mark.parametrize("verb", _RECIPE_VERBS, ids=lambda verb: verb[0])
@pytest.mark.parametrize("recipe", _BAD_RECIPES.values(), ids=_BAD_RECIPES)
def test_operator_verbs_reject_a_malformed_recipe(recipe, verb):
    code, err = _run_on_text(verb, f"# recipe {recipe}\n" + write_hfile(cube(2)))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_out_of_memory_is_an_error_line(capsys, monkeypatch, tmp_path):
    def exhausted(poly):
        raise MemoryError

    path = tmp_path / "c.ine"
    path.write_text(write_hfile(cube(3)))
    monkeypatch.setattr(cli, "analyse", exhausted)
    assert run(capsys, "diameter", str(path)) == (1, "", "error: out of memory\n")


@settings(max_examples=170, deadline=None)
@given(_mutated_text(_TEXTS), st.sampled_from([
    ["graph"], ["diameter"], ["check", "--json"], ["dualgraph"],
    ["convert", "--to", "h"], ["convert", "--to", "v"], ["polar"], *_RECIPE_VERBS,
    ["distance", "--from", "v0", "--to", "v1"], ["abstraction", "of"],
]))
def test_graph_verbs_on_mutated_text_exit_cleanly(text, verb):
    _exits_cleanly(verb, text)


# Subset-graph texts: a best graph of a randomized (5, 2) search and the
# extremal graph of the exhaustive (4, 2) search.
_SUBSET_TEXTS = [
    write_subset_graph(search_max_diameter(5, 2, budget=200, seed=11).best),
    write_subset_graph(search_max_diameter(4, 2).best),
]


@settings(max_examples=40, deadline=None)
@given(_mutated_text(_SUBSET_TEXTS), st.sampled_from([
    ["abstraction", "validate"], ["abstraction", "validate", "--json"],
    ["abstraction", "diameter", "--json"],
]))
def test_abstraction_verbs_on_mutated_subset_text_exit_cleanly(text, verb):
    _exits_cleanly(verb, text)
