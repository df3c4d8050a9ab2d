"""Text format round trips and rejection of malformed input."""

from fractions import Fraction

import pytest

from polydiam import HPolyhedron, VPolyhedron, hrep_to_vrep
from polydiam.abstraction import SubsetFamilyGraph
from polydiam.constructions import ConstructionRecipe, cube, klee_walkup, transportation
from polydiam.fileio import (
    read_polyfile,
    read_recipe,
    read_subset_graph,
    write_hfile,
    write_subset_graph,
    write_vfile,
)
from polydiam.ratlin import parse_rational, primitive


def test_hfile_round_trip():
    for h in (cube(3), klee_walkup()[1], transportation([2, 1], [1, 1, 1])):
        assert read_polyfile(write_hfile(h)) == h


def test_hfile_with_linearity():
    h = HPolyhedron.from_rows(
        2, [(0, 1, 0), (0, 0, 1), (-1, 1, 1)], linearity=[2]
    )
    text = write_hfile(h)
    assert "linearity 1 3" in text
    assert read_polyfile(text) == h


def test_vfile_round_trip():
    v = hrep_to_vrep(cube(2))
    assert read_polyfile(write_vfile(v)) == v
    strip = VPolyhedron.from_points([(0, 0), (0, 1)], rays=[(1, 0), (1, 1)])
    assert read_polyfile(write_vfile(strip)) == strip


@pytest.mark.parametrize("text", [
    "V-representation\nbegin\n2 3 rational\n1 -1/3 5/2\n1 0 -7\nend\n",
    # the triangle (0, 0), (0, 1/3), (1/2, 0) plus the ray (1, 1)
    "V-representation\nbegin\n4 3 rational\n1 0 0\n1 0 1/3\n1 1/2 0\n0 1 1\nend\n",
    "V-representation\nbegin\n3 4 rational\n1 -2/7 3/2 0\n0 -2 3 0\n0 0 0 1\nend\n",
])
def test_vfile_text_round_trip(text):
    assert write_vfile(read_polyfile(text)) == text


def test_polyfile_dispatch():
    assert isinstance(read_polyfile(write_hfile(cube(2))), HPolyhedron)
    assert isinstance(read_polyfile(write_vfile(hrep_to_vrep(cube(2)))), VPolyhedron)


def test_comments_ignored():
    text = "# a comment\n" + write_hfile(cube(2)) + "# trailing\n"
    assert read_polyfile(text) == cube(2)


def test_recipe_round_trip():
    recipe = ConstructionRecipe("wedge", {"facet": 2},
                                base=ConstructionRecipe("cube", {"d": 3}))
    text = write_hfile(cube(3), recipe)
    back = read_recipe(text)
    assert back == recipe
    assert read_recipe(write_hfile(cube(3))) is None


def test_rational_entries_survive():
    h = HPolyhedron.from_rows(1, [("1/3", "-2/7")])
    assert read_polyfile(write_hfile(h)) == h


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "H-representation\nbegin\n1 2 real\n0 1\nend\n",
        "H-representation\nbegin\n2 2 rational\n0 1\nend\n",
        "H-representation\nbegin\n1 2 rational\n0 1.5\nend\n",
        "V-representation\nbegin\n1 3 rational\n2 0 0\nend\n",
        "Q-representation\nbegin\n0 1 rational\nend\n",
    ],
)
def test_malformed_rejected(bad):
    with pytest.raises(ValueError):
        read_polyfile(bad)


# Rows that repeat tokens and spell one value several ways.
SPELLINGS = ["2 +2 02 4/2 0 -0", "0 -0 +2 2 02 4/2", "-4/2 2 0 6/3 -0 02", "+0 02 -0 2 2 1/3"]


def _matrix(header, rows):
    return f"{header}\nbegin\n{len(rows)} {len(rows[0].split())} rational\n" + "\n".join(rows) + "\nend\n"


def test_each_token_reads_as_parsed_alone():
    # the matrix is parsed once per distinct token, to the same rows as the
    # token-by-token reference
    want = [[parse_rational(t) for t in row.split()] for row in SPELLINGS]
    h = read_polyfile(_matrix("H-representation", SPELLINGS))
    assert [[b, *a] for b, a in h.rows] == want
    assert all(type(x) is Fraction for b, a in h.rows for x in (b, *a))
    vrows = ["1 " + row for row in SPELLINGS[:2]] + ["+1 " + SPELLINGS[2], "0 " + SPELLINGS[3]]
    want = [[parse_rational(t) for t in row.split()] for row in vrows]
    want_v = VPolyhedron._of_rows(6, tuple(map(primitive, want)))  # vertices, then a ray
    assert read_polyfile(_matrix("V-representation", vrows)) == want_v


@pytest.mark.parametrize("header", ["H-representation", "V-representation"])
@pytest.mark.parametrize("bad, message", [
    ("1/0", "zero denominator: '1/0'"),
    ("0.5", "not an exact rational literal: '0.5'"),
])
def test_the_first_malformed_token_raises_after_valid_repeats(header, bad, message):
    # `bad` is the first malformed token in row-major order; a second one
    # follows in its row and a third in the next
    rows = ["1 2 +2 02", "1 02 2 4/2", f"1 2 {bad} 7/0", "1 x 2 02"]
    with pytest.raises(ValueError) as err:
        read_polyfile(_matrix(header, rows))
    assert str(err.value) == message


def test_subset_graph_round_trip():
    g = SubsetFamilyGraph.make(
        4, 2, [(1, 2), (1, 3), (3, 4)], [((1, 2), (1, 3)), ((1, 3), (3, 4))]
    )
    assert read_subset_graph(write_subset_graph(g)) == g
    assert read_subset_graph(write_subset_graph(g, "best found")) == g


def test_write_hfile_deterministic():
    assert write_hfile(klee_walkup()[1]) == write_hfile(klee_walkup()[1])
