"""Text format round trips and rejection of malformed input."""

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


def test_subset_graph_round_trip():
    g = SubsetFamilyGraph.make(
        4, 2, [(1, 2), (1, 3), (3, 4)], [((1, 2), (1, 3)), ((1, 3), (3, 4))]
    )
    assert read_subset_graph(write_subset_graph(g)) == g
    assert read_subset_graph(write_subset_graph(g, "best found")) == g


def test_write_hfile_deterministic():
    assert write_hfile(klee_walkup()[1]) == write_hfile(klee_walkup()[1])
