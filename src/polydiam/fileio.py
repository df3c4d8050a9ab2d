"""Text formats: H-files, V-files, subset-graph files.

All formats are whitespace-separated UTF-8 with exact rational literals
(optional sign, integer, optional "/denominator"; decimals rejected) and
allow full-line `#` comments.  Generated files carry their construction
recipe in a leading `# recipe {json}` comment so byte-identical replay is
possible.

H-file:                         V-file:
    H-representation                V-representation
    linearity k i1 ... ik           begin
    begin                           m d+1 rational
    m d+1 rational                  1 x1 ... xd   (vertex)
    b a1 ... ad                     0 z1 ... zd   (ray)
    end                             end
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .abstraction import SubsetFamilyGraph
from .constructions import ConstructionRecipe
from .polyhedron import HPolyhedron, VPolyhedron
from .ratlin import format_rational, parse_rational, primitive

RECIPE_PREFIX = "# recipe "


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def read_recipe(text: str) -> ConstructionRecipe | None:
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith(RECIPE_PREFIX):
            try:
                return ConstructionRecipe.from_dict(json.loads(line[len(RECIPE_PREFIX):]))
            except RecursionError:
                raise ValueError("recipe nested too deeply") from None
    return None


def _recipe_comment(recipe: ConstructionRecipe | None) -> list[str]:
    if recipe is None:
        return []
    return [
        RECIPE_PREFIX + json.dumps(recipe.to_dict(), separators=(",", ":")),
        f"# provenance: {recipe.provenance}",
    ]


def _line(lines: list[str], k: int, expected: str) -> str:
    """Line k, or a ValueError naming what a truncated file lacks."""
    if k >= len(lines):
        raise ValueError(f"unexpected end of file: expected {expected}")
    return lines[k]


def _parse_matrix_block(lines: list[str], start: int) -> tuple[int, int, list[list[Fraction]]]:
    if _line(lines, start, "'begin'") != "begin":
        raise ValueError(f"expected 'begin', found {lines[start]!r}")
    header = _line(lines, start + 1, "'m d+1 rational'").split()
    if len(header) != 3 or header[2] != "rational":
        raise ValueError(f"expected 'm d+1 rational', found {lines[start + 1]!r}")
    m, cols = int(header[0]), int(header[1])
    if m < 0 or cols < 1:
        raise ValueError(f"bad matrix size {m} x {cols}")
    # Each distinct token is parsed once per matrix, the first time it is
    # met in row-major order, so the first malformed token still raises.
    value: dict[str, Fraction] = {}
    rows = []
    for i in range(m):
        parts = _line(lines, start + 2 + i, f"matrix row {i + 1} of {m}").split()
        if len(parts) != cols:
            raise ValueError(f"row {i + 1}: expected {cols} entries, got {len(parts)}")
        if not all(map(value.__contains__, parts)):
            for p in parts:
                if p not in value:
                    value[p] = parse_rational(p)
        rows.append(list(map(value.__getitem__, parts)))
    if _line(lines, start + 2 + m, "'end'") != "end":
        raise ValueError("expected 'end' after matrix rows")
    return m, cols, rows


def _read_hlines(lines: list[str]) -> HPolyhedron:
    pos = 1
    linearity: set[int] = set()
    if _line(lines, pos, "'linearity' or 'begin'").startswith("linearity"):
        parts = lines[pos].split()
        if len(parts) < 2 or len(parts) != 2 + int(parts[1]):
            raise ValueError("malformed linearity line")
        linearity = {int(x) - 1 for x in parts[2:]}
        pos += 1
    m, cols, rows = _parse_matrix_block(lines, pos)
    d = cols - 1
    if any(not 0 <= i < m for i in linearity):
        raise ValueError("linearity index out of range")
    return HPolyhedron(
        d,
        tuple((row[0], tuple(row[1:])) for row in rows),
        frozenset(linearity),
    )


def _read_vlines(lines: list[str]) -> VPolyhedron:
    _, cols, rows = _parse_matrix_block(lines, 1)
    if any(row[0] not in (0, 1) for row in rows):
        raise ValueError("V-file rows must start with 1 (vertex) or 0 (ray)")
    # A row (1, x) or (0, r) scaled to primitive integers is the `VPolyhedron`
    # row of its vertex or ray; the vertices go first, each block in file order.
    vertices = [primitive(row) for row in rows if row[0]]
    rays = [primitive(row) for row in rows if not row[0]]
    return VPolyhedron._of_rows(cols - 1, tuple(vertices + rays))


def read_polyfile(text: str) -> HPolyhedron | VPolyhedron:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty input")
    if lines[0] == "H-representation":
        return _read_hlines(lines)
    if lines[0] == "V-representation":
        return _read_vlines(lines)
    raise ValueError(f"unknown file header {lines[0]!r}")


def write_hfile(h: HPolyhedron, recipe: ConstructionRecipe | None = None) -> str:
    lines = _recipe_comment(recipe)
    lines.append("H-representation")
    if h.linearity:
        idx = " ".join(str(i + 1) for i in sorted(h.linearity))
        lines.append(f"linearity {len(h.linearity)} {idx}")
    lines.append("begin")
    lines.append(f"{h.nrows} {h.d + 1} rational")
    for b, a in h.rows:
        lines.append(" ".join(format_rational(x) for x in (b, *a)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def write_vfile(v: VPolyhedron, recipe: ConstructionRecipe | None = None) -> str:
    lines = _recipe_comment(recipe)
    lines.append("V-representation")
    lines.append("begin")
    lines.append(f"{len(v.rows)} {v.d + 1} rational")
    for t, *y in v.rows:
        if t:
            lines.append("1 " + " ".join(_quotient(c, t) for c in y))
        else:
            lines.append("0 " + " ".join(map(str, y)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _quotient(c: int, t: int) -> str:
    """c / t in lowest terms, for t > 0, as `format_rational` writes it."""
    g = gcd(c, t)
    return str(c // g) if g == t else f"{c // g}/{t // g}"


def _ints(line: str, what: str, expected: str, count: int | None = None) -> list[int]:
    """The integers on `line`; a ValueError naming `what` and the line when
    a token is not one or, given `count`, when there are not `count` of them."""
    try:
        values = [int(x) for x in line.split()]
        if count is None or len(values) == count:
            return values
    except ValueError:
        pass
    raise ValueError(f"{what} {line!r}: expected {expected}")


def read_subset_graph(text: str) -> SubsetFamilyGraph:
    """Header 'n d', one node per line as sorted indices, 'edges:', index pairs.

    Edge lines refer to nodes by 1-based position in the node list.
    """
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty subset-graph file")
    n, d = _ints(lines[0], "header", "two integers 'n d'", 2)
    nodes: list[tuple[int, ...]] = []
    pos = 1
    while pos < len(lines) and lines[pos] != "edges:":
        nodes.append(tuple(_ints(lines[pos], "node line", "integer element indices")))
        pos += 1
    if pos == len(lines):
        raise ValueError("missing 'edges:' separator")
    edges = []
    for line in lines[pos + 1 :]:
        i, j = _ints(line, "edge line", "two node indices 'i j'", 2)
        if not (1 <= i <= len(nodes) and 1 <= j <= len(nodes)):
            raise ValueError(f"edge {i} {j}: node index out of range 1..{len(nodes)}")
        edges.append((nodes[i - 1], nodes[j - 1]))
    return SubsetFamilyGraph.make(n, d, nodes, edges)


def write_subset_graph(g: SubsetFamilyGraph, header_comment: str | None = None) -> str:
    lines = [] if header_comment is None else [f"# {header_comment}"]
    lines.append(f"{g.n} {g.d}")
    for node in g.nodes:
        lines.append(" ".join(str(x) for x in node))
    lines.append("edges:")
    for i, ns in enumerate(g.nbrs):  # nodes are sorted: this is edge order
        lines.extend(f"{i + 1} {j + 1}" for j in ns if j > i)
    return "\n".join(lines) + "\n"
