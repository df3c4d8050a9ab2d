"""Seeded inputs, operation decks and answer checks for the four workloads.

A workload is a deck: a fixed list of CLI operations on input files that
`build` writes from one seed.  The run replays the deck in whole passes,
so every pass does the same work and the statistics do not depend on how
many passes fit in the measuring time.

Where the seed chooses a polytope it only picks among polytopes of one
combinatorial type (a signed permutation and translation of the
coordinates, positive row scalings, row order, which margins go to which
row), so the work per pass stays nearly the same from seed to seed.  The
seed also picks the facets and vertices the operators act on and the
monotone functionals.  Two kinds of input are fixed instead, because
their cost varies too much with the seed: the subset-graph searches of
`search` use fixed search seeds, and `hull` converts a fixed pool of 0/1
polytopes in an order drawn from the seed (how long the double-description
method takes on a random 0/1 polytope depends on its points and their
order; the same polytope under a symmetry of the cube can take twice as
long).

Each operation names an answer check.  Checks parse the output text
themselves and compare with values known in closed form (a cube's
diameter is its dimension, products add facets and diameters, a p x q
transportation polytope has dimension (p-1)(q-1), a diameter-sharp output
has diameter n - d); the polytopes that `sharp` generates are also run
through `polydiam check`.  Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("report", "hull", "sharp", "search")

# The tail percentile (in permille) each workload reports.  It is fixed per
# workload, so a faster program, which fits more passes into a run, is
# compared at the same percentile; a run makes enough passes to have ten
# samples beyond it.  Each deck repeats a few kinds of operation of clearly
# different cost, so each percentile is placed inside the samples of one
# kind (or between two kinds of equal cost), never at the edge between a
# cheap and a dear one, where the noise of a single sample would move it.
TAIL_PERMILLE = {"report": 750, "hull": 900, "sharp": 800, "search": 850}

# The pool of 0/1 polytopes `hull` converts: fixed, so that its cost does
# not depend on the seed.
HULL_POOL = range(1000, 1040)

# Nodes each toy subset-graph search may explore, and the search seeds.
# With the budget fixed, a search's time still varies by a fifth from one
# search seed to another, so like `HULL_POOL` these are fixed.
SUBSET_BUDGET = 200
SUBSET_SEEDS = (11, 12, 13, 14)

# Generic margins (no proper partial row sum equals a partial column sum),
# so the polytopes are simple.  The near-central 3x4 pair gives 96
# vertices, the skewed one 64, the 3x5 pair 119.
TRANSPORT_3X4 = ((19, 21, 20), (16, 14, 15, 15))
TRANSPORT_3X4_SKEWED = ((7, 11, 13), (5, 6, 9, 11))
TRANSPORT_3X5 = ((45, 52, 7), (6, 15, 55, 22, 6))


@dataclass(frozen=True)
class Op:
    """One CLI call: argv for `polydiam.cli.main` and the check of its answer.

    `stdin_from` is the deck index of an earlier operation whose stdout is
    fed to this one as standard input (the file argument is then `-`).
    """

    label: str
    argv: tuple[str, ...]
    check: str
    expect: dict = field(default_factory=dict)
    stdin_from: int | None = None


# -- seeded transformations ---------------------------------------------------


def embed(pd, h, rng: random.Random):
    """An affinely isomorphic copy of an inequality-only H-polyhedron.

    New coordinates y_j = s_j x_{p(j)} + t_j for a random signed
    permutation (s, p) and an integer shift t; every row is multiplied by a
    random positive integer and the rows are shuffled.
    """
    d = h.d
    perm = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    shift = [rng.randint(-3, 3) for _ in range(d)]
    rows = []
    for b, a in h.rows:
        a2 = [signs[j] * a[perm[j]] for j in range(d)]
        b2 = b - sum(a2[j] * shift[j] for j in range(d))
        k = rng.randint(1, 3)
        rows.append((Fraction(b2 * k), tuple(Fraction(x * k) for x in a2)))
    rng.shuffle(rows)
    return pd.polyhedron.HPolyhedron(d, tuple(rows))


def _product(pd, parts):
    cons = pd.constructions
    out = cons.simplex(parts[0])
    for k in parts[1:]:
        out = cons.product(out, cons.simplex(k))
    return out


def _distinct_functional(pd, h, rng: random.Random) -> str:
    """Coefficients that give every vertex its own value (so no edge ties).

    Structured choices such as 1 + i^2 tie on some inputs and make the
    monotone analysis raise, so draws are rejected until all vertex values
    differ.
    """
    v = pd.dd.hrep_to_vrep(h)
    for _ in range(100):
        c = rng.sample(range(10**6, 10**7), h.d)
        values = {sum(ci * xi for ci, xi in zip(c, p)) for p in v.vertices}
        if len(values) == len(v.vertices):
            return ",".join(map(str, c))
    raise RuntimeError("no tie-free functional found")


class _Writer:
    """Writes input files into one directory and remembers their bytes."""

    def __init__(self, pd, directory: Path):
        self.pd = pd
        self.directory = directory
        self.files: dict[str, bytes] = {}

    def h(self, name: str, h) -> str:
        return self._put(name, self.pd.fileio.write_hfile(h))

    def v(self, name: str, v) -> str:
        return self._put(name, self.pd.fileio.write_vfile(v))

    def _put(self, name: str, text: str) -> str:
        path = self.directory / name
        path.write_text(text, encoding="utf-8")
        self.files[name] = text.encode("utf-8")
        return str(path)


# -- decks -------------------------------------------------------------------


def _report(pd, rng, out: _Writer) -> list[Op]:
    """`check --json` and `diameter` on simple polytopes with many vertices.

    The deck is kept to about two seconds a pass, so that a run makes
    enough passes for steady medians, and shaped so that its median and
    tail each fall between two operations of about the same cost: the
    median between the two 3x4 transportation diameters, the 75th
    percentile among the cube(7) and 3x5 transportation diameters and the
    hirsch_sharp(5, 11) check.
    """
    cons = pd.constructions
    ops: list[Op] = []

    def both(label, path, expect, check=True):
        if check:
            ops.append(Op(f"{label}/check", ("check", "--json", path), "report", expect))
        ops.append(Op(f"{label}/diameter", ("diameter", path), "diameter", expect))

    both("cube7", out.h("cube7.ine", embed(pd, cons.cube(7), rng)),
         {"d": 7, "n": 14, "diameter": 7, "vertex_count": 128}, check=False)
    for tag in ("a", "b"):
        both(f"cube6{tag}", out.h(f"cube6{tag}.ine", embed(pd, cons.cube(6), rng)),
             {"d": 6, "n": 12, "diameter": 6, "vertex_count": 64}, check=False)
    for tag in ("a", "b"):
        a, b = (rng.sample(m, len(m)) for m in TRANSPORT_3X4)
        h = embed(pd, cons.transportation(a, b), rng)
        both(f"transport3x4{tag}", out.h(f"transport3x4{tag}.ine", h),
             {"d": 6, "max_n": 12, "max_diameter": 6}, check=(tag == "a"))
    a, b = (rng.sample(m, len(m)) for m in TRANSPORT_3X5)
    both("transport3x5", out.h("transport3x5.ine", embed(pd, cons.transportation(a, b), rng)),
         {"d": 8, "max_n": 15, "max_diameter": 7}, check=False)
    parts = rng.sample([2, 2, 2, 1], 4)
    both("simplexproduct", out.h("simplexproduct.ine", embed(pd, _product(pd, parts), rng)),
         {"d": 7, "n": 11, "diameter": 4, "vertex_count": 54})
    for d, n in ((5, 11), (6, 13)):
        h = embed(pd, cons.hirsch_sharp(d, n), rng)
        both(f"sharp{d}_{n}", out.h(f"sharp{d}_{n}.ine", h),
             {"d": d, "n": n, "diameter": n - d}, check=(d == 5))
    return ops


def _hull(pd, rng, out: _Writer) -> list[Op]:
    """V -> H -> V round trips of random 0/1 polytopes, plus a V -> V rewrite.

    The rewrite only parses and prints, so a third of the operations are
    small ones that file I/O dominates, and the median falls among the
    V -> H conversions rather than between two kinds of operation.  The
    polytopes are the fixed `HULL_POOL`, in an order drawn from the seed.
    """
    ops: list[Op] = []
    for k, pool_seed in enumerate(rng.sample(HULL_POOL, len(HULL_POOL))):
        v = pd.constructions.random_01_polytope(7, 24, pool_seed)
        path = out.v(f"zeroone{k:02d}.ext", v)
        points = sorted(tuple(map(str, p)) for p in v.vertices)
        ops.append(Op(f"zeroone{k:02d}/rewrite", ("convert", "--to", "v", path), "roundtrip",
                      {"points": points}))
        ops.append(Op(f"zeroone{k:02d}/to_h", ("convert", "--to", "h", path), "hfile",
                      {"d": 7}))
        ops.append(Op(f"zeroone{k:02d}/to_v", ("convert", "--to", "v", "-"), "roundtrip",
                      {"points": points}, stdin_from=len(ops) - 1))
    return ops


def _sharp(pd, rng, out: _Writer) -> list[Op]:
    """Diameter-sharp (d, n) for (5, 11), (5, 12), (6, 13) and (6, 14), plus
    wedge and unbound on a placed copy of the Klee-Walkup polytope and a
    truncation of a placed copy of one of its wedges.

    With four `gen` operations above three cheaper ones, the median falls
    on `gen` (5, 11) and the 80th percentile on `gen` (6, 13), whose inputs
    do not depend on the seed.  (6, 15) and d = 7 are left out: they would
    make a pass so long that a run holds too few of them for a steady median.
    """
    cons = pd.constructions
    ops: list[Op] = []
    pairs = [(5, 11), (5, 12), (6, 13), (6, 14)]
    rng.shuffle(pairs)
    for d, n in pairs:
        ops.append(Op(f"gen{d}_{n}", ("gen", "hirschsharp", "--dim", str(d), "--facets", str(n)),
                      "sharp", {"d": d, "n": n}))
    kw = cons.klee_walkup()[1]
    placed = {
        "kleewalkup": embed(pd, kw, rng),
        "kleewalkup_wedge": embed(pd, cons.wedge(kw, rng.randrange(kw.nrows)), rng),
    }
    shapes = {}
    for name, h in placed.items():
        path = out.h(f"{name}.ine", h)
        nverts = len(pd.dd.hrep_to_vrep(h).vertices)
        shapes[name] = (path, {"d": h.d, "n": h.nrows, "vertex_count": nverts})
    for name, verb in (("kleewalkup", "wedge"), ("kleewalkup", "unbound"),
                       ("kleewalkup_wedge", "truncate")):
        path, shape = shapes[name]
        flag, top = ("--vertex", shape["vertex_count"]) if verb == "truncate" else (
            "--facet", shape["n"])
        ops.append(Op(f"{name}/{verb}", (verb, flag, str(rng.randint(1, top)), path),
                      verb, shape))
    return ops


def _search(pd, rng, out: _Writer) -> list[Op]:
    """All-pairs non-revisiting and monotone searches, and toy subset-graph
    searches whose best graph is then measured by `abstraction diameter`.
    The seed places the polytopes and draws the monotone functionals.

    cube(5) and the four subset-graph searches cost about the same and hold
    the median, so that the cost of one search moves it little.  How long a
    search takes depends on the placement and the functional, so cube(6) is
    searched twice, in two placements, and the 85th percentile falls
    between the two.
    hirsch_sharp(6, 15), which alone would take half a pass, is left out.
    """
    cons = pd.constructions
    ops: list[Op] = []

    def searched(label, h, expect):
        path = out.h(f"{label}.ine", h)
        c = _distinct_functional(pd, h, rng)
        ops.append(Op(f"{label}/search",
                      ("check", "--json", "--nonrevisiting", "--monotone", c, path),
                      "search", expect))

    for d, tag in ((5, ""), (6, "a"), (6, "b")):
        searched(f"cube{d}{tag}", embed(pd, cons.cube(d), rng),
                 {"d": d, "n": 2 * d, "diameter": d, "nonrevisiting": True, "worst_length": d})
    a, b = (rng.sample(m, len(m)) for m in TRANSPORT_3X4_SKEWED)
    searched("transport3x4", embed(pd, cons.transportation(a, b), rng), {"d": 6})
    searched("sharp5_11", embed(pd, cons.hirsch_sharp(5, 11), rng),
             {"d": 5, "n": 11, "diameter": 6})
    for tag, seed in zip("abcd", SUBSET_SEEDS):
        ops.append(Op(f"abstraction{tag}/search",
                      ("abstraction", "search", "5", "2", "--budget", str(SUBSET_BUDGET),
                       "--seed", str(seed)),
                      "subset_search", {"n": 5, "d": 2, "explored": SUBSET_BUDGET}))
        ops.append(Op(f"abstraction{tag}/diameter", ("abstraction", "diameter", "--json", "-"),
                      "subset_diameter", {}, stdin_from=len(ops) - 1))
    return ops


_DECKS = {"report": _report, "hull": _hull, "sharp": _sharp, "search": _search}


def build(pd, workload: str, seed: int, directory: Path) -> tuple[list[Op], dict[str, bytes]]:
    """Write the workload's input files for `seed` and return its deck.

    The seed stream is namespaced by workload, so each workload's inputs
    depend only on (workload, seed).
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    out = _Writer(pd, directory)
    ops = _DECKS[workload](pd, rng, out)
    return ops, out.files


# -- answer checks -------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def parse_matrix(text: str, kind: str) -> tuple[int, list[list[Fraction]], set[int]]:
    """(d, rows, linearity) of an H- or V-file, parsed independently."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    _need(bool(lines) and lines[0] == f"{kind}-representation", f"not a {kind}-file")
    linearity: set[int] = set()
    pos = 1
    if lines[pos].startswith("linearity"):
        parts = lines[pos].split()
        linearity = {int(x) - 1 for x in parts[2:]}
        pos += 1
    _need(lines[pos] == "begin", "missing begin")
    m, cols, word = lines[pos + 1].split()
    _need(word == "rational", "missing rational header")
    rows = [[Fraction(x) for x in lines[pos + 2 + i].split()] for i in range(int(m))]
    _need(all(len(r) == int(cols) for r in rows), "ragged matrix")
    _need(lines[pos + 2 + int(m)] == "end", "missing end")
    return int(cols) - 1, rows, linearity


def _check_report_fields(r: dict, e: dict) -> None:
    _need(r["d"] == e["d"], f"d {r['d']} != {e['d']}")
    if "n" in e:
        _need(r["n"] == e["n"], f"n {r['n']} != {e['n']}")
    if "max_n" in e:
        _need(r["n"] <= e["max_n"], f"n {r['n']} > {e['max_n']}")
    if "diameter" in e:
        _need(r["diameter"] == e["diameter"], f"diameter {r['diameter']} != {e['diameter']}")
    if "vertex_count" in e:
        _need(r["vertex_count"] == e["vertex_count"], "vertex count")
    _need(r["n_minus_d"] == r["n"] - r["d"], "n_minus_d inconsistent")
    _need(r["satisfies_hirsch"] == (r["diameter"] <= r["n"] - r["d"]), "satisfies_hirsch")
    _need(r["hirsch_sharp"] == (r["diameter"] == r["n"] - r["d"]), "hirsch_sharp")


def _report_check(out: str, e: dict, pd) -> None:
    r = json.loads(out)
    _check_report_fields(r, e)
    _need(r["bounded"] is True and r["simple"] is True, "expected a bounded simple polytope")


def _diameter_check(out: str, e: dict, pd) -> None:
    value = int(out.strip())
    if "diameter" in e:
        _need(value == e["diameter"], f"diameter {value} != {e['diameter']}")
    else:
        _need(1 <= value <= e["max_diameter"], f"diameter {value} out of range")


def _hfile_check(out: str, e: dict, pd) -> None:
    d, rows, linearity = parse_matrix(out, "H")
    _need(d == e["d"] and rows and not linearity, "expected a full-dimensional H-file")


def _roundtrip_check(out: str, e: dict, pd) -> None:
    d, rows, _ = parse_matrix(out, "V")
    _need(all(r[0] == 1 for r in rows), "round trip produced rays")
    got = sorted(tuple(str(x) for x in r[1:]) for r in rows)
    _need(got == e["points"], f"round trip changed the vertex set ({len(got)} vs {len(e['points'])})")


def _polydiam_report(pd, text: str) -> dict:
    """`polydiam check --json` on a text, run untimed to check an output."""
    buf = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = pd.cli.main(["check", "--json", "-"])
    finally:
        sys.stdin = saved
    _need(rc == 0, f"check of the output exited {rc}")
    return json.loads(buf.getvalue())


def _sharp_check(out: str, e: dict, pd) -> None:
    d, rows, linearity = parse_matrix(out, "H")
    _need(d == e["d"] and len(rows) == e["n"] and not linearity, "wrong d or n in output")
    r = _polydiam_report(pd, out)
    _need((r["d"], r["n"], r["diameter"]) == (e["d"], e["n"], e["n"] - e["d"]),
          f"not diameter-sharp: {r['d']} {r['n']} {r['diameter']}")


def _wedge_check(out: str, e: dict, pd) -> None:
    r = _polydiam_report(pd, out)
    _need((r["d"], r["n"]) == (e["d"] + 1, e["n"] + 1), "wedge must add one dimension and facet")
    _need(r["bounded"] and r["simple"], "wedge of a simple polytope is bounded and simple")


def _truncate_check(out: str, e: dict, pd) -> None:
    r = _polydiam_report(pd, out)
    _need((r["d"], r["n"]) == (e["d"], e["n"] + 1), "truncation adds one facet")
    _need(r["vertex_count"] == e["vertex_count"] + e["d"] - 1, "truncation adds d-1 vertices")
    _need(r["simple"] is True, "truncation keeps the polytope simple")


def _unbound_check(out: str, e: dict, pd) -> None:
    r = _polydiam_report(pd, out)
    _need((r["d"], r["n"]) == (e["d"], e["n"] - 1), "unbounding removes one facet")
    _need(r["bounded"] is False, "output must be unbounded")
    _need(r["vertex_count"] < e["vertex_count"], "vertices on the facet must become rays")


def _search_check(out: str, e: dict, pd) -> None:
    r = json.loads(out)
    _check_report_fields(r, e)
    _need(r["nonrevisiting"] is not None, "non-revisiting search inconclusive")
    if "nonrevisiting" in e:
        _need(r["nonrevisiting"] == e["nonrevisiting"], "non-revisiting answer")
    mono = r["monotone"]
    _need(mono["unreachable"] == [], "vertices without a monotone path")
    if "worst_length" in e:
        _need(mono["worst_length"] == e["worst_length"], "monotone worst length")


def _subset_search_check(out: str, e: dict, pd) -> None:
    head = out.splitlines()[0].split()
    fields = dict(item.split("=") for item in head[2:])
    _need(head[:2] == ["#", "search"], "missing search header")
    _need((int(fields["n"]), int(fields["d"])) == (e["n"], e["d"]), "wrong n or d")
    _need(int(fields["explored"]) == e["explored"], "budget not spent exactly")
    _need(fields["complete"] == "false" and int(fields["diameter"]) >= 1, "search result")


def _subset_diameter_check(out: str, e: dict, pd) -> None:
    r = json.loads(out)
    _need(r["within_bounds"] is True and r["diameter"] >= 1, "subset-graph diameter")
    _need(r["diameter"] <= r["bound_linear"], "linear bound violated")


CHECKS = {
    "report": _report_check,
    "diameter": _diameter_check,
    "hfile": _hfile_check,
    "roundtrip": _roundtrip_check,
    "sharp": _sharp_check,
    "wedge": _wedge_check,
    "truncate": _truncate_check,
    "unbound": _unbound_check,
    "search": _search_check,
    "subset_search": _subset_search_check,
    "subset_diameter": _subset_diameter_check,
}


def check_answer(pd, op: Op, rc, out: str) -> str | None:
    """None when the answer is right, else the reason it failed."""
    if rc != 0:
        return f"exit {rc}"
    try:
        CHECKS[op.check](out, op.expect, pd)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"
    return None
