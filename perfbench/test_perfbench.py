"""Self-tests of the benchmark harness.

Run from the repository root with:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def pd():
    return run.import_polydiam(HERE.parent / "src")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_identical_for_same_seed(pd, workload, tmp_path):
    ops1, files1 = workloads.build(pd, workload, 7, tmp_path / "one")
    ops2, files2 = workloads.build(pd, workload, 7, tmp_path / "two")
    assert files1 == files2
    assert [(o.label, o.check, o.expect, o.stdin_from) for o in ops1] == [
        (o.label, o.check, o.expect, o.stdin_from) for o in ops2
    ]
    _, files3 = workloads.build(pd, workload, 8, tmp_path / "three")
    assert files3 != files1


def test_self_time_arithmetic_is_exact(monkeypatch):
    ticks = iter(range(0, 10_000, 7))
    monkeypatch.setattr(tracing, "perf_counter_ns", lambda: next(ticks))
    tr = tracing.Tracer()

    def leaf():
        return 1

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    def root():
        return wrapped_middle() + wrapped_leaf()

    wrapped_leaf = tr._wrap("m.leaf", leaf)
    wrapped_middle = tr._wrap("m.middle", middle)
    assert tr._wrap("m.root", root)() == 3
    spans, _ = tr.take()
    assert [s[2] for s in spans] == ["m.root", "m.middle", "m.leaf", "m.leaf", "m.leaf"]
    assert [s[1] for s in spans] == [-1, 0, 1, 1, 0]
    own = tracing.self_times(spans)
    durations = [end - start for *_, start, end in spans]
    assert own[2:] == durations[2:]  # leaves have no children
    assert own[1] == durations[1] - durations[2] - durations[3]
    assert own[0] == durations[0] - durations[1] - durations[4]
    assert sum(own) == tracing.root_duration(spans) == durations[0]


def _corrupt_check(pd, op, good, bad):
    assert workloads.check_answer(pd, op, 0, good) is None
    assert workloads.check_answer(pd, op, 0, bad) is not None
    assert workloads.check_answer(pd, op, 1, good) == "exit 1"


def test_checks_reject_a_wrong_diameter(pd):
    cube = pd.constructions.cube(3)
    path_text = pd.fileio.write_hfile(cube)
    report = workloads._polydiam_report(pd, path_text)
    expect = {"d": 3, "n": 6, "diameter": 3, "vertex_count": 8}
    op = workloads.Op("cube3/check", ("check", "--json", "-"), "report", expect)
    bad = dict(report, diameter=report["diameter"] + 1)
    _corrupt_check(pd, op, json.dumps(report), json.dumps(bad))
    op = workloads.Op("cube3/diameter", ("diameter", "-"), "diameter", expect)
    _corrupt_check(pd, op, "3\n", "4\n")


def test_checks_reject_a_dropped_vertex(pd):
    v = pd.constructions.random_01_polytope(4, 9, 3)
    points = sorted(tuple(map(str, p)) for p in v.vertices)
    op = workloads.Op("z/to_v", ("convert", "--to", "v", "-"), "roundtrip", {"points": points})
    good = pd.fileio.write_vfile(v)
    fewer = type(v)(v.d, v.vertices[1:])
    _corrupt_check(pd, op, good, pd.fileio.write_vfile(fewer))


def test_checks_reject_an_inconclusive_search(pd):
    h = pd.constructions.cube(3)
    report = workloads._polydiam_report(pd, pd.fileio.write_hfile(h))
    report.update(nonrevisiting=True, monotone={"optimum": "v7", "worst_length": 3,
                                                 "unreachable": []})
    op = workloads.Op("c/search", ("check",), "search", {"d": 3, "n": 6, "diameter": 3})
    _corrupt_check(pd, op, json.dumps(report), json.dumps(dict(report, nonrevisiting=None)))


def test_untraced_run_after_traced_sees_originals(pd):
    import polydiam.bounds
    import polydiam.cli
    import polydiam.dd

    sites = [(polydiam.dd, "hrep_to_vrep"), (polydiam.cli, "hrep_to_vrep"),
             (polydiam.bounds, "hrep_to_vrep"), (polydiam.bounds, "facet_row_indices"),
             (polydiam.cli, "main")]
    before = [getattr(mod, attr) for mod, attr in sites]
    text = pd.fileio.write_hfile(pd.constructions.cube(3))
    tr = tracing.Tracer()
    tr.install()
    try:
        during = [getattr(mod, attr) for mod, attr in sites]
        assert all(a is not b for a, b in zip(before, during))
        assert during[0] is during[1] is during[2]  # one wrapper at every import site
        rc, out, _ = run.run_op(pd, ("diameter", "-"), text)
        assert (rc, out) == (0, "3\n")
        spans, _ = tr.take()
        names = {s[2] for s in spans}
        assert {"cli.main", "dd.hrep_to_vrep", "polyhedron.skeleton_graph"} <= names
        assert sum(tracing.self_times(spans)) == tracing.root_duration(spans)
    finally:
        tr.uninstall()
    assert all(a is b for a, b in zip(before, [getattr(m, a) for m, a in sites]))
    rc, out, _ = run.run_op(pd, ("diameter", "-"), text)
    assert (rc, out) == (0, "3\n") and tr.spans == []


def test_tail_rank_and_minimum_passes():
    xs = [float(i) for i in range(1, 101)]
    assert run.tail(xs, 900) == 90.0
    assert run.tail(xs * 3, 900) == 90.0  # repeated passes keep the same operation
    assert run.tail(xs[:15] * 3, 750) == 12.0
    for deck, permille in ((15, 750), (9, 750), (120, 900)):
        passes = run.min_passes(deck, permille)
        n = passes * deck
        assert n - run.tail_rank(n, permille) >= run.TAIL_BEYOND
        n -= deck
        assert passes == 1 or n - run.tail_rank(n, permille) < run.TAIL_BEYOND


def test_reference_scaling():
    unit = speed.NOMINAL_UNIT_NS
    assert speed.scale(4 * unit, 4) == 1.0  # nominal speed: wall time is reference time
    assert speed.scale(8 * unit, 4) == 0.5  # a host at half speed halves every time
    assert speed.units_for(10 * unit, 0.15) == 2
    assert speed.units_for(1, 0.15) == 1
    assert speed.measure(1) > 0


def test_calibrated_pass_scales_each_latency(pd, tmp_path):
    path = tmp_path / "cube3.ine"
    path.write_text(pd.fileio.write_hfile(pd.constructions.cube(3)))
    op = workloads.Op("cube3/diameter", ("diameter", str(path)), "diameter", {"diameter": 3})
    runner = run.Runner(pd, [op, op])
    lat, results, scaled = runner.run_pass()
    assert scaled is lat
    lat, results, scaled = runner.run_pass(ref_share=run.REF_SHARE)
    assert len(scaled) == len(lat) == 2 and all(x > 0 for x in scaled)
    assert [rc for _, rc, _ in results] == [0, 0]
    # The factor of every operation is the speed of the reference next to it,
    # which on any host stays within a few times nominal.
    assert all(0.1 < s / w < 10 for s, w in zip(scaled, lat))


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
