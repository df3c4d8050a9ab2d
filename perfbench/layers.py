"""Per-layer metrics of the traced run, one layer per `polydiam` module.

Each entry below names a metric, its unit, the end-to-end metric it should
move and the workload on which it should move.  Times and counts are
averages per traced operation, so they do not depend on how many passes
fit in the run.  A `<module>.self_s` is the summed self time of all spans
of that module; `<module>.<function>.self_s` and `.calls` are per function.

`simplicial` has no CLI verb, so no operation reaches it and it has no row.
"""

from __future__ import annotations

from collections import Counter

from tracer import root_duration, self_times

# name: (unit, should move, on workload)
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "fileio.self_s": ("s/op", "latency_p50_s", "hull"),
    "fileio.bytes_read": ("B/op", "latency_p50_s", "hull"),
    "fileio.bytes_written": ("B/op", "latency_p50_s", "hull"),
    "dd.self_s": ("s/op", "ops_per_s", "hull"),
    "dd.hrep_to_vrep.calls": ("count/op", "ops_per_s", "hull; sharp"),
    "dd.hrep_to_vrep.self_s": ("s/op", "ops_per_s", "hull"),
    "dd.vrep_to_hrep.calls": ("count/op", "ops_per_s", "hull; sharp"),
    "dd.vrep_to_hrep.self_s": ("s/op", "ops_per_s", "hull"),
    "dd.reduce_to_full_dim.calls": ("count/op", "ops_per_s", "sharp"),
    "dd.rows_in": ("count/op", "ops_per_s", "hull"),
    "dd.rays_out": ("count/op", "ops_per_s", "hull"),
    "dd.max_coeff_bits": ("bits", "ops_per_s", "hull"),
    "polyhedron.self_s": ("s/op", "latency_p50_s", "report; sharp"),
    "polyhedron.incidence.calls": ("count/op", "latency_p50_s", "report; sharp"),
    "polyhedron.incidence.self_s": ("s/op", "latency_p50_s", "report; sharp"),
    "polyhedron.facet_row_indices.calls": ("count/op", "latency_tail_s", "report; sharp"),
    "polyhedron.facet_row_indices.self_s": ("s/op", "latency_tail_s", "report; sharp"),
    "polyhedron.facet_row_indices.calls_per_op": ("count", "latency_tail_s", "report; sharp"),
    "polyhedron.affine_dim.calls": ("count/op", "latency_tail_s", "report; sharp"),
    "polyhedron.skeleton_graph.calls": ("count/op", "latency_p50_s", "report"),
    "polyhedron.skeleton_graph.self_s": ("s/op", "latency_p50_s", "report"),
    "polyhedron.skeleton_graph.pairs": ("count/op", "latency_p50_s", "report"),
    "polyhedron.skeleton_graph.edge_yield": ("ratio", "latency_p50_s", "report"),
    "polyhedron.classify.calls": ("count/op", "latency_tail_s", "report"),
    "ratlin.self_s": ("s/op", "ops_per_s", "sharp; report"),
    "ratlin.matrix_rank.calls": ("count/op", "ops_per_s", "sharp; report"),
    "ratlin.matrix_rank.self_s": ("s/op", "ops_per_s", "sharp; report"),
    "ratlin.row_echelon.calls": ("count/op", "ops_per_s", "sharp; report"),
    "ratlin.row_echelon.self_s": ("s/op", "ops_per_s", "sharp; report"),
    "ratlin.nullspace.calls": ("count/op", "ops_per_s", "sharp; report"),
    "paths.self_s": ("s/op", "ops_per_s", "search"),
    "paths.diameter.self_s": ("s/op", "latency_tail_s", "report"),
    "paths.bfs_distances.calls": ("count/op", "latency_tail_s", "report"),
    "paths.nonrevisiting_dfs.calls": ("count/op", "ops_per_s", "search"),
    "paths.search_nodes": ("count/op", "ops_per_s", "search"),
    "paths.search_nodes_per_pair": ("count", "ops_per_s", "search"),
    "paths.nonrevisiting_property.self_s": ("s/op", "ops_per_s", "search"),
    "paths.monotone_eccentricity.self_s": ("s/op", "ops_per_s", "search"),
    "constructions.self_s": ("s/op", "ops_per_s", "sharp"),
    "constructions.hirsch_sharp.self_s": ("s/op", "ops_per_s", "sharp"),
    "constructions.wedge.calls": ("count/op", "ops_per_s", "sharp"),
    "constructions.truncate_vertex.calls": ("count/op", "ops_per_s", "sharp"),
    "constructions.truncate_vertex.self_s": ("s/op", "ops_per_s", "sharp"),
    "bounds.self_s": ("s/op", "latency_p50_s", "report; search"),
    "bounds.hirsch_report.calls": ("count/op", "latency_p50_s", "report; search"),
    "bounds.hirsch_report.self_s": ("s/op", "latency_p50_s", "report; search"),
    "abstraction.self_s": ("s/op", "ops_per_s", "search"),
    "abstraction.search_max_diameter.self_s": ("s/op", "ops_per_s", "search"),
    "abstraction.explored": ("count/op", "ops_per_s", "search"),
    "abstraction.subset_graph_diameter.self_s": ("s/op", "ops_per_s", "search"),
    "cli.self_s": ("s/op", "latency_p50_s", "all"),
    "cli.main.self_s": ("s/op", "latency_p50_s", "all"),
    "trace.overhead_ratio": ("ratio", "none: traced wall / untraced wall", "all"),
    "trace.spans_per_op": ("count/op", "none: tracing volume", "all"),
    "fail_ratio": ("ratio", "none: failed / attempted operations", "all"),
}

UNITS = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}


class Accumulator:
    """Sums spans and counters over traced operations."""

    def __init__(self) -> None:
        self.ops = 0
        self.spans = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.module_ns: Counter = Counter()
        self.ops_calling: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_bits = 0

    def add_op(self, spans: list[list], counts: dict[str, float]) -> None:
        """Add one operation; its self times must sum to the root span exactly."""
        own = self_times(spans)
        root = root_duration(spans)
        if sum(own) != root or spans[0][2] != "cli.main":
            raise AssertionError(
                f"self times sum to {sum(own)} ns, root span {spans[0][2]} lasts {root} ns"
            )
        self.ops += 1
        self.spans += len(spans)
        seen = set()
        for span, ns in zip(spans, own):
            name = span[2]
            self.calls[name] += 1
            self.self_ns[name] += ns
            self.module_ns[name.split(".")[0]] += ns
            seen.add(name)
        self.ops_calling.update(seen)
        for key, value in counts.items():
            if key == "dd.max_coeff_bits":
                self.max_bits = max(self.max_bits, value)
            else:
                self.counts[key] += value

    def metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            head, _, stat = name.rpartition(".")
            if stat == "self_s":
                table = self.module_ns if "." not in head else self.self_ns
                out[name] = table[head] / 1e9 / ops
            elif stat == "calls":
                out[name] = self.calls[head] / ops
        frows = "polyhedron.facet_row_indices"
        out[frows + ".calls_per_op"] = self.calls[frows] / max(self.ops_calling[frows], 1)
        for key in ("fileio.bytes_read", "fileio.bytes_written", "dd.rows_in", "dd.rays_out",
                    "polyhedron.skeleton_graph.pairs", "paths.search_nodes",
                    "abstraction.explored"):
            out[key] = self.counts[key] / ops
        out["dd.max_coeff_bits"] = self.max_bits
        pairs = self.counts["polyhedron.skeleton_graph.pairs"]
        out["polyhedron.skeleton_graph.edge_yield"] = (
            self.counts["polyhedron.skeleton_graph.edges"] / pairs if pairs else 0.0
        )
        dfs = self.calls["paths.nonrevisiting_dfs"]
        out["paths.search_nodes_per_pair"] = self.counts["paths.search_nodes"] / dfs if dfs else 0.0
        out["trace.spans_per_op"] = self.spans / ops
        return out


def table(acc: Accumulator) -> list[str]:
    """One line per traced function: calls and self time per operation."""
    ops = max(acc.ops, 1)
    lines = [f"traced ops {acc.ops}; per operation:"]
    for name in sorted(acc.calls):
        lines.append(f"  {name}: {acc.calls[name] / ops:.6g} calls, "
                     f"{acc.self_ns[name] / 1e9 / ops:.6g} s self")
    return lines
