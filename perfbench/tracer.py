"""Span tracer that wraps polydiam's public functions from outside.

Every module-level public function of every `polydiam` module is replaced
by a wrapper, both in its defining module and at each site that imported
it by name (`from .dd import hrep_to_vrep` binds a second reference in
`cli` and `bounds`, and both must be wrapped for the span tree to be
complete).  `uninstall` puts every original back.

A span is `[id, parent_id, name, start_ns, end_ns]`; spans of one CLI call
share the root span `cli.main`.  Self time of a span is its duration minus
the durations of its direct children.  Calls never overlap (one thread), so
in integer nanoseconds the self times of all spans of one operation add up
exactly to the root span's duration.

Counters are taken from arguments and results at the same boundaries
(vertex pairs tested, DD rows in and rays out, search nodes spent).  They
are computed outside the wrapped call's interval, so their cost lands in
the caller's self time; `trace.overhead_ratio` reports the total cost of
tracing.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns
from types import ModuleType

PACKAGE = "polydiam"

# Arithmetic leaves called from inner loops (millions of times per pass).
# A span per call would cost more than the work it measures, so their time
# stays in the caller's self time.
LEAVES = frozenset({
    "ratlin.dot",
    "ratlin.primitive",
    "ratlin.parse_rational",
    "ratlin.format_rational",
    "polyhedron.make_row",
    "polyhedron.canonical_row",
    "polyhedron.canonical_equality_row",
})


def short_name(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


def package_modules() -> list[ModuleType]:
    """The imported `polydiam` package and its submodules."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions(modules: list[ModuleType]) -> dict[str, object]:
    """`module.function` -> function, for functions defined in that module."""
    found = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue  # imported by name: wrapped where it is defined
            name = f"{short_name(mod.__name__)}.{attr}"
            if name not in LEAVES:
                found[name] = obj
    return found


def _coeff_bits(vectors) -> int:
    """Largest numerator or denominator bit length over rational vectors."""
    best = 0
    for vec in vectors:
        for q in vec:
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    """Records spans and counters for every call into polydiam.

    `spans` and `counts` hold the current operation; `take()` hands them
    over and starts the next operation afresh.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, object]] = []

    # -- counters -------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _max_bits(self, bits: int) -> None:
        self.counts["dd.max_coeff_bits"] = max(self.counts.get("dd.max_coeff_bits", 0), bits)

    def _parent_name(self) -> str:
        return self.spans[self._stack[-1]][2] if self._stack else ""

    def _before(self, name: str, args, kwargs):
        if name == "paths.nonrevisiting_dfs":
            budget = args[5] if len(args) > 5 else kwargs["budget"]
            return budget, budget.used
        return None

    def _after(self, name: str, args, kwargs, result, state) -> None:
        module, _, func = name.partition(".")
        if module == "fileio" and not self._parent_name().startswith("fileio."):
            if func.startswith("read_") and args:
                self.add("fileio.bytes_read", len(args[0].encode("utf-8")))
            elif func.startswith("write_") and isinstance(result, str):
                self.add("fileio.bytes_written", len(result.encode("utf-8")))
        if state is not None:  # nonrevisiting_dfs: nodes spent, even on timeout
            budget, used = state
            self.add("paths.search_nodes", budget.used - used)
        if result is None:
            return
        if name == "dd.hrep_to_vrep":
            self.add("dd.rows_in", args[0].nrows)
            self.add("dd.rays_out", len(result.vertices) + len(result.rays))
            self._max_bits(_coeff_bits(result.vertices + result.rays))
        elif name == "dd.vrep_to_hrep":
            self.add("dd.rows_in", len(args[0].vertices) + len(args[0].rays))
            self.add("dd.rays_out", result.nrows)
            self._max_bits(_coeff_bits((b, *a) for b, a in result.rows))
        elif name == "polyhedron.skeleton_graph":
            n = len(result.nodes)
            self.add("polyhedron.skeleton_graph.pairs", n * (n - 1) // 2)
            self.add("polyhedron.skeleton_graph.edges", len(result.edges))
        elif name == "abstraction.search_max_diameter":
            self.add("abstraction.explored", result.explored)

    # -- spans ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._before(name, args, kwargs)
            sid = len(tracer.spans)
            span = [sid, tracer._stack[-1] if tracer._stack else -1, name, 0, 0]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            result = None
            span[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[4] = perf_counter_ns()
                tracer._stack.pop()
                tracer._after(name, args, kwargs, result, state)

        return traced

    def install(self) -> None:
        """Wrap every public function at its definition and import sites."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        originals = public_functions(modules)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def take(self) -> tuple[list[list], dict[str, float]]:
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def self_times(spans: list[list]) -> list[int]:
    """Self time in ns of each span: duration minus its direct children's."""
    own = [end - start for _, _, _, start, end in spans]
    for _, parent, _, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def root_duration(spans: list[list]) -> int:
    """Duration of the single root span; raises unless there is exactly one."""
    roots = [s for s in spans if s[1] < 0]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    return roots[0][4] - roots[0][3]
