"""polydiam benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

Each operation is one `polydiam` CLI verb, run in this process through
`polydiam.cli.main(argv)` with stdout captured; the next operation starts
when the previous one has finished, and no threads are used.  The deck of
operations for the seed (see `workloads.py`) is replayed in whole passes
until `--seconds` have been measured and the tail percentile has ten
samples beyond it.

`--trace 0` reports the end-to-end metrics.  Their times are in reference
seconds (see `speed.py`): the run times a fixed piece of pure-Python work
after each operation and around each set-up, and scales each wall time by
how fast that reference ran just before and just after it, so that the
drifting speed of a shared host cancels out.  The raw wall figures are
printed too, above the result line.  `--trace 1` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones (see `layers.py`).  Answers are checked outside the timed region; a
wrong answer, a nonzero exit or an inconclusive search counts as failed.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the exit code is 1 when any operation
failed and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
SETUP_REF_UNITS = 20  # reference units timed before and after each set-up
REF_SHARE = 0.15  # reference work after each operation, as a share of its time
TAIL_BEYOND = 10  # samples a run must have beyond its tail percentile
POLYDIAM_MODULES = ("cli", "constructions", "dd", "fileio", "polyhedron")
END_TO_END = {"ops_per_s": "ops/s", "latency_p50_s": "s", "latency_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def import_polydiam(src: Path) -> SimpleNamespace:
    """Import polydiam afresh from `src` (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "polydiam" or n.startswith("polydiam.")]:
        del sys.modules[name]
    pkg = importlib.import_module("polydiam")
    if Path(pkg.__file__).resolve().parent != (src / "polydiam").resolve():
        raise ImportError(f"polydiam imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"polydiam.{name}") for name in POLYDIAM_MODULES}
    )


def setup(src: Path, workload: str, seed: int, work: Path):
    """Import polydiam and write the inputs, several times; keep the last.

    Returns the set-up times in reference seconds, each scaled by the
    reference timed just before and just after it.  Every repetition must
    write byte-identical inputs.
    """
    times, digests = [], []
    for rep in range(SETUP_REPEATS):
        ref_ns = speed.measure(SETUP_REF_UNITS)
        t0 = perf_counter()
        pd = import_polydiam(src)
        ops, files = workloads.build(pd, workload, seed, work / f"inputs{rep}")
        elapsed = perf_counter() - t0
        ref_ns += speed.measure(SETUP_REF_UNITS)
        times.append(elapsed * speed.scale(ref_ns, 2 * SETUP_REF_UNITS))
        digests.append(hashlib.sha256(repr(sorted(files.items())).encode()).hexdigest())
    if len(set(digests)) != 1:
        raise RuntimeError("inputs differ between set-up repetitions of one seed")
    return pd, ops, times, digests[0]


def run_op(pd, argv, stdin_text: str | None) -> tuple[object, str, int]:
    """(exit code or exception text, stdout, wall ns) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter_ns()
            try:
                rc = pd.cli.main(list(argv))
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                rc = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter_ns()
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), t1 - t0


class Runner:
    """Runs passes of a deck and checks each distinct answer once."""

    def __init__(self, pd, ops):
        self.pd = pd
        self.ops = ops
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.verdicts: dict[tuple[int, str], str | None] = {}
        self.first_outputs: list[str] | None = None

    def run_pass(self, on_op=None, ref_share: float = 0.0) -> tuple[list[float], list, list[float]]:
        """One pass; returns its wall latencies (s), its (deck index, rc,
        stdout) results and its latencies in reference seconds.

        With `ref_share` > 0, reference work of about that share of each
        operation's time follows the operation, and each latency is scaled
        by the reference runs on either side of it; otherwise the third
        list repeats the first.
        """
        outputs: list[str] = []
        results, lat, scaled = [], [], []
        before = (speed.measure(1), 1) if ref_share > 0 else None
        for k, op in enumerate(self.ops):
            stdin = outputs[op.stdin_from] if op.stdin_from is not None else None
            rc, out, ns = run_op(self.pd, op.argv, stdin)
            if on_op is not None:
                on_op(k)
            if before is not None:
                units = speed.units_for(ns, ref_share)
                after = (speed.measure(units), units)
                factor = speed.scale(before[0] + after[0], before[1] + after[1])
                scaled.append(ns / 1e9 * factor)
                before = after
            outputs.append(out)
            results.append((k, rc, out))
            lat.append(ns / 1e9)
        return lat, results, scaled if before is not None else lat

    def account(self, lat: list[float], results) -> None:
        """Record a finished pass: latencies, checks (untimed) and failures."""
        self.latencies.extend(lat)
        if self.first_outputs is None:
            self.first_outputs = [out for _, _, out in results]
        for k, rc, out in results:
            key = (k, hashlib.sha256(f"{rc}\0{out}".encode()).hexdigest())
            if key not in self.verdicts:
                self.verdicts[key] = workloads.check_answer(self.pd, self.ops[k], rc, out)
            self.attempted += 1
            reason = self.verdicts[key]
            if reason is not None:
                self.failed += 1
                self.failures.setdefault(self.ops[k].label, reason)

    def digest(self) -> str:
        h = hashlib.sha256()
        for op, out in zip(self.ops, self.first_outputs or []):
            h.update(f"{op.label}\0{out}\0".encode())
        return h.hexdigest()


def tail_rank(n: int, permille: int) -> int:
    """1-based nearest rank of the `permille` percentile among n samples."""
    return -(-permille * n // 1000)


def min_passes(deck_size: int, permille: int) -> int:
    """Fewest whole passes that put TAIL_BEYOND samples beyond the tail percentile."""
    passes = 1
    while (n := passes * deck_size) - tail_rank(n, permille) < TAIL_BEYOND:
        passes += 1
    return passes


def tail(latencies: list[float], permille: int) -> float:
    """Nearest-rank percentile.  Whole passes repeat one deck, so it lands on
    the same operation of the deck whatever the number of passes."""
    return sorted(latencies)[tail_rank(len(latencies), permille) - 1]


def run_untraced(runner: Runner, seconds: float, tail_permille: int) -> dict:
    """Whole passes until `seconds` of wall time have gone by, reference
    work included, and at least enough passes for the tail percentile.

    Latencies are in reference seconds.  Throughput is the deck size over
    the median pass time, so one pass hit by a burst of load from outside
    does not move it.
    """
    pass_times, raw_times, scaled = [], [], []
    needed = min_passes(len(runner.ops), tail_permille)
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or len(pass_times) < needed:
        lat, results, ref_lat = runner.run_pass(ref_share=REF_SHARE)
        runner.account(lat, results)
        raw_times.append(sum(lat))
        scaled.extend(ref_lat)
        pass_times.append(sum(ref_lat))
    return {
        "ops_per_s": len(runner.ops) / statistics.median(pass_times),
        "latency_p50_s": statistics.median(scaled),
        "latency_tail_s": tail(scaled, tail_permille),
        "_raw": {
            "ops_per_s": len(runner.ops) / statistics.median(raw_times),
            "latency_p50_s": statistics.median(runner.latencies),
            "latency_tail_s": tail(runner.latencies, tail_permille),
        },
        "_speed": statistics.median(p / r for r, p in zip(raw_times, pass_times)),
        "_passes": len(pass_times),
    }


def run_traced(runner: Runner, seconds: float) -> tuple[layers.Accumulator, dict]:
    """Alternate untraced and traced passes; per-layer numbers from traced ones.

    A first untraced pass warms up, so that the overhead ratio compares
    passes that both run warm.
    """
    tracer = tracing.Tracer()
    acc = layers.Accumulator()
    walls = {False: [], True: []}

    def take(k):
        spans, counts = tracer.take()
        acc.add_op(spans, counts)

    runner.account(*runner.run_pass()[:2])
    while True:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                lat, results, _ = runner.run_pass(take if traced else None)
            finally:
                tracer.uninstall()
            walls[traced].append(sum(lat))
            runner.account(lat, results)
        if sum(walls[False]) + sum(walls[True]) >= seconds:
            break
    metrics = acc.metrics()
    metrics["trace.overhead_ratio"] = sum(walls[True]) / sum(walls[False])
    return acc, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "polydiam" / "__init__.py").is_file():
        print(f"error: no polydiam sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        pd, ops, setup_times, input_digest = setup(src, args.workload, args.seed, work)
        runner = Runner(pd, ops)
        t0 = perf_counter()
        if args.trace:
            acc, measured = run_traced(runner, args.seconds)
        else:
            measured = run_untraced(runner, args.seconds,
                                    workloads.TAIL_PERMILLE[args.workload])
        wall = perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    fail_ratio = runner.failed / runner.attempted
    n = runner.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n} ops ({len(ops)} per pass), {wall:.2f} s wall")
    print(f"  inputs sha256 {input_digest}")
    print(f"  answers sha256 {runner.digest()}")
    for label, reason in sorted(runner.failures.items()):
        print(f"  FAILED {label}: {reason}")
    if args.trace:
        metrics = dict(measured, fail_ratio=fail_ratio)
        for line in layers.table(acc):
            print("  " + line)
        units = layers.UNITS
    else:
        metrics = {
            "ops_per_s": measured["ops_per_s"],
            "latency_p50_s": measured["latency_p50_s"],
            "latency_tail_s": measured["latency_tail_s"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"  latency_tail_s is p{workloads.TAIL_PERMILLE[args.workload] / 10:g} "
              f"of {n} samples ({measured['_passes']} passes)")
        print(f"  machine speed: a wall second was {measured['_speed']:.4g} reference s "
              f"(median over passes); raw wall figures: "
              + ", ".join(f"{k} {v:.6g}" for k, v in measured["_raw"].items()))
        print(f"  fail_ratio {fail_ratio:.6g} ratio ({runner.failed}/{n})")
    for name in units:
        print(f"  {name} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": n,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
