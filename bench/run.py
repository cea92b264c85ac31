"""Benchmark of the nalc reasoner: one workload, one closed-loop client.

    python3 bench/run.py --workload planted --seed 1 --seconds 15 --trace 0

Run from the repository root.  The reasoner is imported from ``src/``.
The workload's rounds are built from the seed (see ``workloads.py``),
then played in whole passes, one operation at a time, until ``--seconds``
have passed.  Times are scaled to a fixed machine speed (``Clock``).
Each operation's time is its median over the passes; a kind's time is
the geometric mean over its operations, which stays put when a kind
mixes cheap and dear operations (entailed and refuted queries) where a
median would jump between the two.  Counts are per round and do not
depend on the run's length.  Every answer is checked against its
construction.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
An operation fails when it raises or answers wrongly; ``correct`` is
false when any answer was wrong.  Failures are listed on standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# calibrate()'s time, in seconds, at the speed the reference figures in
# README.md were taken; every time is reported at this speed.
CALIBRATION_S = 0.0017
KINDS = ("load", "check", "entails", "glb", "lub", "subsumes", "oracle")
KIND_METRIC = {"load": "kb_load_ms", "check": "check_ms", "entails": "entails_ms", "glb": "glb_ms",
               "lub": "lub_ms", "subsumes": "subsumes_ms", "oracle": "oracle_ms"}


def fresh_import():
    """Import nalc from ``src/`` as a new process would."""
    for name in [m for m in sys.modules if m == "nalc" or m.startswith("nalc.")]:
        del sys.modules[name]
    api = importlib.import_module("nalc")
    if Path(api.__file__).resolve().parent != SRC / "nalc":
        raise ImportError(f"nalc imported from {api.__file__}, not from {SRC}")
    return api


def calibrate() -> float:
    """Time a fixed piece of pure-Python work (hashing tuples into a dict,
    exact fractions, a sort) that uses the interpreter the way the
    reasoner does."""
    start = time.perf_counter()
    table = {}
    total = Fraction(0)
    for i in range(2000):
        key = (i % 89, f"x{i % 211}")
        table[key] = table.get(key, 0) + 1
        if i % 8 == 0:
            total += Fraction(i % 7, 8)
    sorted(table, key=lambda k: (k[1], k[0]))
    return time.perf_counter() - start


class Clock:
    """Scales measured times to the speed of ``CALIBRATION_S``.

    The speed of this machine drifts: a fixed loop timed in 1-second
    windows over 4 minutes ran at its usual speed in most windows and
    40-60% slower in bursts of 1 to 9 seconds, and whole runs minutes
    apart differed by up to 2x.  ``calibrate`` runs next to the measured
    work (the least of three, at most every 50 ms, and again after work
    that took longer), and a time ``t`` is reported as
    ``t * CALIBRATION_S / calibration``.  Both sides of a comparison run
    the same calibration, so a change to nalc moves only ``t``.
    """

    def __init__(self):
        self.at = -math.inf
        self.value = CALIBRATION_S

    def before(self) -> float:
        now = time.perf_counter()
        if now - self.at > 0.05:
            self.value = min(calibrate() for _ in range(3))
            self.at = time.perf_counter()
        return self.value

    def scaled(self, elapsed: float, before: float) -> float:
        if elapsed > 0.05:
            before = (before + self.before()) / 2
        return elapsed * CALIBRATION_S / before


def setup(workload, seed, clock):
    """Import and build the inputs ``SETUP_REPEATS`` times; the last build
    is used, the median (scaled) time is the set-up time."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        speed = clock.before()
        start = time.perf_counter()
        api = fresh_import()
        work = workloads.build(api, workload, seed)
        times.append(clock.scaled(time.perf_counter() - start, speed))
    return api, work, statistics.median(times)


def slope(points):
    """Least-squares slope of log(time) over log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def run(work, seconds, tracer, clock):
    """Play whole passes over the rounds until ``seconds`` have passed.

    Returns, per answered operation, its kind, its KB's statement count
    and its median scaled time over the passes.
    """
    times = {}  # (round, position) -> (kind, statements, [scaled seconds])
    attempted = failed = wrong = passes = 0
    failures = []
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for r, ops in enumerate(work.rounds):
            ctx = {}
            for k, op in enumerate(ops):
                attempted += 1
                speed = clock.before()
                if tracer:
                    tracer.request = attempted
                    tracer.scale = CALIBRATION_S / speed
                t0 = time.perf_counter()
                try:
                    result = op.call(ctx)
                except Exception as exc:  # a raising operation is a failed one
                    error = f"{op.label}: raised {type(exc).__name__}: {exc}"
                else:
                    elapsed = time.perf_counter() - t0
                    error = None
                if tracer:
                    tracer.request = None
                if error is None:
                    error = op.check(result)
                    wrong += error is not None
                if error is not None:
                    failed += 1
                    failures.append(error)
                    continue
                times.setdefault((r, k), (op.kind, op.size, []))[2].append(clock.scaled(elapsed, speed))
        passes += 1
        if tracer:
            tracer.end_pass()
    answered = [(kind, size, statistics.median(ts)) for kind, size, ts in times.values()]
    return answered, passes, attempted, failed, wrong, failures


def typical(answered):
    """Geometric-mean time of each kind, and operations per second when
    each operation takes its kind's time.

    A rare operation that takes 10^4 times the usual (a KB on which the
    tableau branches thousands of times) would decide a plain sum, and
    whether a seed draws one would decide the throughput.
    """
    kinds = {}
    for kind, _size, t in answered:
        kinds.setdefault(kind, []).append(t)
    means = {kind: statistics.geometric_mean(ts) for kind, ts in kinds.items()}
    rate = len(answered) / sum(len(ts) * means[kind] for kind, ts in kinds.items())
    return means, rate


def end_to_end(answered, setup_s):
    means, rate = typical(answered)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (rate, "1/s"),
        "verdict_ms_geomean": (1e3 * statistics.geometric_mean(t for _k, _s, t in answered), "ms"),
    }
    for kind in KINDS:
        metrics[KIND_METRIC[kind]] = (1e3 * means[kind], "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(tracer, answered, rounds):
    """Times are the median pass's, counts the same in every pass; both
    per round."""
    checks = [(size, t) for kind, size, t in answered if kind == "check"]
    ms = 1e-6 / rounds
    played = rounds * len(tracer.passes)
    calls = tracer.count["semantics.calls"] / len(tracer.passes)
    return {
        "parser.busy_ms": (tracer.median("parser.busy") * ms, "ms"),
        "parser.statements_per_s": (tracer.count["statements"] / len(tracer.passes)
                                    / (tracer.median("parser.busy") * 1e-9), "1/s"),
        "kb.busy_ms": (tracer.median("kb.busy") * ms, "ms"),
        "kb.expanded_nodes": (tracer.count["expanded_nodes"] / played, "count"),
        "tableau.self_ms": (tracer.median("tableau.self") * ms, "ms"),
        "tableau.calls": (tracer.count["tableau.calls"] / played, "count"),
        "tableau.branches": (tracer.count["branches"] / played, "count"),
        "tableau.completion_size": (tracer.ratio("completion_size", "completions"), "count"),
        "tableau.check_growth": (slope(checks), "log/log"),
        "reasoner.self_ms": (tracer.median("reasoner.self") * ms, "ms"),
        "reasoner.runs_per_glb": (tracer.ratio("glb_runs", "glb_calls"), "count"),
        "reasoner.runs_per_lub": (tracer.ratio("lub_runs", "lub_calls"), "count"),
        "reasoner.runs_per_subsumes": (tracer.ratio("subsumes_runs", "subsumes_calls"), "count"),
        "semantics.self_ms": (tracer.median("semantics.self") * ms, "ms"),
        "semantics.calls": (calls / rounds, "count"),
        "semantics.ms_per_call": (tracer.median("semantics.self") * 1e-6 / max(1, calls), "ms"),
        "trace.verdicts_per_s": (typical(answered)[1], "1/s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("planted", "chain", "oracle", "abox"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nalc" / "__init__.py").is_file():
        print(f"run.py: no nalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    clock = Clock()
    api, work, setup_s = setup(args.workload, args.seed, clock)
    # The inputs live for the whole run; frozen, they are not traversed
    # by the collections nalc's own allocations set off.
    gc.collect()
    gc.freeze()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(api)
    answered, passes, attempted, failed, wrong, failures = run(work, args.seconds, tracer, clock)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failures", file=sys.stderr)
    if tracer:
        metrics = per_layer(tracer, answered, len(work.rounds))
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "passes": passes,
                      "metrics": {name: value for name, (value, _unit) in metrics.items()}})
    else:
        metrics = end_to_end(answered, setup_s)
    print(f"{args.workload}: {work.description}; {passes} passes", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
