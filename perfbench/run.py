#!/usr/bin/env python3
"""Benchmark one workload against the deltadisp sources of this checkout.

    python3 perfbench/run.py --workload numerator-two --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in one process, single-threaded, as a closed loop with
one caller: set-up (repeated, see SETUP_SECONDS) builds a pass of
operations, and the run cycles through it until ``--seconds`` have passed.  Every outcome is checked after its timer
stops.  Times are scaled to a fixed host speed (see ``HostSpeed``).  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
every operation runs once untraced and once traced, in alternating order,
and the result holds the per-layer metrics of ``tracing.py`` and the
tracing overhead.  The spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary goes to
standard error.  ``--workload all`` runs the four workloads one after
another, each in a fresh process, and prints one metric per line.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("closed-form", "numerator-two", "oracle", "certify")

#: set-up runs at least this often, and for at least this many seconds in
#: all, and setup_s is the median, so that one slow file-system call does
#: not decide it
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
#: the 90th percentile needs at least ten samples above it
MIN_OPS = 100
#: seconds the calibration loop takes on the host the figures are scaled to:
#: the 2-core Xeon VM (Python 3.11) the benchmark was tuned on, uncontended
CALIBRATION_REF_S = 0.0015

UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def _calibration_s() -> float:
    """Seconds a fixed stdlib-only loop takes, with the garbage collector off.

    The loop does what the solvers' inner loops do: Fraction arithmetic,
    comparisons and dict updates on tuple keys.  It uses no deltadisp code,
    so a change to the program cannot change it.
    """
    gc.disable()
    start = perf_counter()
    total = Fraction(0)
    seen: dict[tuple[int, int], int] = {}
    for i in range(1, 240):
        total = min(total + Fraction(i, 2 * i + 1) ** 2, Fraction(i, 3))
        key = (i % 13, i % 7)
        seen[key] = seen.get(key, 0) + 1
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


class HostSpeed:
    """Scales measured times to a host of fixed speed.

    On a machine shared with other tenants the same code can run two or
    three times slower for seconds or minutes at a time, which no length
    of run averages out.  The calibration loop runs after every timed interval;
    the interval is scaled by CALIBRATION_REF_S over the mean of the loop's
    times just before and just after it.
    """

    def __init__(self) -> None:
        self._before = _calibration_s()
        self.samples = [self._before]

    def factor(self) -> float:
        """The scale for the interval that has just ended."""
        after = _calibration_s()
        self.samples.append(after)
        factor = 2 * CALIBRATION_REF_S / (self._before + after)
        self._before = after
        return factor


def _execute(op, speed: HostSpeed) -> tuple[float, float, str | None]:
    """Run one operation: its latency, the host-speed factor that scales it,
    and a failure message or None."""
    start = perf_counter()
    try:
        outcome = op.call()
        error = None
    except Exception as exc:  # any exception is a failed operation, not a crash
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    factor = speed.factor()
    return elapsed, factor, error or op.check(outcome)


class _Failures:
    def __init__(self) -> None:
        self.count = 0

    def note(self, op, error: str | None) -> None:
        if error is not None:
            self.count += 1
            if self.count <= 5:
                print(f"FAILED {op.label}: {error}", file=sys.stderr)


def _schedule(ops, seconds: float, at_least: int):
    """Operation numbers k (op ``ops[k % len(ops)]``), cycling through the
    pass until time is up and at least `at_least` have run."""
    start = perf_counter()
    k = 0
    while k < at_least or perf_counter() - start < seconds:
        yield k
        k += 1


def measure(ops, speed: HostSpeed, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics over the whole passes a run completes.

    The operations of a pass the deadline cuts short are checked but not
    timed, so every run times the same mix.  A run completes enough passes
    for MIN_OPS latencies.
    """
    failures = _Failures()
    latencies = []
    for k in _schedule(ops, seconds, -(-MIN_OPS // len(ops)) * len(ops)):
        op = ops[k % len(ops)]
        elapsed, factor, error = _execute(op, speed)
        latencies.append(elapsed * factor)
        failures.note(op, error)
    attempted = len(latencies)
    del latencies[attempted - attempted % len(ops):]
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    above = sum(t > p90 for t in latencies)
    print(f"{len(latencies)} operations timed over {len(latencies) // len(ops)} whole "
          f"pass(es), {above} above p90", file=sys.stderr)
    metrics = {
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * p90,
        "ops_per_s": len(latencies) / sum(latencies),
    }
    return metrics, attempted, failures.count


def measure_traced(ops, speed: HostSpeed, seconds: float, trace_path: Path) -> tuple[dict, int, int]:
    """Per-layer metrics over at least one pass; each operation runs untraced
    and traced, each of the two first in turn."""
    from tracing import Tracer

    tracer = Tracer()
    failures = _Failures()
    plain_s = traced_s = 0.0
    attempted = 0
    for k in _schedule(ops, seconds, len(ops)):
        op = ops[k % len(ops)]
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tracer.operation():
                    elapsed, factor, error = _execute(op, speed)
                tracer.factors.append(factor)
                traced_s += elapsed * factor
            else:
                elapsed, factor, error = _execute(op, speed)
                plain_s += elapsed * factor
            attempted += 1
            failures.note(op, error)
    tracer.write(trace_path)
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    return metrics, attempted, failures.count


def run(workload: str, seed: int, seconds: float, trace: bool, limit: int | None = None) -> dict:
    """One benchmark run, over the first `limit` operations if given; the
    result object the command prints."""
    from tracing import metric_names
    from workloads import WORKLOADS

    build = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        speed = HostSpeed()
        setup_s: list[float] = []
        spent = 0.0
        while len(setup_s) < SETUP_REPEATS or spent < SETUP_SECONDS:
            start = perf_counter()
            ops = build(random.Random(seed), Path(workdir))[:limit]
            elapsed = perf_counter() - start
            spent += elapsed
            setup_s.append(elapsed * speed.factor())
        if trace:
            path = OUT / f"trace-{workload}-{seed}.jsonl"
            values, attempted, failed = measure_traced(ops, speed, seconds, path)
            units = {name: _layer_unit(name) for name in metric_names()}
        else:
            values, attempted, failed = measure(ops, speed, seconds)
            values["setup_s"] = statistics.median(setup_s)
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = UNITS
    print(f"calibration loop: median {1000 * statistics.median(speed.samples):.3f} ms over "
          f"{len(speed.samples)} samples", file=sys.stderr)
    print(f"{workload} seed={seed}: error_rate {failed / attempted:.4f} "
          f"({failed} of {attempted} operations failed)", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms/op"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_share"):
        return "share"
    return "count/op"


def _run_all(args) -> int:
    """Each workload in a fresh process; one line per metric."""
    status = 0
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={result['failed'] / result['attempted']:.4f}")
        for name, metric in result["metrics"].items():
            print(f"  {name:42} {metric['value']:14.4f} {metric['unit']}")
        status |= not result["correct"]
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deltadisp" / "__init__.py").is_file():
        print(f"error: no deltadisp sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
