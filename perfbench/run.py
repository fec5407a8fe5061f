"""Benchmark runner for coxmorse.

    python3 perfbench/run.py --workload h3-intervals --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs one named workload in this process, single-threaded, as a closed loop
(the next instance starts when the previous one has finished and been
checked).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: set-up is repeated (see
``SETUP_REPEATS``) and its fastest time reported, then whole passes over the
instance list run until ``--seconds`` have elapsed.  ``--trace 1`` runs one
set-up and one pass with spans installed around coxmorse's public
functions, then the same again untraced, and reports the per-layer metrics
and the difference in wall time; the spans are written to
``.perfbench_out/``.  ``--workload all`` runs every
workload in a fresh process of its own and prints each result.

The program is imported from ``src/`` next to this directory; without it
the runner exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# Timings get the widest bound: on a shared two-core virtual machine the
# speed of the same code drifts by 10-30% between runs of this length.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("instances_per_s", "1/s", "higher", 0.25),
    ("instance_p50_ms", "ms", "lower", 0.25),
    ("instance_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# Set-up is timed as the fastest of its repeats.  A set-up of 5-15 ms is
# shorter than the spells of a few seconds in which a shared host runs the
# same code up to twice as slow, so the median of one run's repeats moved
# by up to 65% between runs, the minimum by about 11%.
SETUP_REPEATS = 200     # at most this many set-ups per run, stopping
SETUP_BUDGET_S = 3.0    # early once they have taken this long in total
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def tail_percentile(pass_size: int) -> float:
    """Highest ladder percentile that leaves at least ten samples of one
    pass beyond it.  It depends on the workload only, not on how many
    passes fit into the run."""
    for p in TAIL_LADDER:
        if pass_size * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def nearest_rank(sorted_values: list[float], p: float) -> float:
    k = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float) -> dict:
    from workloads import Meter

    setup_times: list[float] = []
    while True:
        state = None
        gc.collect()
        t0 = perf_counter()
        state = workload.setup(seed)
        setup_times.append(perf_counter() - t0)
        if len(setup_times) >= SETUP_REPEATS or sum(setup_times) >= SETUP_BUDGET_S:
            break
    meter = Meter()
    workload.check_setup(state, meter)
    passes = 0
    start = perf_counter()
    while True:
        before = meter.samples
        workload.run_pass(state, meter, first=passes == 0)
        pass_size = meter.samples - before
        passes += 1
        if perf_counter() - start >= seconds:
            break
    lat = sorted(meter.latency_samples())
    p_tail = tail_percentile(pass_size)
    metrics = {
        "setup_s": min(setup_times),
        "instances_per_s": meter.attempted / meter.busy,
        "instance_p50_ms": statistics.median(lat) * 1e3,
        "instance_tail_ms": nearest_rank(lat, p_tail) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"setups": len(setup_times), "setup_median_s": statistics.median(setup_times),
             "passes": passes, "samples": meter.samples,
             "tail_percentile": p_tail, "failed_frac": meter.failed / meter.attempted}
    return _result(meter, {n: (metrics[n], u) for n, u, _, _ in END_TO_END}, notes)


def measure_traced(workload, seed: int, trace_path: Path | None) -> dict:
    from tracing import PER_LAYER, Tracer
    from workloads import Meter

    meter = Meter()

    def once() -> float:
        gc.collect()
        t0 = perf_counter()
        state = workload.setup(seed)
        workload.check_setup(state, meter)
        workload.run_pass(state, meter, first=True)
        return perf_counter() - t0

    # traced first, so that the spans see the process's peak RSS grow
    tracer = Tracer()
    with tracer:
        traced = once()
    untraced = once()
    values = tracer.metrics(traced, untraced)
    if trace_path is not None:
        tracer.dump(trace_path)
    notes = {"spans": len(tracer.spans), "failed_frac": meter.failed / meter.attempted}
    return _result(meter, {n: (values[n], u) for n, u, _ in PER_LAYER}, notes)


def _result(meter, metrics: dict, notes: dict) -> dict:
    return {
        "correct": meter.failed == 0,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "notes": notes,
        "messages": meter.messages,
    }


def _print_result(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name}  {metric:<45} {m['value']:.6g} {m['unit']}")
    notes = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in result["notes"].items())
    print(f"{name}  attempted={result['attempted']} failed={result['failed']} {notes}")
    for msg in result["messages"]:
        print(f"{name}  failure: {msg}", file=sys.stderr)


def run_all(args) -> int:
    """Every workload in a fresh process, so each peak RSS is its own."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok = ok and result is not None and result["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coxmorse" / "__init__.py").is_file():
        print(f"error: coxmorse sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        result = measure_traced(workload, args.seed, OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        result = measure(workload, args.seed, args.seconds)
    _print_result(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
