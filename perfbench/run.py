#!/usr/bin/env python3
"""sectorpoly benchmark: campaign throughput and CLI latency, with per-layer
times from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cot --seed 1 --seconds 15 --trace 0

Workloads (single process, one client, closed loop, BLAS pinned to 1 thread):
``cot``, ``kellogg`` and ``witness`` call ``campaigns.run_suite``; ``cli`` calls
``cli.main(argv)`` in process. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics. End-to-end
times are rescaled to a nominal host speed (speed.py). Earlier lines give the
environment, the sample counts and the unscaled figures. BENCHMARK.json at
the root of the checkout defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("cot", "kellogg", "witness", "cli")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2            # over a campaign's latency corpus, at least
SETUP_PROBES = 9          # timed fresh interpreters, after one untimed one
PHASE_CAP_S = 120.0       # timing stops here even short of its sample floor
LATENCY_PCT = 99
END_TO_END = {"cases_per_s": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
              "pass_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(backend: str) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "backend": backend,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


class Tally:
    """Attempted and failed cases, plus the first few problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, result) -> None:
        self.attempted += result.cases
        self.failed += result.failed
        for problem in result.problems:
            self.note(problem)

    def note(self, problem: str) -> None:
        if len(self.problems) < 20 and problem not in self.problems:
            self.problems.append(problem)


def setup_seconds(workload, seed: int) -> tuple[float, float]:
    """Median set-up time over SETUP_PROBES fresh interpreters, rescaled to
    the nominal host speed by the reference loops run between the probes
    (see speed.py), and the same median unscaled."""
    from speed import HostSpeed

    entry, arg = workload.first_call(seed)
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), entry, json.dumps(arg)]
    speed = HostSpeed()
    probes = []
    for _ in range(SETUP_PROBES + 1):
        speed.sample()
        speed.sample()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        probes.append(float(done.stdout.split()[-1]))
    # the first probe may write bytecode caches; users pay that once
    median = statistics.median(probes[1:])
    return median * speed.factor(), median


def measure(workload, seed: int, seconds: float, tally: Tally):
    """Untraced run: the end-to-end timings and the sample counts. Times are
    rescaled to the nominal host speed (see speed.py)."""
    from metrics import beyond, min_samples, percentile, tail_percentile
    from speed import HostSpeed
    from workloads import execute

    for call in workload.warmup_calls(seed):
        execute(call)
    speed = HostSpeed()
    work_s = 0.0
    start = time.perf_counter()

    def run(call):
        nonlocal work_s
        result = execute(call)
        tally.add(result)
        work_s += result.seconds
        speed.keep_up(work_s)
        return result

    if workload.name == "cli":
        # whole blocks only, so every run has the same mix of commands
        floor = min_samples(LATENCY_PCT)
        lat = []
        for block in workload.blocks(seed):
            lat += [run(call) for call in block]
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(lat) >= floor) or elapsed > PHASE_CAP_S:
                break
        bulk, by_pass = lat, [lat]
        samples = {"calls_per_block": len(block), "latency_calls": len(lat)}
    else:
        # A pass times the fixed latency corpus, with ``workload.bulk``
        # seeded calls at the stated size spread evenly through it. The run
        # ends on whole passes, at least MIN_PASSES. p50 is taken over every
        # pass's times. p99 is taken over each corpus call's fastest time,
        # so a stall of the host during one pass does not become the tail.
        corpus = workload.latency_corpus()
        bulk_calls = workload.throughput_calls(seed)
        stride = len(corpus) // workload.bulk
        bulk, by_pass = [], []
        while True:
            pass_start = time.perf_counter()
            by_pass.append([])
            for j, call in enumerate(corpus):
                if j % stride == 0 and j // stride < workload.bulk:
                    bulk.append(run(next(bulk_calls)))
                by_pass[-1].append(run(call))
            passes = len(by_pass)
            now = time.perf_counter()
            # stop where one more pass would overrun --seconds
            if passes >= MIN_PASSES and (
                    2 * now - pass_start - start > seconds or now - start > PHASE_CAP_S):
                break
        samples = {"passes": passes, "bulk_calls": len(bulk),
                   "cases_per_bulk_call": workload.cases,
                   "latency_calls": len(corpus), "cases_per_latency_call": workload.latency_cases}

    def summary(seconds_of) -> dict:
        passed = sum(r.cases - r.failed for r in bulk)
        fastest = [min(map(seconds_of, calls)) for calls in zip(*by_pass)]
        return {
            "cases_per_s": passed / sum(seconds_of(r) for r in bulk),
            "latency_p50_ms": percentile([seconds_of(r) for p in by_pass for r in p], 50) * 1e3,
            "latency_p99_ms": tail_percentile(fastest, LATENCY_PCT) * 1e3,
        }

    samples.update(beyond_p99=beyond(len(by_pass[0]), LATENCY_PCT),
                   host_factor=speed.factor(), reference_loops=len(speed.samples),
                   unscaled=summary(lambda r: r.seconds))
    return summary(speed.scaled), samples


def traced(workload, seed: int, seconds: float, tally: Tally):
    """Traced run: the same fixed pass repeated until ``seconds`` have passed
    (at least twice, so the counts are compared). Times are medians over the
    passes; counts must agree exactly between passes."""
    from tracing import COUNTS, LAYER_UNITS, Tracer
    from workloads import execute

    for call in workload.warmup_calls(seed):
        execute(call)
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or (time.perf_counter() - start < seconds
                              and time.perf_counter() - start < PHASE_CAP_S):
        tracer = Tracer()
        plain_s = traced_s = 0.0
        for case, call in enumerate(workload.trace_pass(seed)):
            tracer.case = case
            # alternate which of the pair runs first, so neither always
            # finds warm caches
            for with_trace in ((False, True) if case % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer:
                        result = execute(call)
                    traced_s += result.seconds
                else:
                    result = execute(call)
                    plain_s += result.seconds
                tally.add(result)
        tracer.check_reached(workload.name)
        for problem in tracer.problems:
            tally.note(problem)
        passes.append(tracer.layer_metrics(traced_s, plain_s))
    values = {}
    for name in LAYER_UNITS:
        column = [p[name] for p in passes]
        if name in COUNTS:
            if len(set(column)) != 1:
                tally.note(f"count {name} differs between passes: {column}")
            values[name] = column[0]
        else:
            values[name] = statistics.median(column)
    return values, {"passes": len(passes), "spans_per_pass": len(tracer.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sectorpoly" / "__init__.py").is_file():
        print(f"perfbench: no sectorpoly sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"     # before numpy loads, here and in the probes
    sys.path.insert(0, str(SRC))

    import workloads
    from sectorpoly import kernels
    from tracing import LAYER_UNITS

    tally = Tally()
    workdir = WORKDIR / str(os.getpid())
    try:
        workload = workloads.make(args.workload, workdir)
        if args.workload == "cli":
            workload.write_inputs()
        if args.trace:
            values, samples = traced(workload, args.seed, args.seconds, tally)
            units = LAYER_UNITS
        else:
            values, samples = measure(workload, args.seed, args.seconds, tally)
            values["pass_ratio"] = (tally.attempted - tally.failed) / tally.attempted
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values["setup_s"], samples["unscaled_setup_s"] = setup_seconds(workload, args.seed)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(kernels.backend_name())}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "samples": samples}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
