"""Span tracing of sectorpoly's layers from outside the package.

A ``Tracer`` wraps the public functions listed in ``TARGETS``. The package
binds many of them with ``from .x import y``, so wrapping only the defining
module would miss those calls: every module attribute of a loaded
``sectorpoly`` module that refers to a target function is swapped for the
wrapper while the tracer is active, and restored on exit. Each span records
name, start, end, parent span and case id; spans stay in memory.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

from metrics import percentile, self_times

# (module, attribute, span name). A target missing from the package is a
# problem of the traced run, not a layer that costs nothing: its metrics would
# read 0, which looks like a gain when nothing was measured.
TARGETS = (
    ("sectorpoly.campaigns", "run_suite", "campaigns"),
    ("sectorpoly.cli", "main", "cli"),
    ("sectorpoly.synthesis", "synthesize", "synthesis.synthesize"),
    ("sectorpoly.synthesis", "verify_cot", "synthesis.verify_cot"),
    ("sectorpoly.roots", "find_roots", "roots.find_roots"),
    ("sectorpoly.kernels", "aberth_iterate", "kernels.aberth_iterate"),
    ("sectorpoly.kernels", "minor_sums", "kernels.minor_sums"),
    ("sectorpoly.pmatrix", "principal_minors", "pmatrix.principal_minors"),
    ("sectorpoly.pmatrix", "eigenvalues", "pmatrix.eigenvalues"),
    ("sectorpoly.pmatrix", "generate_p_matrix", "pmatrix.generate_p_matrix"),
    ("sectorpoly.pmatrix", "eigen_witness", "pmatrix.eigen_witness"),
    ("sectorpoly.pmatrix", "spectrum_feasible", "pmatrix.spectrum_feasible"),
    ("sectorpoly.poly", "is_conjugate_closed", "poly.is_conjugate_closed"),
)

# Span names each workload reaches today. A traced run that records none of
# one of them reports a problem.
REACHED = {
    "cot": ("campaigns", "synthesis.synthesize", "synthesis.verify_cot",
            "roots.find_roots", "kernels.aberth_iterate"),
    "kellogg": ("campaigns", "pmatrix.generate_p_matrix", "pmatrix.principal_minors",
                "kernels.minor_sums", "pmatrix.eigenvalues", "roots.find_roots",
                "kernels.aberth_iterate"),
    "witness": ("campaigns", "pmatrix.eigen_witness", "pmatrix.spectrum_feasible",
                "poly.is_conjugate_closed", "roots.find_roots", "kernels.aberth_iterate"),
    "cli": ("cli", "synthesis.synthesize", "synthesis.verify_cot",
            "pmatrix.principal_minors", "kernels.minor_sums", "pmatrix.eigenvalues",
            "roots.find_roots", "kernels.aberth_iterate"),
}

DEGREE_BUCKETS = ("deg1-4", "deg5-8", "deg9-12")
CLI_COMMANDS = ("synthesize", "verify", "region", "classify")

# name -> unit. Counts are exact functions of the inputs and must repeat
# bit-for-bit for one seed; every other metric is a time or a time ratio.
COUNTS = {
    "roots.find_roots.calls": "count",
    "roots.find_roots.sweeps_mean": "count",
    "roots.find_roots.unconverged": "count",
    "kernels.aberth_iterate.pair_updates": "count",
    "kernels.minor_sums.calls": "count",
    "kernels.minor_sums.subsets": "count",
    "kernels.minor_sums.calls_per_matrix": "count",
    "synthesis.verify_cot.inconclusive": "count",
    "campaigns.failures": "count",
    "cli.failures": "count",
}
TIMES = {
    "roots.find_roots.busy_s": "s",
    **{f"roots.find_roots.us_per_call.{b}": "us" for b in DEGREE_BUCKETS},
    "roots.find_roots.wall_share": "ratio",
    "kernels.aberth_iterate.busy_s": "s",
    "kernels.minor_sums.busy_s": "s",
    "kernels.minor_sums.us_per_subset": "us",
    "kernels.minor_sums.wall_share": "ratio",
    "pmatrix.principal_minors.self_s": "s",
    "pmatrix.eigenvalues.busy_s": "s",
    "pmatrix.generate_p_matrix.busy_s": "s",
    "pmatrix.eigen_witness.self_s": "s",
    "pmatrix.spectrum_feasible.busy_s": "s",
    "poly.is_conjugate_closed.busy_s": "s",
    "synthesis.synthesize.busy_s": "s",
    "synthesis.verify_cot.self_s": "s",
    "campaigns.self_s": "s",
    "cli.self_s": "s",
    **{f"cli.{c}.p50_ms": "ms" for c in CLI_COMMANDS},
    "trace.overhead_pct": "%",
}
LAYER_UNITS = {**COUNTS, **TIMES}


def _bucket(deg: int) -> str:
    return DEGREE_BUCKETS[min(max(deg - 1, 0) // 4, len(DEGREE_BUCKETS) - 1)]


# Observers turn a finished call's arguments and result into counts.

def _find_roots(tracer, args, kwargs, out, dur):
    bucket = _bucket(len(out.roots))
    tracer.sums[f"roots.busy.{bucket}"] += dur
    tracer.sums[f"roots.calls.{bucket}"] += 1
    tracer.sums["roots.sweeps"] += out.iterations
    tracer.sums["roots.unconverged"] += not out.converged


def _aberth(tracer, args, kwargs, out, dur):
    # one Jacobi sweep updates every root against every other: deg^2 pairs;
    # a converged solve also runs the kernel's polishing sweeps
    roots, residuals, iters = out
    tol = args[3] if len(args) > 3 else kwargs["tol"]
    sweeps = iters + (tracer.polish if float(np.max(residuals)) <= tol else 0)
    tracer.sums["aberth.pair_updates"] += sweeps * len(roots) ** 2


def _minor_sums(tracer, args, kwargs, out, dur):
    a = np.asarray(args[0] if args else kwargs["a"])
    tracer.sums["minors.subsets"] += 2 ** a.shape[0] - 1
    tracer.matrices.add(hash(a.tobytes()))


def _verify_cot(tracer, args, kwargs, out, dur):
    tracer.sums["verify_cot.inconclusive"] += out.status == "inconclusive"


def _run_suite(tracer, args, kwargs, out, dur):
    tracer.sums["campaigns.failures"] += out.failures


def _cli_main(tracer, args, kwargs, out, dur):
    argv = args[0] if args else kwargs["argv"]
    tracer.cli_ms[argv[0]].append(dur * 1e3)
    tracer.sums["cli.failures"] += out != 0


OBSERVERS = {
    "roots.find_roots": _find_roots,
    "kernels.aberth_iterate": _aberth,
    "kernels.minor_sums": _minor_sums,
    "synthesis.verify_cot": _verify_cot,
    "campaigns": _run_suite,
    "cli": _cli_main,
}


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.case = -1
        self.sums: defaultdict = defaultdict(float)
        self.matrices: set[int] = set()
        self.cli_ms: defaultdict = defaultdict(list)
        self.problems: list[str] = []
        self.polish = getattr(importlib.import_module("sectorpoly.kernels"),
                              "POLISH_SWEEPS", None)
        if self.polish is None:
            self.problem("kernels.POLISH_SWEEPS is missing; pair_updates cannot be counted")
            self.polish = 0
        self._sites = []
        for module_name, attr, span_name in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.problem(f"trace target {module_name}.{attr} is missing")
                continue
            wrapper = self._wrap(span_name, original)
            for name, module in list(sys.modules.items()):
                if name == "sectorpoly" or name.startswith("sectorpoly."):
                    for binding, value in vars(module).items():
                        if value is original:
                            self._sites.append((module, binding, original, wrapper))

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def check_reached(self, workload: str) -> None:
        """Record a problem for each layer the workload is known to reach that
        left no span: a renamed or bypassed function, not a free layer."""
        seen = {span[0] for span in self.spans}
        for name in REACHED[workload]:
            if name not in seen:
                self.problem(f"{workload} reached no {name}; its metrics would read 0")

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.case)
            if observe is not None:
                observe(self, args, kwargs, out, end - start)
            return out

        return wrapper

    def __enter__(self):
        for module, binding, _, wrapper in self._sites:
            setattr(module, binding, wrapper)
        return self

    def __exit__(self, *exc):
        for module, binding, original, _ in self._sites:
            setattr(module, binding, original)
        return False

    def layer_metrics(self, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics of everything traced so far. ``traced_s`` is the
        wall time of the traced calls, ``untraced_s`` that of the same calls
        run with tracing off."""
        busy: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        calls: defaultdict = defaultdict(int)
        selfs = self_times([(s, e, p) for _, s, e, p, _ in self.spans])
        for (name, start, end, _, _), self_s in zip(self.spans, selfs):
            busy[name] += end - start
            own[name] += self_s
            calls[name] += 1
        s = self.sums
        roots_calls = calls["roots.find_roots"]
        minor_calls = calls["kernels.minor_sums"]
        out = {
            "roots.find_roots.busy_s": busy["roots.find_roots"],
            "roots.find_roots.calls": roots_calls,
            "roots.find_roots.sweeps_mean": s["roots.sweeps"] / roots_calls if roots_calls else 0.0,
            "roots.find_roots.unconverged": int(s["roots.unconverged"]),
            "roots.find_roots.wall_share": busy["roots.find_roots"] / traced_s,
            "kernels.aberth_iterate.busy_s": busy["kernels.aberth_iterate"],
            "kernels.aberth_iterate.pair_updates": int(s["aberth.pair_updates"]),
            "kernels.minor_sums.busy_s": busy["kernels.minor_sums"],
            "kernels.minor_sums.calls": minor_calls,
            "kernels.minor_sums.subsets": int(s["minors.subsets"]),
            "kernels.minor_sums.us_per_subset": (
                busy["kernels.minor_sums"] / s["minors.subsets"] * 1e6 if minor_calls else 0.0),
            "kernels.minor_sums.calls_per_matrix": (
                minor_calls / len(self.matrices) if minor_calls else 0.0),
            "kernels.minor_sums.wall_share": busy["kernels.minor_sums"] / traced_s,
            "pmatrix.principal_minors.self_s": own["pmatrix.principal_minors"],
            "pmatrix.eigenvalues.busy_s": busy["pmatrix.eigenvalues"],
            "pmatrix.generate_p_matrix.busy_s": busy["pmatrix.generate_p_matrix"],
            "pmatrix.eigen_witness.self_s": own["pmatrix.eigen_witness"],
            "pmatrix.spectrum_feasible.busy_s": busy["pmatrix.spectrum_feasible"],
            "poly.is_conjugate_closed.busy_s": busy["poly.is_conjugate_closed"],
            "synthesis.synthesize.busy_s": busy["synthesis.synthesize"],
            "synthesis.verify_cot.self_s": own["synthesis.verify_cot"],
            "synthesis.verify_cot.inconclusive": int(s["verify_cot.inconclusive"]),
            "campaigns.self_s": own["campaigns"],
            "campaigns.failures": int(s["campaigns.failures"]),
            "cli.self_s": own["cli"],
            "cli.failures": int(s["cli.failures"]),
            "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        }
        for b in DEGREE_BUCKETS:
            n = s[f"roots.calls.{b}"]
            out[f"roots.find_roots.us_per_call.{b}"] = s[f"roots.busy.{b}"] / n * 1e6 if n else 0.0
        for c in CLI_COMMANDS:
            samples = self.cli_ms.get(c)
            out[f"cli.{c}.p50_ms"] = percentile(samples, 50) if samples else 0.0
        return out
