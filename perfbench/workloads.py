"""The benchmark's workloads: seeded inputs, the calls into sectorpoly's
public entry points, and the checks on every output.

A workload yields ``Call`` objects. Running one times only the call into the
package; its output is checked afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import operator
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sectorpoly import campaigns, cli

OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


@dataclass
class Call:
    run: object        # () -> output, the timed call
    check: object      # output -> (failed cases, list of problems)
    cases: int
    kind: str


@dataclass(frozen=True)
class Result:
    seconds: float
    cases: int
    failed: int        # cases whose output failed a check
    problems: list
    start: float = 0.0     # time.perf_counter() when the call began


def execute(call: Call) -> Result:
    """Time one call and check its output. A call that raises, or whose output
    cannot be read, fails all its cases; it is not a crash of the benchmark."""
    start = time.perf_counter()
    try:
        out = call.run()
    except Exception as exc:
        return Result(time.perf_counter() - start, call.cases, call.cases,
                      [f"{call.kind} raised {exc!r}"], start)
    seconds = time.perf_counter() - start
    try:
        failed, problems = call.check(out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        failed, problems = call.cases, [f"{call.kind}: unreadable output ({exc!r})"]
    return Result(seconds, call.cases, failed, problems, start)


def _seeds(seed: int, stream: int):
    """Endless seeded stream of campaign seeds, one per call."""
    rng = np.random.default_rng([seed, stream])
    while True:
        yield int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# campaign workloads: campaigns.run_suite at a fixed case count per call
# ---------------------------------------------------------------------------

class Campaign:
    """``bulk`` calls of ``cases`` each (the stated size) per pass when
    measuring throughput, and ``latency_cases`` per call when measuring
    latency."""

    def __init__(self, name: str, cases: int, bulk: int, latency_cases: int,
                 bounds) -> None:
        self.name = name
        self.cases = cases
        self.bulk = bulk
        self.latency_cases = latency_cases
        self.bounds = bounds
        self.failing = FAILING[name]

    def call(self, cases: int, seed: int) -> Call:
        return Call(
            run=lambda: campaigns.run_suite(self.name, cases, seed),
            check=lambda report: self.check(report, cases),
            cases=cases,
            kind=self.name,
        )

    def check(self, report, cases: int) -> tuple[int, list]:
        """The report's failed cases; all cases fail when only a bound on the
        whole report is missed, since it does not say which case missed it."""
        problems = []
        if report.cases != cases or report.passes + report.failures != cases:
            problems.append(f"{report.passes}+{report.failures} outcomes for {cases} cases")
        if report.failures:
            problems.append(f"{report.failures} failed cases, first {report.failure}")
        for key, op, bound in self.bounds:
            value = report.metrics.get(key)
            if value is None or not OPS[op](value, bound):
                problems.append(f"{key}={value!r} is not {op} {bound!r}")
        return (report.failures or cases) if problems else 0, problems

    def candidates(self) -> list:
        """The campaign seeds screen.py checks at the stated size."""
        seeds = _seeds(CORPUS_SEED, 1)
        return [next(seeds) for _ in range(POOL_CANDIDATES)]

    def pool(self, seed: int, stream: int) -> list:
        """The candidates the program passes, in an order drawn from ``seed``.
        A call with fewer cases on a pool seed checks a prefix of the same
        cases, so it passes too."""
        pool = [s for s in self.candidates() if s not in self.failing]
        return [pool[k] for k in np.random.default_rng([seed, stream]).permutation(len(pool))]

    def throughput_calls(self, seed: int):
        for s in itertools.cycle(self.pool(seed, 1)):
            yield self.call(self.cases, s)

    def latency_corpus(self) -> list:
        """The small calls timed for latency. They do not depend on the
        seed, so every run times the same mix of cases."""
        seeds = _seeds(CORPUS_SEED, 2)
        return [self.call(self.latency_cases, next(seeds)) for _ in range(LATENCY_CORPUS)]

    def warmup_calls(self, seed: int) -> list:
        s = self.pool(seed, 5)[0]
        return [self.call(self.latency_cases, s), self.call(self.cases // 20, s)]

    def trace_pass(self, seed: int) -> list:
        return [self.call(max(self.cases // 10, 100), self.pool(seed, 3)[0])]

    def first_call(self, seed: int) -> tuple[str, list]:
        return "campaign", [self.name, self.latency_cases, self.pool(seed, 4)[0]]


# Calls at the stated size take 500 cases for cot and witness and 200 for
# kellogg, so each takes about a second or less: the host-speed correction
# (speed.py) follows short calls better. With the 2000-case cot calls ROADMAP
# item 2 times, cot's cases_per_s spread 14% between ten seeds. Each pass
# makes enough of them to take about as long as the latency corpus. A case's
# inputs depend on its index: cot alternates sign modes and witness matrix
# classes, so their latency calls take two cases; kellogg's take one.
#
# The stated-size calls take their campaign seeds from a fixed pool of
# POOL_CANDIDATES seeds, in an order drawn from --seed. A few cases in 10^5
# fail today (README, "Failures the program has today"), so a run drawing
# fresh seeds would fail now and then. FAILING lists the candidates whose
# calls fail, with their first failure, as screen.py finds them; the pool
# leaves them out. screen.py also reports a listed seed that passes again.
CORPUS_SEED = 0
LATENCY_CORPUS = 1000     # latency calls per pass; p99 then has 10 beyond it
POOL_CANDIDATES = 64
FAILING = {
    "cot": {},
    "kellogg": {},
    "witness": {
        1121323794: "case 191, n=12, P0: contains_lambda, error_NotConjugateClosed",
        2132340198: "case 270, n=12, P: feasibility",
    },
}
CAMPAIGNS = {
    "cot": Campaign("cot", 500, 6, 2, (("max_residual", "<=", 1e-10),
                                       ("min_coeff_margin", ">=", -1e-12),
                                       ("min_arg_defect", ">", -1e-7))),
    "kellogg": Campaign("kellogg", 200, 4, 1, (("min_eigen_defect", ">", 0.0),)),
    "witness": Campaign("witness", 500, 4, 2, (("max_match_distance", "<=", 1e-8),)),
}


# ---------------------------------------------------------------------------
# cli workload: one in-process cli.main(argv) call at a time
# ---------------------------------------------------------------------------

# One block of calls with a fixed composition. The load is synthetic: no
# record of how the CLI is used exists. The three cheap commands take equal
# shares and make up the median. The classify calls set the tail: 4 of the
# 324 calls (1.2%) classify an n = 12 matrix, so p99 falls at the fast end of
# those calls, where it spreads less between runs than in their middle.
# P matrices stop at n = 9: classify reports wrong eigenvalues for most of
# them from n = 10 on (README, "Failures the program has today"). Random
# matrices, which it gets right, cover n = 10..12; classify enumerates the
# minors of both kinds alike.
BLOCK = {"verify": 100, "synthesize": 100, "region": 100}
CLASSIFY_SIZES = {"P": (6, 7, 8, 9), "random": (6, 7, 8, 9, 10, 11)}
CLASSIFY_PER_SIZE = 2     # per block, per (kind, n) in CLASSIFY_SIZES
TAIL_KIND, TAIL_N, TAIL_PER_BLOCK = "random", 12, 4
MATRIX_DIMS = range(6, 13)
MATRIX_POOL = 8           # distinct matrices per (kind, n)
WARMUP_CALLS = 100
RESIDUAL_BOUND = 1e-10
VERIFY_ROOT_TOL = 1e-6
# Relative to the spectral radius. The roots of the correctly rounded
# characteristic polynomial of these matrices lie within about 1e-5 of the
# eigenvalues (n <= 12); the tolerance leaves room for that conditioning.
EIGEN_TOL = 1e-4


def _p_matrix(rng, n: int) -> np.ndarray:
    """Strictly diagonally dominant with positive diagonal: a P matrix."""
    a = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, np.sum(np.abs(a), axis=1) + rng.uniform(0.1, 1.0, n))
    return a


def _main(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _matches(expected, got, tol: float) -> bool:
    """Every expected value has a reported value within ``tol`` and back."""
    expected = np.asarray(expected, dtype=np.complex128)
    got = np.asarray(got, dtype=np.complex128)
    if expected.shape != got.shape:
        return False
    dist = np.abs(expected[:, None] - got[None, :])
    return bool(np.all(dist.min(axis=1) <= tol) and np.all(dist.min(axis=0) <= tol))


def _roots_json(rows) -> np.ndarray:
    return np.array([complex(z["re"], z["im"]) for z in rows])


class CliMix:
    name = "cli"

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.matrices: dict[tuple[str, int, int], np.ndarray] = {}

    def write_inputs(self) -> None:
        """Write every classify input file, once, before anything is timed.
        The matrices do not depend on the seed: the slowest of them set p99,
        and a fixed set keeps p99 comparable between seeds."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([CORPUS_SEED, 10])
        for i in range(MATRIX_POOL):
            for n in MATRIX_DIMS:
                for kind in ("P", "random"):
                    a = _p_matrix(rng, n) if kind == "P" else rng.uniform(-1.0, 1.0, (n, n))
                    self.matrices[(kind, n, i)] = a
                    self._path(kind, n, i).write_text(
                        json.dumps({"n": n, "rows": a.tolist()}), encoding="utf-8")

    def _path(self, kind: str, n: int, i: int) -> Path:
        return self.workdir / f"{kind}{n}_{i}.json"

    def block(self, seed: int, stream: int, j: int) -> list:
        """The j-th block of calls of a stream, in seeded order."""
        rng = np.random.default_rng([seed, stream, j])
        calls = [self._verify(rng) for _ in range(BLOCK["verify"])]
        calls += [self._synthesize(rng, m) for m in range(BLOCK["synthesize"])]
        calls += [self._region(rng) for _ in range(BLOCK["region"])]
        calls += [self._classify(kind, n, (CLASSIFY_PER_SIZE * j + m) % MATRIX_POOL)
                  for kind, dims in CLASSIFY_SIZES.items() for n in dims
                  for m in range(CLASSIFY_PER_SIZE)]
        # the same tail matrices in every block, so p99 does not depend on
        # how many blocks a run makes
        calls += [self._classify(TAIL_KIND, TAIL_N, m) for m in range(TAIL_PER_BLOCK)]
        return [calls[k] for k in rng.permutation(len(calls))]

    def blocks(self, seed: int):
        j = 0
        while True:
            yield self.block(seed, 1, j)
            j += 1

    def warmup_calls(self, seed: int) -> list:
        return self.block(seed, 2, 0)[:WARMUP_CALLS]

    def trace_pass(self, seed: int) -> list:
        return self.block(seed, 3, 0)

    def first_call(self, seed: int) -> tuple[str, list]:
        return "cli", ["classify", "--matrix", str(self._path("P", CLASSIFY_SIZES["P"][0], 0))]

    @staticmethod
    def _call(argv: list, check) -> Call:
        def checked(out):
            rc, text = out
            problems = [f"{argv[0]} exited {rc}: {text[:200]}"] if rc != 0 else check(text)
            return int(bool(problems)), problems
        return Call(run=lambda: _main(argv), check=checked, cases=1, kind=argv[0])

    def _verify(self, rng) -> Call:
        coeffs = rng.uniform(0.1, 1.0, int(rng.integers(2, 14)))
        expected = np.roots(coeffs[::-1])
        scale = 1.0 + float(np.max(np.abs(expected)))

        def check(text):
            payload = json.loads(text)
            problems = []
            if payload["status"] != "pass":
                problems.append(f"verify status {payload['status']}")
            if not _matches(expected, _roots_json(payload["roots"]), VERIFY_ROOT_TOL * scale):
                problems.append("verify roots differ from numpy.roots")
            return problems

        return self._call(["verify", "--poly", json.dumps(coeffs.tolist())], check)

    def _synthesize(self, rng, m: int) -> Call:
        n = int(rng.integers(2, 13))
        r = float(rng.uniform(0.1, 10.0))
        mode = "nonneg" if m % 2 == 0 else "positive"
        while True:
            alpha = float(rng.uniform(math.pi / n, math.pi))
            ratio = math.pi / alpha
            # positive mode excludes integer pi/alpha; stay clear of snapping
            if alpha > math.pi / n + 1e-9 and (
                    mode == "nonneg" or abs(ratio - round(ratio)) > 1e-6 * ratio):
                break
        if rng.integers(0, 2) == 1:
            alpha = -alpha
        mu = complex(r * math.cos(alpha), r * math.sin(alpha))

        def check(text):
            payload = json.loads(text)
            c = np.array(payload["coeffs"])
            problems = []
            if len(c) != n + 1 or c[-1] != 1.0 or c[0] <= 0.0:
                problems.append("synthesize: not monic of degree n with positive constant")
            if (mode == "nonneg" and np.min(c) < 0.0) or (mode == "positive" and np.min(c) <= 0.0):
                problems.append(f"synthesize: coefficients not {mode}")
            resid = abs(np.polyval(c[::-1], mu)) / (np.sum(np.abs(c)) * max(1.0, r) ** n)
            if not resid <= RESIDUAL_BOUND:
                problems.append(f"synthesize: residual {resid!r} at mu")
            return problems

        argv = ["synthesize", "--r", repr(r), "--alpha", repr(alpha), "--n", str(n),
                "--mode", mode]
        return self._call(argv, check)

    def _region(self, rng) -> Call:
        n = int(rng.integers(1, 13))
        mode = "P" if rng.integers(0, 2) == 0 else "P0"
        edges = {t for t in (math.pi - math.pi / n, math.pi + math.pi / n)
                 if 0.0 < t <= 2.0 * math.pi}

        def check(text):
            lines = text.splitlines()
            if lines[0] != "theta,admissible,boundary" or len(lines) < 361:
                return ["region: malformed csv"]
            for line in lines[1:]:
                theta_s, admissible, boundary = line.split(",")
                theta = float(theta_s)
                defect = abs(theta - math.pi) - math.pi / n
                ok = defect > 1e-12 if mode == "P" else defect >= -1e-12
                if admissible != str(ok).lower() or (boundary == "true") != (theta in edges):
                    return [f"region: wrong row {line}"]
            return []

        return self._call(["region", "--n", str(n), "--mode", mode], check)

    def _classify(self, kind: str, n: int, i: int) -> Call:
        a = self.matrices[(kind, n, i)]
        eig = np.linalg.eigvals(a)
        det = float(np.linalg.det(a))
        trace_tol = 1e-9 * (1.0 + float(np.sum(np.abs(np.diag(a)))))
        det_tol = 1e-9 * float(np.prod(np.linalg.norm(a, axis=1)))   # Hadamard bound

        def check(text):
            payload = json.loads(text)
            problems = []
            if kind == "P" and (payload["class"] != "P" or payload["aux_sign_class"] != "positive"):
                problems.append(f"classify: P matrix reported {payload['class']}")
            if kind == "random" and np.min(np.diag(a)) < 0.0 and payload["class"] != "Neither":
                problems.append(f"classify: negative diagonal reported {payload['class']}")
            e = _roots_json(payload["e_sums"])
            if abs(e[0] - np.trace(a)) > trace_tol or abs(e[-1] - det) > det_tol:
                problems.append("classify: E_1 or E_n differs from trace or det")
            got = _roots_json([row["value"] for row in payload["eigenvalues"]])
            if not _matches(eig, got, EIGEN_TOL * (1.0 + float(np.max(np.abs(eig))))):
                problems.append("classify: eigenvalues differ from numpy.linalg.eigvals")
            return problems

        return self._call(["classify", "--matrix", str(self._path(kind, n, i))], check)


def make(name: str, workdir: Path):
    return CliMix(workdir) if name == "cli" else CAMPAIGNS[name]
