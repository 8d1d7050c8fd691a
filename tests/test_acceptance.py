"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest -s tests/test_acceptance.py`` to see
them inline)."""

import json
import math
import time

import mpmath as mp
import numpy as np

from sectorpoly import (
    SignClass,
    eigenvalues,
    from_polar,
    principal_minors,
    synthesize,
)
from sectorpoly.campaigns import run_suite, run_synth_suite
from sectorpoly.poly import relative_residual

SEED = 20260811


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_nonnegative_synthesis_campaign():
    t0 = time.perf_counter()
    report = run_synth_suite(10_000, SEED, SignClass.NONNEGATIVE)
    elapsed = time.perf_counter() - t0
    ok = (report.failures == 0
          and report.metrics["max_residual"] <= 1e-10
          and report.metrics["min_coeff_margin"] >= -1e-12
          and elapsed <= 30.0)
    _report(1, ok,
            f"10000 nonnegative cases, {report.failures} failures, "
            f"max residual {report.metrics['max_residual']:.3e}, "
            f"min coeff margin {report.metrics['min_coeff_margin']:.3e}, "
            f"{elapsed:.1f}s (budget 30s)")


def test_criterion_2_positive_synthesis_campaign():
    report = run_synth_suite(10_000, SEED, SignClass.POSITIVE)
    ok = report.failures == 0 and report.metrics["max_residual"] <= 1e-10
    _report(2, ok,
            f"10000 positive cases, {report.failures} failures, "
            f"max residual {report.metrics['max_residual']:.3e}")


def test_criterion_3_forward_closure():
    nonneg = run_synth_suite(10_000, SEED, SignClass.NONNEGATIVE, verify_forward=True)
    positive = run_synth_suite(10_000, SEED, SignClass.POSITIVE, verify_forward=True)
    failures = nonneg.failures + positive.failures
    worst = min(nonneg.metrics["min_arg_defect"], positive.metrics["min_arg_defect"])
    ok = failures == 0 and worst > -1e-7
    _report(3, ok,
            f"20000 synthesized polynomials through the forward checker, "
            f"{failures} failures, worst root-argument defect {worst:.3e}")


def test_criterion_4_sign_lemma_grid():
    t0 = time.perf_counter()
    violations = 0
    points = 0
    for k in range(2, 31):
        lo, hi = math.pi / k, math.pi / (k - 1)
        alphas = lo + (hi - lo) * np.arange(100) / 100.0
        for j in range(1, k):
            s_k = np.sin(k * alphas)
            s_j = np.sin(j * alphas)
            s_kj = np.sin((k - j) * alphas)
            bad = (s_k > 1e-12) | (s_j <= -1e-12) | (s_kj <= -1e-12)
            violations += int(np.count_nonzero(bad))
            points += alphas.size
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed <= 5.0
    _report(4, ok,
            f"sign lemma grid k in [2,30], {points} (j,k,alpha) points, "
            f"{violations} violations, {elapsed:.2f}s (budget 5s)")


def test_criterion_5_reflection_identity_on_random_matrices():
    rng = np.random.default_rng(SEED)
    bad = 0
    worst_eval = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) * rng.uniform(0.2, 3.0)
        report = principal_minors(a)
        p, q = report.char_poly(), report.aux_poly()
        reflected = np.array([(-1.0) ** n * (-1.0) ** k * p[k] for k in range(n + 1)])
        if not np.array_equal(q, reflected):
            bad += 1
            continue
        e_sums = report.e_sums
        coeff_ok = all(
            abs(q[k] - e_sums[n - k - 1].real) <= 1e-8 * max(1.0, abs(e_sums[n - k - 1]))
            for k in range(n)
        )
        if not coeff_ok:
            bad += 1
            continue
        rs = eigenvalues(report)
        if not rs.converged:
            bad += 1
            continue
        for lam in rs.roots:
            resid = relative_residual(q, -complex(lam))
            worst_eval = max(worst_eval, resid)
            if resid > 1e-8:
                bad += 1
                break
    ok = bad == 0
    _report(5, ok,
            f"500 random matrices (n <= 8): reflection identity exact, "
            f"{bad} failures, worst scaled |q(-lambda)| {worst_eval:.3e}")


def test_criterion_6_kellogg_forward_campaign():
    report = run_suite("kellogg", 1_000, SEED)
    ok = report.failures == 0
    _report(6, ok,
            f"1000 generated P matrices (n in [2,8]), {report.failures} failures, "
            f"min eigenvalue wedge margin {report.metrics['min_eigen_defect']:.3e}")


def test_criterion_7_witness_soundness_campaign():
    report = run_suite("witness", 1_000, SEED)
    ok = (report.failures == 0
          and report.metrics["max_match_distance"] <= 1e-8)
    _report(7, ok,
            f"1000 admissible (lambda, n) pairs witnessed, {report.failures} failures, "
            f"max scaled |lambda - spectrum| {report.metrics['max_match_distance']:.3e}")


def test_criterion_8_worked_exact_cases():
    problems = []

    got = synthesize(1j, 2, SignClass.NONNEGATIVE).coeffs
    if not np.allclose(got, [1, 0, 1], atol=1e-12):
        problems.append(f"mu=i gave {got}")

    got = synthesize(from_polar(1.0, 2 * math.pi / 3), 5, SignClass.POSITIVE).coeffs
    if not np.allclose(got, [1, 2, 3, 3, 2, 1], atol=1e-12):
        problems.append(f"mu=e^(2pi i/3) gave {got}")

    got = synthesize(-3.0, 1, SignClass.NONNEGATIVE).coeffs
    if not np.array_equal(got, [3.0, 1.0]):
        problems.append(f"mu=-3 gave {got}")

    # averaged degree-3 construction against a 50-digit trig oracle
    with mp.workdps(50):
        a = mp.mpf("0.4") * mp.pi
        q1 = [mp.sin(2 * a) / mp.sin(a), -(mp.sin(3 * a) / mp.sin(a)),
              mp.mpf(0), mp.mpf(1)]
        q2 = [mp.sin(a) / mp.sin(2 * a), mp.mpf(0),
              -(mp.sin(3 * a) / mp.sin(2 * a)), mp.mpf(1)]
        oracle = np.array([float((x + y) / 2) for x, y in zip(q1, q2)])
    if not np.allclose(oracle, [1.118034, 0.309017, 0.5, 1.0], atol=1e-6):
        problems.append(f"oracle disagrees with stated values: {oracle}")
    from sectorpoly import build_q_avg

    got = build_q_avg(3, 1.0, 0.4 * math.pi)
    if not np.allclose(got, oracle, atol=1e-6):
        problems.append(f"q average gave {got}, oracle {oracle}")

    _report(8, not problems, "worked exact cases: " + ("; ".join(problems) or
            "mu=i, mu=e^(2pi i/3) lifted, mu=-3 linear, degree-3 average vs "
            "50-digit oracle"))


def test_criterion_9_determinism():
    mismatches = []
    for suite, cases in (("synth", 400), ("cot", 200), ("kellogg", 60), ("witness", 60)):
        first = json.dumps(run_suite(suite, cases, SEED).to_dict())
        second = json.dumps(run_suite(suite, cases, SEED).to_dict())
        if first != second:
            mismatches.append(suite)
    _report(9, not mismatches,
            "byte-identical reports for suites synth/cot/kellogg/witness"
            if not mismatches else f"mismatching suites: {mismatches}")
