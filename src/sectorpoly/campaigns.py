"""Seeded randomized invariant campaigns.

Shared by the CLI ``oracle`` subcommand and the acceptance suite. Every case
derives its own generator from ``seed ^ case_index``, so campaigns are
deterministic, order-independent and safe to fan out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SectorPolyError
from .pmatrix import (
    MatrixClass,
    eigen_witness,
    eigenvalues,
    generate_p_matrix,
    kellogg_admissible,
    principal_minors,
    spectrum_aux_poly,
)
from .poly import SignClass, classify_signs, from_polar, principal_arg
from .synthesis import sector_index, synthesize, verify_cot

SUITE_NAMES = ("synth", "cot", "kellogg", "witness")

RESIDUAL_BOUND = 1e-10
WITNESS_DIST_BOUND = 1e-8


@dataclass
class SuiteReport:
    suite: str
    cases: int
    seed: int
    passes: int = 0
    failures: int = 0
    metrics: dict = field(default_factory=dict)
    failure: dict | None = None

    def record(self, ok: bool, detail: dict | None = None) -> None:
        if ok:
            self.passes += 1
        else:
            self.failures += 1
            if self.failure is None:
                self.failure = detail

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "seed": self.seed,
            "passes": self.passes,
            "failures": self.failures,
            "metrics": self.metrics,
            "failure": self.failure,
        }


def _case_rng(seed: int, index: int) -> np.random.Generator:
    # SeedSequence hashing keeps neighboring (seed, index) pairs uncorrelated;
    # a plain xor would make nearby seeds permute the same case set
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _sample_nonneg_target(rng: np.random.Generator, index: int):
    """(mu, n): degree in [1, 12], modulus in [0.1, 10], |alpha| in [pi/n, pi].

    Every 8th case pins |alpha| to a sector endpoint so the binomial and
    linear boundary branches stay exercised.
    """
    n = int(rng.integers(1, 13))
    r = float(rng.uniform(0.1, 10.0))
    if index % 8 == 3:
        alpha = math.pi / n
    elif index % 8 == 7:
        alpha = math.pi
    else:
        alpha = float(rng.uniform(math.pi / n, math.pi))
    if rng.integers(0, 2) == 1 and alpha < math.pi:
        alpha = -alpha
    return from_polar(r, alpha), n


def _sample_positive_target(rng: np.random.Generator):
    """(mu, n): degree in [2, 12], |alpha| in (pi/n, pi) off every boundary
    angle pi/k."""
    n = int(rng.integers(2, 13))
    r = float(rng.uniform(0.1, 10.0))
    while True:
        alpha = float(rng.uniform(math.pi / n, math.pi))
        if not sector_index(alpha).boundary:
            break
    if rng.integers(0, 2) == 1:
        alpha = -alpha
    return from_polar(r, alpha), n


def _check_synthesis(result, coeffs: list, n, mode) -> list[str]:
    """The failed checks of ``result``, whose coefficients ``coeffs`` are
    read as Python floats."""
    bad = []
    if len(coeffs) != n + 1:
        bad.append("degree")
    if coeffs[-1] != 1.0:
        bad.append("monic")
    if coeffs[0] <= 0.0:
        bad.append("constant_term")
    if not classify_signs(result.coeffs).satisfies(mode):
        bad.append("positivity" if mode is SignClass.POSITIVE else "nonnegativity")
    if result.residual > RESIDUAL_BOUND:
        bad.append("residual")
    return bad


def run_synth_suite(cases: int, seed: int, mode: SignClass | None = None,
                    verify_forward: bool = False) -> SuiteReport:
    """Round-trip campaign: synthesize at random targets, check the result's
    shape, sign class and residual; optionally close the loop through the
    forward sector-bound checker."""
    report = SuiteReport("cot" if verify_forward else "synth", cases, seed)
    max_residual = 0.0
    min_margin = math.inf
    min_defect = math.inf
    for i in range(cases):
        rng = _case_rng(seed, i)
        case_mode = mode
        if case_mode is None:
            case_mode = SignClass.NONNEGATIVE if i % 2 == 0 else SignClass.POSITIVE
        try:
            if case_mode is SignClass.POSITIVE:
                mu, n = _sample_positive_target(rng)
            else:
                mu, n = _sample_nonneg_target(rng, i)
            result = synthesize(mu, n, case_mode)
            coeffs = result.coeffs.tolist()
            bad = _check_synthesis(result, coeffs, n, case_mode)
            max_residual = max(max_residual, result.residual)
            min_margin = min(min_margin, min(coeffs) / max(coeffs))
            if verify_forward:
                cot = verify_cot(result.coeffs)
                min_defect = min(min_defect, cot.min_defect)
                if cot.status != "pass":
                    bad.append(f"verify_{cot.status}")
        except SectorPolyError as exc:
            report.record(False, {"case": i, "failed": [f"error_{exc.name}"]})
            continue
        detail = None
        if bad:
            detail = {
                "case": i,
                "mu": {"re": mu.real, "im": mu.imag},
                "n": n,
                "mode": case_mode.value,
                "failed": bad,
            }
        report.record(not bad, detail)
    report.metrics = {
        "max_residual": max_residual,
        "min_coeff_margin": None if min_margin is math.inf else min_margin,
    }
    if verify_forward:
        report.metrics["min_arg_defect"] = None if min_defect is math.inf else min_defect
    return report


def run_kellogg_suite(cases: int, seed: int) -> SuiteReport:
    """Forward eigenvalue-region campaign on generated P matrices: every
    eigenvalue must clear the strict wedge and the reflected characteristic
    polynomial must have strictly positive coefficients."""
    report = SuiteReport("kellogg", cases, seed)
    min_defect = math.inf
    max_root_residual = 0.0
    for i in range(cases):
        rng = _case_rng(seed, i)
        n = int(rng.integers(2, 9))
        mseed = int(rng.integers(0, 2**63))
        bad = []
        a = generate_p_matrix(n, mseed)
        minors = principal_minors(a)
        if minors.matrix_class is not MatrixClass.P:
            bad.append("class")
        if minors.aux_sign_class() is not SignClass.POSITIVE:
            bad.append("aux_signs")
        rs = eigenvalues(minors)
        max_root_residual = max(max_root_residual, float(np.max(rs.residuals)))
        if not rs.converged:
            bad.append("eigen_convergence")
        for lam in rs.roots.tolist():
            # |arg(-lambda)|, the angle kellogg_admissible judges
            defect = abs(principal_arg(-lam)) - math.pi / n
            min_defect = min(min_defect, defect)
            if not kellogg_admissible(lam, n, MatrixClass.P):
                bad.append("admissible")
                break
        detail = {"case": i, "n": n, "matrix_seed": mseed, "failed": bad} if bad else None
        report.record(not bad, detail)
    report.metrics = {
        "min_eigen_defect": None if min_defect is math.inf else min_defect,
        "max_root_residual": max_root_residual,
    }
    return report


def _sample_admissible(rng: np.random.Generator, index: int):
    """(lambda, n, mode, boundary): admissible eigenvalue targets, alternating
    P and P0; every 5th P0 case sits exactly on the wedge boundary."""
    mode = MatrixClass.P if index % 2 == 0 else MatrixClass.P0
    n = int(rng.integers(2, 13))
    r = float(rng.uniform(0.1, 10.0))
    boundary = False
    if mode is MatrixClass.P:
        while True:
            gap = float(rng.uniform(math.pi / n, math.pi))
            if not sector_index(gap).boundary:
                break
    else:
        if index % 10 == 1:
            gap = math.pi / n
            boundary = True
        else:
            gap = float(rng.uniform(math.pi / n, math.pi))
    side = 1.0 if rng.integers(0, 2) == 1 else -1.0
    theta = math.pi + side * gap
    return from_polar(r, theta), n, mode, boundary


def run_witness_suite(cases: int, seed: int) -> SuiteReport:
    """Witness soundness campaign: every admissible (lambda, n) must extend to
    a full spectrum containing lambda whose feasibility matches the mode."""
    report = SuiteReport("witness", cases, seed)
    max_distance = 0.0
    for i in range(cases):
        rng = _case_rng(seed, i)
        lam, n, mode, boundary = _sample_admissible(rng, i)
        bad = []
        try:
            spectrum = eigen_witness(lam, n, mode)
            values = spectrum.values
            if len(values) != n:
                bad.append("size")
            dist = float(np.min(np.abs(values - lam))) / (1.0 + abs(lam))
            max_distance = max(max_distance, dist)
            if dist > WITNESS_DIST_BOUND:
                bad.append("contains_lambda")
            feasibility = spectrum.feasibility
            if mode is MatrixClass.P:
                if feasibility is not MatrixClass.P:
                    bad.append("feasibility")
            elif feasibility is MatrixClass.NEITHER:
                bad.append("feasibility")
            if not spectrum.conjugate_closed:
                bad.append("conjugate_closure")
            if boundary and not _is_binomial_spectrum(values):
                bad.append("boundary_binomial")
        except SectorPolyError as exc:
            bad.append(f"error_{exc.name}")
        detail = None
        if bad:
            detail = {
                "case": i,
                "lambda": {"re": lam.real, "im": lam.imag},
                "n": n,
                "mode": mode.value,
                "failed": bad,
            }
        report.record(not bad, detail)
    report.metrics = {"max_match_distance": max_distance}
    return report


def _is_binomial_spectrum(values) -> bool:
    """True if prod (t + v) is a binomial: every interior coefficient
    vanishes relative to the same coefficient of prod (t + |v|), the bound
    spectrum_feasible judges against."""
    q = spectrum_aux_poly(values)[1:-1]
    bound = spectrum_aux_poly(np.abs(values)).real[1:-1]
    return bool(np.all(np.abs(q) <= 1e-8 * bound))


def run_suite(name: str, cases: int, seed: int) -> SuiteReport:
    if name == "synth":
        return run_synth_suite(cases, seed)
    if name == "cot":
        return run_synth_suite(cases, seed, verify_forward=True)
    if name == "kellogg":
        return run_kellogg_suite(cases, seed)
    if name == "witness":
        return run_witness_suite(cases, seed)
    raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
