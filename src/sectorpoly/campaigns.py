"""Seeded randomized invariant campaigns.

Shared by the CLI ``oracle`` subcommand and the acceptance suite. Every case
derives its own generator from ``SeedSequence([seed, case_index])``, so
campaigns are deterministic, order-independent and safe to fan out.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .errors import SectorPolyError
from .pmatrix import (
    SIGN_TOL,
    MatrixClass,
    eigen_witness,
    eigenvalues,
    generate_p_matrix,
    principal_minors,
    spectrum_aux_poly,
    wedge_admissible,
)
from .poly import SignClass, classify_signs, from_polar, is_conjugate_closed, principal_arg
from .synthesis import sector_index, synthesize, verify_cot

RESIDUAL_BOUND = 1e-10


@dataclass
class SuiteReport:
    suite: str
    cases: int
    seed: int
    passes: int = 0
    failures: int = 0
    metrics: dict = field(default_factory=dict)
    failure: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _case_rng(seed: int, index: int) -> np.random.Generator:
    # SeedSequence hashing keeps neighboring (seed, index) pairs uncorrelated;
    # a plain xor would make nearby seeds permute the same case set
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _run_cases(report: SuiteReport, case) -> SuiteReport:
    """Run ``case(rng, index, detail, metrics)`` for every case index: the one
    place every case outcome passes through.

    ``case`` samples from ``rng``, adds the case's identifying inputs to
    ``detail`` (which starts as ``{"case": index}``), lowers or raises the
    running extremes in ``metrics`` (``report.metrics``) and returns the names
    of its failed checks. A case that raises a SectorPolyError fails as
    ``error_<Name>``. The first failure is kept as ``detail`` plus
    ``"failed"``. A minimum still at its start, math.inf, reads None.
    """
    for i in range(report.cases):
        detail = {"case": i}
        try:
            bad = case(_case_rng(report.seed, i), i, detail, report.metrics)
        except SectorPolyError as exc:
            bad = [f"error_{exc.name}"]
        if not bad:
            report.passes += 1
            continue
        report.failures += 1
        if report.failure is None:
            detail["failed"] = bad
            report.failure = detail
    report.metrics = {k: None if v is math.inf else v for k, v in report.metrics.items()}
    return report


def _off_boundary_angle(rng: np.random.Generator, n: int) -> float:
    """|alpha| in (pi/n, pi), redrawn until it is off every boundary angle
    pi/k."""
    while True:
        alpha = float(rng.uniform(math.pi / n, math.pi))
        if not sector_index(alpha).boundary:
            return alpha


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
    alpha = _off_boundary_angle(rng, n)
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


def _synth_case(rng, i, detail, m, mode: SignClass | None = None,
                forward: bool = False) -> list[str]:
    """Round trip: synthesize at a random target (``mode``, or alternating
    nonnegative and positive), check the result's shape, sign class and
    residual; with ``forward``, close the loop through verify_cot."""
    case_mode = mode
    if case_mode is None:
        case_mode = SignClass.NONNEGATIVE if i % 2 == 0 else SignClass.POSITIVE
    if case_mode is SignClass.POSITIVE:
        mu, n = _sample_positive_target(rng)
    else:
        mu, n = _sample_nonneg_target(rng, i)
    detail.update(mu={"re": mu.real, "im": mu.imag}, n=n, mode=case_mode.value)
    result = synthesize(mu, n, case_mode)
    coeffs = result.coeffs.tolist()
    bad = _check_synthesis(result, coeffs, n, case_mode)
    m["max_residual"] = max(m["max_residual"], result.residual)
    m["min_coeff_margin"] = min(m["min_coeff_margin"], min(coeffs) / max(coeffs))
    if forward:
        cot = verify_cot(result.coeffs)
        m["min_arg_defect"] = min(m["min_arg_defect"], cot.min_defect)
        if cot.status != "pass":
            bad.append(f"verify_{cot.status}")
    return bad


def _kellogg_case(rng, i, detail, m) -> list[str]:
    """Forward eigenvalue region of a generated P matrix: every eigenvalue
    clears the strict wedge and the reflected characteristic polynomial has
    strictly positive coefficients."""
    n = int(rng.integers(2, 9))
    mseed = int(rng.integers(0, 2**63))
    detail.update(n=n, matrix_seed=mseed)
    bad = []
    minors = principal_minors(generate_p_matrix(n, mseed))
    if minors.matrix_class is not MatrixClass.P:
        bad.append("class")
    if minors.aux_sign_class() is not SignClass.POSITIVE:
        bad.append("aux_signs")
    rs = eigenvalues(minors)
    m["max_root_residual"] = max(m["max_root_residual"], float(np.max(rs.residuals)))
    if not rs.converged:
        bad.append("eigen_convergence")
    lams = rs.roots.tolist()
    # the smallest |arg(-lambda)|, the angle kellogg_admissible judges; a
    # P matrix has no zero eigenvalue, whose arg(-0) reads pi
    gap = min(abs(principal_arg(-lam)) for lam in lams)
    m["min_eigen_defect"] = min(m["min_eigen_defect"], gap - math.pi / n)
    if 0 in lams or not wedge_admissible(gap, n, MatrixClass.P):
        bad.append("admissible")
    return bad


def _sample_admissible(rng: np.random.Generator, index: int):
    """(lambda, n, mode, boundary): admissible eigenvalue targets, alternating
    P and P0; every 5th P0 case sits exactly on the wedge boundary."""
    mode = MatrixClass.P if index % 2 == 0 else MatrixClass.P0
    n = int(rng.integers(2, 13))
    r = float(rng.uniform(0.1, 10.0))
    boundary = mode is MatrixClass.P0 and index % 10 == 1
    if mode is MatrixClass.P:
        gap = _off_boundary_angle(rng, n)
    elif boundary:
        gap = math.pi / n
    else:
        gap = float(rng.uniform(math.pi / n, math.pi))
    side = 1.0 if rng.integers(0, 2) == 1 else -1.0
    theta = math.pi + side * gap
    return from_polar(r, theta), n, mode, boundary


def _witness_case(rng, i, detail, m) -> list[str]:
    """Witness soundness: an admissible (lambda, n) extends to a spectrum of n
    values, lambda among them, whose feasibility matches the mode."""
    lam, n, mode, boundary = _sample_admissible(rng, i)
    detail.update({"lambda": {"re": lam.real, "im": lam.imag}, "n": n, "mode": mode.value})
    bad = []
    spectrum = eigen_witness(lam, n, mode)
    values = spectrum.values
    if len(values) != n:
        bad.append("size")
    dist = float(np.min(np.abs(values - lam))) / (1.0 + abs(lam))
    m["max_match_distance"] = max(m["max_match_distance"], dist)
    if dist > 0.0:      # eigen_witness puts lambda itself first
        bad.append("contains_lambda")
    feasibility = spectrum.feasibility
    if mode is MatrixClass.P:
        if feasibility is not MatrixClass.P:
            bad.append("feasibility")
    elif feasibility is MatrixClass.NEITHER:
        bad.append("feasibility")
    if not is_conjugate_closed(values):
        bad.append("conjugate_closure")
    if boundary and not _is_binomial_spectrum(values):
        bad.append("boundary_binomial")
    return bad


def _is_binomial_spectrum(values) -> bool:
    """True if prod (t + v) is a binomial: every interior coefficient lies
    within SIGN_TOL times the same coefficient of prod (t + |v|), the band
    in which spectrum_feasible reads a coefficient as zero."""
    q = spectrum_aux_poly(values)[1:-1]
    bound = spectrum_aux_poly(np.abs(values)).real[1:-1]
    return bool(np.all(np.abs(q) <= SIGN_TOL * bound))


# name -> (metrics at their start, copied for each run; case function)
SUITES = {
    "synth": ({"max_residual": 0.0, "min_coeff_margin": math.inf}, _synth_case),
    "cot": ({"max_residual": 0.0, "min_coeff_margin": math.inf, "min_arg_defect": math.inf},
            partial(_synth_case, forward=True)),
    "kellogg": ({"min_eigen_defect": math.inf, "max_root_residual": 0.0}, _kellogg_case),
    "witness": ({"max_match_distance": 0.0}, _witness_case),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, cases: int, seed: int) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    metrics, case = SUITES[name]
    return _run_cases(SuiteReport(name, cases, seed, metrics=dict(metrics)), case)


def run_synth_suite(cases: int, seed: int, mode: SignClass,
                    verify_forward: bool = False) -> SuiteReport:
    """The ``synth`` suite, or ``cot`` with ``verify_forward``, with every
    case in ``mode``."""
    name = "cot" if verify_forward else "synth"
    metrics, case = SUITES[name]
    return _run_cases(SuiteReport(name, cases, seed, metrics=dict(metrics)),
                      partial(case, mode=mode))
