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
from .synthesis import synthesize, verify_cot

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


# the endpoint pins of _sample_target, as values of (index // 2) % 8
BOUNDARY_PIN, LINEAR_PIN = 1, 5


def _sample_target(rng: np.random.Generator, index: int, positive: bool):
    """(mu, n): a synthesis target of nonnegative or ``positive`` mode, with
    degree in [1 + positive, 12], modulus in [0.1, 10] and |alpha| in
    [pi/n, pi].

    The suites alternate their two modes by case parity, so the pins read
    index // 2 and a quarter of each mode's cases sit at a sector endpoint:
    half at the widest admissible angle pi/(n - positive), where nonnegative
    mode builds a binomial and positive mode its boundary core, and half at
    pi, the linear core. Every draw is made in every case, bar alpha's when
    pinned.
    """
    n = int(rng.integers(1 + positive, 13))
    r = float(rng.uniform(0.1, 10.0))
    pin = (index // 2) % 8
    if pin == BOUNDARY_PIN:
        alpha = math.pi / (n - positive)
    elif pin == LINEAR_PIN:
        alpha = math.pi
    else:
        alpha = float(rng.uniform(math.pi / n, math.pi))
    if rng.integers(0, 2) == 1 and alpha < math.pi:
        alpha = -alpha
    # alpha = pi is the negative real axis, exactly: from_polar(r, math.pi)
    # keeps r * sin(math.pi) = r * 1.2e-16 as its imaginary part
    return (complex(-r, 0.0) if alpha == math.pi else from_polar(r, alpha)), n


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
    mu, n = _sample_target(rng, i, case_mode is SignClass.POSITIVE)
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
    m["max_root_residual"] = max(m["max_root_residual"], max(rs.residuals.tolist()))
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


def _witness_case(rng, i, detail, m) -> list[str]:
    """Witness soundness: an admissible (lambda, n) extends to a spectrum of n
    values, lambda among them, whose feasibility matches the mode. Its
    targets alternate P and P0 and negate those of synthesis, positive and
    nonnegative; a P0 boundary pin has a binomial spectrum."""
    mode = MatrixClass.P if i % 2 == 0 else MatrixClass.P0
    mu, n = _sample_target(rng, i, mode is MatrixClass.P)
    lam = -mu
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
    if (mode is MatrixClass.P0 and (i // 2) % 8 == BOUNDARY_PIN
            and not _is_binomial_spectrum(values)):
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
