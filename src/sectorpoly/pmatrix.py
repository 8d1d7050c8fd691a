"""Principal-minor classification, characteristic polynomials, eigenvalue
region predicates and spectrum feasibility for P and P0 matrices.

A P (P0) matrix has every principal minor positive (nonnegative). Writing
E_k for the sum of the size-k principal minors, the characteristic
polynomial is p(t) = t^n + sum_k (-1)^(n-k) E_(n-k) t^k, and its reflection
q(t) = (-1)^n p(-t) = prod (t + lambda_k) has positive (nonnegative)
coefficients exactly when the eigenvalue multiset is a P (P0) spectrum.
That turns eigenvalue-region questions into coefficient-sign questions,
which the synthesis module answers constructively.

One pass over the 2^n - 1 principal minors (``principal_minors``, by
recursive Schur complements in ``kernels.minor_sums``) yields a
``MinorReport``; the class, p, q and the eigenvalues (``eigenvalues``
accepts the report) are all read off it. A size-k
minor is judged against tol * (max row norm)^k, which scales as c^k under
A -> cA exactly as the minor does, so positive scaling keeps the class.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    ComplexCharPoly,
    DimensionCap,
    DomainError,
    FeasibleButUnwitnessed,
    NotAdmissible,
    NotConjugateClosed,
    PreconditionError,
    ZeroLambda,
)
from .poly import (
    SIGN_TOL,
    SignClass,
    is_conjugate_closed,
    principal_arg,
)
from .roots import find_roots
from .synthesis import snapped_ratio, synthesize

DEFAULT_DIM_CAP = 12
HARD_DIM_CAP = 20
MINOR_TOL = 1e-9
KELLOGG_ANGLE_TOL = 1e-12
SPECTRUM_IMAG_TOL = 1e-9


class MatrixClass(enum.Enum):
    P = "P"
    P0 = "P0"
    NEITHER = "Neither"


@dataclass(frozen=True)
class MinorReport:
    """Aggregate view of all 2^n - 1 principal minors."""

    e_sums: np.ndarray          # E_1 .. E_n (complex)
    min_real_minor: float
    max_abs_imag_minor: float
    matrix_class: MatrixClass
    tolerances: np.ndarray      # size-k tolerance tol * (max row norm)^k

    def aux_poly(self) -> np.ndarray:
        """prod (t + lambda_k) = (-1)^n p(-t): coefficient of t^k is E_(n-k).

        Raises ComplexCharPoly when an E_k has an imaginary part beyond its
        tolerance (a complex matrix without a real characteristic polynomial).
        """
        imag = np.abs(self.e_sums.imag)
        if np.any(imag > self.tolerances):
            raise ComplexCharPoly(
                f"minor sums are not real (max |imag| = {float(np.max(imag))!r})"
            )
        return np.append(self.e_sums.real[::-1], 1.0)

    def char_poly(self) -> np.ndarray:
        """Monic det(tI - A), ascending: coefficient of t^k is (-1)^(n-k) E_(n-k)."""
        q = self.aux_poly()
        # + 0.0 turns the -0.0 of a zero E_k into 0.0
        return q * (-1.0) ** np.arange(q.size - 1, -1, -1) + 0.0


@dataclass(frozen=True)
class SpectrumMultiset:
    values: np.ndarray
    conjugate_closed: bool


def _as_square(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise PreconditionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    return arr


def principal_minors(a, cap: int = DEFAULT_DIM_CAP, tol: float = MINOR_TOL) -> MinorReport:
    """Enumerate every nonempty principal minor and classify the matrix.

    All of them come from one pass of recursive Schur complements
    (``kernels.minor_sums``, O(2^n) operations). Size-k minors are judged
    against tol * (max row norm)^k, which scales as c^k under A -> cA like
    the minors do, so c*A keeps the class of A. P needs every real part
    above it and every imaginary part within it, P0 relaxes the real parts
    to >= -tolerance.

    Raises DimensionCap beyond ``cap`` (hard limit 20): the enumeration is
    exponential by construction. Raises DomainError for non-finite entries
    and for a nonzero matrix whose minors overflow or underflow float64.
    """
    a = _as_square(a)
    n = a.shape[0]
    if n > min(cap, HARD_DIM_CAP):
        raise DimensionCap(f"n={n} exceeds minor-enumeration cap {min(cap, HARD_DIM_CAP)}")
    with np.errstate(over="ignore", invalid="ignore"):   # checked just below
        e_sums, min_re, max_im = kernels.minor_sums(a)
        row_norm = float(np.max(np.sum(np.abs(a), axis=1)))
        bounds = row_norm ** np.arange(1, n + 1)    # |size-k minor| <= row_norm^k
    # a finite E_k means every size-k minor is finite
    if row_norm > 0 and not (np.all(np.isfinite(e_sums))
                             and 0 < bounds.min() and bounds.max() < math.inf):
        raise DomainError("principal minors overflow or underflow float64")
    tols = tol * bounds
    imag_ok = bool(np.all(max_im <= tols))
    if imag_ok and np.all(min_re > tols):
        cls = MatrixClass.P
    elif imag_ok and np.all(min_re >= -tols):
        cls = MatrixClass.P0
    else:
        cls = MatrixClass.NEITHER
    return MinorReport(
        e_sums=np.asarray(e_sums),
        min_real_minor=float(np.min(min_re)),
        max_abs_imag_minor=float(np.max(max_im)),
        matrix_class=cls,
        tolerances=tols,
    )


def char_poly(a, cap: int = DEFAULT_DIM_CAP, tol: float = MINOR_TOL) -> np.ndarray:
    """Monic characteristic polynomial det(tI - A); see MinorReport.char_poly."""
    return principal_minors(a, cap=cap, tol=tol).char_poly()


def aux_poly(a, cap: int = DEFAULT_DIM_CAP, tol: float = MINOR_TOL) -> np.ndarray:
    """prod (t + lambda_k), the reflected char_poly; see MinorReport.aux_poly."""
    return principal_minors(a, cap=cap, tol=tol).aux_poly()


def eigenvalues(a, cap: int = DEFAULT_DIM_CAP):
    """Eigenvalues as roots of the characteristic polynomial.

    ``a`` is a matrix, or the ``MinorReport`` a caller already holds for
    it, which spares a second enumeration of the minors. ``cap`` applies
    only to a matrix argument; a report was capped when it was made.
    """
    report = a if isinstance(a, MinorReport) else principal_minors(a, cap=cap)
    return find_roots(report.char_poly())


def wedge_angle(lam: complex) -> float:
    """Argument of lambda mapped into (0, 2*pi] (positive reals at 2*pi)."""
    alpha = principal_arg(lam)
    return alpha if alpha > 0.0 else alpha + 2.0 * math.pi


def kellogg_admissible(lam: complex, n: int, mode: MatrixClass,
                       angle_tol: float = KELLOGG_ANGLE_TOL) -> bool:
    """Eigenvalue-region predicate: |theta - pi| > pi/n for P (>= for P0),
    with theta = arg(lambda) in (0, 2*pi].

    P0 excludes lambda = 0 outright (ZeroLambda); for P the zero eigenvalue
    is simply inadmissible, since a P matrix has positive determinant.
    """
    if mode not in (MatrixClass.P, MatrixClass.P0):
        raise PreconditionError(f"mode must be P or P0, not {mode}")
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    lam = complex(lam)
    if lam == 0:
        if mode is MatrixClass.P0:
            raise ZeroLambda("lambda = 0 is excluded from the P0 region test")
        return False
    defect = abs(wedge_angle(lam) - math.pi) - math.pi / n
    if mode is MatrixClass.P:
        return defect > angle_tol
    return defect >= -angle_tol


def spectrum_aux_poly(values) -> np.ndarray:
    """prod (t + v) over the multiset, ascending complex coefficients: the
    aux_poly of any matrix with that spectrum."""
    q = np.array([1.0 + 0.0j])
    for v in values:
        q = np.convolve(q, np.array([v, 1.0 + 0.0j]))
    return q


def spectrum_feasible(values, imag_tol: float = SPECTRUM_IMAG_TOL) -> MatrixClass:
    """Decide whether a multiset is a P spectrum, a P0 spectrum, or neither.

    Expands q = prod (t + lambda_k) and judges each coefficient against the
    same coefficient of prod (t + |lambda_k|), which bounds it and scales as
    it does, so the verdict does not depend on the moduli. Imaginary parts
    beyond ``imag_tol`` times that bound raise NotConjugateClosed. The
    verdict is P when every real part exceeds SIGN_TOL times the bound, and
    P0 when none falls below minus that. A bound of 0 means an exactly zero
    coefficient, which counts as 0: P0, not P.
    """
    vals = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    if vals.size < 1:
        raise PreconditionError("spectrum must contain at least one value")
    q = spectrum_aux_poly(vals)
    bound = spectrum_aux_poly(np.abs(vals)).real
    if np.any(np.abs(q.imag) > imag_tol * bound):
        raise NotConjugateClosed(
            "product polynomial has complex coefficients; "
            "the multiset is not closed under conjugation"
        )
    if np.all(q.real > SIGN_TOL * bound):
        return MatrixClass.P
    if np.all(q.real >= -SIGN_TOL * bound):
        return MatrixClass.P0
    return MatrixClass.NEITHER


def eigen_witness(lam: complex, n: int, mode: MatrixClass) -> SpectrumMultiset:
    """Complete an admissible eigenvalue into a full n-point spectrum of the
    requested class.

    Synthesizes the degree-n polynomial q = core * lift of the matching sign
    class vanishing at -lambda; the spectrum is its roots, negated. Most of
    them are known in closed form: lambda and its conjugate (the core's
    quadratic factor t^2 + 2 Re(lambda) t + |lambda|^2), and the g lift roots,
    e^{i(2j+1)pi/g} for t^g + 1 and the nontrivial (g+1)-th roots of unity for
    1 + ... + t^g, built as exact conjugate pairs. Only the core's other k - 2
    roots come from the solver, after deflating that quadratic; none do when
    k <= 2. A k = 1 core, t + |lambda| for lambda on the positive real axis,
    contributes lambda alone.

    The result contains lambda itself, has exactly n values, is
    conjugate-closed by construction, and spectrum_feasible accepts it (a P0
    witness may classify as P when strictly positive). The one exception is
    a k = 1 lambda that the snapping of pi/alpha puts on the real axis
    although |Im lambda| exceeds 5e-10 (1 + |lambda|): it stays unpaired,
    and conjugate_closed reads False.

    Raises NotAdmissible outside the region; FeasibleButUnwitnessed for
    P-mode boundary angles where pi/(theta - pi) is an integer, which the
    strict positive-coefficient construction does not cover.
    """
    lam = complex(lam)
    if not kellogg_admissible(lam, n, mode):
        raise NotAdmissible(f"lambda={lam!r} is not admissible for {mode.value}, n={n}")
    if mode is MatrixClass.P:
        alpha = wedge_angle(lam) - math.pi
        _, is_int = snapped_ratio(alpha)
        if is_int:
            raise FeasibleButUnwitnessed(
                f"pi/(theta-pi) is an integer at lambda={lam!r}; no strict "
                "positive-coefficient witness in scope"
            )
        result = synthesize(-lam, n, SignClass.POSITIVE)
    else:
        result = synthesize(-lam, n, SignClass.NONNEGATIVE)
    core = result.core
    values = [lam]
    if core.size > 2:
        values.append(lam.conjugate())
    if core.size > 3:
        values.extend(-find_roots(_deflate(core, lam)).roots)
    values.extend(_lift_values(result.lift_terms, result.mode))
    values = np.array(values, dtype=np.complex128)
    return SpectrumMultiset(
        values=values,
        conjugate_closed=is_conjugate_closed(values),
    )


def _deflate(core: np.ndarray, lam: complex) -> np.ndarray:
    """Quotient of a monic ascending polynomial by (t + lambda)(t + conj
    lambda) = t^2 + b t + c; the remainder is dropped.

    Composite deflation (Peters & Wilkinson, J. Inst. Maths Applics 8, 1971):
    the quotient's coefficients from the core's dominant term at |t| =
    |lambda| upwards come from division from the leading term, those below it
    from division from the constant term. Either direction alone can lose
    about half the digits of the small or of the large remaining roots.
    """
    k = core.size - 1
    a = core.tolist()
    b, c = 2.0 * lam.real, abs(lam) ** 2
    m = max(int(np.argmax(np.abs(core) * abs(lam) ** np.arange(k + 1))) - 1, 0)
    q = [0.0] * (k + 1)         # q[0..k-2]; the two zeros on top pad both ends
    for j in range(k - 2, m - 1, -1):
        q[j] = a[j + 2] - b * q[j + 1] - c * q[j + 2]
    for j in range(m):
        q[j] = (a[j] - b * q[j - 1] - q[j - 2]) / c
    return np.array(q[: k - 1])


def _lift_values(g: int, mode: SignClass) -> list[complex]:
    """The negated roots of the lift factor, in conjugate pairs: t^g + 1 in
    nonnegative mode, 1 + t + ... + t^g in positive mode. For odd g the real
    root -1 gives exactly 1."""
    if mode is SignClass.POSITIVE:
        angles = [2.0 * math.pi * j / (g + 1) for j in range(1, g // 2 + 1)]
    else:
        angles = [(2 * j + 1) * math.pi / g for j in range(g // 2)]
    values = []
    for a in angles:
        v = complex(-math.cos(a), -math.sin(a))
        values += [v, v.conjugate()]
    if g % 2 == 1:
        values.append(1.0 + 0.0j)
    return values


def generate_p_matrix(n: int, seed: int) -> np.ndarray:
    """Random strictly diagonally dominant matrix with positive diagonal.

    Off-diagonal entries are uniform on [-1, 1]; each diagonal entry is the
    row's absolute off-diagonal sum plus uniform(0.1, 1). Such a matrix is a
    P matrix, so it is not checked: every principal submatrix is strictly
    diagonally dominant with a positive diagonal, so by Gershgorin's theorem
    its eigenvalues have positive real parts; being real, they are positive
    or come in conjugate pairs, and the determinant, their product, is
    positive. Deterministic for a fixed seed.
    """
    if not 1 <= n <= DEFAULT_DIM_CAP:
        raise PreconditionError(f"n must be in [1, {DEFAULT_DIM_CAP}], got {n}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(a, 0.0)
    dom = np.sum(np.abs(a), axis=1) + rng.uniform(0.1, 1.0, n)
    np.fill_diagonal(a, dom)
    return a
