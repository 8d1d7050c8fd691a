"""Principal-minor classification, characteristic polynomials, eigenvalue
region predicates and spectrum feasibility for P and P0 matrices.

A P (P0) matrix has every principal minor positive (nonnegative). Writing
E_k for the sum of the size-k principal minors, the characteristic
polynomial is p(t) = t^n + sum_k (-1)^(n-k) E_(n-k) t^k, and its reflection
q(t) = (-1)^n p(-t) = prod (t + lambda_k) has positive (nonnegative)
coefficients exactly when the eigenvalue multiset is a P (P0) spectrum.
That turns eigenvalue-region questions into coefficient-sign questions,
which the synthesis module answers constructively.

Spectra have a dozen values or fewer, so their per-value algebra (the
products prod (t + v), the witness quotients of degree 1 and 2, the roots
of binomials) runs in Python scalars and closed forms: a numpy call on
arrays this small costs more than its arithmetic.

One pass over the 2^n - 1 principal minors (``principal_minors``, by
recursive Schur complements in ``kernels.minor_sums``) yields a
``MinorReport``; the class, p, q and the eigenvalues (``eigenvalues``
takes the report) are all read off it. Each sign verdict is
classify_signs against an error bound that scales as its value does: a
size-k minor's is MINOR_TOL * (max row norm)^k, so c*A keeps the class of A.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
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
from .poly import SignClass, classify_signs, ldexp_complex, principal_arg
from .roots import find_roots
from .synthesis import ANGLE_TOL, synthesize

DEFAULT_DIM_CAP = 12
HARD_DIM_CAP = 20
MINOR_TOL = 1e-9
SPECTRUM_IMAG_TOL = 1e-9
SIGN_TOL = 1e-12


class MatrixClass(enum.Enum):
    P = "P"
    P0 = "P0"
    NEITHER = "Neither"


CLASS_BY_SIGNS = {SignClass.POSITIVE: MatrixClass.P, SignClass.NONNEGATIVE: MatrixClass.P0,
                  SignClass.MIXED: MatrixClass.NEITHER}


@dataclass(frozen=True)
class MinorReport:
    """Aggregate view of all 2^n - 1 principal minors; matrix_class and
    aux_sign_class judge each size against its entry of ``tolerances``."""

    e_sums: np.ndarray          # E_1 .. E_n (complex)
    min_real_minor: float
    max_abs_imag_minor: float
    matrix_class: MatrixClass
    tolerances: np.ndarray      # size-k tolerance MINOR_TOL * (max row norm)^k

    @functools.cached_property
    def _aux(self) -> list[float]:
        """aux_poly's coefficients as Python floats, read once. Raises
        ComplexCharPoly, on every read, when an E_k has an imaginary part
        beyond its tolerance (a complex matrix without a real char. poly)."""
        e_sums = self.e_sums.tolist()
        imag = [abs(e.imag) for e in e_sums]
        if any(map(operator.gt, imag, self.tolerances.tolist())):
            raise ComplexCharPoly(f"minor sums are not real (max |imag| = {max(imag)!r})")
        return [e.real for e in reversed(e_sums)] + [1.0]

    def aux_poly(self) -> np.ndarray:
        """prod (t + lambda_k) = (-1)^n p(-t): coefficient of t^k is E_(n-k).
        Raises ComplexCharPoly as described at ``_aux``."""
        return np.array(self._aux)

    def aux_sign_class(self) -> SignClass:
        """Sign class of aux_poly(): E_k against the size-k tolerance, which
        class P clears at every scale, and the monic 1 exactly."""
        return classify_signs(self._aux, self.tolerances.tolist()[::-1] + [0.0])

    def char_poly(self) -> np.ndarray:
        """Monic det(tI - A), ascending: coefficient of t^k is (-1)^(n-k) E_(n-k)."""
        q = self._aux
        n = len(q) - 1
        # negation is exact; + 0.0 turns the -0.0 of a zero E_k into 0.0
        return np.array([(-c if (n - k) % 2 else c) + 0.0 for k, c in enumerate(q)])


@dataclass(frozen=True)
class SpectrumMultiset:
    """An n-point spectrum and its spectrum_feasible class, closure included."""

    values: np.ndarray
    feasibility: MatrixClass     # spectrum_feasible(values)


def _as_square(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise PreconditionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    return arr


def principal_minors(a, cap: int = DEFAULT_DIM_CAP) -> MinorReport:
    """Enumerate every nonempty principal minor and classify the matrix.

    All of them come from one pass of recursive Schur complements
    (``kernels.minor_sums``, O(2^n) operations). Size-k minors are judged
    against MINOR_TOL * (max row norm)^k, which scales as c^k under A -> cA
    like the minors do, so c*A keeps the class of A. An imaginary part
    beyond it makes the matrix Neither; otherwise classify_signs of the
    smallest real part of each size against it decides: positive is P,
    nonnegative is P0, mixed is Neither.

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
        row_norm = max(np.abs(a).sum(axis=1).tolist())
        bounds = row_norm ** np.arange(1, n + 1)    # |size-k minor| <= row_norm^k
    # a finite E_k means every size-k minor is finite
    b = bounds.tolist()
    if row_norm > 0 and not (all(map(cmath.isfinite, e_sums.tolist()))
                             and 0 < min(b) and max(b) < math.inf):
        raise DomainError("principal minors overflow or underflow float64")
    tols = MINOR_TOL * bounds
    max_im = max_im.tolist()
    if all(map(operator.le, max_im, tols.tolist())):
        cls = CLASS_BY_SIGNS[classify_signs(min_re, tols)]
    else:
        cls = MatrixClass.NEITHER
    return MinorReport(
        e_sums=e_sums,
        # numpy's: at n >= 9 it keeps another of 0.0 and -0.0 than Python's
        min_real_minor=float(min_re.min()),
        max_abs_imag_minor=max(max_im),
        matrix_class=cls,
        tolerances=tols,
    )


def eigenvalues(report: MinorReport):
    """Eigenvalues of the matrix of ``report`` (``principal_minors`` of it),
    as roots of its characteristic polynomial."""
    return find_roots(report.char_poly())


def wedge_angle(lam: complex) -> float:
    """Argument of lambda mapped into (0, 2*pi] (positive reals at 2*pi)."""
    alpha = principal_arg(lam)
    return alpha if alpha > 0.0 else alpha + 2.0 * math.pi


def wedge_half_angle(n: int) -> float:
    """pi/n, the half-width of the wedge about the negative real axis that
    Kellogg's inequality excludes for n x n matrices.

    Raises PreconditionError for n < 1 and DomainError for an n beyond the
    float64 range.
    """
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    try:
        return math.pi / n
    except OverflowError:
        raise DomainError("n is beyond the float64 range")


def wedge_admissible(gap, n: int, mode: MatrixClass):
    """Kellogg's wedge rule on gap = |theta - pi|: with defect = gap - pi/n,
    admissible is defect > ANGLE_TOL for P and defect >= -ANGLE_TOL for P0.

    An angle within ANGLE_TOL of the boundary pi/n is pi/n, the rule of
    synthesis.sector_index at m = n. ``gap`` is a float, for which the result
    is a bool, or a numpy array, for which it is a bool array of the same
    shape. Raises as wedge_half_angle does, and PreconditionError for a mode
    other than P or P0.
    """
    if mode not in (MatrixClass.P, MatrixClass.P0):
        raise PreconditionError(f"mode must be P or P0, not {mode}")
    defect = gap - wedge_half_angle(n)
    if mode is MatrixClass.P:
        return defect > ANGLE_TOL
    return defect >= -ANGLE_TOL


def kellogg_admissible(lam: complex, n: int, mode: MatrixClass) -> bool:
    """Eigenvalue-region predicate: |theta - pi| > pi/n for P (>= for P0),
    with theta = arg(lambda) in (0, 2*pi].

    |theta - pi| is read as synthesize(-lambda) reads its angle, alpha =
    |arg(-lambda)|, and wedge_admissible(alpha, n, mode) decides. So a P0
    lambda is admissible exactly when synthesize(-lambda, n, NONNEGATIVE)
    does not raise AngleTooSmall, and a nonzero P lambda exactly when
    synthesize(-lambda, n, POSITIVE) raises neither AngleTooSmall nor, at
    n = 1, DegreeOne.

    P0 excludes lambda = 0 outright (ZeroLambda); for P the zero eigenvalue
    is simply inadmissible, since a P matrix has positive determinant.
    Raises DomainError for a non-finite lambda and, as wedge_admissible
    does, for an n beyond float64.
    """
    if mode not in (MatrixClass.P, MatrixClass.P0):
        raise PreconditionError(f"mode must be P or P0, not {mode}")
    wedge_half_angle(n)     # n is checked before lambda
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise DomainError(f"lambda={lam!r} is not finite")
    if lam == 0:
        if mode is MatrixClass.P0:
            raise ZeroLambda("lambda = 0 is excluded from the P0 region test")
        return False
    return wedge_admissible(abs(principal_arg(-lam)), n, mode)


def spectrum_aux_poly(values) -> np.ndarray:
    """prod (t + v) over the multiset, ascending complex coefficients: the
    aux_poly of any matrix with that spectrum.

    Expanded one value at a time in place, q_j <- q_j v + q_(j-1), in Python
    scalars: O(n^2) multiply-adds and no numpy call per value. Real values
    stay Python floats, so a bound prod (t + |v|) costs float arithmetic
    only. An overflow reads inf or nan, as in numpy, without a warning.
    """
    q = [1.0]
    for v in np.asarray(values).tolist():
        q.append(q[-1])
        for j in range(len(q) - 2, 0, -1):
            q[j] = q[j] * v + q[j - 1]
        q[0] *= v
    return np.array(q, dtype=np.complex128)


def spectrum_feasible(values) -> MatrixClass:
    """Decide whether a multiset is a P spectrum, a P0 spectrum, or neither.

    Expands q = prod (t + lambda_k) and judges each coefficient against the
    same coefficient of prod (t + |lambda_k|), which bounds it and scales as
    it does, so the verdict does not depend on the moduli (where the bound
    leaves float64, both are expanded from the values over a power of two
    above max |lambda_k|, exactly). Imaginary parts beyond SPECTRUM_IMAG_TOL
    times the bound raise NotConjugateClosed; else classify_signs of the real
    parts with slack SIGN_TOL times the bound decides: positive is P,
    nonnegative is P0, mixed is Neither. A bound of 0 is an exact zero: P0.
    Raises DomainError for a non-finite value and for a bound coefficient
    that still overflows, or is 0 with as many nonzero values as its degree.
    """
    vals = np.ascontiguousarray(values, dtype=np.complex128)
    if vals.size < 1:
        raise PreconditionError("spectrum must contain at least one value")
    moduli = np.abs(vals)
    for exponent in (0, math.frexp(moduli.max())[1]):
        if exponent:
            scaled = ldexp_complex(vals, -exponent)
            moduli = np.abs(scaled)
        else:
            scaled = vals
        bound = spectrum_aux_poly(moduli).real
        lost = (bound == 0) & (np.count_nonzero(vals) >= np.arange(vals.size, -1, -1))
        if np.isfinite(bound).all() and not lost.any():
            break
    else:
        raise DomainError("spectrum values must be finite, with products in the float64 range")
    q = spectrum_aux_poly(scaled)
    if np.any(np.abs(q.imag) > SPECTRUM_IMAG_TOL * bound):
        raise NotConjugateClosed(
            "product polynomial has complex coefficients; "
            "the multiset is not closed under conjugation"
        )
    return CLASS_BY_SIGNS[classify_signs(q.real, SIGN_TOL * bound)]


def eigen_witness(lam: complex, n: int, mode: MatrixClass) -> SpectrumMultiset:
    """Complete an admissible eigenvalue into a full n-point spectrum of the
    requested class.

    Synthesizes the degree-n polynomial q = core * lift of the matching sign
    class vanishing at -lambda; the spectrum is its roots, negated. Most of
    them are known in closed form: lambda and its conjugate (the core's
    quadratic factor t^2 + 2 Re(lambda) t + |lambda|^2), the g lift roots on
    the unit circle and, on the boundary |theta - pi| = pi/k, the other k - 2
    roots of the nonnegative core t^k + c on the circle |t| = |lambda|, which
    ``_circle_values`` gives with no solve. For every other core, the
    positive one of degree k + 1 on the boundary included, they are the
    roots of the quotient left by deflating that quadratic: in closed form
    for cores of degree 3 and 4 (one real root, or the stable quadratic
    formula, ``_quotient_values``), from the solver from degree 5 on. A
    linear core, t + |lambda| for lambda on the positive real axis (within
    ANGLE_TOL of it), contributes lambda alone.

    The result contains lambda itself and has exactly n values, built in
    conjugate pairs. Its ``feasibility`` is spectrum_feasible(values), the
    one judgement of the spectrum, closure included: P in P mode, and P0 or
    P in P0 mode (a P0 witness may classify as P when strictly positive).

    Raises NotAdmissible outside the region. In P mode raises
    FeasibleButUnwitnessed for a witness whose feasibility reads below P.
    """
    lam = complex(lam)
    if not kellogg_admissible(lam, n, mode):
        raise NotAdmissible(f"lambda={lam!r} is not admissible for {mode.value}, n={n}")
    sign = SignClass.POSITIVE if mode is MatrixClass.P else SignClass.NONNEGATIVE
    result = synthesize(-lam, n, sign)
    core = result.core
    values = [lam]
    if core.size > 2:
        values.append(lam.conjugate())
    if result.k_used.boundary and mode is MatrixClass.P0:
        # t^k + c: its i = 1 pair is lambda and its conjugate
        values.extend(_circle_values(core.size - 1, abs(lam), 3))
    elif core.size > 3:
        values.extend(_quotient_values(_deflate(core, lam)))
    g = result.lift_terms       # the lift 1 + t + ... + t^g in positive mode, else t^g + 1
    values.extend(_circle_values(g + 1, 1.0, 2) if result.mode is SignClass.POSITIVE
                  else _circle_values(g, 1.0, 1))
    values = np.array(values, dtype=np.complex128)
    feasibility = spectrum_feasible(values)
    if mode is MatrixClass.P and feasibility is not MatrixClass.P:
        raise FeasibleButUnwitnessed(
            f"the witness for lambda={lam!r} reads {feasibility.value}, "
            "too close to the boundary to tell from P0"
        )
    return SpectrumMultiset(values=values, feasibility=feasibility)


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


def _quotient_values(q: np.ndarray) -> list[complex]:
    """The negated roots of the deflated quotient ``q`` of a core other than
    the nonnegative boundary binomial (its roots come from ``_circle_values``):
    in closed form for degree 1 and 2 (cores of degree 3 and 4), else from
    ``find_roots``.

    Degree 1 gives q_0/q_1. Degree 2, c + b t + a t^2 with disc = b^2 - 4ac,
    gives the exact conjugate pair b/2a -+ i sqrt(-disc)/2a when disc < 0;
    otherwise s = -(b + sign(b) sqrt(disc))/2 and the roots s/a and c/s,
    negated (Higham, Accuracy and Stability, 1.8). Nothing there can cancel:
    b and sign(b) sqrt(disc) add with one sign, and c = q_0 > 0 for every
    core (its constant term is positive, the quotient's is that over
    |lambda|^2), so disc >= 0 forces b^2 >= 4ac > 0, and s is never 0.
    """
    coeffs = q.tolist()
    if len(coeffs) == 2:
        return [complex(coeffs[0] / coeffs[1])]
    if len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            v = complex(b / (2.0 * a), math.sqrt(-disc) / (2.0 * a))
            return [v, v.conjugate()]
        s = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        return [complex(-s / a), complex(-c / s)]
    return list(-find_roots(q).roots)


def _circle_values(m: int, rho: float, first: int) -> list[complex]:
    """-rho e^{+-i i pi/m} for i = first, first + 2, ... below m, as exact
    conjugate pairs, then rho where i reaches m: negated roots on |t| = rho.
    (k, |lambda|, 3) gives those of the boundary core t^k + |lambda|^k but
    lambda and its conjugate, (g, 1.0, 1) those of the lift t^g + 1, and
    (g + 1, 1.0, 2) those of the lift 1 + t + ... + t^g."""
    values = []
    for i in range(first, m, 2):
        a = i * math.pi / m
        v = complex(-rho * math.cos(a), -rho * math.sin(a))
        values += [v, v.conjugate()]
    if first <= m and (m - first) % 2 == 0:
        values.append(complex(rho))
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
    diagonal = a.reshape(-1)[:: n + 1]      # a view: writes land in a
    diagonal[:] = 0.0
    diagonal[:] = np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0, n)
    return a
