"""Construction of nonnegative- and positive-coefficient polynomials with a
prescribed complex zero, plus the numerical checker for the forward sector
bound it inverts.

The geometry: a zero at mu = r*e^{i*alpha} forces every nonnegative-
coefficient polynomial of degree n with nonzero constant term to satisfy
|alpha| > pi/n, binomials t^n + c attaining equality. Conversely, any mu
with |alpha| >= pi/n admits such a degree-n polynomial, built here from a
monic trinomial of degree k = ceil(pi/alpha) and lifted to degree n; strictly
positive coefficients are achievable when n > 1 and pi/alpha is not an
integer, via an average of the k-1 trinomials.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    AngleTooSmall,
    DegreeOne,
    DomainError,
    PiOverAlphaInteger,
    PreconditionError,
    ZeroModulus,
)
from .poly import (
    SignClass,
    canonical,
    classify_signs,
    degree,
    poly_eval,
    poly_mul,
    principal_arg,
    relative_residual,
)
from .roots import find_roots, sector_defect

INT_SNAP_TOL = 1e-9
ANGLE_TOL = 1e-12
SIGN_LEMMA_TOL = 1e-12
VERIFY_ANGLE_TOL = 1e-7


@dataclass(frozen=True)
class SectorIndex:
    """k = ceil(pi/alpha); boundary marks pi/alpha integer within snapping."""

    k: int
    boundary: bool


@dataclass(frozen=True)
class SynthesisResult:
    coeffs: np.ndarray          # monic, ascending, degree n
    core: np.ndarray            # monic, degree k, vanishes at mu; coeffs = lift(core)
    mode: SignClass
    k_used: SectorIndex
    construction: str           # "linear" | "qj" | "q_avg"
    j: int | None               # trinomial index when construction == "qj"
    lift_terms: int             # extra degree added by the lift (0 = identity)
    conjugated: bool            # True if built for the conjugate of the input
    residual: float             # |q(mu)| / sum|a_i||mu|^i


@dataclass(frozen=True)
class CotReport:
    """Outcome of checking the forward sector bound on one polynomial."""

    status: str                 # "pass" | "fail" | "inconclusive"
    degree: int
    binomial: bool
    min_defect: float           # min over roots of |arg| - pi/n
    roots: np.ndarray
    arguments: np.ndarray
    converged: bool


def snapped_ratio(alpha: float, snap_tol: float = INT_SNAP_TOL) -> tuple[float, bool]:
    """pi/|alpha| with integer snapping.

    Exact boundary angles pi/m are not representable in floats, so a ratio
    within ``snap_tol`` (relative) of an integer is treated as that integer.
    Returns (ratio, is_integer).
    """
    ratio = math.pi / abs(alpha)
    m = round(ratio)
    if m >= 1 and abs(ratio - m) <= snap_tol * m:
        return float(m), True
    return ratio, False


def sector_index(alpha: float, snap_tol: float = INT_SNAP_TOL) -> SectorIndex:
    """Smallest degree k with alpha in [pi/k, pi/(k-1)), i.e. ceil(pi/alpha)."""
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"alpha={alpha!r} outside (0, pi)")
    ratio, is_int = snapped_ratio(alpha, snap_tol)
    if is_int:
        return SectorIndex(k=int(ratio), boundary=True)
    return SectorIndex(k=math.ceil(ratio), boundary=False)


def _require_sector(j: int, k: int, alpha: float) -> tuple[int, int]:
    try:
        j = operator.index(j)
        k = operator.index(k)
    except TypeError:
        raise PreconditionError(f"j and k must be integers, got j={j!r}, k={k!r}")
    if not 1 <= j < k:
        raise PreconditionError(f"need 1 <= j < k, got j={j}, k={k}")
    if not (math.pi / k - ANGLE_TOL <= alpha < math.pi / (k - 1)):
        raise PreconditionError(
            f"alpha={alpha!r} outside [pi/{k}, pi/{k - 1})"
        )
    return j, k


def sign_lemma_check(j: int, k: int, alpha: float,
                     tol: float = SIGN_LEMMA_TOL) -> tuple[float, float, float]:
    """Evaluate (sin k*alpha, sin j*alpha, sin (k-j)*alpha) on the sector.

    For 1 <= j < k and alpha in [pi/k, pi/(k-1)) the three values satisfy
    sin k*alpha <= 0 < sin j*alpha, sin (k-j)*alpha; violating that (only
    possible outside the hypothesis) raises PreconditionError.
    """
    j, k = _require_sector(j, k, alpha)
    s_k = math.sin(k * alpha)
    s_j = math.sin(j * alpha)
    s_kj = math.sin((k - j) * alpha)
    if not (s_k <= tol and s_j > -tol and s_kj > -tol):
        raise PreconditionError(
            f"sign pattern violated at j={j}, k={k}, alpha={alpha!r}: "
            f"({s_k!r}, {s_j!r}, {s_kj!r})"
        )
    return s_k, s_j, s_kj


def build_qj(j: int, k: int, r: float, alpha: float) -> np.ndarray:
    """Monic degree-k trinomial with nonnegative coefficients vanishing at
    r*e^{i*alpha}:  t^k - (sin k*a / sin j*a) r^(k-j) t^j + (sin (k-j)*a / sin j*a) r^k.

    At the sector boundary alpha = pi/k the middle term vanishes (snapped to
    exact zero) and the binomial t^k + r^k remains.
    """
    if r <= 0.0:
        raise PreconditionError(f"modulus must be positive, got r={r!r}")
    s_k, s_j, s_kj = sign_lemma_check(j, k, alpha)
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    if abs(s_k) > SIGN_LEMMA_TOL:
        coeffs[j] = -(s_k / s_j) * r ** (k - j)
    coeffs[0] = (s_kj / s_j) * r**k
    return coeffs


def build_q_avg(k: int, r: float, alpha: float) -> np.ndarray:
    """Average of the k-1 trinomials: monic degree k, all coefficients
    positive, vanishing at r*e^{i*alpha}.

    Requires alpha strictly inside (pi/k, pi/(k-1)); at the boundary
    sin k*alpha = 0 kills interior coefficients, so boundary angles (integer
    pi/alpha under snapping) are rejected.
    """
    if k < 2:
        raise PreconditionError(f"need k >= 2, got k={k}")
    if not 0.0 < alpha < math.pi:
        raise PreconditionError(f"alpha={alpha!r} outside (0, pi)")
    si = sector_index(alpha)
    if si.boundary or si.k != k:
        raise PreconditionError(
            f"alpha={alpha!r} not strictly inside (pi/{k}, pi/{k - 1})"
        )
    acc = np.zeros(k + 1)
    for j in range(1, k):
        acc += build_qj(j, k, r, alpha)
    return acc / (k - 1)


def lift(p, n: int, mode: SignClass) -> np.ndarray:
    """Raise a degree-k polynomial to degree n without leaving its sign class
    or disturbing its zero set.

    Nonnegative mode multiplies by t^(n-k) + 1; positive mode by
    1 + t + ... + t^(n-k). Identity when k = n. Signs are checked literally
    (not against the scaled tolerance): with moduli near 10 and degree 12 the
    constant term dwarfs the monic leading 1, whose scaled margin then falls
    under any fixed tolerance even though every coefficient is positive.
    """
    p = canonical(p)
    k = degree(p)
    if k > n:
        raise PreconditionError(f"cannot lift degree {k} down to {n}")
    low = float(np.min(p))
    if mode is SignClass.POSITIVE and low <= 0.0:
        raise PreconditionError("positive mode needs strictly positive coefficients")
    if mode is SignClass.NONNEGATIVE and low < 0.0:
        raise PreconditionError("nonnegative mode does not allow negative coefficients")
    if p[0] <= 0.0:
        raise PreconditionError("constant term must be positive")
    gap = n - k
    if gap == 0:
        return p.copy()
    if mode is SignClass.POSITIVE:
        factor = np.ones(gap + 1)
    else:
        factor = np.zeros(gap + 1)
        factor[0] = 1.0
        factor[gap] = 1.0
    return poly_mul(p, factor)


def synthesize(mu: complex, n: int, mode: SignClass, j: int = 1) -> SynthesisResult:
    """Construct a monic degree-n polynomial in the requested sign class with
    mu as a zero and positive constant term.

    Nonnegative mode needs |arg mu| >= pi/n (equality allowed); positive mode
    needs n > 1, |arg mu| > pi/n and pi/arg(mu) non-integer. Negative
    arguments reduce to the conjugate (real coefficients make mu a zero
    either way); ``j`` selects which trinomial carries the nonnegative
    construction.

    Raises ZeroModulus, DegreeOne, AngleTooSmall or PiOverAlphaInteger when
    the hypothesis fails, and DomainError for a non-finite mu or one whose
    |mu|^n overflows or underflows to 0 in float64.
    """
    if mode not in (SignClass.NONNEGATIVE, SignClass.POSITIVE):
        raise PreconditionError(f"mode must be nonnegative or positive, not {mode}")
    if n < 1:
        raise PreconditionError(f"degree must be >= 1, got {n}")
    mu = complex(mu)
    if not cmath.isfinite(mu):
        raise DomainError(f"mu={mu!r} is not finite")
    r = abs(mu)
    if r == 0.0:
        raise ZeroModulus("mu = 0 cannot be a zero of q with q(0) != 0")
    try:
        r_n = r**n
    except OverflowError:
        r_n = math.inf
    if not 0.0 < r_n < math.inf:
        raise DomainError(f"|mu|^n = {r!r}^{n} is outside the float64 range")
    alpha_signed = principal_arg(mu)
    conjugated = alpha_signed < 0.0
    alpha = abs(alpha_signed)

    target = math.pi / n
    ratio, ratio_is_int = snapped_ratio(alpha)
    if mode is SignClass.POSITIVE:
        if n == 1:
            raise DegreeOne("positive-coefficient synthesis needs degree > 1")
        if alpha < target - ANGLE_TOL:
            raise AngleTooSmall(f"|alpha|={alpha!r} <= pi/{n}")
        if ratio_is_int:
            raise PiOverAlphaInteger(f"pi/alpha is an integer at alpha={alpha!r}")
    else:
        if alpha < target - ANGLE_TOL:
            raise AngleTooSmall(f"|alpha|={alpha!r} < pi/{n}")

    if ratio_is_int and ratio == 1.0:
        # boundary angle pi: mu sits on the negative real axis
        core = np.array([r, 1.0])
        k_used = SectorIndex(k=1, boundary=True)
        construction = "linear"
        j_used = None
    else:
        k_used = sector_index(alpha)
        if mode is SignClass.POSITIVE:
            core = build_q_avg(k_used.k, r, alpha)
            construction = "q_avg"
            j_used = None
        else:
            core = build_qj(j, k_used.k, r, alpha)
            construction = "qj"
            j_used = j

    out = lift(core, n, mode)
    return SynthesisResult(
        coeffs=out,
        core=core,
        mode=mode,
        k_used=k_used,
        construction=construction,
        j=j_used,
        lift_terms=n - degree(core),
        conjugated=conjugated,
        residual=relative_residual(out, mu),
    )


def verify_cot(q, angle_tol: float = VERIFY_ANGLE_TOL) -> CotReport:
    """Check the forward sector bound on a nonnegative-coefficient polynomial.

    Every root of a degree-n polynomial with nonnegative coefficients and
    nonzero constant term must satisfy |arg| > pi/n, except binomials
    a_n t^n + a_0 which attain equality; the check accepts any root argument
    above pi/n - angle_tol and reports the binomial shape separately.
    Root-finder non-convergence yields status "inconclusive", not an error.
    """
    q = canonical(q)
    n = degree(q)
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    if q[0] == 0.0:
        raise PreconditionError("constant term must be nonzero")
    if classify_signs(q) is SignClass.MIXED:
        raise PreconditionError("coefficients must be nonnegative")

    rs = find_roots(q)
    args = np.array([principal_arg(complex(z)) for z in rs.roots])
    defect = sector_defect(args, n)
    binomial = int(np.count_nonzero(q)) == 2
    if not rs.converged:
        status = "inconclusive"
    elif defect > -angle_tol:
        status = "pass"
    else:
        status = "fail"
    return CotReport(
        status=status,
        degree=n,
        binomial=binomial,
        min_defect=defect,
        roots=rs.roots,
        arguments=args,
        converged=rs.converged,
    )
