"""Construction of nonnegative- and positive-coefficient polynomials with a
prescribed complex zero, plus the certified checker for the forward sector
bound it inverts.

The geometry: a zero at mu = r*e^{i*alpha} forces every nonnegative-
coefficient polynomial of degree n with nonzero constant term to satisfy
|alpha| > pi/n, binomials t^n + c attaining equality. Conversely, any mu
with |alpha| >= pi/n admits such a degree-n polynomial, built here from a
monic trinomial of degree k = ceil(pi/alpha) and lifted to degree n; and any
mu with |alpha| > pi/n and n > 1 admits one with strictly positive
coefficients, from an average of trinomials: the k-1 of degree k inside the
sector, and at the boundary angle pi/k the k-1 of degree k + 1 with the lift
(1 + t)(t^k + r^k).

Everything hinges on one decision: is alpha the boundary angle pi/k or not?
``sector_index`` alone makes it: an alpha within ANGLE_TOL (absolute) of pi/m
is pi/m, and any other alpha lies at least ANGLE_TOL inside its sector.
``build_core``, the half of ``synthesize`` that the matrix witnesses share,
reads its ``SectorIndex`` once and hands it to the builders' private cores;
the public builders compute it on their own angle, ``build_qj`` through
``sign_lemma_check`` and ``build_q_avg`` directly.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AngleTooSmall, DegreeOne, DomainError, PreconditionError, ZeroModulus
from .poly import (SignClass, _modulus, canonical, degree, principal_arg, relative_residual,
                   scale_roots, working_form)
from .roots import find_roots, sector_defect

ANGLE_TOL = 1e-13
# The largest degree synthesize builds. At 2**20 a positive-mode CLI report
# is already 24 MB of JSON from a 330 MB peak RSS (3.1 s for a fresh process
# on a shared 2-core x86_64), far beyond any degree verify_cot can solve
# (roots.MAX_SOLVE_DEGREE). Memory grows with every coefficient, so a larger
# degree would only grow the run, up to one whose arrays cannot be allocated.
MAX_DEGREE = 2**20


@dataclass(frozen=True)
class SectorIndex:
    """alpha's sector [pi/k, pi/(k-1)); boundary marks alpha = pi/k."""

    k: int
    boundary: bool


@dataclass(frozen=True)
class SynthesisResult:
    coeffs: np.ndarray          # monic, ascending, degree n
    core: np.ndarray            # monic, vanishes at mu; coeffs = lift(core); degree k,
                                # k + 1 for a positive core at a boundary angle
    mode: SignClass
    k_used: SectorIndex
    construction: str           # "linear" | "qj" | "q_avg"
    j: int | None               # trinomial index when construction == "qj"
    lift_terms: int             # extra degree added by the lift (0 = identity)
    conjugated: bool            # True if built for the conjugate of the input
    residual: float             # |q(mu)| / sum|a_i||mu|^i


@dataclass(frozen=True)
class CotReport:
    """Outcome of certifying the forward sector bound on one polynomial."""

    status: str                 # "pass" | "inconclusive"
    degree: int
    binomial: bool
    min_defect: float           # min over roots of |arg| - pi/n
    roots: np.ndarray
    arguments: np.ndarray
    converged: bool


def sector_index(alpha: float) -> SectorIndex:
    """The sector of alpha in (0, pi]: the smallest degree k with alpha in
    [pi/k, pi/(k-1)), and whether alpha is the boundary angle pi/k.

    Exact boundary angles are not representable in floats, so an alpha
    within ANGLE_TOL of pi/m is pi/m: boundary, k = m (k = 1 at pi). Any
    other alpha gets k = ceil(pi/alpha) and lies at least ANGLE_TOL inside
    its sector. Raises DomainError outside (0, pi], and AngleTooSmall when
    pi/alpha overflows float64, beyond every degree.
    """
    if not 0.0 < alpha <= math.pi:
        raise DomainError(f"alpha={alpha!r} outside (0, pi]")
    ratio = math.pi / alpha
    if ratio == math.inf:
        raise AngleTooSmall(f"pi/alpha overflows float64 at alpha={alpha!r}")
    m = round(ratio)
    if abs(alpha - math.pi / m) <= ANGLE_TOL:
        return SectorIndex(k=m, boundary=True)
    return SectorIndex(k=math.ceil(ratio), boundary=False)


def sign_lemma_check(j: int, k: int, alpha: float) -> tuple[float, float, float]:
    """Evaluate (sin k*alpha, sin j*alpha, sin (k-j)*alpha) on the sector.

    Needs 1 <= j < k and sector_index(alpha).k == k, else PreconditionError.
    Then sin k*alpha <= 0 < sin j*alpha, sin (k-j)*alpha: at the boundary
    alpha = pi/k, sin k*alpha is exactly 0.0; inside the sector, alpha is at
    least ANGLE_TOL from both ends and every sign is strict.
    """
    j, k = _lemma_indices(j, k)
    return _sign_lemma(j, k, alpha, sector_index(alpha))


def _lemma_indices(j, k) -> tuple[int, int]:
    """j and k as ints with 1 <= j < k, else PreconditionError."""
    try:
        j = operator.index(j)
        k = operator.index(k)
    except TypeError:
        raise PreconditionError(f"j and k must be integers, got j={j!r}, k={k!r}")
    if not 1 <= j < k:
        raise PreconditionError(f"need 1 <= j < k, got j={j}, k={k}")
    return j, k


def _sign_lemma(j: int, k: int, alpha: float, si: SectorIndex) -> tuple[float, float, float]:
    """``sign_lemma_check`` past its index checks, with ``si`` the sector of
    alpha."""
    if si.k != k:
        raise PreconditionError(f"alpha={alpha!r} outside [pi/{k}, pi/{k - 1})")
    s_k = 0.0 if si.boundary else math.sin(k * alpha)
    s_j = math.sin(j * alpha)
    s_kj = math.sin((k - j) * alpha)
    if not (s_k <= 0.0 < s_j and 0.0 < s_kj):
        raise PreconditionError(
            f"sign pattern violated at j={j}, k={k}, alpha={alpha!r}: "
            f"({s_k!r}, {s_j!r}, {s_kj!r})"
        )
    return s_k, s_j, s_kj


def build_qj(j: int, k: int, r: float, alpha: float) -> np.ndarray:
    """Monic degree-k trinomial with nonnegative coefficients vanishing at
    r*e^{i*alpha}:  t^k - (sin k*a / sin j*a) r^(k-j) t^j + (sin (k-j)*a / sin j*a) r^k.

    At the sector boundary alpha = pi/k, sin k*alpha is exactly 0, the middle
    term vanishes and the binomial t^k + r^k remains.
    """
    if r <= 0.0:
        raise PreconditionError(f"modulus must be positive, got r={r!r}")
    return _qj(j, k, r, sign_lemma_check(j, k, alpha))


def _qj(j: int, k: int, r: float, sines: tuple[float, float, float]) -> np.ndarray:
    """``build_qj``'s trinomial from its checked ``sines``, as
    ``sign_lemma_check`` returns them."""
    middle, constant = _trinomial(j, k, r, *sines)
    coeffs = np.zeros(k + 1)
    coeffs[0], coeffs[j], coeffs[k] = constant, middle, 1.0
    return coeffs


def _trinomial(j: int, k: int, r: float, s_k: float, s_j: float, s_kj: float):
    """The coefficients of t^j and 1 in ``build_qj``'s trinomial."""
    return 0.0 - (s_k / s_j) * r ** (k - j), (s_kj / s_j) * r**k     # 0.0 - 0.0 keeps a +0.0


def build_q_avg(k: int, r: float, alpha: float) -> np.ndarray:
    """Monic polynomial with all coefficients positive vanishing at
    r*e^{i*alpha}, for alpha in the sector [pi/k, pi/(k-1)), k >= 2.

    Strictly inside the sector it is the average of the k-1 trinomials of
    degree k. At the boundary alpha = pi/k their middle terms vanish (sin
    k*alpha = 0), so there it has degree k + 1: the mean of the positive lift
    (1 + t)(t^k + r^k), which covers the powers 0, 1, k and k + 1, and the
    k-1 trinomials of degree k + 1 at alpha, j = 1..k-1, whose middle terms
    cover the powers j, since sin (k+1)*alpha = -sin alpha < 0. The j = 1
    trinomial's constant term is exactly 0.0, as sin k*alpha is.
    """
    if k < 2:
        raise PreconditionError(f"need k >= 2, got k={k}")
    if r <= 0.0:
        raise PreconditionError(f"modulus must be positive, got r={r!r}")
    si = sector_index(alpha)
    if si.k != k:
        raise PreconditionError(f"alpha={alpha!r} outside [pi/{k}, pi/{k - 1})")
    return _q_avg(r, alpha, si)


def _q_avg(r: float, alpha: float, si: SectorIndex) -> np.ndarray:
    """``build_q_avg``'s polynomial at r > 0, with ``si`` the sector of alpha
    and si.k >= 2."""
    # the sign lemma holds for every j once the sector is known
    k = si.k
    m = k + si.boundary
    s_m = math.sin(m * alpha)
    acc = [0.0] * (m + 1)
    if si.boundary:
        acc[0], acc[1], acc[k], acc[m] = r**k, r**k, 1.0, 1.0
    # the trinomials' sum, term by term in order of j: no sum is -0.0, so
    # their zero terms would add nothing
    for j in range(1, k):
        s_mj = 0.0 if si.boundary and j == 1 else math.sin((m - j) * alpha)
        middle, constant = _trinomial(j, m, r, s_m, math.sin(j * alpha), s_mj)
        acc[0], acc[j], acc[m] = acc[0] + constant, acc[j] + middle, acc[m] + 1.0
    return np.array([a / (m - 1) for a in acc])


def lift(p, n: int, mode: SignClass) -> np.ndarray:
    """Raise a degree-k polynomial to degree n without leaving its sign class
    or disturbing its zero set.

    Nonnegative mode multiplies by t^(n-k) + 1; positive mode by
    1 + t + ... + t^(n-k). Identity when k = n. The coefficients are exact
    input to the lift, so ``_check_core`` reads them literally.
    """
    if mode not in (SignClass.NONNEGATIVE, SignClass.POSITIVE):
        raise PreconditionError(f"mode must be nonnegative or positive, not {mode}")
    p = canonical(p)
    k = degree(p)
    if k > n:
        raise PreconditionError(f"cannot lift degree {k} down to {n}")
    _check_core(p.tolist(), mode)
    return _lifted(p, n - k, mode)


def _check_core(c: list, mode: SignClass) -> None:
    """The checks of a polynomial to lift, on its coefficients ``c`` as Python
    floats: finite (else DomainError), in ``mode``'s sign class at zero slack
    and with c[0] > 0 (else PreconditionError). Python scalars, since
    classify_signs costs about ten times as much on a core of a dozen values.
    """
    if not all(map(math.isfinite, c)):
        raise DomainError("coefficients must be finite")
    least = min(c)
    if not (least > 0.0 if mode is SignClass.POSITIVE else least >= 0.0):
        raise PreconditionError(f"{mode.value} mode needs {mode.value} coefficients")
    if not c[0] > 0.0:
        raise PreconditionError("constant term must be positive")


def _lifted(p: np.ndarray, gap: int, mode: SignClass) -> np.ndarray:
    """``p`` times the lift factor of degree ``gap``, a new array; ``p`` is
    canonical and passed ``_check_core``, as in ``lift`` and ``synthesize``."""
    if gap == 0:
        return p.copy()
    if mode is SignClass.POSITIVE:
        factor = np.ones(gap + 1)
    else:
        factor = np.zeros(gap + 1)
        factor[0] = factor[gap] = 1.0
    return np.convolve(p, factor)


def build_core(mu: complex, n: int, mode: SignClass, j: int = 1):
    """The checks of ``synthesize`` and the core it lifts, as (core, k_used,
    construction, j_used, conjugated); no degree-n polynomial is formed.

    Nonnegative mode needs |arg mu| >= pi/n (equality allowed); positive mode
    needs n > 1 and |arg mu| > pi/n. One degree rule says which: the core has
    degree k, or k + 1 for a positive core at a boundary angle pi/k, and a
    core degree beyond n raises AngleTooSmall. Negative arguments reduce to
    the conjugate (real coefficients make mu a zero either way); ``j``
    selects which trinomial carries the nonnegative construction. At
    alpha = pi (k = 1) both modes build the linear core t + r.

    Raises ZeroModulus, DegreeOne or AngleTooSmall when the hypothesis
    fails, and DomainError for a non-finite mu, one whose |mu|^n overflows
    or underflows to 0 in float64, or a degree above MAX_DEGREE. A core
    coefficient that overflows raises DomainError, and one that underflows
    to 0 where the sign class needs it positive (the constant term; in
    positive mode any) raises PreconditionError, as ``lift`` would. A core
    constant term below the normal range raises DomainError: its lost bits
    move the core's zero off mu (a residual of 3.9e-6 at |mu| = 1e-160,
    n = 2), though |mu|^n may itself be subnormal (0.5^1074).
    """
    if mode not in (SignClass.NONNEGATIVE, SignClass.POSITIVE):
        raise PreconditionError(f"mode must be nonnegative or positive, not {mode}")
    if n < 1:
        raise PreconditionError(f"degree must be >= 1, got {n}")
    if n > MAX_DEGREE:
        raise DomainError(f"degree is above MAX_DEGREE = {MAX_DEGREE}")
    mu = complex(mu)
    if not cmath.isfinite(mu):
        raise DomainError(f"mu={mu!r} is not finite")
    r = _modulus(mu)       # inf where abs(mu) would overflow
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
    positive = mode is SignClass.POSITIVE
    if positive and n == 1:
        raise DegreeOne("positive-coefficient synthesis needs degree > 1")
    k_used = sector_index(alpha) if alpha > 0.0 else None   # None: mu > 0
    if k_used is None or k_used.k + (positive and k_used.boundary) > n:
        strict = "<=" if positive else "<"
        raise AngleTooSmall(f"|alpha|={alpha!r} {strict} pi/{n}")

    if k_used.k == 1:           # alpha = pi: mu sits on the negative real axis
        core = np.array([r, 1.0])
        construction, j_used = "linear", None
    elif positive:
        core = _q_avg(r, alpha, k_used)
        construction, j_used = "q_avg", None
    else:
        j_int, k = _lemma_indices(j, k_used.k)
        core = _qj(j_int, k, r, _sign_lemma(j_int, k, alpha, k_used))
        construction, j_used = "qj", j

    # the core is monic and in the mode's sign class unless a coefficient left
    # float64: lift's checks, without its canonical pass
    c = core.tolist()
    _check_core(c, mode)
    if c[0] < sys.float_info.min:
        raise DomainError(f"the core's constant term {c[0]!r} is subnormal")
    return core, k_used, construction, j_used, conjugated


def synthesize(mu: complex, n: int, mode: SignClass, j: int = 1) -> SynthesisResult:
    """Construct a monic degree-n polynomial in the requested sign class with
    mu as a zero and positive constant term, in two halves: ``build_core``'s
    checks and core, then its lift and ``relative_residual`` at mu. Raises as
    ``build_core`` does, and DomainError where the residual leaves float64."""
    core, k_used, construction, j_used, conjugated = build_core(mu, n, mode, j)
    gap = n - degree(core)
    out = _lifted(core, gap, mode)
    return SynthesisResult(coeffs=out, core=core, mode=mode, k_used=k_used,
                           construction=construction, j=j_used, lift_terms=gap,
                           conjugated=conjugated, residual=relative_residual(out, mu))


def verify_cot(q) -> CotReport:
    """Certify the forward sector bound on a nonnegative-coefficient polynomial.

    Every root of such a polynomial of degree n with a_0 != 0 has |arg| >=
    pi/n, with equality only for binomials. The solve and the certificate
    work on ``working_form`` (w, e) of q: find_roots solves w as it is, and
    the disks are drawn about its roots u, in the frame the kernel solved
    in; their arguments are those of the reported roots 2^e u. "pass" needs
    a converged solve and a binomial (every n = 1 polynomial is one) or
    ``_disks_avoid_sector``; anything else is "inconclusive": no accepted
    input can fail. A negative coefficient, however small, raises
    PreconditionError.

    The bookkeeping around the solve (the binomial test, the root arguments
    and the defect) reads Python scalars from ``q.tolist()`` and
    ``roots.tolist()``; on a dozen roots that costs less than numpy calls.
    """
    q = canonical(q)
    c = q.tolist()
    n = degree(q)
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    if c[0] == 0.0:
        raise PreconditionError("constant term must be nonzero")
    if min(c) < 0.0:        # canonical has made every c finite
        raise PreconditionError("coefficients must be nonnegative")

    w, e = working_form(q)
    rs = find_roots(w)      # w is its own working form: the roots u = z / 2^e
    args = [principal_arg(u) for u in rs.roots.tolist()]      # arg 2^e u = arg u
    binomial = len(c) - c.count(0.0) == 2
    passed = rs.converged and (binomial or _disks_avoid_sector(w, rs.roots, args))
    return CotReport(
        status="pass" if passed else "inconclusive",
        degree=n,
        binomial=binomial,
        min_defect=sector_defect(args, n),
        roots=scale_roots(rs.roots, e) if e else rs.roots,
        arguments=np.array(args),
        converged=rs.converged,
    )


def _disks_avoid_sector(q: np.ndarray, z: np.ndarray, args: list) -> bool:
    """Whether the inclusion disks D(z_i, n|w_i|) of the computed roots ``z``
    of ``q``, degree n >= 2, avoid the open sector |arg| < pi/n: with w_i =
    q(z_i) / (a_n prod_{j!=i} (z_i - z_j)) they hold every root (Braess &
    Hadeler, Numer. Math. 21, 1973; Bini & Fiorentino, Numer. Algorithms 23,
    2000). A disk does when |arg z_i| >= pi/n and its radius is below |z_i|
    sin(min(|arg z_i| - pi/n, pi/2)); ``args`` hold arg z_i.

    The radius bounds the true one: Horner's fl q(z_i) errs by at most
    (1 + sqrt(5)) u mu_i, u = eps/2, mu_i = sum_k |z_i|^k |y_k| over its partial
    sums y_k (Higham, Accuracy and Stability, 5.1; sqrt(5) u per complex product:
    Brent, Percival & Zimmermann, Math. Comp. 76, 2007), so |fl q(z_i)| + 2 eps
    mu_i bounds |q(z_i)|; 1 + 8n eps covers the other relative roundings, 6 eps
    those of the arguments and pi/n. a_n |z_i| prod |z_i - z_j| is formed
    from a_n on, in float64 at every scale. Overflow or coincident iterates fail.
    """
    n = z.size
    eps = sys.float_info.epsilon
    gaps = np.abs(z[:, None] - z)
    gaps.flat[:: n + 1] = 1.0       # 1 on the diagonal: the product is over j != i
    top_down = q[::-1].tolist()
    try:
        for zi, arg, row in zip(z.tolist(), args, gaps.tolist()):
            r = abs(zi)
            value = mu = 0.0
            for a in top_down:                  # Horner, and mu_i
                value = value * zi + a
                mu = mu * r + abs(value)
            lead = math.prod(row, start=top_down[0] * r)    # a_n |z_i| prod |z_i - z_j|
            reach = math.sin(min(abs(arg) - math.pi / n, math.pi / 2))
            radius = n * (abs(value) + 2 * eps * mu) * (1 + 8 * n * eps)    # n |w_i| lead / |z_i|
            if not (lead < math.inf and radius < (reach - 6 * eps) * lead):
                return False
    except OverflowError:                       # |value| beyond float64
        return False
    return True
