"""All-roots solver for real polynomials, used as the package's numeric oracle.

A self-contained simultaneous iteration keeps eigenvalue computation
(roots of characteristic polynomials) independent of any matrix eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateInput, DomainError
from .poly import canonical, horner

DEFAULT_MAX_ITERS = 500

# find_roots hands the kernel the coefficients as they are while their largest
# magnitude lies within 1 / UNSCALED_MAX .. UNSCALED_MAX, so every such
# input keeps its bytes. The kernel multiplies each a_i by i <= deg and by
# |z|^i and sums the terms: inside the window, a term with |z|^i anywhere in
# 2**-500 .. 2**500 stays in float64's normal range with 2**22 to spare.
# Outside it, a_i near the top overflow (a_i * i already at 1e308) and a_i
# near the bottom lose digits to subnormals, so they are divided by a power
# of two, which moves no root and no relative residual.
UNSCALED_MAX = 2.0 ** 500

# The starts are centred at the root centroid s = -a_{n-1} / (n a_n) when
# |s| is at least this multiple of the geometric-mean root modulus
# |a_0 / a_n|^(1/n) (and p(s) passes the tests in starting_points). |s| / GM
# reads 0.961 / 1.024 / 1.138 (10th percentile, median, 90th) on the kellogg
# characteristic polynomials of a 500-case campaign and 1.000 / 1.018 / 1.036
# on the 56 cli P matrices, where centring cuts the sweeps from 9.3 to 6.0
# and from 14.6 to 7.0; a tenth of the kellogg polynomials read below 1, so
# at 1.0 the mean is 6.7. It reads 0.32 (median) on cot, 0.24 on witness and
# 0.14 on random-matrix classify, whose roots surround 0. Ratios of 0.5 and
# 0.7 give the same sweeps within 0.03; 0.9 computes the fewest shifts.
CENTROID_RATIO = 0.9


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial with per-root relative residuals."""

    roots: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int


def find_roots(coeffs) -> RootSet:
    """Find all complex roots (with multiplicity) of a real polynomial.

    Simultaneous Aberth-Ehrlich iteration from Newton-polygon starting points
    (``starting_points``): circles about the root centroid -a_{n-1}/(n a_n)
    where the roots cluster away from 0 (its modulus at least CENTROID_RATIO
    times the geometric-mean root modulus), else circles about 0
    (``kernels.initial_guesses``), as also where the shifted polynomial has
    a non-finite coefficient, or the centroid is a root to working precision
    or lies farther from the roots than 0. The iteration stops at the
    rounding level: the solve converges once every relative residual is at
    most 4 * deg * eps, the float64 machine epsilon eps (MPSolve's rule, Bini
    & Fiorentino, Numer. Algorithms 23, 2000). Non-convergence within
    DEFAULT_MAX_ITERS sweeps (read at each call) is not an error: the
    best-effort roots are returned with ``converged=False``.

    Coefficients whose largest magnitude lies beyond UNSCALED_MAX, or below
    its reciprocal, are first divided by a power of two (``in_scale``), which
    leaves the roots and the relative residuals as they are.

    Raises DegenerateInput for degree-0 input and DomainError for a
    starting radius, a residual or a residual's scale that overflows.
    """
    p = canonical(coeffs)
    if len(p) < 2:
        raise DegenerateInput("cannot solve a degree-0 polynomial")
    p = in_scale(p)
    c = p.astype(np.complex128)
    # the powers-and-dot evaluation errs by at most about 1.6 * deg * eps
    # times the residual's scale, so this level is reachable at every degree
    tol = 4 * (len(c) - 1) * np.finfo(np.float64).eps
    z0 = starting_points(p, tol)
    roots, residuals, iters = kernels.aberth_iterate(c, z0, DEFAULT_MAX_ITERS, tol)
    worst = float(residuals.max())      # NaN if any residual is NaN
    overflow = not math.isfinite(worst)
    if not (overflow or residuals.all()):
        # a residual reads 0 at an exact root, but also where its scale
        # sum|a_i||z|^i overflows (|p(z)| / inf), as at the starts of
        # 1e308 + 2t + t^2; the scale is largest at the largest root
        overflow = math.isinf(horner(p.tolist(), float(np.abs(roots).max()))[1])
    if overflow:
        raise DomainError("root residuals overflow the float64 range")
    return RootSet(
        roots=roots,
        residuals=residuals,
        converged=worst <= tol,
        iterations=int(iters),
    )


def starting_points(p: np.ndarray, tol: float) -> np.ndarray:
    """Aberth starts for the real coefficients ``p`` (leading term nonzero);
    ``tol`` is the relative residual at which ``find_roots`` stops.

    Where the root centroid s = -a_{n-1} / (n a_n) lies at least
    CENTROID_RATIO times the geometric-mean root modulus |a_0 / a_n|^(1/n)
    from 0 (n >= 2, a_0 != 0), the roots cluster away from 0, and the
    Newton-polygon circles are drawn about s instead (Aberth, Math. Comp. 27,
    1973): ``kernels.initial_guesses`` of p(t + s), plus s. That also needs
    tol * sum|a_i||s|^i < |p(s)| < |p(0)|. On the right, the roots lie nearer
    s than 0 in geometric mean; on cot, some centroids pass the ratio but not
    this. On the left, s is no root to the solver's precision: else the low
    coefficients of p(t + s) are rounding noise, the starts can meet ``tol``
    at once and the polish sweep scatters them (tight clusters ended
    unconverged after 0 sweeps), and at p(s) = 0, as in (t + 1)^12, every
    start lands on s. Everywhere else, and where a coefficient of p(t + s)
    is not finite, the starts are ``kernels.initial_guesses(p)``, the circles
    about 0.
    """
    a = p.tolist()
    n = len(a) - 1
    if n >= 2:
        # Python floats: an overflow reads inf, with no numpy warning
        s = -a[-2] / (n * a[-1])
        if 0.0 < CENTROID_RATIO * abs(a[0] / a[-1]) ** (1.0 / n) <= abs(s):
            value, scale = horner(a, s)     # p(s), the shift's b[0] bit for bit
            if tol * scale < abs(value) < abs(a[0]):
                b = _taylor_shift(a, s)
                if all(map(math.isfinite, b)):
                    return kernels.initial_guesses(np.array(b)) + s
    return kernels.initial_guesses(p)


def _taylor_shift(a: list, s: float) -> list:
    """The ascending coefficients of p(t + s), by n rounds of synthetic
    division (Horner's scheme), n(n + 1)/2 multiply-adds."""
    b = list(a)
    n = len(b) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            b[j] += s * b[j + 1]
    return b


def in_scale(p: np.ndarray) -> np.ndarray:
    """``p`` itself while its largest magnitude lies within 1 / UNSCALED_MAX
    .. UNSCALED_MAX, else ``p`` divided by the power of two just above it,
    which has exactly the same roots. Where that division would leave a
    nonzero coefficient subnormal or 0 (a spread beyond 2**1021, as in
    1e-200 + t + 1e200 t^2), ``p`` stays as it is: a flushed a_0 would turn
    into a zero root that converges."""
    largest = np.abs(p).max()
    if 1.0 / UNSCALED_MAX <= largest <= UNSCALED_MAX:
        return p
    scaled = np.ldexp(p, -math.frexp(largest)[1])
    if np.abs(scaled[p != 0]).min() < np.finfo(np.float64).tiny:
        return p
    return scaled


def sector_defect(arguments, n: int) -> float:
    """min |arg| - pi/n over root arguments already in (-pi, pi], in Python
    floats."""
    return float(min(map(abs, arguments)) - math.pi / n)
