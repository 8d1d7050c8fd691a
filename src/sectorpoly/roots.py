"""All-roots solver for real polynomials, used as the package's numeric oracle.

A self-contained simultaneous iteration keeps eigenvalue computation
(roots of characteristic polynomials) independent of any matrix eigensolver.
It starts from Newton-polygon circles (Bini, Numer. Algorithms 13, 1996;
``initial_guesses``), which put every start near the modulus of a root, so
the sweep count stays small at every degree and coefficient scale. The
circles are drawn about 0, or about the root centroid where the roots
cluster away from 0 (``starting_points``), as the characteristic
polynomials of P matrices do. A cot solve takes about 128 us at degree 6 and
154 us at 12 (2-core x86_64): 3 and 4 us of input checks, 9 and 11 of starts,
14 and 15 of kernel set-up, then about 7 sweeps of 13 and 15; verify_cot's
disk certificate adds 14 and 36 us.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateInput, DomainError
from .poly import canonical, horner, scale_roots, working_form

DEFAULT_MAX_ITERS = 500

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

# Angular offset of the starting points (Bini's sigma): keeps the starts of
# binomials such as t^n + c off the axes and off the roots of unity.
_START_ROTATION = 0.7

# The largest degree find_roots hands the kernel. Beyond it an Aberth
# iterate can overflow its powers though every root is in range (|z|^500
# overflows above |z| = 4.14): over 2,000 random polynomials per degree, half
# with uniform(0.1, 1) coefficients and half uniform(-1, 1), that happened 0
# times at degrees 112, 128 and 144, once at 152 and 3 times in 1,000 at 176.
# The limit also keeps the kernel's deg x (deg + 1) arrays within 264 KB.
MAX_SOLVE_DEGREE = 128

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial with per-root relative residuals."""

    roots: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int


def find_roots(coeffs) -> RootSet:
    """Find all complex roots (with multiplicity) of a real polynomial.

    The k zero roots of t^k q (q(0) != 0) are exact, with residual 0. The
    Aberth-Ehrlich iteration solves q from ``starting_points`` and stops at
    the rounding level: it converges once every relative residual is at most
    4 * deg * eps, the float64 machine epsilon eps (MPSolve's rule, Bini &
    Fiorentino, Numer. Algorithms 23, 2000). Non-convergence within
    DEFAULT_MAX_ITERS sweeps (read at each call) is not an error: the
    best-effort roots are returned with ``converged=False``.

    The iteration runs on ``poly.working_form`` (w, e) of q, whose roots u
    are those of q over 2^e, and returns 2^e u: the same arguments and the
    same relative residuals, and the one rule for extreme moduli. A w that
    is its own working form (e = 0) is solved as it is.

    Raises DegenerateInput for degree-0 input, and DomainError for a q of
    degree beyond MAX_SOLVE_DEGREE, for root bounds beyond float64 or
    coefficients that no working form holds (``working_form``), for a root
    2^e u beyond float64 (``scale_roots``), and for residuals that overflow.
    """
    p = canonical(coeffs)
    if len(p) < 2:
        raise DegenerateInput("cannot solve a degree-0 polynomial")
    k = 0
    if not p[0]:        # p = t^k q with q(0) != 0
        k = int(np.flatnonzero(p)[0])
    n = len(p) - 1 - k      # the degree of q
    if n == 0:              # c t^k: nothing left to solve
        zeros = np.zeros(k)
        return RootSet(roots=zeros + 0j, residuals=zeros, converged=True, iterations=0)
    if n > MAX_SOLVE_DEGREE:
        raise DomainError(f"degree {n} is above MAX_SOLVE_DEGREE = {MAX_SOLVE_DEGREE}")
    w, e = working_form(p[k:])
    # the powers-and-dot evaluation errs by at most about 1.6 * deg * eps
    # times the residual's scale, so this level is reachable at every degree
    tol = 4 * n * _EPS
    z0 = starting_points(w, tol)
    roots, residuals, iters = kernels.aberth_iterate(w, z0, DEFAULT_MAX_ITERS, tol)
    worst = float(residuals.max())      # NaN if any residual is NaN
    if not math.isfinite(worst):
        raise DomainError("root residuals overflow the float64 range")
    # 2^e u, exact while it stays normal, then the k zeros
    if e:
        roots = scale_roots(roots, e)
    if k:
        zeros = np.zeros(k)
        roots = np.concatenate((zeros, roots))
        residuals = np.concatenate((zeros, residuals))
    return RootSet(
        roots=roots,
        residuals=residuals,
        converged=worst <= tol,
        iterations=int(iters),
    )


def starting_points(p: np.ndarray, tol: float) -> np.ndarray:
    """Aberth starts for the real coefficients ``p`` (a_0 and a_n nonzero);
    ``tol`` is the relative residual at which ``find_roots`` stops.

    Where the root centroid s = -a_{n-1} / (n a_n) lies at least
    CENTROID_RATIO times the geometric-mean root modulus |a_0 / a_n|^(1/n)
    from 0 (n >= 2), the roots cluster away from 0, and the Newton-polygon
    circles are drawn about s instead (Aberth, Math. Comp. 27, 1973):
    ``initial_guesses`` of p(t + s), plus s. That also needs
    tol * sum|a_i||s|^i < |p(s)| < |p(0)|. On the right, the roots lie nearer
    s than 0 in geometric mean; on cot, some centroids pass the ratio but not
    this. On the left, s is no root to the solver's precision: else the low
    coefficients of p(t + s) are rounding noise, the starts can meet ``tol``
    at once and the polish sweep scatters them (tight clusters ended
    unconverged after 0 sweeps), and at p(s) = 0, as in (t + 1)^12, every
    start lands on s. Everywhere else, and where a coefficient of p(t + s)
    is not finite, the starts are ``initial_guesses(p)``, the circles about 0.
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
                    return initial_guesses(np.array(b)) + s
    return initial_guesses(p)


def initial_guesses(coeffs: np.ndarray) -> np.ndarray:
    """Starting points from the Newton polygon of the coefficients (a_0 and
    a_n nonzero).

    Following Bini (Numer. Algorithms 13, 1996), take the upper convex hull of
    the points (i, log|a_i|) over the nonzero coefficients. A hull edge from
    vertex a to vertex b places b - a points on the circle of radius
    (|a_a| / |a_b|)^(1/(b-a)), the modulus the roots of a_a t^a + a_b t^b
    share. Each circle is rotated by 2*pi*b/deg plus a fixed offset, so that
    the circles do not line up and no start lies on an axis. For a working
    form (``poly.working_form``) no radius leaves float64: about 0 the largest
    is 2^hi, below 2^1023, and about the root centroid s, the shifted
    coefficient of t^(n-1) is rounding noise.
    """
    deg = coeffs.size - 1
    moduli = np.abs(coeffs)
    nonzero = moduli.nonzero()[0]
    logs = np.log(moduli[nonzero]).tolist()     # np.log: math.log may round otherwise
    hull: list[tuple[int, float]] = []
    for point in zip(nonzero.tolist(), logs):
        # pop the last vertex while it lies on or below the chord to `point`
        while len(hull) >= 2:
            (i0, y0), (i1, y1) = hull[-2], hull[-1]
            if (i1 - i0) * (point[1] - y0) < (point[0] - i0) * (y1 - y0):
                break
            hull.pop()
        hull.append(point)
    starts: list[complex] = []
    radius, count = None, 0
    for (a, ya), (b, yb) in zip(hull, hull[1:]):
        last, radius = radius, math.exp((ya - yb) / (b - a))
        if radius == last:      # one circle per radius, or starts can coincide
            del starts[-count:]
            a -= count
        count = b - a
        offset = 2.0 * math.pi * b / deg + _START_ROTATION
        # rect(r, t) is (r cos t, r sin t) for a finite r and t != 0
        starts += [cmath.rect(radius, 2.0 * math.pi * m / count + offset) for m in range(count)]
    return np.array(starts)


def _taylor_shift(a: list, s: float) -> list:
    """The ascending coefficients of p(t + s), by n rounds of synthetic
    division (Horner's scheme), n(n + 1)/2 multiply-adds."""
    b = list(a)
    n = len(b) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            b[j] += s * b[j + 1]
    return b


def sector_defect(arguments, n: int) -> float:
    """min |arg| - pi/n over root arguments already in (-pi, pi], in Python
    floats."""
    return float(min(map(abs, arguments)) - math.pi / n)
