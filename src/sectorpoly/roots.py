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
from .poly import canonical, principal_arg

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


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial with per-root relative residuals."""

    roots: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int


def find_roots(coeffs, max_iters: int = DEFAULT_MAX_ITERS) -> RootSet:
    """Find all complex roots (with multiplicity) of a real polynomial.

    Simultaneous Aberth-Ehrlich iteration from Newton-polygon starting points
    (``kernels.initial_guesses``), stopped at the rounding level: the solve
    converges once every relative residual is at most 4 * deg * eps, the
    float64 machine epsilon eps (MPSolve's rule, Bini & Fiorentino, Numer.
    Algorithms 23, 2000). Non-convergence within ``max_iters`` sweeps is not
    an error: the best-effort roots are returned with ``converged=False``.

    Coefficients whose largest magnitude lies beyond UNSCALED_MAX, or below
    its reciprocal, are first divided by a power of two (``in_scale``), which
    leaves the roots and the relative residuals as they are.

    Raises DegenerateInput for degree-0 input and DomainError for a
    starting radius or a residual that overflows.
    """
    p = canonical(coeffs)
    if len(p) < 2:
        raise DegenerateInput("cannot solve a degree-0 polynomial")
    c = in_scale(p).astype(np.complex128)
    # the powers-and-dot evaluation errs by at most about 1.6 * deg * eps
    # times the residual's scale, so this level is reachable at every degree
    tol = 4 * (len(c) - 1) * np.finfo(np.float64).eps
    z0 = kernels.initial_guesses(c)
    roots, residuals, iters = kernels.aberth_iterate(c, z0, max_iters, tol)
    if not np.all(np.isfinite(residuals)):
        raise DomainError("root residuals overflow the float64 range")
    return RootSet(
        roots=np.asarray(roots),
        residuals=np.asarray(residuals),
        converged=bool(np.max(residuals) <= tol),
        iterations=int(iters),
    )


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


def min_arg_defect(rs: RootSet, n: int) -> float:
    """Worst sector margin of a root set: min over roots of |arg| - pi/n.

    Positive means every root argument clears pi/n strictly; zero marks the
    binomial boundary (and the negative real axis at n = 1).
    """
    return sector_defect([principal_arg(complex(z)) for z in rs.roots], n)


def sector_defect(arguments, n: int) -> float:
    """min |arg| - pi/n over root arguments already in (-pi, pi]."""
    return float(np.min(np.abs(arguments)) - math.pi / n)
