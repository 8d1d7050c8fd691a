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
DEFAULT_ROOT_TOL = 1e-12


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
    (``kernels.initial_guesses``). Non-convergence within ``max_iters``
    sweeps is not an error: the best-effort roots are returned with
    ``converged=False``.

    Raises DegenerateInput for degree-0 input and DomainError for a
    residual that overflows.
    """
    p = canonical(coeffs)
    if len(p) < 2:
        raise DegenerateInput("cannot solve a degree-0 polynomial")
    c = p.astype(np.complex128)
    z0 = kernels.initial_guesses(c)
    roots, residuals, iters = kernels.aberth_iterate(c, z0, max_iters, DEFAULT_ROOT_TOL)
    if not np.all(np.isfinite(residuals)):
        raise DomainError("root residuals overflow the float64 range")
    return RootSet(
        roots=np.asarray(roots),
        residuals=np.asarray(residuals),
        converged=bool(np.max(residuals) <= DEFAULT_ROOT_TOL),
        iterations=int(iters),
    )


def min_arg_defect(rs: RootSet, n: int) -> float:
    """Worst sector margin of a root set: min over roots of |arg| - pi/n.

    Positive means every root argument clears pi/n strictly; zero marks the
    binomial boundary (and the negative real axis at n = 1).
    """
    return sector_defect([principal_arg(complex(z)) for z in rs.roots], n)


def sector_defect(arguments, n: int) -> float:
    """min |arg| - pi/n over root arguments already in (-pi, pi]."""
    return float(np.min(np.abs(arguments)) - math.pi / n)
