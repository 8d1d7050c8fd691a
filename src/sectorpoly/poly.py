"""Dense real polynomials and complex-scalar helpers.

Polynomials are 1-D float64 arrays of coefficients in ascending power order
(``[a0, a1, ..., an]``), canonical when the leading coefficient is nonzero.
Complex scalars are plain Python ``complex``; the polar view uses the
principal argument in ``(-pi, pi]`` with the argument of a negative real
pinned to exactly ``pi``.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError

SIGN_TOL = 1e-12


class SignClass(enum.Enum):
    """Coefficient-sign classification of a real vector."""

    POSITIVE = "positive"
    NONNEGATIVE = "nonnegative"
    MIXED = "mixed"

    def satisfies(self, required: "SignClass") -> bool:
        """True if this class meets ``required`` (positive implies nonnegative)."""
        if required is SignClass.NONNEGATIVE:
            return self in (SignClass.POSITIVE, SignClass.NONNEGATIVE)
        return self is required


def canonical(coeffs) -> np.ndarray:
    """Return ascending coefficients with trailing (top-power) zeros trimmed.

    Raises DomainError for the all-zero vector, which has no canonical form,
    and for non-finite coefficients.
    """
    arr = np.atleast_1d(np.asarray(coeffs, dtype=np.float64)).ravel()
    if not np.all(np.isfinite(arr)):
        raise DomainError("coefficients must be finite")
    nonzero = np.flatnonzero(arr)
    if nonzero.size == 0:
        raise DomainError("the zero polynomial has no canonical form")
    return np.array(arr[: nonzero[-1] + 1])


def degree(coeffs) -> int:
    return len(coeffs) - 1


def poly_eval(coeffs, z):
    """Evaluate at ``z`` (real or complex) by Horner's scheme."""
    acc = 0.0 * z
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def poly_mul(p, q) -> np.ndarray:
    """Coefficient convolution of two canonical polynomials."""
    return np.convolve(canonical(p), canonical(q))


def relative_residual(coeffs, z) -> float:
    """|p(z)| / sum|a_i||z|^i (Horner's running-error scale); ~eps at a root."""
    c = np.asarray(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):   # checked just below
        value, scale = abs(poly_eval(c, z)), poly_eval(np.abs(c), abs(z))
    if not math.isfinite(value + scale):
        raise DomainError(f"the residual at |z| = {abs(z)!r} overflows float64")
    return value / scale if scale else 0.0


def classify_signs(coeffs, tol: float = SIGN_TOL) -> SignClass:
    """Classify a canonical coefficient vector as positive / nonnegative / mixed.

    Comparisons act on coefficients scaled by the largest absolute
    coefficient, so the verdict is invariant under rescaling.
    """
    if tol < 0:
        raise DomainError("sign tolerance must be nonnegative")
    arr = np.asarray(coeffs, dtype=np.float64)
    scaled = arr / np.max(np.abs(arr))
    low = float(np.min(scaled))
    if low > tol:
        return SignClass.POSITIVE
    if low >= -tol:
        return SignClass.NONNEGATIVE
    return SignClass.MIXED


def normalize_theta(theta: float) -> float:
    """Map an angle theta in (0, 2*pi] to alpha = theta - pi in (-pi, pi]."""
    if not 0.0 < theta <= 2.0 * math.pi:
        raise DomainError(f"theta={theta!r} outside (0, 2*pi]")
    return theta - math.pi


def principal_arg(z: complex) -> float:
    """Argument in (-pi, pi]; exactly pi for negative reals, 0 for z = 0."""
    a = math.atan2(z.imag, z.real)
    if a == -math.pi:
        return math.pi
    return a


def from_polar(r: float, alpha: float) -> complex:
    return complex(r * math.cos(alpha), r * math.sin(alpha))


def to_polar(z: complex) -> tuple[float, float]:
    return abs(z), principal_arg(z)


def is_conjugate_closed(values, tol: float = 1e-9) -> bool:
    """True if the complex multiset maps to itself under conjugation.

    Greedy pairing: every value must have an unmatched partner within
    ``tol * (1 + |value|)`` of its conjugate.
    """
    vals = list(np.asarray(values, dtype=np.complex128))
    used = [False] * len(vals)
    for i, v in enumerate(vals):
        if used[i]:
            continue
        target = complex(v.real, -v.imag)
        best, best_d = -1, math.inf
        for j, w in enumerate(vals):
            if used[j]:
                continue
            d = abs(w - target)
            if d < best_d:
                best, best_d = j, d
        if best < 0 or best_d > tol * (1.0 + abs(v)):
            return False
        used[i] = True
        used[best] = True
    return True


def parse_complex(obj) -> complex:
    """Parse the wire form of a complex scalar.

    Accepts a plain number (real entry) or an object carrying exactly one of
    the two views: ``{"re": x, "im": y}`` or ``{"r": m, "alpha": a}``.
    """
    if isinstance(obj, bool):
        raise DomainError("boolean is not a complex scalar")
    if isinstance(obj, (int, float)):
        return complex(float(obj), 0.0)
    if isinstance(obj, dict):
        keys = set(obj)
        if keys == {"re", "im"}:
            return complex(float(obj["re"]), float(obj["im"]))
        if keys == {"r", "alpha"}:
            return from_polar(float(obj["r"]), float(obj["alpha"]))
        raise DomainError(
            "complex scalar must have exactly the keys {re, im} or {r, alpha}, "
            f"got {sorted(keys)}"
        )
    raise DomainError(f"cannot parse complex scalar from {type(obj).__name__}")


def complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}
