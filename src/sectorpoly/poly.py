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
import operator

import numpy as np

from .errors import DomainError

# working_form leaves a polynomial of degree n as it is while every |a_i| and
# the n-th powers of its root bounds lie within 2**-WINDOW .. 2**WINDOW. The
# kernel multiplies each a_i by |z|^i, and by i <= 128 for p', and sums up to
# 129 terms: at any root a term then lies within 2**-1000 .. 2**1007, and the
# sum below 2**1015, in float64's normal range.
WINDOW = 500


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
    and for coefficients that are not finite real numbers.
    """
    if isinstance(coeffs, (np.ndarray, np.generic)) and coeffs.dtype.kind == "c":
        # numpy casts a complex array to float with only a warning; as Python
        # complex numbers its entries raise, as they do in a list
        coeffs = coeffs.tolist()
    try:
        arr = np.asarray(coeffs, dtype=np.float64).ravel()
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"coefficients must be real numbers: {exc}")
    if not np.isfinite(arr).all():
        raise DomainError("coefficients must be finite")
    nonzero = arr.nonzero()[0]
    if nonzero.size == 0:
        raise DomainError("the zero polynomial has no canonical form")
    return arr[: nonzero[-1] + 1].copy()


def degree(coeffs) -> int:
    return len(coeffs) - 1


def horner(coeffs, z):
    """(p(z), sum |a_i| |z|^i) for ascending coefficients ``coeffs``, a
    sequence of Python numbers: Horner's scheme and the scale of its
    rounding error, in Python scalars, where an overflow reads inf or nan
    without a warning."""
    r = _modulus(z)
    value = scale = 0.0
    for a in reversed(coeffs):
        value = value * z + a
        scale = scale * r + abs(a)
    return value, scale


def working_form(p: np.ndarray) -> tuple[np.ndarray, int]:
    """(w, e) with w(u) = 2^-f p(2^e u) for finite ascending float64
    coefficients ``p``: w_i = a_i 2^(i e - f) exactly, so w has the roots of
    p divided by 2^e, with the same arguments, and w at z / 2^e has the
    relative residual of p at z. This change of variable is the package's one
    answer to extreme moduli: the solver, the sector certificate and the
    residual all work on w.

    Over the nonzero a_i (a_k the lowest, a_n the highest), the Newton-polygon
    root bounds (Bini, Numer. Algorithms 13, 1996) hi = max_{i<n} (log2|a_i| -
    log2|a_n|) / (n - i) and lo = min_{i>k} (log2|a_k| - log2|a_i|) / (i - k)
    put every nonzero root's modulus within 2^(lo-1) .. 2^(hi+1) (Fujiwara);
    with exactly two nonzero a_i, hi = lo and every nonzero root has the
    modulus 2^hi. While n (max(hi, -lo) + 1) <= WINDOW and every |log2|a_i||
    <= WINDOW, the answer is (p, 0), so every such input keeps its bytes. A
    spread max|a_i| / min|a_i| within 2^(WINDOW/n - 2) implies that; it is
    tested first, in Python scalars, at less cost than the logarithms, for
    the n <= WINDOW/2 at which it can pass. The rest is O(n) array work.

    Otherwise e = round((hi + lo) / 2) centres the root moduli on 1 (e = 0
    where |hi + lo| <= 2 already), and f puts the largest |w_i| in [1/2, 1).
    Each log2|a_i| is read as its binary exponent plus log2 of its mantissa,
    which w shares. Where e = 0, w's bounds are then p's bit for bit;
    elsewhere they are p's less e up to rounding, so |hi + lo| <= 2 for w.
    Either way working_form(w) is (w, 0), in value. Bounds at hi >= 1024 or
    lo < -1074 raise DomainError, and so does a nonzero w_i outside the
    normal range. For two nonzero a_i that is exact: the root modulus 2^hi
    is beyond float64. For more, Fujiwara's bounds 2^(hi+1) and 2^(lo-1) may
    pass the range while every root is in it, as (t + 1e308)(t + 1) is, so
    the callers that form the roots 2^e u (``scale_roots``) raise where one
    of them leaves float64. e can reach 1024, where 2.0 ** e overflows:
    ``ldexp_complex`` scales by 2^e.
    """
    n = len(p) - 1
    if n <= WINDOW // 2:    # above, 2^(WINDOW/n - 2) < 1 and no spread passes
        mags = sorted(map(abs, p.tolist()))
        smallest = mags[mags.count(0.0)] if mags[-1] else 1.0     # 1.0 keeps the zero polynomial
        if (2.0 ** -WINDOW <= smallest and mags[-1] <= 2.0 ** WINDOW
                and mags[-1] <= smallest * 2.0 ** (WINDOW / max(n, 1) - 2)):
            return p, 0
    nonzero = p.nonzero()[0]
    if not nonzero.size:
        return p, 0
    moduli = np.abs(p[nonzero])
    # log2|a_i| as x + log2|m| for a_i = m 2^x, 1/2 <= |m| < 1: w shares every m,
    # so its bounds repeat these less e. np.log2 may differ from math.log2 by CPU
    mants, exps = np.frexp(moduli)
    logm = np.array(list(map(math.log2, mants.tolist())))
    up = (exps[:-1] - exps[-1] + (logm[:-1] - logm[-1])) / (nonzero[-1] - nonzero[:-1])
    down = (exps[0] - exps[1:] + (logm[0] - logm[1:])) / (nonzero[1:] - nonzero[0])
    hi, lo = (float(up.max()), float(down.min())) if up.size else (0.0, 0.0)
    if (2.0 ** -WINDOW <= moduli.min() and moduli.max() <= 2.0 ** WINDOW
            and int(nonzero[-1]) * (max(hi, -lo) + 1) <= WINDOW):
        return p, 0
    if hi >= 1024 or lo < -1074:
        raise DomainError("a root modulus lies beyond the float64 range")
    e = round((hi + lo) / 2) if abs(hi + lo) > 2 else 0
    exps = exps + nonzero * e
    if exps.min() - exps.max() < -1021:   # 2^-1022 = (1/2) 2^-1021 is the least normal
        raise DomainError("the coefficients span more than float64 holds")
    return np.ldexp(p, np.arange(n + 1) * e - exps.max()), e


def ldexp_complex(z, e: int) -> np.ndarray:
    """z 2^e for complex ``z`` (a scalar or an array), as a complex128 array
    of at least one dimension: each part is rounded once, so the product is
    exact while it stays normal, and an overflow reads inf without a warning.
    np.ldexp, since 2.0 ** e itself overflows at e = 1024, the exponent of a
    two-term working form whose roots lie in [2^1023.5, 2^1024)."""
    parts = np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)
    with np.errstate(over="ignore"):
        return np.ldexp(parts, e).view(np.complex128)


def scale_roots(u: np.ndarray, e: int) -> np.ndarray:
    """The roots 2^e u of p for the roots ``u`` of its working form (w, e),
    exact while each stays normal. Raises DomainError where a root leaves
    float64: a part of 2^e u overflows, or a nonzero u reads 0."""
    z = ldexp_complex(u, e)
    if not np.isfinite(z).all() or ((z == 0) & (u != 0)).any():
        raise DomainError("a root modulus lies beyond the float64 range")
    return z


def relative_residual(coeffs, z) -> float:
    """|p(z)| / sum|a_i||z|^i (Horner's running-error scale); ~eps at a root.
    Evaluated as w at z / 2^e for ``working_form`` (w, e) of the finite
    ``coeffs``, which gives the same value wherever both stay in range.

    An overflow of ``horner`` raises DomainError, as do coefficients that
    ``working_form`` refuses.
    """
    w, e = working_form(np.asarray(coeffs, dtype=np.float64))
    u = complex(z)
    if e:
        u = complex(ldexp_complex(u, -e)[0])     # exact while z / 2^e is normal
    value, scale = horner(w.tolist(), u)
    value = _modulus(value)
    if not math.isfinite(value + scale):
        raise DomainError(f"the residual at |z| = {_modulus(complex(z))!r} overflows float64")
    return value / scale if scale else 0.0


def _modulus(z: complex) -> float:
    """abs(z), or inf where the modulus leaves float64 and abs raises
    OverflowError (numpy's abs reads inf there). Not math.hypot: it rounds
    differently from abs in the last bit and is slower on scalars."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def classify_signs(values, slack=0.0) -> SignClass:
    """The package's one sign rule: POSITIVE when every value is above its
    slack, NONNEGATIVE when every value is at least -slack, else MIXED.

    ``slack`` (a scalar or one per value) is 0 for exact coefficients, read
    literally, and the error bound of a computed value. Raises DomainError
    for a non-finite value or slack. Both are converted to float64 arrays,
    broadcast as numpy compares them, and decided as Python floats, which on
    13 values takes 2.8 us against 7.3 us for the array comparisons.
    """
    arr = np.asarray(values, dtype=np.float64)
    slack = np.asarray(slack, dtype=np.float64)
    a, s = arr.ravel().tolist(), slack.ravel().tolist()
    if not (all(map(math.isfinite, a)) and all(map(math.isfinite, s))):
        raise DomainError("signs are only decided for finite values and slack")
    if slack.ndim == 0:
        s *= len(a)
    elif slack.shape != arr.shape:
        shape = np.greater(arr, slack).shape    # or numpy's broadcast error
        a, s = (np.broadcast_to(x, shape).ravel().tolist() for x in (arr, slack))
    if all(map(operator.gt, a, s)):
        return SignClass.POSITIVE
    if all(map(operator.ge, a, map(operator.neg, s))):
        return SignClass.NONNEGATIVE
    return SignClass.MIXED


def principal_arg(z: complex) -> float:
    """Argument in (-pi, pi]; exactly pi for negative reals, 0 for z = 0."""
    a = math.atan2(z.imag, z.real)
    if a == -math.pi:
        return math.pi
    return a


def from_polar(r: float, alpha: float) -> complex:
    """r e^{i alpha}. Raises DomainError for a NaN or infinite ``alpha``,
    which has no direction (math.cos(inf) raises ValueError)."""
    if not math.isfinite(alpha):
        raise DomainError(f"alpha={alpha!r} is not finite")
    return complex(r * math.cos(alpha), r * math.sin(alpha))


def is_conjugate_closed(values, tol: float = 1e-9) -> bool:
    """True if the complex multiset maps to itself under conjugation.

    Greedy pairing: every value must have an unmatched partner within
    ``tol * (1 + |value|)`` of its conjugate. The pairing runs on Python
    complex numbers; a modulus beyond float64 reads inf, so such a distance
    is no match and such a value's reach is inf.
    """
    vals = np.asarray(values, dtype=np.complex128).tolist()
    used = [False] * len(vals)
    for i, v in enumerate(vals):
        if used[i]:
            continue
        target = v.conjugate()
        best, best_d = -1, math.inf
        for j, w in enumerate(vals):
            if used[j]:
                continue
            d = _modulus(w - target)
            if d < best_d:
                best, best_d = j, d
        if best < 0 or best_d > tol * (1.0 + _modulus(v)):
            return False
        used[i] = True
        used[best] = True
    return True


def parse_complex(obj) -> complex:
    """Parse the wire form of a complex scalar.

    Accepts a plain number (real entry) or an object carrying exactly one of
    the two views: ``{"re": x, "im": y}`` or ``{"r": m, "alpha": a}``, whose
    fields are plain numbers. Raises DomainError for anything else, booleans
    included.
    """
    if not isinstance(obj, dict):
        return complex(_real(obj), 0.0)
    keys = set(obj)
    if keys == {"re", "im"}:
        return complex(_real(obj["re"]), _real(obj["im"]))
    if keys == {"r", "alpha"}:
        return from_polar(_real(obj["r"]), _real(obj["alpha"]))
    raise DomainError(
        "complex scalar must have exactly the keys {re, im} or {r, alpha}, "
        f"got {sorted(keys)}"
    )


def _real(value) -> float:
    """A wire-form number as a float; DomainError for any other value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError("a number is outside the float64 range")


def complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}
