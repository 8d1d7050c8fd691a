"""Hot numeric kernels: the simultaneous root iteration and the minor sums.

Two inner loops dominate the randomized campaigns: the simultaneous
(Aberth-Ehrlich) root iteration and the 2^n principal-minor enumeration.
Both are numpy code, one implementation each. The iteration starts from
Bini's Newton-polygon points (``initial_guesses``), which put every start
near the modulus of a root, so the sweep count stays small at every degree
and coefficient scale.
"""

from __future__ import annotations

import math

import numpy as np

# Extra sweeps after the residual tolerance trips: they push the iterates
# from the stopping threshold to machine accuracy.
POLISH_SWEEPS = 3

# Angular offset of the starting points (Bini's sigma): keeps the starts of
# binomials such as t^n + c off the axes and off the roots of unity.
_START_ROTATION = 0.7


def initial_guesses(coeffs: np.ndarray) -> np.ndarray:
    """Starting points from the Newton polygon of the coefficients.

    Following Bini (Numer. Algorithms 13, 1996), take the upper convex hull of
    the points (i, log|a_i|) over the nonzero coefficients. A hull edge from
    vertex a to vertex b places b - a points on the circle of radius
    (|a_a| / |a_b|)^(1/(b-a)), the modulus the roots of a_a t^a + a_b t^b
    share. Each circle is rotated by 2*pi*b/deg plus a fixed offset, so that
    the circles do not line up and no start lies on an axis.

    Each leading zero coefficient (a_0 = 0, a_1 = 0, ...) is an exact zero
    root; its start is 0 itself, where p vanishes exactly.
    """
    deg = coeffs.size - 1
    nonzero = np.flatnonzero(coeffs)
    logs = np.log(np.abs(coeffs[nonzero])).tolist()
    hull: list[tuple[int, float]] = []
    for point in zip(nonzero.tolist(), logs):
        # pop the last vertex while it lies on or below the chord to `point`
        while len(hull) >= 2:
            (i0, y0), (i1, y1) = hull[-2], hull[-1]
            if (i1 - i0) * (point[1] - y0) < (point[0] - i0) * (y1 - y0):
                break
            hull.pop()
        hull.append(point)
    zero_roots = hull[0][0]       # the index of the first nonzero coefficient
    radii = [0.0] * zero_roots
    angles = [0.0] * zero_roots
    for (a, ya), (b, yb) in zip(hull, hull[1:]):
        count = b - a
        radius = math.exp((ya - yb) / count)
        offset = 2.0 * math.pi * b / deg + _START_ROTATION
        radii += [radius] * count
        angles += [2.0 * math.pi * m / count + offset for m in range(count)]
    return np.asarray(radii) * np.exp(1j * np.asarray(angles))


def aberth_iterate(coeffs, z0, max_iters, tol):
    """Simultaneous root iteration; returns (roots, residuals, iterations).

    ``coeffs`` are ascending complex128 coefficients with nonzero leading
    term; ``z0`` the initial guesses. Iterates full Jacobi sweeps until the
    worst relative residual |p(z)| / sum|a_i||z|^i (Horner's running-error
    bound, Bini 1996) drops to ``tol`` or ``max_iters`` sweeps have run.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    deg = coeffs.size - 1
    # column 0 evaluates p, column 1 evaluates p', from one powers matrix
    pair = np.zeros((deg + 1, 2), dtype=np.complex128)
    pair[:, 0] = coeffs
    pair[:-1, 1] = coeffs[1:] * np.arange(1, deg + 1)
    abs_coeffs = np.abs(coeffs)
    powers = np.ones((deg, deg + 1), dtype=np.complex128)
    z = np.array(z0, dtype=np.complex128)

    def _eval(zz):
        powers[:, 1:] = zz[:, None]
        powers.cumprod(axis=1, out=powers)
        p, dp = powers.dot(pair).T
        scale = np.abs(powers).dot(abs_coeffs)
        # scale 0 means z = 0 and a_0 = 0, an exact root: its residual reads 0
        resid = np.abs(p) / (scale if scale.all() else np.where(scale == 0, 1.0, scale))
        return p, dp, resid

    def _sweep(zz, p, dp):
        diff = zz[:, None] - zz
        diff[diff == 0] = np.inf      # the diagonal and coincident iterates
        s = (1.0 / diff).sum(1)
        # the guards build new arrays only when a zero actually occurs
        safe_dp = dp if dp.all() else np.where(dp == 0, 1.0, dp)
        w = p / safe_dp
        den = 1.0 - w * s
        if not den.all():
            den = np.where(den == 0, 1.0, den)
        znew = zz - w / den
        if safe_dp is dp:
            return znew
        # p' vanished: an exact root (p = 0) stays, any other iterate is
        # nudged deterministically
        return np.where((dp == 0) & (p != 0), zz * (1.0 + 1e-8) + 1e-8, znew)

    # iterates whose powers overflow leave non-finite residuals, which the
    # caller turns into DomainError; numpy need not warn on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        p, dp, resid = _eval(z)
        iters = 0
        while iters < max_iters and resid.max() > tol:
            z = _sweep(z, p, dp)
            iters += 1
            p, dp, resid = _eval(z)
        if resid.max() <= tol:
            for _ in range(POLISH_SWEEPS):
                z = _sweep(z, p, dp)
                p, dp, resid = _eval(z)
    return z, resid, iters


def minor_sums(a):
    """Principal-minor aggregates of a complex square matrix.

    Returns ``(e_sums, min_re, max_im)`` where ``e_sums[k-1]`` is the sum of
    all size-k principal minors and ``min_re[k-1]`` / ``max_im[k-1]`` are the
    extreme real part and |imaginary part| among size-k minors. Determinants
    come from LAPACK's partially pivoted LU, batched per size (in chunks to
    bound memory for large n).
    """
    from itertools import combinations

    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    e_sums = np.zeros(n, dtype=np.complex128)
    min_re = np.full(n, np.inf)
    max_im = np.zeros(n)
    chunk = 4096
    for k in range(1, n + 1):
        subs = np.array(list(combinations(range(n), k)))
        for lo in range(0, len(subs), chunk):
            part = subs[lo : lo + chunk]
            # one gather builds the whole (len(part), k, k) stack of submatrices
            dets = np.linalg.det(a[part[:, :, None], part[:, None, :]])
            e_sums[k - 1] += dets.sum()
            min_re[k - 1] = min(min_re[k - 1], float(dets.real.min()))
            max_im[k - 1] = max(max_im[k - 1], float(np.abs(dets.imag).max()))
    return e_sums, min_re, max_im


def backend_name() -> str:
    """Name of the kernel implementation, reported by the CLI and benchmark."""
    return "numpy"
