"""Hot numeric kernels: the simultaneous root iteration and the minor sums.

Two inner loops dominate the randomized campaigns: the simultaneous
(Aberth-Ehrlich) root iteration and the 2^n principal-minor enumeration.
Both are numpy code, one implementation each; ``roots`` chooses the
iteration's starts. On arrays this small a sweep costs mostly numpy call
overhead, so the common sweep runs without zero guards; a sweep whose new
residuals read NaN or inf (a zero the guards would catch, or an overflow) is
done again by the guarded sweep, with bit-identical results. The minors come
from recursive Schur complements (MAT2PM), O(2^n) operations for all
2^n - 1 of them, with a pseudo-pivot in place of any pivot near zero.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Sweeps after the residual tolerance trips. A residual at the rounding level
# can still leave clustered roots far off: at 4 * deg * eps, the eigenvalues
# of a clustered n = 12 characteristic polynomial ended 2.5e-3 * rho from
# LAPACK's with no polish sweep and 4.4e-5 * rho with one.
POLISH_SWEEPS = 1

# A principal-minor pivot at or below this multiple of the max row norm gets
# a pseudo-pivot. Dividing by a pivot p amplifies rounding by about norm/|p|.
# On 6x6 matrices with one pivot set to 10^-j * norm (j = 0..16) or 0, a floor
# of 1e-8 left minors up to 1.8e-12 * norm^k from 50-digit values; 1e-3 kept
# them within 2e-16 * norm^k.
_PIVOT_FLOOR = 1e-3


def aberth_iterate(coeffs, z0, max_iters, tol):
    """Simultaneous root iteration; returns (roots, residuals, iterations).

    ``coeffs`` are ascending coefficients, real or complex, with nonzero
    constant and leading terms (so the scale below is at least |a_0| > 0);
    ``z0`` the initial guesses. Iterates full Jacobi sweeps until the worst
    relative residual |p(z)| / sum|a_i||z|^i (Horner's running-error bound,
    Bini 1996) drops to ``tol`` or ``max_iters`` sweeps have run, then runs
    ``POLISH_SWEEPS`` more sweeps if it dropped, in which a root keeps its
    new iterate only where its residual is no larger than before, so the
    polish cannot undo convergence. ``iterations`` counts the sweeps before
    the polish.

    Each sweep and the evaluation after it first run unguarded, as a few
    ufunc calls on buffers allocated once per call. Every zero that the
    guarded sweep catches (coincident iterates, p' = 0 and 1 - w*s = 0)
    leaves a NaN or inf among the new residuals, as does an overflow. Only
    then is the sweep done again, from the same (z, p, p'), guarded. Where no
    guard fires, both do the same arithmetic in the same order, so the
    results are bit for bit those of the guarded sweep alone. A redone step
    counts as one sweep.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    deg = coeffs.size - 1
    # column 0 evaluates p, column 1 (set below) p', from one powers matrix
    pair = np.zeros((deg + 1, 2), dtype=np.complex128)
    pair[:, 0] = coeffs
    abs_coeffs = np.abs(coeffs)
    powers = np.ones((deg, deg + 1), dtype=np.complex128)
    abs_powers = np.empty((deg, deg + 1))
    diff = np.empty((deg, deg), dtype=np.complex128)
    diagonal = diff.reshape(-1)[:: deg + 1]      # a view: writes land in diff
    z = np.array(z0, dtype=np.complex128)

    def _eval(zz):
        powers[:, 1:] = zz[:, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        values = powers.dot(pair)
        p, dp = values[:, 0], values[:, 1]     # unpacking values.T iterates: slower
        return p, dp, np.abs(p) / np.abs(powers, out=abs_powers).dot(abs_coeffs)

    def _sweep(zz, p, dp):
        np.subtract(zz[:, None], zz, out=diff)
        diagonal.fill(np.inf)
        s = np.add.reduce(np.divide(1.0, diff, out=diff), axis=1)
        w = p / dp
        return zz - w / (1.0 - w * s)

    def _guarded_sweep(zz, p, dp):
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

    def _step(zz, p, dp):
        znew = _sweep(zz, p, dp)
        p_new, dp_new, resid = _eval(znew)
        r = resid.tolist()
        if math.isfinite(sum(r)):       # else NaN or inf: a guard case or overflow
            return znew, p_new, dp_new, resid, max(r)
        znew = _guarded_sweep(zz, p, dp)
        p_new, dp_new, resid = _eval(znew)
        return znew, p_new, dp_new, resid, np.maximum.reduce(resid)

    # iterates whose powers overflow leave non-finite residuals, which the
    # caller turns into DomainError; numpy need not warn on the way there,
    # nor on the unguarded divisions by zero that send a step to the redo
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pair[:-1, 1] = coeffs[1:] * np.arange(1, deg + 1)
        p, dp, resid = _eval(z)
        worst = np.maximum.reduce(resid)
        iters = 0
        while iters < max_iters and worst > tol:
            z, p, dp, resid, worst = _step(z, p, dp)
            iters += 1
        if worst <= tol:
            for sweep in range(1, POLISH_SWEEPS + 1):
                zn, pn, dpn, rn, _ = _step(z, p, dp)
                # a root keeps its polished iterate only where the residual
                # did not grow: the sweep can scatter a tight cluster
                keep = rn <= resid
                if keep.all():
                    z, p, dp, resid = zn, pn, dpn, rn
                    continue
                z, resid = np.where(keep, zn, z), np.where(keep, rn, resid)
                if sweep < POLISH_SWEEPS:       # only a next sweep reads p and p'
                    p, dp = np.where(keep, pn, p), np.where(keep, dpn, dp)
    return z, resid, iters


@functools.lru_cache(maxsize=16)
def _size_groups(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bitmasks 1 .. 2^n - 1 ordered by subset size, and the offset of
    each size's group in that order (read-only; shared by every call).
    The 16 most recent n stay cached, so every n up to the default cap of 12
    does: building the grouping takes about a fifth of a call at n = 12."""
    sizes = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        sizes = np.concatenate([sizes, sizes + 1])     # mask | 1 << l adds one
    order = np.argsort(sizes, kind="stable")[1:]
    starts = np.cumsum([0] + [math.comb(n, k) for k in range(1, n)])
    order.setflags(write=False)
    starts.setflags(write=False)
    return order, starts


def _minors_by_mask(a: np.ndarray) -> np.ndarray:
    """Every principal minor of ``a``; entry ``mask`` is the minor on the
    rows and columns whose bits are set in ``mask`` (entry 0, the empty set,
    is 1).

    MAT2PM (Griffin & Tsatsomeros, Linear Algebra Appl. 419, 2006), level by
    level. Level l holds, for each subset T of 0..l-1, the Schur complement
    of A[T, T] in the rows and columns T and l..n-1, stacked along the last
    axis at position mask(T). Its [0, 0] entry is the pivot: the minor of
    T + {l} is the minor of T times it. The child that leaves l out is the
    trailing block, the child that takes it in is the trailing block minus
    the pivot row and column's outer product over the pivot.

    A pivot at or below _PIVOT_FLOOR times the max row norm is raised by a
    shift s (the norm) before it is used, as the paper's pseudo-pivot: the
    subtree that takes l in then holds the minors of A with a_ll + s. A minor
    is affine in a_ll, so each of them is corrected, deepest level first, by
    subtracting s times the minor without l, which sits in the other subtree
    at the same position.
    """
    n = a.shape[0]
    rho = float(np.max(np.sum(np.abs(a), axis=1)))
    shift = rho if rho > 0 else 1.0        # a zero matrix: every pivot is 0
    minors = np.empty(1 << n, dtype=np.complex128)
    minors[0] = 1.0
    stack = a[:, :, None]
    shifts = []
    for l in range(n):
        half = 1 << l
        piv = stack[0, 0]
        small = np.abs(piv) <= _PIVOT_FLOOR * rho
        if small.any():
            s = np.where(small, shift, 0.0)
            piv = piv + s
            shifts.append((l, s))
        np.multiply(minors[:half], piv, out=minors[half : 2 * half])
        if l < n - 1:
            nxt = np.empty((n - l - 1, n - l - 1, 2 * half), dtype=np.complex128)
            exc, inc = nxt[:, :, :half], nxt[:, :, half:]
            exc[...] = stack[1:, 1:]
            np.multiply(stack[1:, :1], stack[:1, 1:] / piv, out=inc)
            np.subtract(exc, inc, out=inc)
            stack = nxt
    for l, s in reversed(shifts):
        cols = np.flatnonzero(s)
        # mask = (high << (l + 1)) | (bit l << l) | low, low = the node's T
        split = minors.reshape(-1, 2, 1 << l)
        split[:, 1, cols] -= s[cols] * split[:, 0, cols]
    return minors


def minor_sums(a):
    """Principal-minor aggregates of a complex square matrix.

    Returns ``(e_sums, min_re, max_im)`` where ``e_sums[k-1]`` is the sum of
    all size-k principal minors and ``min_re[k-1]`` / ``max_im[k-1]`` are the
    extreme real part and |imaginary part| among size-k minors. All 2^n - 1
    minors come from one pass of recursive Schur complements
    (``_minors_by_mask``) in O(2^n) operations. The tests hold each within
    1e-13 * (max row norm)^k of an LU or 50-digit determinant, on random,
    complex, zero-pivot and singular matrices.
    """
    a = np.asarray(a, dtype=np.complex128)
    order, starts = _size_groups(a.shape[0])
    by_size = _minors_by_mask(a)[order]
    return (np.add.reduceat(by_size, starts),
            np.minimum.reduceat(by_size.real, starts),
            np.maximum.reduceat(np.abs(by_size.imag), starts))


def backend_name() -> str:
    """Name of the kernel implementation, for the benchmark's environment record."""
    return "numpy"
