"""Hot numeric kernels: the simultaneous root iteration and the minor sums.

Two inner loops dominate the randomized campaigns: the simultaneous
(Aberth-Ehrlich) root iteration and the 2^n principal-minor enumeration.
Both are numpy code, one implementation each; ``roots`` chooses the
iteration's starts. On arrays this small numpy's call overhead dominates: on
the cot suite (2-core x86_64) a sweep costs 13 us at degree 6 and 15 us at 12,
and a call's set-up with its evaluation at z0 14 and 15 us (``roots`` has the
whole solve). So the common sweep runs without zero guards; a sweep whose new
residuals read NaN or inf (a zero the guards would catch, or an overflow) is
done again by the guarded sweep, with bit-identical results. The minors come
from recursive Schur complements (MAT2PM), O(2^n) operations for all
2^n - 1 of them, with a pseudo-pivot in place of any pivot near zero. A
level tests all its pivots for a small one with one reduction, builds the
mask of small pivots only when one is, and joins the trailing block and its
Schur update into the next level's stack with one concatenate.
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

# A principal-minor pivot at or below this multiple of its scale (see
# _minors_by_mask) gets a pseudo-pivot. Dividing by a pivot p amplifies
# rounding by about norm/|p|. On 6x6 matrices with one pivot set to
# 10^-j * norm (j = 0..16) or 0, a floor of 1e-8 left minors up to
# 1.8e-12 * norm^k from 50-digit values; 1e-3 kept them within 2e-16 * norm^k.
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

    One loop evaluates p, p' and the residuals, at z0 and after each sweep,
    on buffers allocated once per call and never zero-filled. A sweep first
    runs unguarded, as a few ufunc calls. Every zero that ``_guarded_sweep``
    catches (coincident iterates, p' = 0 and 1 - w*s = 0) leaves a NaN or inf
    among the new residuals, as does an overflow. Only then is the sweep done
    again, from the same (z, p, p'), guarded. Where no guard fires, both do
    the same arithmetic in the same order, so the results are bit for bit
    those of the guarded sweep alone. A redone step counts as one sweep.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    deg = coeffs.size - 1
    # column 0 evaluates p, column 1 p', from one powers matrix with column 0 = 1
    pair = np.empty((deg + 1, 2), dtype=np.complex128)
    pair[:, 0], pair[-1, 1] = coeffs, 0.0
    abs_coeffs = np.abs(coeffs)
    powers = np.empty((deg, deg + 1), dtype=np.complex128)
    powers[:, 0] = 1.0
    abs_powers = np.empty((deg, deg + 1))
    diff = np.empty((deg, deg), dtype=np.complex128)
    diagonal = diff.reshape(-1)[:: deg + 1]      # a view: writes land in diff
    z = zn = np.array(z0, dtype=np.complex128)
    # pass 0 takes z0 as a sweep's result, from iters = -1; NaN fails any tol
    iters, polished, worst, guarded = -1, 0, math.nan, True

    # iterates whose powers overflow leave non-finite residuals, which the
    # caller turns into DomainError; numpy need not warn on the way there,
    # nor on the unguarded divisions by zero that send a step to the redo
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pair[:-1, 1] = coeffs[1:] * np.arange(1, deg + 1)
        while True:
            powers[:, 1:] = zn[:, None]
            np.multiply.accumulate(powers, axis=1, out=powers)
            values = powers.dot(pair)
            pn, dpn = values[:, 0], values[:, 1]     # unpacking values.T iterates: slower
            rn = np.abs(pn) / np.abs(powers, out=abs_powers).dot(abs_coeffs)
            r = rn.tolist()
            finite = math.isfinite(sum(r))      # else NaN or inf: a guard case or overflow
            if not (finite or guarded):
                zn, guarded = _guarded_sweep(z, p, dp), True
                continue
            if worst <= tol:
                polished += 1
                # a root keeps its polished iterate only where the residual
                # did not grow: the sweep can scatter a tight cluster
                keep = rn <= resid
                if keep.all():
                    z, p, dp, resid = zn, pn, dpn, rn
                else:
                    z, resid = np.where(keep, zn, z), np.where(keep, rn, resid)
                    if polished < POLISH_SWEEPS:    # only a next sweep reads p and p'
                        p, dp = np.where(keep, pn, p), np.where(keep, dpn, dp)
            else:
                z, p, dp, resid = zn, pn, dpn, rn
                worst = max(r) if finite else np.maximum.reduce(rn)
                iters += 1
            # sweep on while unconverged with sweeps left, or converged (worst
            # then stays as it is) with polish left; a NaN worst stops
            if not (worst > tol and iters < max_iters or worst <= tol and polished < POLISH_SWEEPS):
                break
            np.subtract(z[:, None], z, out=diff)
            diagonal.fill(np.inf)
            s = np.add.reduce(np.divide(1.0, diff, out=diff), axis=1)
            w = p / dp
            zn, guarded = z - w / (1.0 - w * s), False
    return z, resid, iters


def _guarded_sweep(z, p, dp):
    """aberth_iterate's sweep from (z, p, p'), guarded against each zero."""
    diff = z[:, None] - z
    diff[diff == 0] = np.inf      # the diagonal and coincident iterates
    s = (1.0 / diff).sum(1)
    # the guards build new arrays only when a zero actually occurs
    safe_dp = dp if dp.all() else np.where(dp == 0, 1.0, dp)
    w = p / safe_dp
    den = 1.0 - w * s
    if not den.all():
        den = np.where(den == 0, 1.0, den)
    znew = z - w / den
    if safe_dp is dp:
        return znew
    # p' vanished: an exact root (p = 0) stays, any other iterate is nudged
    # deterministically
    return np.where((dp == 0) & (p != 0), z * (1.0 + 1e-8) + 1e-8, znew)


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
    the pivot row and column's outer product over the pivot; one
    concatenate joins the two, with no separate copy of the trailing block.

    Pivot l is judged in its own scale s = min(|A[l, :]|_1, |A[:, l]|_1), or
    1 for a zero row or column, not in the largest row norm of A: a row or
    column scaled far above the others would make every other pivot read as
    small. The level first compares its smallest pivot magnitude with
    _PIVOT_FLOOR * s, by an fmin reduction that skips NaN, and builds the
    mask of small pivots only when that test holds. A pivot at or below the
    floor is raised by s before it is used, as the paper's pseudo-pivot: the
    subtree that takes l in then holds the minors of A with a_ll + s. A minor
    is affine in a_ll, so each of them is corrected, deepest level first, by
    subtracting s times the minor without l, which sits in the other subtree
    at the same position.
    """
    n = a.shape[0]
    mags = np.abs(a)
    scales = np.minimum(mags.sum(axis=1), mags.sum(axis=0)).tolist()
    minors = np.empty(1 << n, dtype=np.complex128)
    minors[0] = 1.0
    stack = a[:, :, None]
    shifts = []
    for l, scale in enumerate(scales):
        scale = scale or 1.0                # a zero row or column: every pivot is 0
        half = 1 << l
        piv = stack[0, 0]
        piv_abs, floor = np.abs(piv), _PIVOT_FLOOR * scale
        # fmin skips NaN, so a NaN pivot cannot hide a small one
        if np.fmin.reduce(piv_abs) <= floor:
            s = np.where(piv_abs <= floor, scale, 0.0)
            piv = piv + s
            shifts.append((l, s))
        np.multiply(minors[:half], piv, out=minors[half : 2 * half])
        if l < n - 1:
            trail = stack[1:, 1:]
            stack = np.concatenate((trail, trail - stack[1:, :1] * (stack[:1, 1:] / piv)),
                                   axis=2)
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
