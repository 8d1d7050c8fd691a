from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorpoly import campaigns, kernels, roots
from sectorpoly.pmatrix import generate_p_matrix


class TestNumpyPath:
    def test_solves_quadratic(self):
        c = np.array([1.0, 0.0, 1.0], dtype=np.complex128)
        z, resid, iters = kernels.aberth_iterate(c, roots.initial_guesses(c), 500, 1e-12)
        np.testing.assert_allclose(np.sort_complex(z), [-1j, 1j], atol=1e-10)
        assert float(np.max(resid)) <= 1e-12

    def test_minor_sums_identity(self):
        e, min_re, max_im = kernels.minor_sums(np.eye(4, dtype=np.complex128))
        np.testing.assert_allclose(e, [4, 6, 4, 1], atol=1e-14)
        np.testing.assert_allclose(min_re, [1, 1, 1, 1], atol=1e-14)
        assert float(np.max(max_im)) == 0.0



def _aberth_reference(coeffs, z0, max_iters, tol):
    """Reference: the guarded sweep on every step, as aberth_iterate ran
    before its unguarded common path."""
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
            for _ in range(kernels.POLISH_SWEEPS):
                zn = _sweep(z, p, dp)
                pn, dpn, rn = _eval(zn)
                keep = rn <= resid      # the polish rule of aberth_iterate
                z, p, dp, resid = (np.where(keep, new, old) for new, old in
                                   ((zn, z), (pn, p), (dpn, dp), (rn, resid)))
    return z, resid, iters


def _assert_same_bits(coeffs, z0, max_iters, tol):
    roots, resid, iters = kernels.aberth_iterate(coeffs, z0, max_iters, tol)
    ref_roots, ref_resid, ref_iters = _aberth_reference(coeffs, z0, max_iters, tol)
    assert iters == ref_iters
    for got, ref in ((roots, ref_roots), (resid, ref_resid)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    return iters, resid


def _solves(monkeypatch, suite, cases, seed):
    """The (coeffs, z0, max_iters, tol) of every solve in one campaign."""
    calls = []
    iterate = kernels.aberth_iterate

    def recorded(coeffs, z0, max_iters, tol):
        calls.append((np.array(coeffs), np.array(z0), max_iters, tol))
        return iterate(coeffs, z0, max_iters, tol)

    monkeypatch.setattr(kernels, "aberth_iterate", recorded)
    campaigns.run_suite(suite, cases, seed)
    monkeypatch.undo()
    return calls


CAMPAIGN_CASES = {"cot": 200, "kellogg": 200, "witness": 1000}


def _tol(deg):
    return 4 * deg * np.finfo(np.float64).eps


class TestAberthMatchesGuardedReference:
    @pytest.mark.parametrize("suite", ["cot", "kellogg", "witness"])
    def test_campaign_solves(self, monkeypatch, suite):
        # witness solves only the quotients of off-boundary cores of degree 5
        # and up, so it needs more cases to reach the kernel 50 times
        calls = _solves(monkeypatch, suite, CAMPAIGN_CASES[suite], 5)
        assert len(calls) >= 50
        for call in calls:
            _assert_same_bits(*call)

    def test_campaign_solves_with_two_polish_sweeps(self, monkeypatch):
        # most kellogg solves keep some old iterates in the polish; a second
        # polish sweep then reads p and p' of the kept and the new iterates
        calls = _solves(monkeypatch, "kellogg", 50, 5)
        monkeypatch.setattr(kernels, "POLISH_SWEEPS", 2)
        for call in calls:
            _assert_same_bits(*call)

    @pytest.mark.parametrize("coeffs, z0, stalls", [
        ([1, 0, 1], [0, 2j], False),          # p'(0) = 0
        ([3, 0, 1], [1, -1], True),           # 1 - w * s = 0 on both iterates
        ([2, 3, 1], [1 + 1j, 1 + 1j], False),  # coincident iterates
    ])
    def test_guard_cases(self, coeffs, z0, stalls):
        c = np.asarray(coeffs, dtype=np.complex128)
        iters, _ = _assert_same_bits(c, np.asarray(z0, dtype=np.complex128), 500, _tol(2))
        assert (iters == 500) is stalls

    def test_overflow_keeps_iterations(self):
        # 1e-300 + 1e20 t^19 + t^20: the powers of the start near 1e20
        # overflow, so the residuals stay non-finite after the redo
        c = np.zeros(21, dtype=np.complex128)
        c[0], c[19], c[20] = 1e-300, 1e20, 1.0
        _, resid = _assert_same_bits(c, roots.initial_guesses(c), 500, _tol(20))
        assert not np.isfinite(resid).all()


def _minor_sums_by_loop(a):
    """Reference: each submatrix gathered on its own with np.ix_ and its
    determinant taken by LAPACK's partially pivoted LU, in 4096-subset
    batches per size."""
    n = a.shape[0]
    e_sums = np.zeros(n, dtype=np.complex128)
    min_re = np.full(n, np.inf)
    max_im = np.zeros(n)
    for k in range(1, n + 1):
        subs = list(combinations(range(n), k))
        for lo in range(0, len(subs), 4096):
            batch = subs[lo : lo + 4096]
            stack = np.empty((len(batch), k, k), dtype=np.complex128)
            for m, idx in enumerate(batch):
                ix = np.asarray(idx)
                stack[m] = a[np.ix_(ix, ix)]
            dets = np.linalg.det(stack)
            e_sums[k - 1] += dets.sum()
            min_re[k - 1] = min(min_re[k - 1], float(dets.real.min()))
            max_im[k - 1] = max(max_im[k - 1], float(np.abs(dets.imag).max()))
    return e_sums, min_re, max_im


def _subset(mask, n):
    return [i for i in range(n) if mask >> i & 1]


def _minors_by_lu(a):
    """Reference: every principal minor by LU, indexed by subset bitmask."""
    n = a.shape[0]
    out = np.ones(1 << n, dtype=np.complex128)
    for mask in range(1, 1 << n):
        ix = _subset(mask, n)
        out[mask] = np.linalg.det(a[np.ix_(ix, ix)])
    return out


def _minors_by_mpmath(a):
    """Reference: every principal minor to 50 digits, indexed by bitmask."""
    n = a.shape[0]
    out = [mpmath.mpc(1)]
    with mpmath.workdps(50):
        for mask in range(1, 1 << n):
            ix = _subset(mask, n)
            out.append(mpmath.det(mpmath.matrix([[a[i, j] for j in ix] for i in ix])))
    return out


def _scale_by_mask(a):
    """(max row norm)^k for the size k of each bitmask."""
    n = a.shape[0]
    rho = float(np.max(np.sum(np.abs(a), axis=1)))
    return np.array([rho ** bin(mask).count("1") for mask in range(1 << n)])


# |computed - reference| <= AGREE * (max row norm)^k for every size-k minor;
# MINOR_TOL = 1e-9 classifies at that scale
AGREE = 1e-13


def _assert_minors_agree(a):
    a = np.asarray(a, dtype=np.complex128)
    got = kernels._minors_by_mask(a)
    assert np.all(np.abs(got - _minors_by_lu(a)) <= AGREE * _scale_by_mask(a))
    return got


class TestMinorSumsAgreement:
    @pytest.mark.parametrize("n", [*range(1, 13), 15])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_agrees_with_lu_loop(self, n, kind):
        rng = np.random.default_rng(100 + n)
        a = rng.normal(size=(n, n)).astype(np.complex128)
        if kind == "complex":
            a += 1j * rng.normal(size=(n, n))
        bound = AGREE * np.max(np.sum(np.abs(a), axis=1)) ** np.arange(1, n + 1)
        for got, want in zip(kernels.minor_sums(a), _minor_sums_by_loop(a)):
            assert np.all(np.abs(got - want) <= bound)

    def test_minors_are_indexed_by_bitmask(self):
        a = np.diag([2.0, 3.0, 5.0]).astype(np.complex128)
        np.testing.assert_array_equal(kernels._minors_by_mask(a),
                                      [1, 2, 3, 6, 5, 10, 15, 30])


class TestPivotEdges:
    def test_rotation_has_exact_minors(self):
        # both pivots on the way to det = 1 are exact zeros
        e, min_re, max_im = kernels.minor_sums(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(e, [0, 1])
        np.testing.assert_array_equal(min_re, [0, 1])
        np.testing.assert_array_equal(max_im, [0, 0])

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_zero_diagonal(self, n, kind):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if kind == "complex" else 0)
        np.fill_diagonal(a, 0.0)
        got = _assert_minors_agree(a)
        assert np.all(got[[1 << i for i in range(n)]] == 0)

    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_rank_deficient(self, rank):
        rng = np.random.default_rng(rank)
        u = rng.normal(size=(7, rank))
        a = u @ rng.normal(size=(rank, 7))
        got = _assert_minors_agree(a)
        sizes = np.array([bin(mask).count("1") for mask in range(1 << 7)])
        assert np.all(np.abs(got[sizes > rank]) <= AGREE * _scale_by_mask(a)[sizes > rank])

    def test_singular_leading_block(self):
        # the pivot of {0, 1} after eliminating 0 is 4 - 2 * 2 / 1 = 0
        a = np.random.default_rng(7).normal(size=(6, 6))
        a[:2, :2] = [[1.0, 2.0], [2.0, 4.0]]
        got = _assert_minors_agree(a)
        assert got[0b11] == 0

    @pytest.mark.parametrize("where", [0, 2])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_pivot_sweep_against_mpmath(self, where, kind):
        # the pivot of index `where` after eliminating every earlier index
        # is set to 10^-j * rho, j = 0..16, and to 0
        rng = np.random.default_rng(11)
        base = rng.normal(size=(5, 5)) + (1j * rng.normal(size=(5, 5)) if kind == "complex" else 0)
        rho = np.max(np.sum(np.abs(base), axis=1))
        for target in [10.0 ** -j * rho for j in range(17)] + [0.0]:
            a = base.astype(np.complex128)
            head = a[:where, :where]
            schur = a[where, where] - a[where, :where] @ np.linalg.solve(head, a[:where, where])
            a[where, where] += target - schur
            got = kernels._minors_by_mask(a)
            want = _minors_by_mpmath(a)
            err = np.array([float(abs(mpmath.mpc(g) - w)) for g, w in zip(got, want)])
            assert np.all(err <= AGREE * _scale_by_mask(a)), target

    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_ternary_matrices_give_exact_minors(self, n, seed):
        # entries in {-1, 0, 1}: many exact zero pivots; every minor is an
        # integer, which the rounded LU determinant gives exactly
        a = np.random.default_rng(seed).integers(-1, 2, size=(n, n)).astype(np.complex128)
        got = _assert_minors_agree(a)
        np.testing.assert_array_equal(np.round(got.real), np.round(_minors_by_lu(a).real))



def _minors_reference(a):
    """Reference: MAT2PM as _minors_by_mask ran before each level joined its
    trailing block and Schur update with one concatenate. The child stack was
    an np.empty filled through two views, and every level built the mask of
    small pivots."""
    n = a.shape[0]
    mags = np.abs(a)
    scales = np.minimum(mags.sum(axis=1), mags.sum(axis=0)).tolist()
    minors = np.empty(1 << n, dtype=np.complex128)
    minors[0] = 1.0
    stack = a[:, :, None]
    shifts = []
    for l, scale in enumerate(scales):
        scale = scale or 1.0
        half = 1 << l
        piv = stack[0, 0]
        small = np.abs(piv) <= kernels._PIVOT_FLOOR * scale
        if small.any():
            s = np.where(small, scale, 0.0)
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
        split = minors.reshape(-1, 2, 1 << l)
        split[:, 1, cols] -= s[cols] * split[:, 0, cols]
    return minors


class TestMinorsMatchReference:
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["real", "complex", "zero_row", "zero_pivots",
                                 "rank_one", "scaled_row"]))
    @settings(max_examples=400, deadline=None)
    def test_bit_for_bit(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)).astype(np.complex128)
        i = int(rng.integers(0, n))
        if kind == "complex":
            a += 1j * rng.normal(size=(n, n))
        elif kind == "zero_row":
            a[i] = 0.0
        elif kind == "zero_pivots":     # a zero diagonal and a singular leading block
            np.fill_diagonal(a, 0.0)
            if n >= 2:
                a[:2, :2] = [[1.0, 2.0], [2.0, 4.0]]
        elif kind == "rank_one":
            a = np.outer(rng.normal(size=n), rng.normal(size=n)).astype(np.complex128)
        elif kind == "scaled_row":
            a[i] *= 10.0 ** (200 * int(rng.choice([-1, 1])))
        got = kernels._minors_by_mask(a)
        want = _minors_reference(a)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()      # the signs of zeros too


def _e_sums_by_mask(minors, n):
    """E_k, the sum of the size-k entries of a bitmask-indexed minor array."""
    sizes = np.array([bin(mask).count("1") for mask in range(1 << n)])
    return np.array([minors[sizes == k].sum() for k in range(1, n + 1)])


class TestPivotScale:
    """Each pivot is judged in its own row and column scale, so scaling one
    row or column of A scales only the minors it enters."""

    def test_one_large_diagonal_entry(self):
        # each unit pivot is at its own scale; against the max row norm,
        # 1000, each would read as small and take a shift of 1000
        e, _, _ = kernels.minor_sums(np.diag([1000.0, 1, 1, 1, 1, 1]))
        np.testing.assert_array_equal(e, [1005, 5010, 10010, 10005, 5001, 1000])

    @pytest.mark.parametrize("factor", [1e3, 1e6])
    @pytest.mark.parametrize("side", ["row", "column"])
    def test_one_scaled_row_or_column(self, side, factor):
        # every minor of a P matrix is positive, so each E_k of D A (A D),
        # D = diag(1, .., factor, .., 1), is the sum of the minors of A with
        # those that take index i in times factor, with no cancellation
        worst = 0.0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 9))
            i = int(rng.integers(0, n))
            a = generate_p_matrix(n, seed)
            scaled = a.copy()
            if side == "row":
                scaled[i, :] *= factor
            else:
                scaled[:, i] *= factor
            minors = kernels._minors_by_mask(a.astype(np.complex128))
            takes_i = (np.arange(1 << n) >> i) & 1 == 1
            want = _e_sums_by_mask(np.where(takes_i, factor * minors, minors), n)
            got = kernels.minor_sums(scaled)[0]
            worst = max(worst, float(np.max(np.abs(got - want) / want.real)))
        assert worst <= 1e-13      # 7.7e-16 measured

class TestSweepCount:
    @staticmethod
    def _campaign_sweeps(monkeypatch, suite):
        # every sweep of every solve of a 500-case campaign, the polish too
        sweeps = []
        iterate = kernels.aberth_iterate

        def counted(coeffs, z0, max_iters, tol):
            out = iterate(coeffs, z0, max_iters, tol)
            converged = float(np.max(out[1])) <= tol
            sweeps.append(out[2] + (kernels.POLISH_SWEEPS if converged else 0))
            return out

        monkeypatch.setattr(kernels, "aberth_iterate", counted)
        report = campaigns.run_suite(suite, 500, 3)
        assert report.failures == 0
        assert len(sweeps) == 500
        return sweeps

    def test_cot_campaign_sweeps(self, monkeypatch):
        # Newton-polygon starts keep the sweep count flat in degree; the
        # former start circle of radius 1 + max|a_i/a_n| took a mean of 16.7
        # sweeps (max 106) on this campaign. A tolerance of 1e-12 and 3
        # polish sweeps took a mean of 8.5, 4 * deg * eps and 1 polish sweep
        # take 6.7
        sweeps = self._campaign_sweeps(monkeypatch, "cot")
        assert np.mean(sweeps) <= 7.5
        assert max(sweeps) <= 25

    def test_kellogg_campaign_sweeps(self, monkeypatch):
        # characteristic polynomials of P matrices: their roots cluster about
        # the centroid, away from 0. Circles about 0 took a mean of 9.32
        # sweeps (max 19) on this campaign, circles about the centroid 6.01
        # (max 12)
        sweeps = self._campaign_sweeps(monkeypatch, "kellogg")
        assert np.mean(sweeps) <= 7.0
        assert max(sweeps) <= 14
