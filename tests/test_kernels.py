import math
from itertools import combinations

import numpy as np
import pytest

from sectorpoly import campaigns, find_roots, kernels


class TestInitialGuesses:
    def test_two_term_radius(self):
        # hull edge 0 -> 2: radius (6/2)^(1/2)
        c = np.array([6.0, 0.0, 2.0], dtype=np.complex128)
        z0 = kernels.initial_guesses(c)
        np.testing.assert_allclose(np.abs(z0), math.sqrt(3.0), rtol=1e-12)
        assert len(z0) == 2

    def test_radius_follows_coefficient_scale(self):
        c = np.zeros(13, dtype=np.complex128)
        c[0], c[12] = 1e12, 1.0
        z0 = kernels.initial_guesses(c)
        np.testing.assert_allclose(np.abs(z0), 10.0, rtol=1e-12)
        assert len(z0) == 12

    def test_one_radius_per_hull_edge(self):
        # 1 + 1e6 t^2 + t^5: hull (0,0) -> (2,log 1e6) -> (5,0), with the
        # interior zeros a_1, a_3, a_4 left out
        c = np.array([1.0, 0.0, 1e6, 0.0, 0.0, 1.0], dtype=np.complex128)
        z0 = kernels.initial_guesses(c)
        np.testing.assert_allclose(np.sort(np.abs(z0)), [1e-3] * 2 + [100.0] * 3, rtol=1e-12)

    def test_points_below_the_hull_add_no_radius(self):
        # a_1 = 1 lies below the chord from (0, log 4) to (2, 0)
        c = np.array([4.0, 1.0, 1.0], dtype=np.complex128)
        np.testing.assert_allclose(np.abs(kernels.initial_guesses(c)), 2.0, rtol=1e-12)

    def test_zero_constant_term_gives_exact_zero_roots(self):
        c = np.array([0.0, 0.0, 2.0, 3.0, 1.0], dtype=np.complex128)   # t^2 (t+1)(t+2)
        z0 = kernels.initial_guesses(c)
        assert len(z0) == 4 and np.all(np.isfinite(z0))
        rs = find_roots(c.real)
        assert rs.converged
        assert np.count_nonzero(rs.roots == 0) == 2
        np.testing.assert_allclose(np.sort_complex(rs.roots[rs.roots != 0]), [-2.0, -1.0],
                                   atol=1e-12)

    def test_offbeat_rotation_breaks_axis_symmetry(self):
        c = np.array([1.0, 0.0, 1.0], dtype=np.complex128)
        z0 = kernels.initial_guesses(c)
        assert np.all(np.abs(z0.real) > 1e-3)
        assert np.all(np.abs(z0.imag) > 1e-3)


class TestNumpyPath:
    def test_solves_quadratic(self):
        c = np.array([1.0, 0.0, 1.0], dtype=np.complex128)
        z, resid, iters = kernels.aberth_iterate(c, kernels.initial_guesses(c), 500, 1e-12)
        np.testing.assert_allclose(np.sort_complex(z), [-1j, 1j], atol=1e-10)
        assert float(np.max(resid)) <= 1e-12

    def test_minor_sums_identity(self):
        e, min_re, max_im = kernels.minor_sums(np.eye(4, dtype=np.complex128))
        np.testing.assert_allclose(e, [4, 6, 4, 1], atol=1e-14)
        np.testing.assert_allclose(min_re, [1, 1, 1, 1], atol=1e-14)
        assert float(np.max(max_im)) == 0.0


def _minor_sums_by_loop(a):
    """Reference: each submatrix gathered on its own with np.ix_, in the
    subset order and 4096-subset chunks of minor_sums."""
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


class TestMinorSumsGather:
    @pytest.mark.parametrize("n", [*range(1, 9), 15])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_bitwise_equal_to_loop(self, n, kind):
        # n = 15 has C(15, 7) = 6435 subsets of size 7, which crosses a chunk
        rng = np.random.default_rng(100 + n)
        a = rng.normal(size=(n, n)).astype(np.complex128)
        if kind == "complex":
            a += 1j * rng.normal(size=(n, n))
        for got, want in zip(kernels.minor_sums(a), _minor_sums_by_loop(a)):
            assert np.array_equal(got, want)


class TestSweepCount:
    def test_cot_campaign_sweeps(self, monkeypatch):
        # Newton-polygon starts keep the sweep count flat in degree; the
        # former start circle of radius 1 + max|a_i/a_n| took a mean of 16.7
        # sweeps (max 106) on this campaign
        sweeps = []
        iterate = kernels.aberth_iterate

        def counted(coeffs, z0, max_iters, tol):
            out = iterate(coeffs, z0, max_iters, tol)
            sweeps.append(out[2])
            return out

        monkeypatch.setattr(kernels, "aberth_iterate", counted)
        report = campaigns.run_suite("cot", 500, 3)
        assert report.failures == 0
        assert len(sweeps) == 500
        assert np.mean(sweeps) <= 8
        assert max(sweeps) <= 25
