import math
import warnings

import numpy as np
import pytest

from sectorpoly import (
    DegenerateInput,
    DomainError,
    campaigns,
    find_roots,
    kernels,
    poly,
    roots,
    verify_cot,
)
from sectorpoly.poly import is_conjugate_closed, principal_arg


def _sorted(values):
    return np.sort_complex(np.asarray(values))


def _monic_from_roots(roots) -> np.ndarray:
    p = np.array([1.0 + 0.0j])
    for z in roots:
        p = np.convolve(p, np.array([-z, 1.0 + 0.0j]))
    return p


class TestFindRoots:
    def test_t2_plus_1(self):
        rs = find_roots([1, 0, 1])
        assert rs.converged
        np.testing.assert_allclose(_sorted(rs.roots), [-1j, 1j], atol=1e-12)

    def test_cube_roots_of_minus_one(self):
        rs = find_roots([1, 0, 0, 1])
        expected = _sorted([-1.0, np.exp(1j * math.pi / 3), np.exp(-1j * math.pi / 3)])
        np.testing.assert_allclose(_sorted(rs.roots), expected, atol=1e-10)

    def test_factored_cubic(self):
        rs = find_roots([-6, 11, -6, 1])
        np.testing.assert_allclose(_sorted(rs.roots), [1.0, 2.0, 3.0], atol=1e-9)

    def test_degree_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            find_roots([5])

    def test_roots_whose_powers_leave_float64_converge(self):
        # t^20 - 1e20 t^19 + 1: the 20th power of the root near 1e20 overflows,
        # and its residual read NaN; the working form's roots lie within
        # 2^-36 .. 2^36, and the other 19 roots keep their modulus 1e-20^(1/19)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rs = find_roots([1.0] + [0.0] * 18 + [-1e20, 1.0])
        assert rs.converged
        moduli = np.sort(np.abs(rs.roots))
        assert moduli[-1] == pytest.approx(1e20, rel=1e-15)
        np.testing.assert_allclose(moduli[:-1], 1e-20 ** (1 / 19), rtol=1e-14)

    def test_largest_root_beyond_the_powers_of_its_degree_converges(self):
        # a_n = 8.5e-4 and a largest root of 745, whose 112th power (1e322)
        # overflowed: the working form divides every root by 2^e
        coeffs = np.random.default_rng([112, 939]).uniform(-1, 1, 113)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rs = find_roots(coeffs)
        assert rs.converged
        expected = np.roots(coeffs[::-1])
        gaps = np.abs(rs.roots[:, None] - expected).min(axis=0)
        assert np.all(gaps <= 1e-12 * np.abs(expected))

    def test_overflowing_derivative_coefficient_does_not_warn(self):
        # p' = 2 + 2e308 t: 2 * 1e308 overflows, but the kernel only sees the
        # working form, whose coefficients lie below 1; the roots are
        # -1e-308 +- 1e-154 i
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rs = find_roots([1.0, 2.0, 1e308])
        assert rs.converged
        np.testing.assert_allclose(np.abs(rs.roots), [1e-154, 1e-154], rtol=1e-15)

    def test_residual_scale_beyond_float64_at_the_starts_converges(self):
        # 1e308 + 2t + t^2 has the roots -1 +- 1e154 i. The scale 1e308 +
        # 2|z| + |z|^2 of the coefficients as given overflows at its starts,
        # where |p(z)| / inf read 0; that of the working form does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rs = find_roots([1e308, 2.0, 1.0])
        assert rs.converged
        assert rs.roots.real.tolist() == pytest.approx([-1.0, -1.0], rel=1e-12)
        assert sorted(rs.roots.imag.tolist()) == pytest.approx([-1e154, 1e154], rel=1e-15)

    def test_radius_beyond_float64_raises(self):
        # 1 + 1e10 t + 1e-300 t^2 has a root near -1e310: its root bound
        # 2^(hi + 1) is beyond float64, which working_form refuses before
        # any start is drawn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond the float64 range"):
                find_roots([1.0, 1e10, 1e-300])

    def test_root_scaled_beyond_float64_raises(self):
        # 1e-310 t^2 - 0.012 t - 1.44e306 has the roots 1.94e308, beyond
        # float64, and -7.4e307. Its root bounds pass working_form (hi is
        # below 1024), and the solve converges in the working form; scaling
        # the roots back must not report an inf root
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond the float64 range"):
                find_roots([-1.44e306, -0.012, 1e-310])

    @pytest.mark.parametrize("coeffs", [[1e308, 1e308, 1.0], [1.0, 1.0, 1e-308]])
    def test_three_terms_at_the_top_of_float64(self, coeffs):
        # (t + 1e308)(t + 1) and its reversal: Fujiwara's bound passes 2^1023,
        # the roots -1 and -1e308 do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rs = find_roots(coeffs)
        assert rs.converged
        np.testing.assert_allclose(_sorted(rs.roots), [-1e308, -1.0], rtol=1e-15)

    @pytest.mark.parametrize("coeffs, expected", [
        ([2.0 ** 1023, 1.0], [-(2.0 ** 1023)]),
        ([1.0, 2.0 ** -1023], [-(2.0 ** 1023)]),
        ([1.7e308, 1.0], [-1.7e308]),          # working_form's e = 1024
        ([0.0, 2.0 ** -1074, 1.0], [0.0, -(2.0 ** -1074)]),
    ])
    def test_two_term_roots_at_the_ends_of_float64(self, coeffs, expected):
        # every root of a two-term polynomial has the modulus its working form
        # judges, representable here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rs = find_roots(coeffs)
        assert rs.converged
        assert rs.roots.tolist() == expected

    def test_exact_roots_keep_their_zero_residuals(self):
        # a zero residual at a root whose scale is finite is an exact root
        rs = find_roots([-4.0, 0.0, 1.0])
        assert rs.converged
        assert rs.residuals.tolist() == [0.0, 0.0]
        np.testing.assert_array_equal(_sorted(rs.roots), [-2.0, 2.0])

    @pytest.mark.parametrize("c", [2.0 ** 1000, 2.0 ** -1000, 1e308, 1e-310])
    def test_uniformly_scaled_coefficients(self, c):
        # c * p has the roots of p; beyond 2^-WINDOW .. 2^WINDOW both ways the
        # working form divides the coefficients by a power of two
        base = find_roots([1.0, 1.0, 1.0])
        rs = find_roots(c * np.array([1.0, 1.0, 1.0]))
        assert rs.converged
        np.testing.assert_allclose(_sorted(rs.roots), _sorted(base.roots), rtol=0, atol=1e-15)

    def test_the_kernel_solves_the_working_form(self, monkeypatch):
        seen = _kernel_calls(monkeypatch)
        coeffs = np.array([0.25, -0.5, 1.0])     # magnitudes 1/4 .. 1, roots of modulus 1/2
        # every |a_i| within 2^-WINDOW .. 2^WINDOW: the kernel gets them as they are
        for scale in (2.0 ** poly.WINDOW, 2.0 ** (2 - poly.WINDOW), 1.0):
            find_roots(scale * coeffs)
            np.testing.assert_array_equal(seen[-1], scale * coeffs)
        # beyond it: the same roots (e = 0), the largest |w_i| in [1/2, 1)
        for scale in (2.0 ** (poly.WINDOW + 1), 2.0 ** (1 - poly.WINDOW)):
            find_roots(scale * coeffs)
            np.testing.assert_array_equal(seen[-1], 0.5 * coeffs)
        # 1e-200 + t + 1e200 t^2: a power-of-two divisor of the coefficients
        # alone would flush a_0; u = 2^664 t centres the roots on modulus 1
        wide = np.array([1e-200, 1.0, 1e200])
        rs = find_roots(wide)
        w, e = poly.working_form(wide)
        assert e == -664
        np.testing.assert_array_equal(seen[-1], w)
        assert rs.converged
        expected = np.array([complex(-1, -math.sqrt(3)), complex(-1, math.sqrt(3))]) / 2e200
        np.testing.assert_allclose(_sorted(rs.roots), expected, rtol=1e-15)

    def test_root_count_matches_degree(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            deg = int(rng.integers(1, 13))
            coeffs = rng.uniform(-2, 2, deg + 1)
            coeffs[-1] = coeffs[-1] + np.sign(coeffs[-1] or 1.0) * 0.5
            rs = find_roots(coeffs)
            assert len(rs.roots) == deg

    def test_double_roots_counted_with_multiplicity(self):
        rs = find_roots([1, 0, 2, 0, 1])  # (t^2+1)^2
        assert len(rs.roots) == 4
        assert rs.converged
        assert sum(1 for z in rs.roots if abs(z - 1j) < 1e-4) == 2

    def test_residuals_bounded_when_converged(self):
        # converged means every residual is at the rounding level, 4 deg eps
        rng = np.random.default_rng(1)
        for _ in range(100):
            deg = int(rng.integers(1, 13))
            coeffs = rng.uniform(-5, 5, deg + 1)
            coeffs[-1] = coeffs[-1] + np.sign(coeffs[-1] or 1.0) * 0.5
            rs = find_roots(coeffs)
            assert rs.converged
            assert float(np.max(rs.residuals)) <= 4 * deg * np.finfo(float).eps

    def test_polish_keeps_a_converged_cluster(self):
        # four roots within 2e-3 of -2.135: a polish sweep that took every
        # new iterate scattered the cluster back above tol after 17 sweeps
        p = [20.77028904464762, 38.91722608934493, 27.34465793548374,
             8.53926728021474, 1.0]
        rs = find_roots(p)
        assert rs.converged
        assert float(np.max(rs.residuals)) <= 4 * 4 * np.finfo(float).eps
        assert verify_cot(p).status == "pass"

    def test_non_convergence_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(roots, "DEFAULT_MAX_ITERS", 1)
        rs = find_roots([-6, 11, -6, 1])
        assert not rs.converged
        assert len(rs.roots) == 3
        assert float(np.max(rs.residuals)) > 1e-12

    def test_conjugate_closure_for_real_input(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            deg = int(rng.integers(1, 13))
            coeffs = rng.uniform(-5, 5, deg + 1)
            coeffs[-1] = coeffs[-1] + np.sign(coeffs[-1] or 1.0) * 0.5
            rs = find_roots(coeffs)
            if rs.converged:
                assert is_conjugate_closed(rs.roots, tol=1e-8)


def _kernel_calls(monkeypatch):
    """The coefficients of every later kernel.aberth_iterate call."""
    calls = []
    iterate = kernels.aberth_iterate
    monkeypatch.setattr(kernels, "aberth_iterate",
                        lambda c, *rest: calls.append(np.array(c)) or iterate(c, *rest))
    return calls


class TestZeroRoots:
    Q = [2.0, 3.0, 1.0, 0.5, 1.0]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_roots_are_exact_and_the_rest_solves_q(self, monkeypatch, k):
        # t^k q: k exact zeros, then find_roots(q) bit for bit, and the
        # kernel never sees a zero constant term
        calls = _kernel_calls(monkeypatch)
        rs, base = find_roots([0.0] * k + self.Q), find_roots(self.Q)
        assert rs.roots[:k].tolist() == [0j] * k
        assert rs.residuals[:k].tolist() == [0.0] * k
        assert rs.roots[k:].tobytes() == base.roots.tobytes()
        assert rs.residuals[k:].tobytes() == base.residuals.tobytes()
        assert (rs.converged, rs.iterations) == (base.converged, base.iterations)
        assert len(calls) == 2 and all(c[0] != 0 for c in calls)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monomial_needs_no_solve(self, monkeypatch, k):
        calls = _kernel_calls(monkeypatch)
        rs = find_roots([0.0] * k + [3.0])
        assert calls == []
        assert rs.roots.tolist() == [0j] * k and rs.residuals.tolist() == [0.0] * k
        assert rs.converged and rs.iterations == 0


class TestDegreeLimit:
    @staticmethod
    def _poly(deg):
        return np.random.default_rng(1).uniform(0.1, 1.0, deg + 1)

    def test_solves_at_the_limit(self):
        rs = find_roots(self._poly(roots.MAX_SOLVE_DEGREE))
        assert rs.converged and len(rs.roots) == roots.MAX_SOLVE_DEGREE

    def test_raises_above_the_limit_before_the_kernel(self, monkeypatch):
        calls = _kernel_calls(monkeypatch)
        with pytest.raises(DomainError, match=f"MAX_SOLVE_DEGREE = {roots.MAX_SOLVE_DEGREE}"):
            find_roots(self._poly(roots.MAX_SOLVE_DEGREE + 1))
        assert calls == []

    def test_zero_roots_do_not_count(self):
        # t^k q hands the kernel q alone, so only the degree of q is limited
        p = np.concatenate((np.zeros(5), self._poly(roots.MAX_SOLVE_DEGREE)))
        rs = find_roots(p)
        assert rs.converged and np.count_nonzero(rs.roots == 0) == 5


class TestInitialGuesses:
    def test_two_term_radius(self):
        # hull edge 0 -> 2: radius (6/2)^(1/2)
        c = np.array([6.0, 0.0, 2.0], dtype=np.complex128)
        z0 = roots.initial_guesses(c)
        np.testing.assert_allclose(np.abs(z0), math.sqrt(3.0), rtol=1e-12)
        assert len(z0) == 2

    def test_radius_follows_coefficient_scale(self):
        c = np.zeros(13, dtype=np.complex128)
        c[0], c[12] = 1e12, 1.0
        z0 = roots.initial_guesses(c)
        np.testing.assert_allclose(np.abs(z0), 10.0, rtol=1e-12)
        assert len(z0) == 12

    def test_one_radius_per_hull_edge(self):
        # 1 + 1e6 t^2 + t^5: hull (0,0) -> (2,log 1e6) -> (5,0), with the
        # interior zeros a_1, a_3, a_4 left out
        c = np.array([1.0, 0.0, 1e6, 0.0, 0.0, 1.0], dtype=np.complex128)
        z0 = roots.initial_guesses(c)
        np.testing.assert_allclose(np.sort(np.abs(z0)), [1e-3] * 2 + [100.0] * 3, rtol=1e-12)

    def test_points_below_the_hull_add_no_radius(self):
        # a_1 = 1 lies below the chord from (0, log 4) to (2, 0)
        c = np.array([4.0, 1.0, 1.0], dtype=np.complex128)
        np.testing.assert_allclose(np.abs(roots.initial_guesses(c)), 2.0, rtol=1e-12)

    def test_edges_of_one_radius_share_one_circle(self):
        # q(1e8 t) for q = 487.6875 (1 + t^3 + t^5) + t^6: the vertex at t^3
        # survives the hull only by rounding of the logs, its two edges give
        # the radius 1e-8 exactly, and their circles shared a start, so the
        # solver returned one root twice and lost its conjugate
        c = np.array([487.6875, 0, 0, 487.6875, 0, 487.6875, 1.0]) * 1e8 ** np.arange(7)
        z0 = roots.initial_guesses(c.astype(np.complex128))
        assert len(set(z0.tolist())) == 6
        np.testing.assert_allclose(np.abs(z0[:5]), np.abs(z0[0]), rtol=1e-15)
        rs = find_roots(c)
        assert rs.converged
        expected = np.roots(c[::-1])
        gaps = np.abs(rs.roots[:, None] - expected).min(axis=0)
        assert np.all(gaps <= 1e-9 * np.abs(expected))

    def test_offbeat_rotation_breaks_axis_symmetry(self):
        c = np.array([1.0, 0.0, 1.0], dtype=np.complex128)
        z0 = roots.initial_guesses(c)
        assert np.all(np.abs(z0.real) > 1e-3)
        assert np.all(np.abs(z0.imag) > 1e-3)



def _starts(p):
    return roots.starting_points(p, 4 * (len(p) - 1) * np.finfo(np.float64).eps)


class TestStartingPoints:
    def test_clustered_roots_start_about_the_centroid(self):
        # (t - 10)^6 - 1: the roots lie on the unit circle about the centroid
        # 10, whose modulus is the geometric mean's; p(t + 10) = t^6 - 1 puts
        # every start on that circle, the polygon about 0 on |z| = 10
        p = np.array([math.comb(6, k) * (-10.0) ** (6 - k) for k in range(7)])
        p[0] -= 1.0
        np.testing.assert_allclose(np.abs(_starts(p) - 10.0), 1.0, rtol=1e-9)
        rs = find_roots(p)
        assert rs.converged
        np.testing.assert_allclose(np.abs(rs.roots - 10.0), 1.0, rtol=1e-8)

    @pytest.mark.parametrize("p", [
        [1.0, 1.0, 1.0],                # centroid -1/2, geometric mean 1
        [2.0, 3.0, 1.0, 4.0, 1.0],      # centroid -1, geometric mean 2^(1/4)
        [1.0, 0.0, 0.0, 1.0],           # centroid 0
        [3.0, 1.0],                     # degree 1
    ])
    def test_roots_about_zero_keep_the_polygon_about_zero(self, p):
        c = np.array(p, dtype=np.complex128)
        np.testing.assert_array_equal(_starts(c.real), roots.initial_guesses(c))

    def test_centroid_on_a_root_keeps_the_polygon_about_zero(self):
        # (t+2)(t+3)(t+4): the centroid -3 is a root, so p(t - 3) has the
        # constant term 0 and the polygon about -3 would start a root there
        p = np.array([24.0, 26.0, 9.0, 1.0])
        np.testing.assert_array_equal(_starts(p), roots.initial_guesses(p))
        rs = find_roots(p)
        assert rs.converged
        assert len(set(rs.roots.tolist())) == 3
        np.testing.assert_allclose(np.sort_complex(rs.roots), [-4.0, -3.0, -2.0], atol=1e-12)

    def test_centroid_on_a_root_to_working_precision_keeps_the_polygon_about_zero(self):
        # five roots within 1e-2 of 4.2238: |p(s)| is below its rounding
        # error, the starts about s met the stopping level at once, and the
        # polish sweep left them unconverged
        p = np.array([-1344.7733049288063, 1591.8028228948522, -753.6842707145682,
                      178.42661476876273, -21.120287363613713, 1.0])
        np.testing.assert_array_equal(_starts(p), roots.initial_guesses(p))
        rs = find_roots(p)
        assert rs.converged and rs.iterations > 0
        np.testing.assert_allclose(np.abs(rs.roots - 4.2238), 0.0, atol=1e-2)

    def test_centroid_farther_than_zero_keeps_the_polygon_about_zero(self):
        # (t+20)(t-1)(t-2): |s| = 17/3 passes the ratio to the geometric mean
        # 40^(1/3), but |p(s)| = 733 > |p(0)| = 40: the roots lie nearer 0
        p = np.array([40.0, -58.0, 17.0, 1.0])
        np.testing.assert_array_equal(_starts(p), roots.initial_guesses(p))
        rs = find_roots(p)
        assert rs.converged
        np.testing.assert_allclose(np.sort_complex(rs.roots), [-20.0, 1.0, 2.0], atol=1e-12)

    def test_overflowing_shift_keeps_the_polygon_about_zero(self):
        # centroid 1e150: Horner's p(t + s) reaches 1e150 * -5e159, which
        # overflows; a RuntimeWarning fails the run
        p = np.array([1e-300, -1e160, 5e9])
        assert not np.isfinite(roots._taylor_shift(p.tolist(), 1e150)).all()
        np.testing.assert_array_equal(_starts(p), roots.initial_guesses(p))

    def test_any_non_finite_shifted_coefficient_keeps_the_polygon_about_zero(self, monkeypatch):
        # a finite p(s) does not bound the other coefficients of p(t + s)
        p = np.array([math.comb(6, k) * (-10.0) ** (6 - k) for k in range(7)])
        p[0] -= 1.0                                   # (t - 10)^6 - 1, as above
        shift = roots._taylor_shift
        monkeypatch.setattr(roots, "_taylor_shift",
                            lambda a, s: shift(a, s)[:1] + [math.inf] + shift(a, s)[2:])
        np.testing.assert_array_equal(_starts(p), roots.initial_guesses(p))

    @pytest.mark.parametrize("suite, cases", [("cot", 300), ("kellogg", 200)])
    def test_starts_match_the_shift_first_rule(self, monkeypatch, suite, cases):
        # p(s) from poly.horner is the shift's b[0] bit for bit, so testing it
        # before the shift leaves every start of every campaign solve as it was
        calls = []
        real = roots.starting_points

        def recorded(p, tol):
            calls.append((p, tol))
            return real(p, tol)

        monkeypatch.setattr(roots, "starting_points", recorded)
        campaigns.run_suite(suite, cases, 5)
        shifted = 0
        for p, tol in calls:
            new, old = real(p, tol), _shift_first_starts(p, tol)
            assert new.tobytes() == old.tobytes(), p
            shifted += not np.array_equal(old, roots.initial_guesses(p))
        assert len(calls) >= cases and shifted > 0


def _shift_first_starts(p, tol):
    """roots.starting_points as it was before it took p(s) from poly.horner:
    the whole shift first, its b[0] as p(s), and the scale in its own loop."""
    a = p.tolist()
    n = len(a) - 1
    if n >= 2:
        s = -a[-2] / (n * a[-1])
        if 0.0 < roots.CENTROID_RATIO * abs(a[0] / a[-1]) ** (1.0 / n) <= abs(s):
            b = roots._taylor_shift(a, s)
            scale = 0.0
            for x in reversed(a):
                scale = scale * abs(s) + abs(x)
            if tol * scale < abs(b[0]) < abs(a[0]) and all(map(math.isfinite, b)):
                return roots.initial_guesses(np.array(b)) + s
    return roots.initial_guesses(p)


class TestReconstruction:
    def test_monic_rebuild_matches_input(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            deg = int(rng.integers(2, 13))
            # well-separated conjugate-closed root set
            roots = []
            while len(roots) < deg:
                if deg - len(roots) >= 2 and rng.integers(0, 2):
                    z = complex(rng.uniform(-3, 3), rng.uniform(0.3, 3))
                    cand = [z, z.conjugate()]
                else:
                    cand = [complex(rng.uniform(-3, 3), 0.0)]
                if all(abs(c - e) > 0.25 for c in cand for e in roots):
                    roots.extend(cand)
            truth = _monic_from_roots(roots)
            assert float(np.max(np.abs(truth.imag))) < 1e-12 * float(np.max(np.abs(truth)))
            rs = find_roots(truth.real)
            assert rs.converged
            rebuilt = _monic_from_roots(rs.roots)
            scale = float(np.max(np.abs(truth)))
            np.testing.assert_allclose(rebuilt.real, truth.real, atol=1e-7 * scale)
            assert float(np.max(np.abs(rebuilt.imag))) <= 1e-7 * scale


class TestBinomialRoots:
    @pytest.mark.parametrize("n,c", [(2, 1.0), (3, 8.0), (5, 0.3), (8, 100.0)])
    def test_roots_on_circle_at_odd_angles(self, n, c):
        coeffs = np.zeros(n + 1)
        coeffs[0] = c
        coeffs[n] = 1.0
        rs = find_roots(coeffs)
        assert rs.converged
        radius = c ** (1.0 / n)
        expected_args = []
        for m in range(n):
            a = (2 * m + 1) * math.pi / n
            if a > math.pi + 1e-12:
                a -= 2 * math.pi
            expected_args.append(a)
        expected_args.sort()
        got_args = sorted(principal_arg(complex(z)) for z in rs.roots)
        np.testing.assert_allclose(np.abs(rs.roots), radius, rtol=1e-10)
        np.testing.assert_allclose(got_args, expected_args, atol=1e-10)

    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_modulus_holds_at_every_scale(self, r):
        # t^n + r^n: the starts must follow the scale r. A start circle of
        # radius 1 + r^n passes the residual test at once for r = 10, n = 12,
        # with every root at modulus 7e11.
        for n in range(1, 13):
            coeffs = np.zeros(n + 1)
            coeffs[0] = r ** n
            coeffs[n] = 1.0
            rs = find_roots(coeffs)
            assert rs.converged, n
            assert float(np.max(np.abs(np.abs(rs.roots) - r))) <= 1e-10 * r, n


class TestMinArgDefect:
    @staticmethod
    def _defect(coeffs):
        rs = find_roots(coeffs)
        return roots.sector_defect([principal_arg(complex(z)) for z in rs.roots], len(rs.roots))

    def test_cyclotomic_margin(self):
        assert self._defect([1, 1, 1]) == pytest.approx(math.pi / 6, abs=1e-9)

    def test_binomial_boundary(self):
        assert self._defect([1, 0, 1]) == pytest.approx(0.0, abs=1e-10)

    def test_linear_negative_root(self):
        assert self._defect([3, 1]) == pytest.approx(0.0, abs=1e-12)
