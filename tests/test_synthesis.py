import dataclasses
import itertools
import math
import re
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorpoly import (
    AngleTooSmall,
    DegreeOne,
    DomainError,
    PreconditionError,
    SectorIndex,
    SignClass,
    ZeroModulus,
    build_q_avg,
    build_qj,
    canonical,
    classify_signs,
    find_roots,
    from_polar,
    lift,
    principal_arg,
    sector_index,
    sign_lemma_check,
    synthesize,
    verify_cot,
)
from sectorpoly.poly import relative_residual
from sectorpoly.roots import sector_defect
from sectorpoly.synthesis import ANGLE_TOL, MAX_DEGREE


def _mp_qj(j, k, r, alpha):
    """High-precision trinomial coefficients, independent of the float path."""
    with mp.workdps(50):
        a = mp.mpf(alpha)
        s_k, s_j, s_kj = mp.sin(k * a), mp.sin(j * a), mp.sin((k - j) * a)
        coeffs = [mp.mpf(0)] * (k + 1)
        coeffs[k] = mp.mpf(1)
        coeffs[j] = -(s_k / s_j) * mp.mpf(r) ** (k - j)
        coeffs[0] = (s_kj / s_j) * mp.mpf(r) ** k
        return [float(c) for c in coeffs]


class TestSectorIndex:
    def test_boundary_half_pi(self):
        si = sector_index(math.pi / 2)
        assert (si.k, si.boundary) == (2, True)

    def test_interior_two_thirds_pi(self):
        si = sector_index(2 * math.pi / 3)
        assert (si.k, si.boundary) == (2, False)

    def test_interior_point_four_pi(self):
        si = sector_index(0.4 * math.pi)
        assert (si.k, si.boundary) == (3, False)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 4.0, math.nan])
    def test_domain(self, alpha):
        with pytest.raises(DomainError):
            sector_index(alpha)

    def test_pi_is_the_linear_boundary(self):
        assert sector_index(math.pi) == SectorIndex(1, True)

    def test_interval_membership(self):
        # k = ceil(pi/alpha) puts alpha in [pi/k, pi/(k-1)) for k >= 2
        rng = np.random.default_rng(3)
        for _ in range(500):
            alpha = float(rng.uniform(1e-3, math.pi - 1e-3))
            si = sector_index(alpha)
            if si.boundary:
                assert abs(math.pi / si.k - alpha) <= ANGLE_TOL
            else:
                assert math.pi / si.k + ANGLE_TOL < alpha < math.pi / (si.k - 1) - ANGLE_TOL

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
    @pytest.mark.parametrize("offset", [0.0, 1e-16, -1e-16, 1e-14, -1e-14, 9e-14, -9e-14])
    def test_within_the_tolerance_of_pi_over_k_is_the_boundary(self, k, offset):
        alpha = math.pi / k + offset
        if alpha <= math.pi:
            assert sector_index(alpha) == SectorIndex(k, True)

    @pytest.mark.parametrize("k", [2, 3, 7, 12])
    @pytest.mark.parametrize("d", [2e-13, 1e-12, 1e-10, 3e-9, 1e-8])
    def test_beyond_the_tolerance_is_inside_a_sector(self, k, d):
        # just above pi/k is sector k, just below it sector k + 1
        assert sector_index(math.pi / k + d) == SectorIndex(k, False)
        assert sector_index(math.pi / k - d) == SectorIndex(k + 1, False)

    @pytest.mark.parametrize("alpha", [1e-320, 5e-324, 1e-309])
    def test_overflowing_ratio_is_angle_too_small(self, alpha):
        with pytest.raises(AngleTooSmall):
            sector_index(alpha)


class TestSnappedRatio:
    """Boundary decisions at and off pi/k, read from sector_index."""

    def test_exact_boundary_snaps(self):
        assert sector_index(math.pi / 7) == SectorIndex(7, True)

    def test_interior_does_not_snap(self):
        assert not sector_index(0.4 * math.pi).boundary

    def test_sign_insensitive(self):
        # synthesize reads |arg mu|, so mu and its conjugate share a sector
        a = synthesize(from_polar(1.0, math.pi / 5), 5, SignClass.NONNEGATIVE)
        b = synthesize(from_polar(1.0, -math.pi / 5), 5, SignClass.NONNEGATIVE)
        assert a.k_used == b.k_used == SectorIndex(5, True)


class TestSignLemma:
    def test_boundary_k2(self):
        s = sign_lemma_check(1, 2, math.pi / 2)
        assert s == pytest.approx((0.0, 1.0, 1.0), abs=1e-12)
        assert s[0] == 0.0

    @pytest.mark.parametrize("k", [2, 3, 5, 12])
    def test_signs_are_exact_on_the_boundary_and_strict_inside(self, k):
        for d in (0.0, 5e-14, -5e-14):
            s = sign_lemma_check(1, k, math.pi / k + d)
            assert s[0] == 0.0 and s[1] > 0.0 and s[2] > 0.0
        for alpha in (math.pi / k + 2e-13, math.pi / (k - 1) - 2e-13):
            s_k, s_j, s_kj = sign_lemma_check(k - 1, k, alpha)
            assert s_k < 0.0 < s_j and 0.0 < s_kj

    def test_interior_k3_against_oracle(self):
        with mp.workdps(50):
            expected = (
                float(mp.sin(mp.mpf("1.2") * mp.pi)),
                float(mp.sin(mp.mpf("0.4") * mp.pi)),
                float(mp.sin(mp.mpf("0.8") * mp.pi)),
            )
        got = sign_lemma_check(1, 3, 0.4 * math.pi)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx((-0.587785, 0.951057, 0.587785), abs=1e-6)

    def test_boundary_j2_k3(self):
        s = sign_lemma_check(2, 3, math.pi / 3)
        assert s == pytest.approx((0.0, math.sqrt(3) / 2, math.sqrt(3) / 2), abs=1e-12)

    @pytest.mark.parametrize("j,k,alpha", [
        (2, 2, math.pi / 2),            # j must be < k
        (0, 3, math.pi / 3),            # j must be >= 1
        (1, 3, 0.6 * math.pi),          # alpha above the sector
        (1, 3, 0.2 * math.pi),          # alpha below the sector
        (1.5, 3, 1.0),                  # j and k must be integers
        (1, 3.0, 1.0),
    ])
    def test_hypothesis_violations(self, j, k, alpha):
        with pytest.raises(PreconditionError):
            sign_lemma_check(j, k, alpha)

    def test_grid_sanity(self):
        # dense sweep over small sectors; full grid runs in the acceptance suite
        for k in range(2, 9):
            lo, hi = math.pi / k, math.pi / (k - 1)
            for j in range(1, k):
                alphas = lo + (hi - lo) * np.arange(100) / 100.0
                s_k = np.sin(k * alphas)
                s_j = np.sin(j * alphas)
                s_kj = np.sin((k - j) * alphas)
                assert np.all(s_k <= 1e-12)
                assert np.all(s_j > -1e-12)
                assert np.all(s_kj > -1e-12)


class TestAngleAdditionIdentity:
    def test_residual_on_random_grid(self):
        # sin(j a)cos(k a) - cos(j a)sin(k a) + sin((k-j) a) == 0
        rng = np.random.default_rng(11)
        k = rng.integers(2, 40, size=10_000)
        j = (rng.random(10_000) * (k - 1)).astype(int) + 1
        alpha = rng.uniform(1e-6, math.pi, size=10_000)
        res = (np.sin(j * alpha) * np.cos(k * alpha)
               - np.cos(j * alpha) * np.sin(k * alpha)
               + np.sin((k - j) * alpha))
        assert float(np.max(np.abs(res))) <= 1e-12


class TestBuildQj:
    def test_quarter_turn_binomial(self):
        np.testing.assert_allclose(build_qj(1, 2, 1.0, math.pi / 2),
                                   [1, 0, 1], atol=1e-12)

    def test_primitive_cube_root(self):
        np.testing.assert_allclose(build_qj(1, 2, 1.0, 2 * math.pi / 3),
                                   [1, 1, 1], atol=1e-12)

    def test_cube_binomial_radius_two(self):
        np.testing.assert_allclose(build_qj(1, 3, 2.0, math.pi / 3),
                                   [8, 0, 0, 1], atol=1e-12)

    def test_golden_ratio_trinomial_against_oracle(self):
        got = build_qj(1, 3, 1.0, 0.4 * math.pi)
        np.testing.assert_allclose(got, _mp_qj(1, 3, 1.0, 0.4 * math.pi), atol=1e-14)
        np.testing.assert_allclose(got, [0.618034, 0.618034, 0.0, 1.0], atol=1e-6)

    def test_vanishes_at_target(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(2, 13))
            j = int(rng.integers(1, k))
            r = float(rng.uniform(0.1, 10.0))
            alpha = float(rng.uniform(math.pi / k, math.pi / (k - 1)))
            q = build_qj(j, k, r, alpha)
            mu = from_polar(r, alpha)
            assert relative_residual(q, mu) <= 1e-10
            assert classify_signs(q) is not SignClass.MIXED
            assert q[0] > 0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(PreconditionError):
            build_qj(1, 2, 0.0, math.pi / 2)


class TestBuildQAvg:
    def test_single_term_average(self):
        np.testing.assert_allclose(build_q_avg(2, 1.0, 2 * math.pi / 3),
                                   [1, 1, 1], atol=1e-12)

    def test_k3_average_against_oracle(self):
        with mp.workdps(50):
            a = mp.mpf("0.4") * mp.pi
            q1 = [mp.sin(2 * a) / mp.sin(a), -(mp.sin(3 * a) / mp.sin(a)), mp.mpf(0), mp.mpf(1)]
            q2 = [mp.sin(a) / mp.sin(2 * a), mp.mpf(0), -(mp.sin(3 * a) / mp.sin(2 * a)), mp.mpf(1)]
            expected = [float((x + y) / 2) for x, y in zip(q1, q2)]
            expected[3] = 1.0
        got = build_q_avg(3, 1.0, 0.4 * math.pi)
        np.testing.assert_allclose(got, expected, atol=1e-14)
        np.testing.assert_allclose(got, [1.118034, 0.309017, 0.5, 1.0], atol=1e-6)

    def test_boundary_core_has_degree_k_plus_1(self):
        # ((1 + t)(t^3 + 1) + (t^4 + t) + (t^4 + t^2 + 1)) / 3
        got = build_q_avg(3, 1.0, math.pi / 3)
        np.testing.assert_allclose(got, [2 / 3, 2 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-15)
        assert got[-1] == 1.0
        # (1 + t)(t^2 + 1) and t^3 + t, where sin(2 pi/2) reads exactly 0.0
        np.testing.assert_array_equal(build_q_avg(2, 1.0, math.pi / 2), [0.5, 1.0, 0.5, 1.0])

    def test_rejects_an_angle_outside_the_sector(self):
        with pytest.raises(PreconditionError, match="outside"):
            build_q_avg(3, 1.0, math.pi / 4)

    @pytest.mark.parametrize("k, r, message", [
        (1, 1.0, "need k >= 2"),
        (0, 1.0, "need k >= 2"),
        (3, 0.0, "modulus must be positive"),
        (3, -1.0, "modulus must be positive"),
    ])
    def test_rejects_small_k_and_nonpositive_radius(self, k, r, message):
        with pytest.raises(PreconditionError, match=message):
            build_q_avg(k, r, 0.4 * math.pi)

    def test_strictly_positive_and_vanishing(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            k = int(rng.integers(2, 13))
            while True:
                alpha = float(rng.uniform(math.pi / k, math.pi / (k - 1)))
                if not sector_index(alpha).boundary:
                    break
            r = float(rng.uniform(0.1, 10.0))
            q = build_q_avg(k, r, alpha)
            assert float(np.min(q)) > 0.0
            assert classify_signs(q) is not SignClass.MIXED
            assert relative_residual(q, from_polar(r, alpha)) <= 1e-10


class TestLift:
    def test_nonneg_lift(self):
        np.testing.assert_array_equal(lift([1, 0, 1], 4, SignClass.NONNEGATIVE),
                                      [1, 0, 2, 0, 1])

    def test_positive_lift(self):
        np.testing.assert_array_equal(lift([1, 1, 1], 5, SignClass.POSITIVE),
                                      [1, 2, 3, 3, 2, 1])

    def test_identity_at_equal_degree(self):
        np.testing.assert_array_equal(lift([1, 1, 1], 2, SignClass.POSITIVE),
                                      [1, 1, 1])

    def test_rejects_degree_reduction(self):
        with pytest.raises(PreconditionError):
            lift([1, 0, 0, 1], 2, SignClass.NONNEGATIVE)

    def test_rejects_insufficient_sign_class(self):
        with pytest.raises(PreconditionError):
            lift([1, 0, 1], 4, SignClass.POSITIVE)

    @pytest.mark.parametrize("p", [[1, -1, 1], [1, 1, 1]])
    def test_rejects_mixed_mode(self, p):
        with pytest.raises(PreconditionError):
            lift(p, 3, SignClass.MIXED)

    def test_rejects_zero_constant_term(self):
        with pytest.raises(PreconditionError):
            lift([0, 1, 1], 4, SignClass.NONNEGATIVE)

    def test_preserves_roots(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            j = int(rng.integers(1, k))
            r = float(rng.uniform(0.1, 5.0))
            alpha = float(rng.uniform(math.pi / k, math.pi / (k - 1)))
            p = build_qj(j, k, r, alpha)
            mu = from_polar(r, alpha)
            n = int(rng.integers(k, 13))
            lifted = lift(p, n, SignClass.NONNEGATIVE)
            assert relative_residual(lifted, mu) <= 1e-10
            assert lifted[0] > 0


class TestSynthesize:
    @pytest.mark.parametrize("mode", [SignClass.NONNEGATIVE, SignClass.POSITIVE])
    @pytest.mark.parametrize("n", [MAX_DEGREE + 1, 10**13, 10**30])
    def test_degree_above_the_cap_raises(self, mode, n):
        # |mu| = 1 keeps |mu|^n in range. Without the cap, 10**13 and 10**30
        # fail in numpy's allocation (72.8 TiB at 10**13) and MAX_DEGREE + 1
        # would build; add no degree between 1e8 and 1e9, which would allocate
        with pytest.raises(DomainError, match="degree is above MAX_DEGREE"):
            synthesize(from_polar(1.0, 3.0), n, mode)

    def test_imaginary_unit_nonneg(self):
        result = synthesize(1j, 2, SignClass.NONNEGATIVE)
        np.testing.assert_allclose(result.coeffs, [1, 0, 1], atol=1e-12)
        assert result.k_used.k == 2 and result.k_used.boundary

    def test_imaginary_unit_positive_rejected(self):
        # the positive core at the boundary pi/2 has degree 3
        with pytest.raises(AngleTooSmall, match=re.escape("<= pi/2")):
            synthesize(1j, 2, SignClass.POSITIVE)

    def test_negative_real_degree_one(self):
        result = synthesize(-3.0, 1, SignClass.NONNEGATIVE)
        np.testing.assert_array_equal(result.coeffs, [3, 1])
        assert result.construction == "linear"

    def test_positive_lifted_cyclotomic(self):
        result = synthesize(from_polar(1.0, 2 * math.pi / 3), 5, SignClass.POSITIVE)
        np.testing.assert_allclose(result.coeffs, [1, 2, 3, 3, 2, 1], atol=1e-12)
        assert result.construction == "q_avg"
        assert result.lift_terms == 3

    def test_conjugate_reduction(self):
        result = synthesize(from_polar(1.0, -2 * math.pi / 3), 2, SignClass.POSITIVE)
        np.testing.assert_allclose(result.coeffs, [1, 1, 1], atol=1e-12)
        assert result.conjugated

    def test_conjugate_symmetry_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            r = float(rng.uniform(0.1, 10.0))
            alpha = float(rng.uniform(math.pi / n, math.pi))
            mu = from_polar(r, alpha)
            a = synthesize(mu, n, SignClass.NONNEGATIVE).coeffs
            b = synthesize(mu.conjugate(), n, SignClass.NONNEGATIVE).coeffs
            np.testing.assert_array_equal(a, b)

    def test_alternate_trinomial_index(self):
        mu = from_polar(2.0, 0.4 * math.pi)
        result = synthesize(mu, 3, SignClass.NONNEGATIVE, j=2)
        assert result.j == 2
        assert relative_residual(result.coeffs, mu) <= 1e-10

    @pytest.mark.parametrize("r", [1e-20, 1.0, 1e10, 1e25])
    def test_residual_sees_a_moved_zero_at_every_modulus(self, r):
        # the residual scale is homogeneous in mu, so a zero moved by a
        # relative 1e-6 shows at every modulus, large or small
        mu = from_polar(r, 2.0)
        result = synthesize(mu, 12, SignClass.POSITIVE)
        assert result.residual <= 1e-14
        assert relative_residual(result.coeffs, mu * (1.0 + 1e-6)) > 1e-10

    @pytest.mark.parametrize("mu, n, mode", [
        (-3.0, 4, SignClass.NONNEGATIVE),
        (from_polar(2.0, 2.0), 7, SignClass.POSITIVE),
        (from_polar(0.5, -0.7), 9, SignClass.NONNEGATIVE),
    ])
    def test_core_is_the_factor_before_the_lift(self, mu, n, mode):
        result = synthesize(mu, n, mode)
        assert result.core.size == result.k_used.k + 1
        assert result.lift_terms == n - result.k_used.k
        np.testing.assert_array_equal(lift(result.core, n, mode), result.coeffs)

    @pytest.mark.parametrize("r, alpha, n, mode", [
        (1e-107, 1.5707963, 3, SignClass.NONNEGATIVE),     # a_0 underflows to 0
        (3.4673685045253164e-07, math.pi / 50 + 1e-12, 50,
         SignClass.POSITIVE),                              # a_1 underflows to 0
        (1e23, math.pi / 12 - 1e-12, 13, SignClass.POSITIVE),   # a_0 overflows
    ])
    def test_core_beyond_float64_raises_as_lift_does(self, r, alpha, n, mode):
        # |mu|^n is in range, but a core coefficient is not: synthesize raises
        # what lift raises on that core instead of returning it
        mu = from_polar(r, alpha)
        k = sector_index(principal_arg(mu)).k
        if mode is SignClass.POSITIVE:
            core = build_q_avg(k, abs(mu), principal_arg(mu))
        else:
            core = build_qj(1, k, abs(mu), principal_arg(mu))
        with pytest.raises((DomainError, PreconditionError)) as lifted:
            lift(core, n, mode)
        with pytest.raises(type(lifted.value), match=re.escape(str(lifted.value))):
            synthesize(mu, n, mode)

    @pytest.mark.parametrize("mode", [SignClass.NONNEGATIVE, SignClass.POSITIVE])
    @pytest.mark.parametrize("r", [1e-160, 3e-162])
    def test_subnormal_core_constant_raises(self, r, mode):
        # |mu|^2 is in range and every core coefficient is nonzero, but the
        # constant term is subnormal: the result's residual read 3.9e-6 at
        # 1e-160 and 0.033 at 3e-162
        with pytest.raises(DomainError, match="subnormal"):
            synthesize(from_polar(r, 2.0), 2, mode)

    def test_subnormal_modulus_power_with_a_normal_core_is_built(self):
        # |mu|^n = 5e-324, yet the degree-2 core's constant term is normal
        result = synthesize(from_polar(0.5, 2.0), 1074, SignClass.NONNEGATIVE)
        assert result.core[0] >= sys.float_info.min
        assert result.residual <= 1e-16

    def test_mixed_mode_rejected(self):
        with pytest.raises(PreconditionError, match="mode must be nonnegative or positive"):
            synthesize(1j, 2, SignClass.MIXED)

    @pytest.mark.parametrize("n", [0, -3])
    def test_degree_below_one_rejected(self, n):
        with pytest.raises(PreconditionError, match="degree must be >= 1"):
            synthesize(1j, n, SignClass.NONNEGATIVE)

    def test_zero_modulus(self):
        with pytest.raises(ZeroModulus):
            synthesize(0j, 3, SignClass.NONNEGATIVE)

    def test_degree_one_positive(self):
        with pytest.raises(DegreeOne):
            synthesize(-1.0, 1, SignClass.POSITIVE)

    def test_angle_too_small(self):
        with pytest.raises(AngleTooSmall):
            synthesize(from_polar(1.0, 0.1), 2, SignClass.NONNEGATIVE)
        with pytest.raises(AngleTooSmall):
            synthesize(from_polar(1.0, math.pi / 3 - 0.2), 3, SignClass.POSITIVE)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_pi_lifts_linear_factor_in_positive_mode(self, n):
        result = _check_positive(-2.0, n)
        # (t + 2)(1 + t + ... + t^(n-1))
        np.testing.assert_array_equal(result.coeffs, [2.0] + [3.0] * (n - 1) + [1.0])
        assert result.construction == "linear"
        assert result.k_used == SectorIndex(1, True)

    def test_nonneg_at_pi_lifts_linear_factor(self):
        result = synthesize(-2.0, 4, SignClass.NONNEGATIVE)
        # (t + 2)(t^3 + 1)
        np.testing.assert_allclose(result.coeffs, [2, 1, 0, 2, 1], atol=1e-12)
        assert result.construction == "linear"


CERTIFIED_NON_BINOMIALS = [
    [1.0, 1e-12] + [0.0] * 10 + [1.0],                  # defect 2.2e-14
    [float(math.comb(12, k)) for k in range(13)],      # (t+1)^12, one 12-fold root
]


def _numpy_cot_bookkeeping(q):
    """(status, binomial, min_defect, arguments) of verify_cot(q) for a
    polynomial that is its own working form, as every campaign polynomial
    is, from numpy arrays as verify_cot formed them before it read Python
    scalars."""
    import sectorpoly.synthesis as syn

    q = canonical(q)
    n = q.size - 1
    rs = find_roots(q)
    args = np.array([principal_arg(complex(z)) for z in rs.roots])
    binomial = int(np.count_nonzero(q)) == 2
    passed = rs.converged and (
        binomial or syn._disks_avoid_sector(q, rs.roots, args.tolist()))
    min_defect = float(np.min(np.abs(args)) - math.pi / n)
    return "pass" if passed else "inconclusive", binomial, min_defect, args


class TestVerifyCot:
    def test_cyclotomic_passes(self):
        report = verify_cot([1, 1, 1])
        assert report.status == "pass"
        assert not report.binomial
        assert report.min_defect == pytest.approx(math.pi / 6, abs=1e-9)

    def test_binomial_equality_accepted(self):
        report = verify_cot([1, 0, 1])
        assert report.status == "pass"
        assert report.binomial
        assert report.min_defect == pytest.approx(0.0, abs=1e-10)

    def test_cube_binomial(self):
        report = verify_cot([8, 0, 0, 1])
        assert report.status == "pass"
        assert report.binomial

    @pytest.mark.parametrize("s", [1e-300, 1e-100, 1e-20, 1e20, 1e100, 1e300])
    def test_binomial_passes_at_every_scale(self, s):
        # t^n + s sits on the boundary of the theorem at every scale: a
        # solver that accepts its starts and only polishes leaves the angles
        # off by ~3e-7, which reads as a false counterexample
        for n in range(1, 13):
            coeffs = np.zeros(n + 1)
            coeffs[0] = s
            coeffs[n] = 1.0
            assert verify_cot(coeffs).status == "pass", n

    def test_bookkeeping_matches_the_numpy_reference(self, monkeypatch):
        # every polynomial a 2000-case cot campaign verifies gets, bit for
        # bit, the status, binomial flag, defect and arguments of the
        # bookkeeping in numpy arrays that verify_cot kept before it read
        # Python scalars
        from sectorpoly import campaigns

        seen = []

        def recorded(q):
            seen.append(np.array(q))
            return verify_cot(q)

        monkeypatch.setattr(campaigns, "verify_cot", recorded)
        campaigns.run_suite("cot", 2000, 11)
        monkeypatch.undo()
        assert len(seen) == 2000
        for q in seen:
            report = verify_cot(q)
            status, binomial, min_defect, arguments = _numpy_cot_bookkeeping(q)
            assert (report.status, report.binomial) == (status, binomial)
            assert report.min_defect == min_defect
            assert report.arguments.dtype == arguments.dtype
            assert report.arguments.tobytes() == arguments.tobytes()

    @given(
        ends=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
        middle=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), max_size=11),
        c=st.sampled_from([1e-20, 1e-8, 1e-3, 1e3, 1e8, 1e20]),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdict_keeps_under_scaling_of_t(self, ends, middle, c):
        # q(c t) has the roots of q divided by c: the same arguments
        q = np.array([ends[0], *middle, ends[1]])
        scaled = q * c ** np.arange(q.size)
        assert verify_cot(scaled).status == verify_cot(q).status

    @pytest.mark.parametrize("q", CERTIFIED_NON_BINOMIALS)
    def test_certified_non_binomials(self, q):
        report = verify_cot(q)
        assert report.status == "pass"
        assert not report.binomial

    def test_root_beyond_float64_raises_without_warning(self):
        # 1e300 + 1e-300 t: the root -1e600 is beyond float64, which
        # working_form reads off the root bound before any solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond the float64 range"):
                verify_cot([1e300, 1e-300])

    @pytest.mark.parametrize("c", [1e-20, 1e20])
    def test_roots_beyond_the_solver_powers_are_certified(self, c):
        # at c = 1e-20 the 12th power of the root near -4.9e25 overflows;
        # the working form's roots, divided by 2^e, do not
        q = np.array([1e-3] + [0.0] * 10 + [488.0, 1e-3])
        report = verify_cot(q * c ** np.arange(13))
        assert report.status == verify_cot(q).status == "pass"
        roots = verify_cot(q).roots
        gaps = np.abs(report.roots[:, None] * c - roots).min(axis=0)
        assert np.all(gaps <= 1e-12 * np.abs(roots))

    def test_scaled_cot_target_is_certified(self):
        # a seed-5 cot target times 2^90: |mu| = 9.6e27, |mu|^11 = 6.4e307.
        # The disk test's Horner sums of the coefficients as given overflowed
        # and read inconclusive; in the working form they stay in range
        result = synthesize(complex(5.2716, -5.6842) * 2.0 ** 90, 11, SignClass.NONNEGATIVE)
        report = verify_cot(result.coeffs)
        assert (report.status, report.converged, report.binomial) == ("pass", True, False)

    def test_root_computed_inside_the_sector_is_inconclusive(self, monkeypatch):
        # one converged root turned 5e-8 into the sector |arg| < pi/n: the
        # old angle tolerance 1e-7 read it as a pass
        import sectorpoly.synthesis as syn

        real = syn.find_roots

        def rotated(c):
            rs = real(c)
            roots = rs.roots.copy()
            i = int(np.argmin(np.abs(np.angle(roots))))
            target = math.copysign(math.pi / 3 - 5e-8, np.angle(roots[i]))
            roots[i] = abs(roots[i]) * np.exp(1j * target)
            return dataclasses.replace(rs, roots=roots)

        monkeypatch.setattr(syn, "find_roots", rotated)
        report = syn.verify_cot([1, 2, 2, 1])      # (t+1)(t^2+t+1), n = 3
        assert report.converged
        assert report.min_defect == pytest.approx(-5e-8, rel=1e-6)
        assert report.status == "inconclusive"

    @pytest.mark.parametrize("bad", ["coincident", "zero", "nan"])
    def test_unusable_roots_are_inconclusive(self, monkeypatch, bad):
        import sectorpoly.synthesis as syn

        real = syn.find_roots

        def spoiled(c):
            rs = real(c)
            roots = rs.roots.copy()
            roots[0] = {"coincident": roots[1], "zero": 0.0, "nan": complex(math.nan, 1.0)}[bad]
            return dataclasses.replace(rs, roots=roots)

        monkeypatch.setattr(syn, "find_roots", spoiled)
        assert syn.verify_cot([2, 3, 1, 4, 1]).status == "inconclusive"

    def test_random_nonnegative_polynomials_are_certified(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            q = rng.uniform(0.0, 10.0, n + 1) * (rng.uniform(size=n + 1) < 0.6)
            q[0] = q[-1] = float(rng.uniform(0.1, 10.0))
            assert verify_cot(q).status == "pass", q

    def test_rejects_mixed_signs(self):
        with pytest.raises(PreconditionError):
            verify_cot([-1, 1])

    def test_rejects_zero_constant(self):
        with pytest.raises(PreconditionError):
            verify_cot([0, 1, 1])

    def test_rejects_a_constant(self):
        with pytest.raises(PreconditionError, match="degree must be >= 1"):
            verify_cot([5.0])

    @pytest.mark.parametrize("q", [[1, 2 + 3j, 1], np.array([1, 2 + 3j, 1])])
    def test_rejects_complex_coefficients(self, q):
        # the array once lost its imaginary parts to a cast and passed
        with pytest.raises(DomainError, match="real numbers"):
            verify_cot(q)

    def test_inconclusive_on_non_convergence(self, monkeypatch):
        from sectorpoly import roots

        monkeypatch.setattr(roots, "DEFAULT_MAX_ITERS", 0)
        assert verify_cot([1, 1, 1]).status == "inconclusive"

    def test_each_argument_computed_once(self, monkeypatch):
        import sectorpoly.synthesis as syn

        calls = []
        real = syn.principal_arg

        def counted(z):
            calls.append(z)
            return real(z)

        monkeypatch.setattr(syn, "principal_arg", counted)
        report = syn.verify_cot([2, 3, 1, 4, 1])
        assert len(calls) == report.degree == 4

    def test_defect_is_min_arg_defect(self):
        # one formula: the report's defect is sector_defect of the principal
        # arguments of its roots, bit for bit, and its arguments are those
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            q = rng.uniform(0.1, 10.0, n + 1) * (rng.uniform(size=n + 1) < 0.7)
            q[0] = q[-1] = 1.0
            report = verify_cot(q)
            args = [principal_arg(complex(z)) for z in find_roots(q).roots]
            assert report.min_defect == sector_defect(args, n)
            np.testing.assert_array_equal(report.arguments, args)

    def test_synthesized_polynomials_close_the_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            r = float(rng.uniform(0.1, 10.0))
            alpha = float(rng.uniform(math.pi / n, math.pi))
            result = synthesize(from_polar(r, alpha), n, SignClass.NONNEGATIVE)
            assert verify_cot(result.coeffs).status == "pass"


def _pi_over_n_brackets(n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Rational bounds lo <= cos(pi/n) <= hi and lo <= sin(pi/n) <= hi, the
    ends of 200-bit mpmath intervals."""
    prec, mp.iv.prec = mp.iv.prec, 200
    try:
        values = mp.iv.cos(mp.iv.pi / n), mp.iv.sin(mp.iv.pi / n)
    finally:
        mp.iv.prec = prec
    with mp.workprec(200):
        ends = [[mp.mpf(end).man_exp for end in (v.a, v.b)] for v in values]
    return tuple(tuple(Fraction(m) * Fraction(2) ** e for m, e in pair) for pair in ends)


def _disks_avoid_sector_exactly(q, z) -> bool:
    """_disks_avoid_sector without rounding: whether every Braess-Hadeler
    disk D(z_i, n|w_i|), w_i = q(z_i) / (a_n prod_{j!=i} (z_i - z_j)), about
    the float roots ``z`` of the float polynomial ``q`` avoids the open sector
    |arg| < pi/n. Squared radii and distances are compared as Fractions.

    The ray at angle pi/n is the part of the sector's edge nearest to
    (x, |y|). The distance to it is |z_i| where z_i lies a right angle or more
    past the ray, and otherwise h = |y| cos(pi/n) - x sin(pi/n), the distance
    to its line, which is never more; both are bounded from below.
    """
    a = [Fraction(c) for c in canonical(q).tolist()]
    n = len(a) - 1
    (cos_lo, cos_hi), (sin_lo, sin_hi) = _pi_over_n_brackets(n)
    points = [(Fraction(t.real), Fraction(t.imag)) for t in np.asarray(z).tolist()]
    for i, (x, y) in enumerate(points):
        re, im = Fraction(0), Fraction(0)
        for c in reversed(a):                           # q(z_i) by Horner
            re, im = re * x - im * y + c, re * y + im * x
        gaps2 = math.prod((x - u) ** 2 + (y - v) ** 2
                          for j, (u, v) in enumerate(points) if j != i)
        if gaps2 == 0:
            return False
        radius2 = n * n * (re * re + im * im) / (a[-1] ** 2 * gaps2)
        y = abs(y)
        if x * (cos_hi if x > 0 else cos_lo) + y * sin_hi <= 0:
            distance2 = x * x + y * y
        else:
            h = y * cos_lo - x * (sin_hi if x > 0 else sin_lo)
            if h < 0:
                return False
            distance2 = h * h
        if distance2 < radius2:
            return False
    return True


class TestExactDiskCertificate:
    """Every float "pass" of verify_cot on a non-binomial also passes when its
    disks are computed exactly: the rounding allowances of _disks_avoid_sector
    (2 eps mu_i, 1 + 8n eps, 6 eps) cover every rounding they stand for."""

    @staticmethod
    def _passes_exactly(q):
        report = verify_cot(q)
        assert report.status == "pass" and not report.binomial
        return _disks_avoid_sector_exactly(q, report.roots)

    def test_seeded_cot_campaign(self, monkeypatch):
        from sectorpoly import campaigns

        checked = []

        def recorded(q):
            report = verify_cot(q)
            if report.status == "pass" and not report.binomial:
                checked.append((q, report.roots))
            return report

        monkeypatch.setattr(campaigns, "verify_cot", recorded)
        assert campaigns.run_suite("cot", 200, 5).failures == 0
        assert len(checked) >= 150
        assert [q.tolist() for q, z in checked if not _disks_avoid_sector_exactly(q, z)] == []

    @pytest.mark.parametrize("q", CERTIFIED_NON_BINOMIALS)
    def test_certified_non_binomials(self, q):
        assert self._passes_exactly(q)

    def test_scaled_cot_target(self):
        # the roots are 2^e u of the working form's roots u
        result = synthesize(complex(5.2716, -5.6842) * 2.0 ** 90, 11, SignClass.NONNEGATIVE)
        assert self._passes_exactly(result.coeffs)

    def test_disk_in_the_sector_fails(self):
        # t^2 - t + 1 has its roots e^(+-i pi/3) inside |arg| < pi/2, and the
        # certified roots of t^12 + 1e-12 t + 1, turned 0.1 rad toward the
        # positive real axis, lie inside |arg| < pi/12
        assert not _disks_avoid_sector_exactly([1.0, -1.0, 1.0], np.roots([1.0, -1.0, 1.0]))
        q = CERTIFIED_NON_BINOMIALS[0]
        z = verify_cot(q).roots
        assert not _disks_avoid_sector_exactly(q, z * np.exp(-0.1j * np.sign(z.imag)))


class TestScaleInvariance:
    SCALES = (-1000, -520, -300, 300, 520, 1000)

    def test_seeded_cot_targets_keep_their_verdicts_at_every_scale(self):
        # the first 40 targets of a seed-5 cot campaign, times 2^e wherever
        # synthesize accepts them: |mu|^n stays in float64, and the core's
        # constant term, which 2^e scales by 2^(e k) at core degree k, stays
        # normal. The residual stays within the campaign's bound, and
        # verify_cot keeps its status. The coefficients as given read n = 2
        # at |mu| = 1.5e-156 inconclusive
        from sectorpoly import campaigns

        checked = 0
        for i in range(40):
            positive = i % 2 == 1
            mode = SignClass.POSITIVE if positive else SignClass.NONNEGATIVE
            mu, n = campaigns._sample_target(campaigns._case_rng(5, i), i, positive)
            base = synthesize(mu, n, mode)
            status = verify_cot(base.coeffs).status
            a0, k = float(base.core[0]), base.core.size - 1
            for e in self.SCALES:
                scaled = mu * 2.0 ** e
                try:
                    in_range = (0.0 < abs(scaled) ** n < math.inf
                                and math.ldexp(a0, e * k) >= sys.float_info.min)
                except OverflowError:
                    in_range = False
                if not in_range:
                    continue
                result = synthesize(scaled, n, mode)
                assert result.residual <= campaigns.RESIDUAL_BOUND, (i, e)
                assert verify_cot(result.coeffs).status == status, (i, e)
                checked += 1
        assert checked == 23


def _check_positive(mu, n):
    """synthesize(mu, n, POSITIVE), checked: monic of degree n, strictly
    positive, vanishing at mu, and certified by verify_cot."""
    result = synthesize(mu, n, SignClass.POSITIVE)
    c = result.coeffs
    assert c.size == n + 1 and c[-1] == 1.0
    assert float(np.min(c)) > 0.0
    assert result.residual <= 1e-14
    assert verify_cot(c).status == "pass"
    return result


class TestPositiveAtBoundaryAngles:
    """Positive mode at |arg mu| = pi/k: a core of degree k + 1, lifted
    (k = 1 lifts t + r, in TestSynthesize)."""

    def test_imaginary_unit_at_degree_3(self):
        result = _check_positive(1j, 3)
        np.testing.assert_array_equal(result.coeffs, [0.5, 1.0, 0.5, 1.0])
        assert result.k_used == SectorIndex(2, True) and result.lift_terms == 0

    def test_pi_over_3_at_degree_4(self):
        result = _check_positive(from_polar(1.0, math.pi / 3), 4)
        np.testing.assert_allclose(result.coeffs, [2 / 3, 2 / 3, 1 / 3, 1 / 3, 1.0],
                                   atol=1e-15)

    def test_every_boundary_below_the_degree(self):
        checked = 0
        for k in range(1, 12):
            for n in range(k + 1, 13):
                for r, side in itertools.product((0.1, 1.0, 7.3, 10.0), (1.0, -1.0)):
                    result = _check_positive(from_polar(r, side * math.pi / k), n)
                    assert result.k_used == SectorIndex(k, True)
                    checked += 1
        assert checked == 528
