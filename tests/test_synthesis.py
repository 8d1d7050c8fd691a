import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorpoly import (
    AngleTooSmall,
    DegreeOne,
    DomainError,
    PiOverAlphaInteger,
    PreconditionError,
    SignClass,
    ZeroModulus,
    build_q_avg,
    build_qj,
    classify_signs,
    find_roots,
    from_polar,
    lift,
    min_arg_defect,
    poly_eval,
    principal_arg,
    sector_index,
    sign_lemma_check,
    synthesize,
    verify_cot,
)
from sectorpoly.poly import relative_residual
from sectorpoly.synthesis import snapped_ratio


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

    @pytest.mark.parametrize("alpha", [0.0, -0.1, math.pi, 4.0])
    def test_domain(self, alpha):
        with pytest.raises(DomainError):
            sector_index(alpha)

    def test_interval_membership(self):
        # k = ceil(pi/alpha) puts alpha in [pi/k, pi/(k-1)) for k >= 2
        rng = np.random.default_rng(3)
        for _ in range(500):
            alpha = float(rng.uniform(1e-3, math.pi - 1e-3))
            si = sector_index(alpha)
            if si.boundary:
                assert abs(math.pi / si.k - alpha) <= 1e-8
            else:
                assert math.pi / si.k < alpha < math.pi / (si.k - 1)


class TestSnappedRatio:
    def test_exact_boundary_snaps(self):
        ratio, is_int = snapped_ratio(math.pi / 7)
        assert is_int and ratio == 7.0

    def test_interior_does_not_snap(self):
        _, is_int = snapped_ratio(0.4 * math.pi)
        assert not is_int

    def test_sign_insensitive(self):
        assert snapped_ratio(-math.pi / 5) == snapped_ratio(math.pi / 5)


class TestSignLemma:
    def test_boundary_k2(self):
        s = sign_lemma_check(1, 2, math.pi / 2)
        assert s == pytest.approx((0.0, 1.0, 1.0), abs=1e-12)

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

    def test_boundary_rejected(self):
        with pytest.raises(PreconditionError):
            build_q_avg(3, 1.0, math.pi / 3)

    def test_strictly_positive_and_vanishing(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            k = int(rng.integers(2, 13))
            while True:
                alpha = float(rng.uniform(math.pi / k, math.pi / (k - 1)))
                if alpha > math.pi / k and not snapped_ratio(alpha)[1]:
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
    def test_imaginary_unit_nonneg(self):
        result = synthesize(1j, 2, SignClass.NONNEGATIVE)
        np.testing.assert_allclose(result.coeffs, [1, 0, 1], atol=1e-12)
        assert result.k_used.k == 2 and result.k_used.boundary

    def test_imaginary_unit_positive_rejected(self):
        with pytest.raises(PiOverAlphaInteger):
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

    def test_pi_rejected_in_positive_mode(self):
        with pytest.raises(PiOverAlphaInteger):
            synthesize(-2.0, 4, SignClass.POSITIVE)

    def test_nonneg_at_pi_lifts_linear_factor(self):
        result = synthesize(-2.0, 4, SignClass.NONNEGATIVE)
        # (t + 2)(t^3 + 1)
        np.testing.assert_allclose(result.coeffs, [2, 1, 0, 2, 1], atol=1e-12)
        assert result.construction == "linear"


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

    @given(
        ends=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
        middle=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), max_size=11),
        c=st.sampled_from([1e-8, 1e-3, 1e3, 1e8]),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdict_keeps_under_scaling_of_t(self, ends, middle, c):
        # q(c t) has the roots of q divided by c: the same arguments
        q = np.array([ends[0], *middle, ends[1]])
        scaled = q * c ** np.arange(q.size)
        assert verify_cot(scaled).status == verify_cot(q).status

    def test_rejects_mixed_signs(self):
        with pytest.raises(PreconditionError):
            verify_cot([-1, 1])

    def test_rejects_zero_constant(self):
        with pytest.raises(PreconditionError):
            verify_cot([0, 1, 1])

    def test_inconclusive_on_non_convergence(self, monkeypatch):
        import sectorpoly.synthesis as syn

        real = syn.find_roots
        monkeypatch.setattr(syn, "find_roots", lambda c: real(c, max_iters=0))
        assert syn.verify_cot([1, 1, 1]).status == "inconclusive"

    def test_each_argument_computed_once(self, monkeypatch):
        import sectorpoly.roots as roots_mod
        import sectorpoly.synthesis as syn

        calls = []
        real = syn.principal_arg

        def counted(z):
            calls.append(z)
            return real(z)

        monkeypatch.setattr(syn, "principal_arg", counted)
        monkeypatch.setattr(roots_mod, "principal_arg", counted)
        report = syn.verify_cot([2, 3, 1, 4, 1])
        assert len(calls) == report.degree == 4

    def test_defect_is_min_arg_defect(self):
        # one formula: the report's defect is min_arg_defect of its roots, bit
        # for bit, and its arguments are the principal arguments of its roots
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            q = rng.uniform(0.1, 10.0, n + 1) * (rng.uniform(size=n + 1) < 0.7)
            q[0] = q[-1] = 1.0
            report = verify_cot(q)
            rs = find_roots(q)
            assert report.min_defect == min_arg_defect(rs, n)
            np.testing.assert_array_equal(report.arguments,
                                          [principal_arg(complex(z)) for z in rs.roots])

    def test_synthesized_polynomials_close_the_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            r = float(rng.uniform(0.1, 10.0))
            alpha = float(rng.uniform(math.pi / n, math.pi))
            result = synthesize(from_polar(r, alpha), n, SignClass.NONNEGATIVE)
            assert verify_cot(result.coeffs).status == "pass"
