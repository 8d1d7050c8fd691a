import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorpoly import (
    ComplexCharPoly,
    DimensionCap,
    DomainError,
    FeasibleButUnwitnessed,
    MatrixClass,
    NotAdmissible,
    NotConjugateClosed,
    PreconditionError,
    SignClass,
    ZeroLambda,
    aux_poly,
    char_poly,
    classify_signs,
    eigen_witness,
    eigenvalues,
    from_polar,
    generate_p_matrix,
    kellogg_admissible,
    principal_minors,
    spectrum_feasible,
)
from sectorpoly.pmatrix import spectrum_aux_poly
from sectorpoly.poly import relative_residual

ROTATION = [[0.0, -1.0], [1.0, 0.0]]


def _minors_by_enumeration(a):
    """Independent oracle: all principal minors via cofactor-free numpy det."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    out = []
    for k in range(1, n + 1):
        for idx in combinations(range(n), k):
            ix = np.asarray(idx)
            out.append((k, complex(np.linalg.det(a[np.ix_(ix, ix)]))))
    return out


class TestPrincipalMinors:
    def test_identity(self):
        rep = principal_minors(np.eye(3))
        np.testing.assert_allclose(rep.e_sums, [3, 3, 1], atol=1e-14)
        assert rep.matrix_class is MatrixClass.P
        assert rep.min_real_minor == pytest.approx(1.0)

    def test_mixed_two_by_two(self):
        rep = principal_minors([[1, 2], [3, 4]])
        np.testing.assert_allclose(rep.e_sums, [5, -2], atol=1e-14)
        assert rep.matrix_class is MatrixClass.NEITHER
        assert rep.min_real_minor == pytest.approx(-2.0)

    def test_rotation_is_weakly_positive(self):
        rep = principal_minors(ROTATION)
        np.testing.assert_allclose(rep.e_sums, [0, 1], atol=1e-14)
        assert rep.matrix_class is MatrixClass.P0

    def test_e_sums_match_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = rng.normal(size=(n, n))
            rep = principal_minors(a)
            expected = np.zeros(n, dtype=complex)
            for k, det in _minors_by_enumeration(a):
                expected[k - 1] += det
            np.testing.assert_allclose(rep.e_sums, expected,
                                       atol=1e-9 * (1 + float(np.max(np.abs(expected)))))

    def test_dimension_cap(self):
        with pytest.raises(DimensionCap):
            principal_minors(np.eye(13))
        principal_minors(np.eye(13), cap=13)  # configurable up to the hard cap
        with pytest.raises(DimensionCap):
            principal_minors(np.eye(21), cap=25)

    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            principal_minors(np.ones((2, 3)))

    def test_complex_minors_are_neither(self):
        rep = principal_minors([[1j]])
        assert rep.matrix_class is MatrixClass.NEITHER
        assert rep.max_abs_imag_minor == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    @pytest.mark.parametrize("a, expected", [
        (np.eye(3), MatrixClass.P),
        (ROTATION, MatrixClass.P0),
        ([[1, 2], [3, 4]], MatrixClass.NEITHER),
        *[(generate_p_matrix(6, seed), MatrixClass.P) for seed in (0, 1, 2)],
    ])
    def test_positive_scaling_keeps_the_class(self, a, expected, scale):
        # a size-k minor and its tolerance both scale as c^k under A -> cA
        assert principal_minors(scale * np.asarray(a)).matrix_class is expected

    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["P", "P0", "random"]),
        c=st.sampled_from([1e-8, 1e-3, 1e3, 1e8]),
    )
    @settings(max_examples=300, deadline=None)
    def test_positive_scaling_keeps_the_class_of_any_matrix(self, n, seed, kind, c):
        rng = np.random.default_rng(seed)
        if kind == "random":
            a = rng.uniform(-1.0, 1.0, (n, n))
        else:
            a = generate_p_matrix(n, seed)
            if kind == "P0":
                # every minor through a zero row is exactly 0
                a[rng.integers(n)] = 0.0
        assert (principal_minors(c * a).matrix_class
                is principal_minors(a).matrix_class)

    def test_zero_matrix_is_weakly_positive(self):
        assert principal_minors(np.zeros((3, 3))).matrix_class is MatrixClass.P0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.inf)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(DomainError):
            principal_minors([[1.0, bad], [0.0, 1.0]])

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_minors_beyond_float64_raise(self, scale):
        with pytest.raises(DomainError):
            principal_minors(scale * np.eye(3))


class TestCharAndAuxPoly:
    def test_char_poly_examples(self):
        np.testing.assert_allclose(char_poly([[1, 2], [3, 4]]), [-2, -5, 1], atol=1e-14)
        np.testing.assert_allclose(char_poly(np.eye(2)), [1, -2, 1], atol=1e-14)
        np.testing.assert_allclose(char_poly(ROTATION), [1, 0, 1], atol=1e-14)

    def test_aux_poly_examples(self):
        np.testing.assert_allclose(aux_poly([[1, 2], [3, 4]]), [-2, 5, 1], atol=1e-14)
        np.testing.assert_allclose(aux_poly(np.eye(2)), [1, 2, 1], atol=1e-14)
        np.testing.assert_allclose(aux_poly(ROTATION), [1, 0, 1], atol=1e-14)

    def test_reflection_identity_exact(self):
        # aux(t) == (-1)^n char(-t), coefficientwise without tolerance
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n)) * rng.uniform(0.5, 3)
            p = char_poly(a)
            q = aux_poly(a)
            reflected = np.array([(-1.0) ** n * (-1.0) ** k * p[k]
                                  for k in range(n + 1)])
            np.testing.assert_array_equal(q, reflected)

    def test_root_correspondence(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            q = aux_poly(a)
            rs = eigenvalues(a)
            assert rs.converged
            for lam in rs.roots:
                assert relative_residual(q, -complex(lam)) <= 1e-8

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e8])
    def test_six_fold_eigenvalue_at_every_scale(self, c):
        # a 6-fold root at every scale: the residual must not accept the
        # Newton-polygon starts, which lie on the circle |t| = c
        rs = eigenvalues(c * np.eye(6))
        assert rs.converged
        assert float(np.max(np.abs(rs.roots - c))) <= 1e-2 * c

    def test_e_sums_match_eigenvalue_symmetric_functions(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            rep = principal_minors(a)
            rs = eigenvalues(a)
            assert rs.converged
            for k in range(1, n + 1):
                esym = sum(np.prod(c) for c in combinations(rs.roots, k))
                scale = max(1.0, abs(complex(rep.e_sums[k - 1])))
                assert abs(complex(esym) - complex(rep.e_sums[k - 1])) <= 1e-6 * scale

    @pytest.mark.parametrize("kind", ["real", "complex", "zero_pivot"])
    def test_eigenvalues_of_report_equal_eigenvalues_of_matrix(self, kind):
        # the report a caller holds gives the very RootSet the matrix does
        rng = np.random.default_rng(25)
        for n in range(1, 13):
            a = rng.uniform(-1.0, 1.0, (n, n))
            if kind == "complex":
                # Hermitian: complex minors, real characteristic polynomial
                b = a + 1j * rng.uniform(-1.0, 1.0, (n, n))
                a = b + b.conj().T
            elif kind == "zero_pivot":
                a[0, 0] = 0.0
            from_matrix = eigenvalues(a)
            from_report = eigenvalues(principal_minors(a))
            np.testing.assert_array_equal(from_report.roots, from_matrix.roots)
            np.testing.assert_array_equal(from_report.residuals, from_matrix.residuals)
            assert from_report.converged == from_matrix.converged
            assert from_report.iterations == from_matrix.iterations

    def test_cap_applies_to_a_matrix_only(self):
        a = np.eye(13)
        with pytest.raises(DimensionCap):
            eigenvalues(a)
        rs = eigenvalues(principal_minors(a, cap=13), cap=1)
        assert rs.converged and len(rs.roots) == 13

    def test_complex_char_poly_rejected(self):
        with pytest.raises(ComplexCharPoly):
            char_poly([[1j]])
        with pytest.raises(ComplexCharPoly):
            aux_poly([[1j, 0], [0, 1.0]])


class TestKelloggAdmissible:
    def test_positive_real_is_admissible(self):
        for n in range(2, 10):
            assert kellogg_admissible(1.0, n, MatrixClass.P)
            assert kellogg_admissible(1.0, n, MatrixClass.P0)

    def test_negative_real_is_never_admissible(self):
        assert not kellogg_admissible(-1.0, 5, MatrixClass.P)
        assert not kellogg_admissible(-1.0, 5, MatrixClass.P0)

    def test_imaginary_unit_boundary(self):
        assert not kellogg_admissible(1j, 2, MatrixClass.P)
        assert kellogg_admissible(1j, 2, MatrixClass.P0)

    def test_zero_lambda(self):
        with pytest.raises(ZeroLambda):
            kellogg_admissible(0j, 3, MatrixClass.P0)
        # P matrices have positive determinant, so zero is plainly inadmissible
        assert not kellogg_admissible(0j, 3, MatrixClass.P)

    def test_rejects_other_modes(self):
        with pytest.raises(PreconditionError):
            kellogg_admissible(1.0, 3, MatrixClass.NEITHER)


class TestSpectrumFeasible:
    def test_repeated_positive_real(self):
        assert spectrum_feasible([1.0, 1.0]) is MatrixClass.P

    def test_conjugate_imaginary_pair(self):
        assert spectrum_feasible([1j, -1j]) is MatrixClass.P0

    def test_unpaired_imaginary_rejected(self):
        with pytest.raises(NotConjugateClosed):
            spectrum_feasible([1j])

    def test_mixed_reals(self):
        assert spectrum_feasible([1.0, -2.0]) is MatrixClass.NEITHER

    @pytest.mark.parametrize("values", [[0.0, 1.0], [0.0, 0.0], [0.0, 1j, -1j]])
    def test_exactly_zero_coefficients_read_p0(self, values):
        assert spectrum_feasible(values) is MatrixClass.P0

    @pytest.mark.parametrize("c", [1e-20, 1e-3, 1e3, 1e20])
    @pytest.mark.parametrize("values, expected", [
        ([1.0] * 12, MatrixClass.P),
        ([1.0, 2.0, from_polar(1.0, 2.0), from_polar(1.0, -2.0)], MatrixClass.P),
        ([2j, -2j, 1j, -1j], MatrixClass.P0),
        ([1.0, -2.0], MatrixClass.NEITHER),
    ])
    def test_verdict_ignores_the_modulus(self, values, expected, c):
        # coefficient k of prod (t + c v) is c^(n-k) times that of prod (t + v)
        assert spectrum_feasible(c * np.asarray(values)) is expected


class TestEigenWitness:
    def test_strict_witness_on_unit_circle(self):
        lam = from_polar(1.0, -math.pi / 3)
        spectrum = eigen_witness(lam, 2, MatrixClass.P)
        expected = np.sort_complex([from_polar(1.0, math.pi / 3), lam])
        np.testing.assert_allclose(np.sort_complex(spectrum.values), expected, atol=1e-9)
        assert spectrum.conjugate_closed
        assert spectrum_feasible(spectrum.values) is MatrixClass.P

    def test_boundary_weak_witness(self):
        spectrum = eigen_witness(1j, 2, MatrixClass.P0)
        np.testing.assert_allclose(np.sort_complex(spectrum.values), [-1j, 1j],
                                   atol=1e-9)
        assert spectrum_feasible(spectrum.values) is MatrixClass.P0

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible):
            eigen_witness(-1.0, 3, MatrixClass.P)

    def test_feasible_but_unwitnessed_at_integer_ratio(self):
        # theta - pi = -pi/2, so pi/(theta - pi) = -2: admissible for P at
        # n = 3 but outside the strict construction's hypothesis
        assert kellogg_admissible(1j, 3, MatrixClass.P)
        with pytest.raises(FeasibleButUnwitnessed):
            eigen_witness(1j, 3, MatrixClass.P)

    def test_weak_mode_covers_integer_ratio(self):
        spectrum = eigen_witness(1j, 3, MatrixClass.P0)
        assert len(spectrum.values) == 3
        assert spectrum_feasible(spectrum.values) is not MatrixClass.NEITHER

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_real_lambda_with_a_double_value(self, n):
        # k = 1: the core t + 1 and the lift t^(n-1) + 1 share the root -1
        spectrum = eigen_witness(1.0, n, MatrixClass.P0)
        values = spectrum.values
        assert len(values) == n
        assert np.count_nonzero(values == 1.0) == 2
        assert spectrum.conjugate_closed
        assert spectrum_feasible(values) is not MatrixClass.NEITHER

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_boundary_witness_is_the_binomial(self, n):
        # at |theta - pi| = pi/n only t^n + r^n has nonnegative coefficients
        # and vanishes at -lambda
        r = 3.0
        lam = from_polar(r, math.pi + math.pi / n)
        spectrum = eigen_witness(lam, n, MatrixClass.P0)
        q = spectrum_aux_poly(spectrum.values)
        assert abs(q[0] - r**n) <= 1e-12 * r**n
        for k in range(1, n):
            assert abs(q[k]) <= 1e-12 * math.comb(n, k) * r ** (n - k), k
        assert spectrum_feasible(spectrum.values) is MatrixClass.P0

    def test_p_witness_whose_coefficients_span_twelve_decades(self):
        # witness campaign seed 2132340198, case 270: every coefficient of
        # prod (t + v) is positive, the smallest 7.6e-13 of the largest
        lam = complex(-7.240350349062167, 1.9457822337685502)
        spectrum = eigen_witness(lam, 12, MatrixClass.P)
        assert spectrum_feasible(spectrum.values) is MatrixClass.P

    @pytest.mark.parametrize("mode, n", [
        *[(MatrixClass.P, n) for n in range(2, 13)],
        *[(MatrixClass.P0, n) for n in range(1, 13)],
    ])
    def test_witnesses_across_sectors_and_moduli(self, mode, n):
        built = 0
        for r in (1e-20, 1e-3, 1.0, 1e3, 1e20):
            for gap in _sector_gaps(n):
                for side in (1.0, -1.0):
                    lam = from_polar(r, math.pi + side * gap)
                    if not kellogg_admissible(lam, n, mode):
                        continue
                    try:
                        spectrum = eigen_witness(lam, n, mode)
                    except FeasibleButUnwitnessed:
                        continue
                    values = spectrum.values
                    where = (r, gap, side)
                    assert len(values) == n, where
                    assert lam in values, where
                    assert spectrum.conjugate_closed, where
                    feasibility = spectrum_feasible(values)
                    if mode is MatrixClass.P:
                        assert feasibility is MatrixClass.P, where
                    else:
                        assert feasibility is not MatrixClass.NEITHER, where
                    built += 1
        assert built > 0


def _sector_gaps(n):
    """|theta - pi| across every sector [pi/k, pi/(k-1)), k = 2..n, from its
    lower end inwards, and pi itself (k = 1)."""
    gaps = [math.pi]
    for k in range(2, n + 1):
        lo, hi = math.pi / k, math.pi / (k - 1)
        gaps += [lo + f * (hi - lo) for f in (0.0, 0.1, 0.5, 0.9)]
    return gaps


class TestGeneratePMatrix:
    def test_one_by_one(self):
        a = generate_p_matrix(1, 5)
        assert a.shape == (1, 1) and a[0, 0] > 0
        assert principal_minors(a).matrix_class is MatrixClass.P

    def test_seeded_three_by_three(self):
        a = generate_p_matrix(3, 42)
        assert principal_minors(a).matrix_class is MatrixClass.P

    def test_determinism(self):
        np.testing.assert_array_equal(generate_p_matrix(5, 7), generate_p_matrix(5, 7))

    def test_cap_boundary(self):
        a = generate_p_matrix(12, 0)
        assert a.shape == (12, 12)
        assert principal_minors(a).matrix_class is MatrixClass.P

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            generate_p_matrix(13, 0)

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_eigenvalues_match_lapack(self, n):
        # clustered characteristic polynomials: every computed eigenvalue
        # lies near a LAPACK one and every LAPACK one near a computed one
        for seed in range(20):
            a = generate_p_matrix(n, seed)
            rs = eigenvalues(a)
            assert rs.converged, seed
            lapack = np.linalg.eigvals(a)
            dist = np.abs(rs.roots[:, None] - lapack[None, :])
            worst = max(dist.min(axis=0).max(), dist.min(axis=1).max())
            assert worst <= 1e-4 * np.max(np.abs(lapack)), seed

    def test_aux_poly_positive_for_p_matrices(self):
        for seed in range(10):
            a = generate_p_matrix(4, seed)
            assert classify_signs(aux_poly(a)) is SignClass.POSITIVE
