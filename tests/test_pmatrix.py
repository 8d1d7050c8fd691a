import math
from itertools import combinations

import numpy as np
import pytest

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
