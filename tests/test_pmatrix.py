import itertools
import math
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorpoly import (
    AngleTooSmall,
    ComplexCharPoly,
    DimensionCap,
    DomainError,
    FeasibleButUnwitnessed,
    MatrixClass,
    NotAdmissible,
    NotConjugateClosed,
    PreconditionError,
    SectorPolyError,
    SignClass,
    ZeroLambda,
    classify_signs,
    eigen_witness,
    eigenvalues,
    from_polar,
    generate_p_matrix,
    kellogg_admissible,
    principal_minors,
    spectrum_feasible,
    wedge_admissible,
)
from sectorpoly import find_roots, pmatrix, synthesize
from sectorpoly.pmatrix import MINOR_TOL, spectrum_aux_poly
from sectorpoly.poly import is_conjugate_closed, relative_residual
from sectorpoly.synthesis import ANGLE_TOL
from test_boundary import TIER1_OFFSETS
from test_campaigns import _witness_target

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
        # so do E_k and its tolerance; here the E_k have the minors' signs
        signs = {MatrixClass.P: SignClass.POSITIVE, MatrixClass.P0: SignClass.NONNEGATIVE,
                 MatrixClass.NEITHER: SignClass.MIXED}[expected]
        assert principal_minors(scale * np.asarray(a)).aux_sign_class() is signs

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
        assert (principal_minors(c * a).aux_sign_class()
                is principal_minors(a).aux_sign_class())

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
        for a, expected in (([[1, 2], [3, 4]], [-2, -5, 1]), (np.eye(2), [1, -2, 1]),
                            (ROTATION, [1, 0, 1])):
            np.testing.assert_allclose(principal_minors(a).char_poly(), expected, atol=1e-14)

    def test_aux_poly_examples(self):
        for a, expected in (([[1, 2], [3, 4]], [-2, 5, 1]), (np.eye(2), [1, 2, 1]),
                            (ROTATION, [1, 0, 1])):
            np.testing.assert_allclose(principal_minors(a).aux_poly(), expected, atol=1e-14)

    def test_reflection_identity_exact(self):
        # aux(t) == (-1)^n char(-t), coefficientwise without tolerance
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n)) * rng.uniform(0.5, 3)
            report = principal_minors(a)
            p, q = report.char_poly(), report.aux_poly()
            reflected = np.array([(-1.0) ** n * (-1.0) ** k * p[k]
                                  for k in range(n + 1)])
            np.testing.assert_array_equal(q, reflected)

    def test_root_correspondence(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            report = principal_minors(a)
            q = report.aux_poly()
            rs = eigenvalues(report)
            assert rs.converged
            for lam in rs.roots:
                assert relative_residual(q, -complex(lam)) <= 1e-8

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e8])
    def test_six_fold_eigenvalue_at_every_scale(self, c):
        # a 6-fold root at every scale: the residual must not accept the
        # Newton-polygon starts, which lie on the circle |t| = c
        rs = eigenvalues(principal_minors(c * np.eye(6)))
        assert rs.converged
        assert float(np.max(np.abs(rs.roots - c))) <= 1e-2 * c

    def test_e_sums_match_eigenvalue_symmetric_functions(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            rep = principal_minors(a)
            rs = eigenvalues(rep)
            assert rs.converged
            for k in range(1, n + 1):
                esym = sum(np.prod(c) for c in combinations(rs.roots, k))
                scale = max(1.0, abs(complex(rep.e_sums[k - 1])))
                assert abs(complex(esym) - complex(rep.e_sums[k - 1])) <= 1e-6 * scale

    @pytest.mark.parametrize("kind", ["real", "complex", "zero_pivot"])
    def test_eigenvalues_of_report_equal_eigenvalues_of_matrix(self, kind):
        # the report's eigenvalues are LAPACK's for the matrix it was made
        # of (worst gap 9e-14 * rho, at zero_pivot n = 8)
        rng = np.random.default_rng(25)
        for n in range(1, 13):
            a = rng.uniform(-1.0, 1.0, (n, n))
            if kind == "complex":
                # Hermitian: complex minors, real characteristic polynomial
                b = a + 1j * rng.uniform(-1.0, 1.0, (n, n))
                a = b + b.conj().T
            elif kind == "zero_pivot":
                a[0, 0] = 0.0
            rs = eigenvalues(principal_minors(a))
            assert rs.converged and len(rs.roots) == n, n
            lapack = np.linalg.eigvals(a)
            dist = np.abs(rs.roots[:, None] - lapack[None, :])
            gap = max(dist.min(axis=0).max(), dist.min(axis=1).max())
            assert gap <= 1e-10 * max(1.0, float(np.max(np.abs(lapack)))), n

    def test_eigenvalues_of_a_report_beyond_the_default_cap(self):
        rs = eigenvalues(principal_minors(np.eye(13), cap=13))
        assert rs.converged and len(rs.roots) == 13

    def test_singular_matrix_has_an_exact_zero_eigenvalue(self):
        # det [[1, 1], [1, 1]] = 0 exactly: the characteristic polynomial is
        # t (t - 2), whose zero root find_roots returns exactly
        rs = eigenvalues(principal_minors([[1.0, 1.0], [1.0, 1.0]]))
        assert rs.converged and 0j in rs.roots.tolist()
        np.testing.assert_allclose(np.sort_complex(rs.roots), [0.0, 2.0], rtol=0, atol=1e-15)

    def test_complex_char_poly_rejected(self):
        with pytest.raises(ComplexCharPoly):
            principal_minors([[1j]]).char_poly()
        with pytest.raises(ComplexCharPoly):
            principal_minors([[1j, 0], [0, 1.0]]).aux_poly()


def _aux_poly_reference(rep):
    """Reference: aux_poly as the report computed it in numpy on every call."""
    imag = np.abs(rep.e_sums.imag)
    if np.any(imag > rep.tolerances):
        raise ComplexCharPoly(f"minor sums are not real (max |imag| = {float(np.max(imag))!r})")
    return np.append(rep.e_sums.real[::-1], 1.0)


def _char_poly_reference(rep):
    q = _aux_poly_reference(rep)
    return q * (-1.0) ** np.arange(q.size - 1, -1, -1) + 0.0


def _aux_sign_class_reference(rep):
    return classify_signs(_aux_poly_reference(rep), np.append(rep.tolerances[::-1], 0.0))


class TestMinorReportSinglePass:
    """aux_poly, char_poly and aux_sign_class read one list of coefficients,
    made once per report, and give the numpy forms' results bit for bit."""

    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["P", "random", "zero_trace", "singular", "hermitian"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_numpy_forms(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "P":
            a = generate_p_matrix(n, seed)
        else:
            a = rng.uniform(-1.0, 1.0, (n, n))
            if kind == "zero_trace":        # E_1 = 0, exactly at the last entry
                a[-1, -1] = -float(np.sum(np.diag(a)[:-1]))
            elif kind == "singular":
                a[-1] = 0.0
            elif kind == "hermitian":       # complex minors, real E_k
                b = a + 1j * rng.uniform(-1.0, 1.0, (n, n))
                a = b + b.conj().T
        rep = principal_minors(a)
        for _ in range(2):      # the second read comes from the cache
            assert rep.aux_poly().tobytes() == _aux_poly_reference(rep).tobytes()
            assert rep.char_poly().tobytes() == _char_poly_reference(rep).tobytes()
            assert rep.aux_sign_class() is _aux_sign_class_reference(rep)

    @pytest.mark.parametrize("e_sums", [[0.0, -0.0, 2.0], [-0.0, 0.0, -0.0], [1.0, -0.0, 0.0]])
    def test_a_zero_e_k_gives_positive_zero(self, e_sums):
        rep = pmatrix.MinorReport(
            e_sums=np.array(e_sums, dtype=np.complex128), min_real_minor=0.0,
            max_abs_imag_minor=0.0, matrix_class=MatrixClass.P0,
            tolerances=np.full(3, MINOR_TOL))
        p = rep.char_poly()
        assert p.tobytes() == _char_poly_reference(rep).tobytes()
        zeros = p == 0.0
        assert zeros.any() and not np.signbit(p[zeros]).any()

    def test_complex_matrix_raises_on_every_call(self):
        rep = principal_minors([[1j, 0], [0, 1.0]])
        for _ in range(3):
            for read in (rep.aux_poly, rep.char_poly, rep.aux_sign_class):
                with pytest.raises(ComplexCharPoly, match="minor sums are not real"):
                    read()
        assert "_aux" not in vars(rep)      # the raise left nothing cached


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

    @pytest.mark.parametrize("mode", [MatrixClass.P, MatrixClass.P0])
    @pytest.mark.parametrize("lam", [complex(math.inf, 1), complex(math.nan, 1),
                                     complex(1, math.nan), math.inf])
    def test_non_finite_lambda_raises(self, lam, mode):
        with pytest.raises(DomainError):
            kellogg_admissible(lam, 3, mode)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_boundary_tolerance_decides_admissibility(self, n):
        # within ANGLE_TOL of pi/n is pi/n: weakly but not strictly admissible
        for offset in (0.0, 5e-14, -5e-14):
            for side in (1.0, -1.0):
                lam = from_polar(2.0, math.pi + side * (math.pi / n + offset))
                assert kellogg_admissible(lam, n, MatrixClass.P0)
                assert not kellogg_admissible(lam, n, MatrixClass.P)
        short = from_polar(2.0, math.pi + math.pi / n - 2e-13)
        clear = from_polar(2.0, math.pi + math.pi / n + 2e-13)
        assert not kellogg_admissible(short, n, MatrixClass.P0)
        if n > 1:
            assert kellogg_admissible(clear, n, MatrixClass.P)

    @pytest.mark.parametrize("mode", [MatrixClass.P, MatrixClass.P0])
    def test_n_beyond_float64_raises(self, mode):
        # math.pi / n overflows converting n; a P-mode zero lambda does not
        # get past the check either
        for lam in (1.0, 0j):
            with pytest.raises(DomainError):
                kellogg_admissible(lam, 10**400, mode)


class TestWedgeAdmissible:
    MODES = (MatrixClass.P, MatrixClass.P0)
    OFFSETS = (-2.0 * ANGLE_TOL, -0.5 * ANGLE_TOL, 0.5 * ANGLE_TOL, 2.0 * ANGLE_TOL)

    @pytest.mark.parametrize("mode", MODES)
    def test_float_gap_gives_plain_bool(self, mode):
        for gap in (0.0, 1.0, math.pi):
            assert type(wedge_admissible(gap, 3, mode)) is bool

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 1000])
    def test_agrees_with_kellogg_near_the_boundary(self, n, mode):
        # lambda at pi + gap has |arg(-lambda)| = gap up to rounding, far
        # below the ANGLE_TOL/2 between each offset and the tolerance
        for offset in self.OFFSETS:
            gap = math.pi / n + offset
            if gap > math.pi:
                continue
            expected = kellogg_admissible(from_polar(1.0, math.pi + gap), n, mode)
            assert wedge_admissible(gap, n, mode) is expected
        assert wedge_admissible(math.pi / n + 0.5 * ANGLE_TOL, n, mode) is (
            mode is MatrixClass.P0)
        assert wedge_admissible(math.pi / n - 2.0 * ANGLE_TOL, n, mode) is False
        assert wedge_admissible(math.pi / n + 2.0 * ANGLE_TOL, n, mode) is True

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_array_matches_scalars(self, n, mode):
        gaps = np.concatenate((np.linspace(0.0, math.pi, 101),
                               math.pi / n + np.array(self.OFFSETS)))
        result = wedge_admissible(gaps, n, mode)
        assert result.dtype == bool and result.shape == gaps.shape
        assert result.tolist() == [wedge_admissible(g, n, mode) for g in gaps.tolist()]

    def test_rejects_other_modes_and_sizes(self):
        with pytest.raises(PreconditionError):
            wedge_admissible(1.0, 3, MatrixClass.NEITHER)
        with pytest.raises(PreconditionError):
            wedge_admissible(1.0, 0, MatrixClass.P)
        with pytest.raises(DomainError):
            wedge_admissible(np.zeros(3), 10**400, MatrixClass.P0)


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

    def test_empty_spectrum_rejected(self):
        with pytest.raises(PreconditionError, match="at least one value"):
            spectrum_feasible([])

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

    @pytest.mark.parametrize("values", [[1e-200] * 3, [1e200, 1e200], [1e-300, 1e-300j, -1e-300j]])
    def test_extreme_moduli_read_p(self, values):
        # the products 1e-600 and 1e400 leave float64, the verdict does not
        assert spectrum_feasible(values) is MatrixClass.P

    def test_power_of_two_multiples_read_p(self):
        values = np.array([1.0, 2.0, from_polar(1.0, 2.0), from_polar(1.0, -2.0)])
        for e in (-900, -40, 0, 40, 900):
            assert spectrum_feasible(np.ldexp(1.0, e) * values) is MatrixClass.P

    def test_underflowing_bound_raises(self):
        # a spread beyond float64: prod |v| underflows although no value is 0
        with pytest.raises(DomainError, match="float64"):
            spectrum_feasible([1e-200, 1e-200, 1e-200, 1e200])

    def test_wide_spread_in_range_keeps_its_verdict(self):
        # every product of [1e-300, 1e300] is in range as given
        assert spectrum_feasible([1e-300, 1e300]) is MatrixClass.P

    @pytest.mark.parametrize("values", [
        [math.inf], [math.nan, 1.0], [complex(math.inf, 1), complex(math.inf, -1)],
    ])
    def test_non_finite_values_raise(self, values):
        with pytest.raises(DomainError):
            spectrum_feasible(values)


def _convolved_aux_poly(values):
    """Reference: prod (t + v) by one np.convolve per value, as
    spectrum_aux_poly expanded it before it ran in Python scalars."""
    q = np.array([1.0 + 0.0j])
    for v in values:
        q = np.convolve(q, np.array([v, 1.0 + 0.0j]))
    return q


def _verdicts(spectra):
    """spectrum_feasible of each spectrum, or the class of the error it raises."""
    out = []
    for values in spectra:
        try:
            out.append(spectrum_feasible(values))
        except SectorPolyError as exc:
            out.append(type(exc))
    return out


def _witness_spectra(targets):
    """The witness values of every (lambda, n, mode) that has a witness."""
    spectra = []
    for lam, n, mode in targets:
        try:
            spectra.append(eigen_witness(lam, n, mode).values)
        except (NotAdmissible, FeasibleButUnwitnessed):
            pass
    return spectra


class TestSpectrumAuxPolyParity:
    """The products in Python scalars differ from the convolved ones in the
    last bits only: every spectrum_feasible verdict and error stays."""

    def _assert_same_verdicts(self, monkeypatch, spectra):
        verdicts = _verdicts(spectra)
        monkeypatch.setattr(pmatrix, "spectrum_aux_poly", _convolved_aux_poly)
        assert verdicts == _verdicts(spectra)
        return verdicts

    def test_campaign_spectra(self, monkeypatch):
        targets = [_witness_target(11, i) for i in range(10_000)]
        spectra = _witness_spectra(targets)
        assert len(spectra) == 10_000
        # every tenth also negated (mostly Neither), with one value
        # conjugated (not conjugate-closed unless real), and scaled so that
        # its largest modulus is 1e300 or 1e-300
        for values in spectra[::10]:
            top = np.abs(values).max()
            spectra += [-values, np.append(values[:1].conj(), values[1:]),
                        values * (1e300 / top), values * (1e-300 / top)]
        verdicts = self._assert_same_verdicts(monkeypatch, spectra)
        assert {MatrixClass.P, MatrixClass.P0, MatrixClass.NEITHER,
                NotConjugateClosed} <= set(verdicts)

    def test_boundary_grid_spectra(self, monkeypatch):
        # the reduced grid of test_boundary: |theta - pi| = (pi/k)(1 + d)
        targets = []
        for mode, k, n, d, side in itertools.product(
                (MatrixClass.P, MatrixClass.P0), range(1, 13), range(1, 13),
                TIER1_OFFSETS, (1.0, -1.0)):
            gap = math.pi / k * (1.0 + d)
            if gap <= math.pi:
                targets.append((from_polar(1.0, math.pi + side * gap), n, mode))
        spectra = _witness_spectra(targets)
        assert len(spectra) > 1300
        self._assert_same_verdicts(monkeypatch, spectra + [-v for v in spectra])

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_values_at_extreme_moduli(self, monkeypatch, scale):
        spectra = [scale * np.asarray(v, dtype=complex) for v in (
            [1.0] * 12,
            [1.0, 2.0, from_polar(1.0, 2.0), from_polar(1.0, -2.0)],
            [2j, -2j, 1j, -1j],
            [1.0, -2.0],
            [1j],
            [1.0, 1e-5, 2.0],
            [from_polar(1.0, 3.0), from_polar(1.0, -3.0), 1e-5],
        )]
        spectra += [[scale, 1.0], [scale, scale, 1.0 / scale], [scale] * 3 + [1.0]]
        self._assert_same_verdicts(monkeypatch, spectra)


class TestQuotientValues:
    """The closed-form roots of the degree-1 and degree-2 quotients (cores of
    degree 3 and 4, off the boundary and the positive ones on it) against
    40-digit roots of the same quotient."""

    @staticmethod
    def _alphas(k):
        lo, hi = math.pi / k, math.pi / (k - 1)
        return [lo, lo + 1e-12, lo + 0.1 * (hi - lo), 0.5 * (lo + hi),
                lo + 0.9 * (hi - lo), hi - 1e-12]

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("sign", [SignClass.POSITIVE, SignClass.NONNEGATIVE])
    def test_match_forty_digit_roots(self, k, sign):
        checked = 0
        for alpha, r, side in itertools.product(
                self._alphas(k), (1e-20, 1e-3, 1.0, 1e3, 1e20), (1.0, -1.0)):
            mu = from_polar(r, side * alpha)
            # the positive core on the boundary has degree k + 1 > n = k;
            # q_j has degree k for every j < k
            js = [1] if sign is SignClass.POSITIVE else range(1, k)
            for j in js:
                try:
                    core = synthesize(mu, k, sign, j).core
                except AngleTooSmall:
                    continue
                self._assert_match(core, mu, (alpha, r, side, j))
                checked += 1
        # every angle but the boundary one in positive mode
        assert checked == (50 if sign is SignClass.POSITIVE else 60 * (k - 1))

    @pytest.mark.parametrize("k", [2, 3])
    def test_positive_boundary_cores_match_forty_digit_roots(self, k):
        # at pi/k the positive core has degree k + 1: 3 and 4
        for r, side in itertools.product((1e-20, 1e-3, 1.0, 1e3, 1e20), (1.0, -1.0)):
            mu = from_polar(r, side * math.pi / k)
            core = synthesize(mu, k + 1, SignClass.POSITIVE).core
            assert core.size == k + 2
            self._assert_match(core, mu, (r, side))

    @staticmethod
    def _assert_match(core, mu, where):
        """_quotient_values of the core deflated by mu and its conjugate
        agree with 40-digit roots of the quotient to 4 eps, relatively."""
        eps = np.finfo(np.float64).eps
        q = pmatrix._deflate(core, -mu)
        assert q[0] > 0.0
        values = pmatrix._quotient_values(q)
        with mpmath.workdps(40):
            exact = [-complex(z) for z in mpmath.polyroots(
                [mpmath.mpf(c) for c in q.tolist()[::-1]], maxsteps=200, extraprec=200)]
        assert len(values) == core.size - 3
        for v in values:
            err = min(abs(v - z) / abs(z) for z in exact)
            assert err <= 4 * eps, (*where, v)
        if len(values) == 2 and values[0].imag != 0.0:
            assert values[1] == values[0].conjugate()

    @pytest.mark.parametrize("mode", [MatrixClass.P, MatrixClass.P0])
    def test_solver_runs_from_k_5_on(self, monkeypatch, mode):
        degrees = []
        monkeypatch.setattr(pmatrix, "find_roots",
                            lambda q: degrees.append(len(q) - 1) or find_roots(q))
        for k in range(3, 8):
            gap = 0.5 * (math.pi / k + math.pi / (k - 1))
            spectrum = eigen_witness(from_polar(2.0, math.pi + gap), 9, mode)
            assert is_conjugate_closed(spectrum.values)
        assert degrees == [3, 4, 5]


class TestBoundaryValues:
    """A boundary core t^k + c takes its values from the circle rule, in
    closed form, against 40-digit roots of the synthesized core (closed form
    too: mpmath.polyroots does not converge on these binomials)."""

    @pytest.mark.parametrize("k", range(3, 13))
    def test_match_forty_digit_roots_without_a_solve(self, monkeypatch, k):
        monkeypatch.setattr(pmatrix, "find_roots", lambda q: pytest.fail(f"solved {q}"))
        eps = np.finfo(np.float64).eps
        for r, side in itertools.product((1e-20, 1e-3, 1.0, 7.0, 1e3, 1e20), (1.0, -1.0)):
            lam = from_polar(r, math.pi + side * math.pi / k)
            spectrum = eigen_witness(lam, k, MatrixClass.P0)
            core = synthesize(-lam, k, SignClass.NONNEGATIVE).core
            assert np.count_nonzero(core) == 2
            values = spectrum.values.tolist()
            assert len(values) == k
            with mpmath.workdps(40):
                rho = mpmath.root(mpmath.mpf(core[0]), k)
                exact = [-rho * mpmath.expjpi(mpmath.mpf(2 * j + 1) / k) for j in range(k)]
                for v in values:
                    err = min(abs(mpmath.mpc(v) - z) for z in exact) / rho
                    assert err <= 8 * eps, (r, side, v)
            for v, w in zip(values[0:k - 1:2], values[1:k:2]):
                assert w == v.conjugate()
            if k % 2 == 1:
                assert values[-1].imag == 0.0
            assert spectrum.feasibility is MatrixClass.P0


def _circle_forms():
    """(m, rho, first) for each form eigen_witness calls _circle_values in,
    m up to 13, with the negated roots it stands for, formed at the working
    precision of the call."""
    forms = []
    for g in range(0, 14):
        # the lift factor t^g + 1: -e^{i(2j+1)pi/g}
        forms.append(((g, 1.0, 1), lambda g=g: [
            -mpmath.expjpi(mpmath.mpf(2 * j + 1) / g) for j in range(g)]))
    for g in range(0, 13):
        # the lift factor 1 + t + ... + t^g: the nontrivial (g+1)-th roots of unity
        forms.append(((g + 1, 1.0, 2), lambda g=g: [
            -mpmath.expjpi(mpmath.mpf(2 * j) / (g + 1)) for j in range(1, g + 1)]))
    for k, rho in itertools.product(range(1, 14), (1e-20, 1e-3, 1.0, 7.0, 1e3, 1e20)):
        # the boundary core t^k + rho^k less the pair -rho e^{+-i pi/k}
        forms.append(((k, rho, 3), lambda k=k, rho=rho: [
            -mpmath.mpf(rho) * mpmath.expjpi(mpmath.mpf(2 * j + 1) / k)
            for j in range(1, k - 1)]))
    return [pytest.param(form, exact, id="m={},rho={!r},first={}".format(*form))
            for form, exact in forms]


class TestCircleValues:
    """_circle_values against the 40-digit roots of the polynomial each of its
    forms stands for: every root once, within 8 eps of the modulus, in exact
    conjugate pairs and with the real root exactly real."""

    @pytest.mark.parametrize("form, exact", _circle_forms())
    def test_match_forty_digit_roots(self, form, exact):
        m, rho, first = form
        eps = np.finfo(np.float64).eps
        values = pmatrix._circle_values(m, rho, first)
        with mpmath.workdps(40):
            left = exact()
            assert len(values) == len(left)
            for v in values:
                errs = [abs(mpmath.mpc(v) - z) / rho for z in left]
                i = min(range(len(left)), key=errs.__getitem__)
                assert errs[i] <= 8 * eps, (form, v)
                del left[i]
        pairs, real = divmod(len(values), 2)
        for v, w in zip(values[0:2 * pairs:2], values[1:2 * pairs:2]):
            assert v.imag != 0.0 and w == v.conjugate()
        if real:
            assert values[-1] == complex(rho) and values[-1].imag == 0.0


class TestEigenWitness:
    def test_campaign_witnesses_expand_to_their_synthesis(self):
        # prod (t + v) over a witness is the polynomial synthesized at -lambda,
        # each coefficient within SIGN_TOL of the bound prod (t + |v|) that
        # spectrum_feasible judges against: a check on every value, where the
        # campaign's match distance reads lambda itself
        worst = 0.0
        for i in range(2000):
            lam, n, mode = _witness_target(5, i)
            values = eigen_witness(lam, n, mode).values
            sign = SignClass.POSITIVE if mode is MatrixClass.P else SignClass.NONNEGATIVE
            q = synthesize(-lam, n, sign).coeffs
            gap = np.abs(spectrum_aux_poly(values) - q) / spectrum_aux_poly(np.abs(values)).real
            worst = max(worst, float(gap.max()))
        assert worst <= pmatrix.SIGN_TOL

    def test_strict_witness_on_unit_circle(self):
        lam = from_polar(1.0, -math.pi / 3)
        spectrum = eigen_witness(lam, 2, MatrixClass.P)
        expected = np.sort_complex([from_polar(1.0, math.pi / 3), lam])
        np.testing.assert_allclose(np.sort_complex(spectrum.values), expected, atol=1e-9)
        assert is_conjugate_closed(spectrum.values)
        assert spectrum_feasible(spectrum.values) is MatrixClass.P

    def test_boundary_weak_witness(self):
        spectrum = eigen_witness(1j, 2, MatrixClass.P0)
        np.testing.assert_allclose(np.sort_complex(spectrum.values), [-1j, 1j],
                                   atol=1e-9)
        assert spectrum_feasible(spectrum.values) is MatrixClass.P0

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible):
            eigen_witness(-1.0, 3, MatrixClass.P)

    @pytest.mark.parametrize("mode", [MatrixClass.P, MatrixClass.P0])
    def test_non_finite_lambda_raises(self, mode):
        with pytest.raises(DomainError):
            eigen_witness(complex(math.nan, 1), 3, mode)

    @pytest.mark.parametrize("lam, expected", [
        # theta - pi = -pi/2, so pi/(theta - pi) = -2: the core is the positive
        # boundary core (1 + 2t + t^2 + 2t^3) / 2, whose third root is -1/2
        (1j, [1j, -1j, 0.5]),
        # 2 I is a P matrix; the core t + 2 lifts by 1 + t + t^2
        (2.0, [2.0, complex(0.5, -math.sqrt(3) / 2), complex(0.5, math.sqrt(3) / 2)]),
    ], ids=["1j", "2.0"])
    def test_p_witness_at_integer_ratio(self, lam, expected):
        spectrum = eigen_witness(lam, 3, MatrixClass.P)
        assert spectrum.values[0] == lam
        np.testing.assert_allclose(spectrum.values, expected, atol=1e-15)
        assert spectrum.feasibility is MatrixClass.P
        assert spectrum_feasible(spectrum.values) is MatrixClass.P

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
        assert is_conjugate_closed(spectrum.values)
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

    @pytest.mark.parametrize("d", [1e-12, 1e-11, 3e-10, 9e-10])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11])
    def test_weak_witness_just_inside_a_boundary(self, k, d):
        # |theta - pi| = (pi/k)(1 - d) lies in sector k + 1, not on pi/k
        for side in (1.0, -1.0):
            lam = from_polar(1.0, math.pi + side * (math.pi / k) * (1.0 - d))
            spectrum = eigen_witness(lam, 12, MatrixClass.P0)
            assert len(spectrum.values) == 12
            assert lam in spectrum.values
            assert is_conjugate_closed(spectrum.values)
            assert spectrum.feasibility is not MatrixClass.NEITHER

    @pytest.mark.parametrize("mode", [MatrixClass.P, MatrixClass.P0])
    @pytest.mark.parametrize("r", [1e-3, 1.0, 7.0])
    def test_witness_near_the_positive_real_axis_is_conjugate_closed(self, mode, r):
        # 3e-9 from the axis is far beyond ANGLE_TOL: a k = 2 core carries
        # lambda and its conjugate, where an unpaired k = 1 core would not
        for theta in (3e-9, -3e-9):
            lam = from_polar(r, theta)
            spectrum = eigen_witness(lam, 5, mode)
            assert is_conjugate_closed(spectrum.values)
            assert lam in spectrum.values and lam.conjugate() in spectrum.values
            assert spectrum_feasible(spectrum.values) is spectrum.feasibility
            assert spectrum.feasibility is not MatrixClass.NEITHER
            if mode is MatrixClass.P:
                assert spectrum.feasibility is MatrixClass.P

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
                    assert is_conjugate_closed(spectrum.values), where
                    feasibility = spectrum_feasible(values)
                    assert spectrum.feasibility is feasibility, where
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


def _lapack_gap(roots, a) -> float:
    """The largest distance from a computed eigenvalue to the nearest LAPACK
    one, or back, relative to the spectral radius."""
    lapack = np.linalg.eigvals(a)
    dist = np.abs(roots[:, None] - lapack[None, :])
    return max(dist.min(axis=0).max(), dist.min(axis=1).max()) / np.max(np.abs(lapack))


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
            rs = eigenvalues(principal_minors(a))
            assert rs.converged, seed
            assert _lapack_gap(rs.roots, a) <= 1e-4, seed

    @pytest.mark.parametrize("seed", [77, 183, 232, 881])
    def test_clustered_eigenvalues_match_lapack(self, seed):
        # from starts about 0 these ended 3.0e-3, 5.3e-3, 9.6e-4 and 8.1e-4
        # * rho from LAPACK after 17 sweeps, and at seed 183 the polish sweep
        # undid convergence; from starts about the centroid they take 5 to 8
        a = generate_p_matrix(12, seed)
        rs = eigenvalues(principal_minors(a))
        assert rs.converged
        assert _lapack_gap(rs.roots, a) <= 1e-4

    def test_aux_poly_positive_for_p_matrices(self):
        for seed in range(10):
            a = generate_p_matrix(4, seed)
            assert classify_signs(principal_minors(a).aux_poly()) is SignClass.POSITIVE


def _diagonally_dominant_p_matrices():
    """The strictly diagonally dominant P matrices of n = 10..12 drawn from
    default_rng([0, 10]): for each i < 8, n = 6..12, one P matrix, then one
    uniform matrix, which only advances the stream."""
    rng = np.random.default_rng([0, 10])
    out = []
    for i in range(8):
        for n in range(6, 13):
            a = rng.uniform(-1.0, 1.0, (n, n))
            np.fill_diagonal(a, 0.0)
            np.fill_diagonal(a, np.sum(np.abs(a), axis=1) + rng.uniform(0.1, 1.0, n))
            rng.uniform(-1.0, 1.0, (n, n))
            if n >= 10:
                out.append(pytest.param(a, id=f"n{n}-{i}"))
    return out


class TestDiagonallyDominantEigenvalues:
    @pytest.mark.parametrize("a", _diagonally_dominant_p_matrices())
    def test_eigenvalues_match_lapack(self, a):
        # clustered characteristic polynomials: with a residual tolerance of
        # 1e-12 and 3 polish sweeps, n = 12 #5 ended 2.5e-3 * rho from LAPACK
        rs = eigenvalues(principal_minors(a))
        assert rs.converged
        assert _lapack_gap(rs.roots, a) <= 1e-4
