import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sectorpoly import (
    DomainError,
    SignClass,
    canonical,
    classify_signs,
    find_roots,
    from_polar,
    principal_arg,
    verify_cot,
)
from sectorpoly.poly import (
    complex_to_json,
    horner,
    is_conjugate_closed,
    parse_complex,
    relative_residual,
)

# expansion of (t-1)(t-2)(t-3), cross-checked by convolution below
CUBIC_123 = [-6.0, 11.0, -6.0, 1.0]


def test_cubic_oracle_expansion():
    oracle = np.convolve(np.convolve([-1.0, 1.0], [-2.0, 1.0]), [-3.0, 1.0])
    np.testing.assert_array_equal(oracle, CUBIC_123)


class TestEval:
    def test_root_of_t2_plus_1(self):
        assert horner(canonical([1, 0, 1]).tolist(), 1j) == (0j, 2.0)

    def test_constant_is_exact(self):
        assert horner(canonical([5]).tolist(), 3 + 4j) == (5 + 0j, 5.0)

    def test_cubic_root(self):
        assert horner(canonical(CUBIC_123).tolist(), 2.0) == (0.0, 6 + 22 + 24 + 8)

    def test_product_homomorphism(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = canonical(rng.uniform(-3, 3, rng.integers(1, 11)) + 0.5)
            q = canonical(rng.uniform(-3, 3, rng.integers(1, 11)) + 0.5)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs, scale = horner(np.convolve(p, q).tolist(), z)
            rhs = horner(p.tolist(), z)[0] * horner(q.tolist(), z)[0]
            assert abs(lhs - rhs) <= 1e-10 * scale

    @given(
        coeffs=st.lists(st.integers(-1000, 1000), min_size=2, max_size=9),
        r=st.floats(1e-2, 1e2),
        angle=st.floats(-math.pi, math.pi),
        c=st.sampled_from([1e-20, 1e20]),
    )
    @settings(max_examples=200)
    def test_relative_residual_is_homogeneous(self, coeffs, r, angle, c):
        # q(t/c) * c^n at c*z has the residual of q at z
        q = np.asarray(coeffs, dtype=np.float64)
        z = from_polar(r, angle)
        assume(relative_residual(q, z) > 1e-2)
        n = len(q) - 1
        scaled = q * c ** (n - np.arange(n + 1))
        assert relative_residual(scaled, c * z) == pytest.approx(
            relative_residual(q, z), rel=1e-12)

    @pytest.mark.parametrize("coeffs, z", [
        ([1.0, 1.0, 1.0], 1e200),                   # |z|^2 reads inf
        ([0.0, 1.3], complex(1e308, 1e308)),        # |p(z)| beyond float64: abs raises
        ([1.0, 1.0], complex(1.7e308, 1.7e308)),    # |z| beyond float64: abs raises
        ([1.0, 1e308, 1e308], complex(-1e308, 1.0)),   # p(z) reads nan
    ])
    def test_overflowing_residual_raises_without_warning(self, coeffs, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows float64"):
                relative_residual(coeffs, z)


class TestCanonical:
    def test_trims_trailing_zeros(self):
        np.testing.assert_array_equal(canonical([1, 2, 0, 0]), [1, 2])

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            canonical([0, 0, 0])

    @pytest.mark.parametrize("coeffs", [[1, "x"], {}, [[1, 2], [3]], [1, 10**400], "abc"])
    def test_non_numeric_rejected(self, coeffs):
        with pytest.raises(DomainError):
            canonical(coeffs)

    @pytest.mark.parametrize("coeffs", [
        [1, 2, 3], (0, 0, 1.5), np.array([2.0, -1.0, 0.0]), np.arange(4, dtype=np.int32),
        np.array([1.0, 0.0, 2.0, 0.0])[::2], np.float32([0.5, 0.25]), [True, False, True],
    ])
    def test_fresh_float64_copy(self, coeffs):
        out = canonical(coeffs)
        expected = np.asarray(coeffs, dtype=np.float64)
        np.testing.assert_array_equal(out, expected[: np.flatnonzero(expected)[-1] + 1])
        assert out.dtype == np.float64 and out.ndim == 1
        assert out.flags.owndata and out.flags.writeable
        if isinstance(coeffs, np.ndarray):
            assert not np.shares_memory(out, coeffs)

    def test_scalar_and_2d_input_flatten(self):
        np.testing.assert_array_equal(canonical(5), [5.0])
        np.testing.assert_array_equal(canonical([[1, 2], [3, 0]]), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("coeffs, message", [
        ([0.0, 0.0], "zero polynomial"), ([], "zero polynomial"),
        ([1.0, np.nan], "finite"), ([np.inf, 1.0], "finite"),
        ([1 + 2j], "real numbers"), (5j, "real numbers"), ("abc", "real numbers"),
        (np.array([1, 1 + 1j, 1]), "real numbers"), (np.complex64(2), "real numbers"),
        (["1", "x"], "real numbers"), ([1, 10**400], "real numbers"),
    ])
    def test_errors(self, coeffs, message):
        with pytest.raises(DomainError, match=message):
            canonical(coeffs)

    def test_complex_arrays_reach_no_solver(self):
        # numpy casts a complex array to float with only a ComplexWarning:
        # the imaginary parts were dropped, t^2 + t + 1 solved and converged,
        # and t^2 + 2t + 1 passed
        with pytest.raises(DomainError, match="real numbers"):
            find_roots(np.array([1, 1 + 1j, 1]))
        with pytest.raises(DomainError, match="real numbers"):
            verify_cot(np.array([1, 2 + 3j, 1]))


class TestClassifySigns:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ([1, 1, 1], SignClass.POSITIVE),
            ([1, 0, 1], SignClass.NONNEGATIVE),
            (CUBIC_123, SignClass.MIXED),
        ],
    )
    def test_examples(self, coeffs, expected):
        assert classify_signs(canonical(coeffs)) is expected

    def test_scale_invariance(self):
        # exact coefficients are read literally: a negative one is negative
        # beside a coefficient of any size, and a small positive one positive
        assert classify_signs(canonical([1e8, 1e-2])) is SignClass.POSITIVE
        assert classify_signs(canonical([1e8, -1e-2])) is SignClass.MIXED
        assert classify_signs(canonical([1e8, -1e-8])) is SignClass.MIXED
        assert classify_signs(canonical([1e14, -1, 1])) is SignClass.MIXED
        assert classify_signs(10.0 ** np.arange(13)) is SignClass.POSITIVE

    def test_slack_per_value(self):
        slack = [1e-9, 1.0]
        assert classify_signs([2e-9, 5.0], slack) is SignClass.POSITIVE
        assert classify_signs([1e-10, 5.0], slack) is SignClass.NONNEGATIVE
        assert classify_signs([-1e-9, 0.5], slack) is SignClass.NONNEGATIVE
        assert classify_signs([-2e-9, 5.0], slack) is SignClass.MIXED

    @pytest.mark.parametrize("values, slack", [
        ([1.0, math.inf], 0.0),
        ([math.nan, 1.0], 0.0),
        ([1.0, 1.0], math.nan),
        ([1.0, 1.0], [0.0, math.inf]),
    ])
    def test_non_finite_raises(self, values, slack):
        with pytest.raises(DomainError):
            classify_signs(values, slack)

    def test_positive_satisfies_nonnegative(self):
        assert SignClass.POSITIVE.satisfies(SignClass.NONNEGATIVE)
        assert not SignClass.NONNEGATIVE.satisfies(SignClass.POSITIVE)
        assert not SignClass.MIXED.satisfies(SignClass.NONNEGATIVE)

    @given(
        coeffs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10),
        shift=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=200)
    def test_shift_monotone(self, coeffs, shift):
        # adding a positive constant never moves the class away from POSITIVE
        arr = np.asarray(coeffs)
        if np.all(arr == 0):
            arr = arr + 1.0
        rank = {SignClass.MIXED: 0, SignClass.NONNEGATIVE: 1, SignClass.POSITIVE: 2}
        before = classify_signs(arr)
        after = classify_signs(arr + shift)
        assert rank[after] >= rank[before]


def _numpy_classify_signs(values, slack=0.0):
    """The sign rule as whole-array numpy comparisons, as classify_signs
    decided it before it read Python floats."""
    arr = np.asarray(values, dtype=np.float64)
    slack = np.asarray(slack, dtype=np.float64)
    if not (np.isfinite(arr).all() and np.isfinite(slack).all()):
        raise DomainError("signs are only decided for finite values and slack")
    if (arr > slack).all():
        return SignClass.POSITIVE
    if (arr >= -slack).all():
        return SignClass.NONNEGATIVE
    return SignClass.MIXED


def _outcome(rule, values, slack):
    """The verdict of ``rule``, or the type and message of what it raised."""
    try:
        return rule(values, slack)
    except Exception as exc:
        return type(exc), str(exc)


# signed zeros, subnormals and the ends of the normal range, where a
# comparison on a wider or a flushed type would tell them apart differently
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                -2.2250738585072014e-308, 1.0, -1.0, 1.7976931348623157e308]


def _random_cases(slack_kind):
    rng = np.random.default_rng(31)
    for _ in range(400):
        size = int(rng.integers(0, 14))
        values = rng.choice(_EDGE_VALUES, size) * (rng.uniform(size=size) < 0.6)
        values = np.where(rng.uniform(size=size) < 0.4, rng.normal(size=size), values)
        if slack_kind == "scalar":
            yield values, float(rng.choice(_EDGE_VALUES))
        elif slack_kind == "per_value":
            yield values, np.abs(rng.choice(_EDGE_VALUES, size))
        elif slack_kind == "signed":                                 # negative slack too
            yield values, rng.choice(_EDGE_VALUES, size)
        else:                                                        # a Python list
            yield values.tolist(), 0.0


def _zero_d_cases():
    for value in _EDGE_VALUES:
        yield value, 0.0
        yield np.float64(value), [0.0, 1.0]                          # against per-value
        yield [value, 1.0], -0.0


def _non_finite_cases():
    for bad in (math.nan, math.inf, -math.inf):
        yield [1.0, bad], 0.0
        yield [1.0, 2.0], bad
        yield [1.0, 2.0], [0.0, bad]
        yield [], bad
        yield [1.0, bad, 3.0], [0.0, 0.0]                           # NaN before broadcast


_PARITY_CASES = {
    "random_scalar_slack": lambda: _random_cases("scalar"),
    "random_per_value_slack": lambda: _random_cases("per_value"),
    "random_signed_slack": lambda: _random_cases("signed"),
    "random_list_input": lambda: _random_cases("list"),
    "zero_d": _zero_d_cases,
    "empty": lambda: [([], 0.0), ([], [1.0]), ([], [1.0, 2.0])],
    "wrong_slack_length": lambda: [([1.0, 2.0, 3.0], [0.0, 0.0]),
                                   ([1.0, 2.0], [0.0, 0.0, 0.0])],
    "broadcast_rows": lambda: [([[1.0, -0.0], [2.0, 5e-324]], [0.0, 1e-310])],
    "non_finite": _non_finite_cases,
}


class TestClassifySignsParity:
    @pytest.mark.parametrize("kind", sorted(_PARITY_CASES))
    def test_matches_the_numpy_rule(self, kind):
        # bit for bit the verdict of the array comparisons, or the same
        # exception type and message
        for values, slack in _PARITY_CASES[kind]():
            expected = _outcome(_numpy_classify_signs, values, slack)
            assert _outcome(classify_signs, values, slack) == expected, (values, slack)


class TestPolar:
    def test_negative_real_arg_is_exactly_pi(self):
        assert principal_arg(complex(-3.0, 0.0)) == math.pi
        assert principal_arg(complex(-3.0, -0.0)) == math.pi

    def test_zero_convention(self):
        assert principal_arg(0j) == 0.0

    @given(
        r=st.floats(1e-6, 1e6),
        alpha=st.floats(-math.pi + 1e-9, math.pi),
    )
    @settings(max_examples=300)
    def test_round_trip(self, r, alpha):
        z = from_polar(r, alpha)
        r2, a2 = abs(z), principal_arg(z)
        assert abs(r2 - r) <= 1e-12 * r
        assert abs(a2 - alpha) <= 1e-12


class TestConjugateClosure:
    def test_closed_sets(self):
        assert is_conjugate_closed([1.0, 2.0])
        assert is_conjugate_closed([1j, -1j, 3.0])
        assert is_conjugate_closed([1 + 2j, 1 - 2j, 1 + 2j, 1 - 2j])

    def test_open_sets(self):
        assert not is_conjugate_closed([1j])
        assert not is_conjugate_closed([1j, 1j, -1j])

    def test_moduli_beyond_float64(self):
        # abs of a Python complex raises OverflowError where the modulus
        # leaves float64: such a distance matches nothing, such a reach is inf
        big = complex(1.7e308, 1.7e308)
        v, w = complex(1.3e308, 6.5e307), complex(0.0, 6.5e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_conjugate_closed([big, big.conjugate()])
            assert is_conjugate_closed([v, w, v.conjugate(), w.conjugate()])
            assert not is_conjugate_closed([v, w.conjugate(), v.conjugate()])


class TestComplexWireFormat:
    def test_cartesian(self):
        assert parse_complex({"re": 1.5, "im": -2.0}) == 1.5 - 2j

    def test_polar(self):
        z = parse_complex({"r": 2.0, "alpha": math.pi / 2})
        assert abs(z - 2j) < 1e-15

    def test_plain_number(self):
        assert parse_complex(-3) == -3 + 0j

    @pytest.mark.parametrize(
        "obj",
        [
            {"re": 1.0},
            {"re": 1.0, "im": 0.0, "r": 1.0},
            {"re": 1.0, "alpha": 0.0},
            {"x": 1.0},
            "1+2j",
            True,
            {"re": "x", "im": 1.0},
            {"re": None, "im": 1.0},
            {"re": 1.0, "im": False},
            {"r": 10**400, "alpha": 0.0},
            10**400,
        ],
    )
    def test_rejects_ambiguous_forms(self, obj):
        with pytest.raises(DomainError):
            parse_complex(obj)

    def test_json_round_trip(self):
        z = complex(0.25, -4.0)
        assert parse_complex(complex_to_json(z)) == z
