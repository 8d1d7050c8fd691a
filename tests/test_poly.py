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
    WINDOW,
    complex_to_json,
    horner,
    is_conjugate_closed,
    parse_complex,
    relative_residual,
    scale_roots,
    working_form,
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


# inputs beyond the identity window: root moduli from 1e-200 to 1e200,
# coefficients near both ends of float64, subnormal coefficients, a degree-20
# root spread of 2^70, and mantissas shared across a half-integer exponent gap
EXTREME = [
    [1e-200, 1.0, 1e200],
    [1e200, 1.0, 1e-200],
    [1.0, 1e200, 1e308],
    [1e308, 2.0, 1.0],
    [1.0, 2.0, 1e308],
    [1e-320, 0.0, 1.0],
    [1e-310, 1e-310, 1e-310],
    [1e308, 1e308, 1e308],
    [1.0] + [0.0] * 18 + [-1e20, 1.0],
    [3.0 * 2.0 ** 602, 0.0, 3.0 * 2.0 ** 600],
    [3.0, 0.0, 3.0 * 2.0 ** -1001],
    [0.0, 0.0, 1e300, 7.0],
    # two nonzero terms, whose roots share one modulus at the ends of float64:
    # 2^1023 from both sides, 1.7e308 (e = 1024), 2^1023.1 at degree 2, 2^-1074
    [2.0 ** 1023, 1.0],
    [1.0, 2.0 ** -1023],
    [1.7e308, 1.0],
    [1e308, 0.0, 2.0 ** -1023],
    [2.0 ** -1074, 1.0],
    # three terms whose Fujiwara bound 2^(hi + 1) passes 2^1023, hi = 1023.1,
    # with the roots -1 and -1e308
    [1e308, 1e308, 1.0],
    [1.0, 1.0, 1e-308],
]


def _log2_rule(a):
    """(identity, e) by the rule with plain math.log2 of each coefficient."""
    nonzero = [i for i, c in enumerate(a) if c]
    logs = [math.log2(abs(a[i])) for i in nonzero]
    k, n = nonzero[0], nonzero[-1]
    hi = max([(y - logs[-1]) / (n - i) for i, y in zip(nonzero, logs) if i < n], default=0.0)
    lo = min([(logs[0] - y) / (i - k) for i, y in zip(nonzero, logs) if i > k], default=0.0)
    identity = n * (max(hi, -lo) + 1) <= WINDOW and max(map(abs, logs)) <= WINDOW
    return identity, round((hi + lo) / 2) if abs(hi + lo) > 2 else 0


class TestWorkingForm:
    def test_inside_the_window_returns_its_input(self):
        # r = 10, n = 12: a_0 = 1e12 spreads beyond the cheap pre-test's
        # 2^(WINDOW/n - 2), but the root bounds keep it in the window
        for p in ([1.0, 1.0, 1.0], [1e12] + [1.0] * 11 + [1.0], [2.0 ** WINDOW, 2.0 ** WINDOW],
                  [0.0, 1.3], [0.0, 0.0]):
            p = np.asarray(p)
            w, e = working_form(p)
            assert w is p and e == 0

    @pytest.mark.parametrize("p", EXTREME, ids=range(len(EXTREME)))
    def test_exact_change_of_variable(self, p):
        p = np.asarray(p)
        w, e = working_form(p)
        i = np.arange(p.size)
        # one f with w_i = a_i 2^(i e - f) for every i, and max |w_i| in [1/2, 1)
        n = int(np.flatnonzero(p)[-1])
        f = math.frexp(p[n])[1] + n * e - math.frexp(w[n])[1]
        np.testing.assert_array_equal(np.ldexp(p, i * e - f), w)
        assert 0.5 <= np.abs(w).max() < 1.0
        assert np.all(np.abs(w[p != 0]) >= np.finfo(np.float64).tiny)

    @pytest.mark.parametrize("p", EXTREME, ids=range(len(EXTREME)))
    def test_a_working_form_is_its_own(self, p):
        w, e = working_form(np.asarray(p))
        w2, e2 = working_form(w)
        assert e2 == 0
        np.testing.assert_array_equal(w2, w)

    def test_matches_the_log2_rule(self):
        # identity and e agree with the rule read off math.log2, over random
        # polynomials of degree 1..12 with coefficients scaled by 2^(s i + c)
        rng = np.random.default_rng(21)
        for _ in range(3000):
            n = int(rng.integers(1, 13))
            a = rng.uniform(0.5, 2.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
            a[rng.random(n + 1) < 0.2] = 0.0
            a[-1] = a[-1] or 1.0
            shift = rng.integers(-80, 81) * np.arange(n + 1) + rng.integers(-600, 601)
            if np.abs(shift).max() > 1000:      # keep every a_i a normal float
                continue
            a = np.ldexp(a, shift)
            identity, e = _log2_rule(a.tolist())
            try:
                w, got = working_form(a)
            except DomainError:
                continue
            assert (w is a, got) == (identity, 0 if identity else e)

    @pytest.mark.parametrize("p, match", [
        ([1.0, 1e10, 1e-300], "beyond the float64 range"),     # a root near -1e310
        ([1e300, 1e-300], "beyond the float64 range"),         # the root -1e600
        ([1e-320, 1e300], "beyond the float64 range"),         # the root -1e-620
        ([2.0 ** 1023, 0.5], "beyond the float64 range"),      # the root -2^1024
        ([2.0 ** -1074, 2.0], "beyond the float64 range"),     # the root -2^-1075
        ([1e-300] + [0.0] * 18 + [1e20, 1.0], "span"),         # w_0 would be 2^-1158
    ])
    def test_out_of_range_raises(self, p, match):
        with pytest.raises(DomainError, match=match):
            working_form(np.asarray(p))

    @pytest.mark.parametrize("p, e", [
        ([2.0 ** 1023, 1.0], 1023), ([1.0, 2.0 ** -1023], 1023), ([1.7e308, 1.0], 1024),
        ([1e308, 0.0, 2.0 ** -1023], 1023), ([2.0 ** -1074, 1.0], -1074),
    ])
    def test_two_terms_judge_their_root_modulus(self, p, e):
        # the modulus 2^hi = 2^lo itself, not Fujiwara's 2^(hi + 1) and 2^(lo - 1)
        assert working_form(np.asarray(p))[1] == e

    @pytest.mark.parametrize("p, e", [([1e308, 1e308, 1.0], 512), ([1.0, 1.0, 1e-308], 512)])
    def test_three_terms_take_the_two_term_thresholds(self, p, e):
        # hi = 1023.1 is below 1024: the roots are formed and judged by the
        # callers (scale_roots), not refused on Fujiwara's 2^(hi + 1)
        assert working_form(np.asarray(p))[1] == e

    def test_relative_residual_at_a_root_scaled_by_2_to_the_1024(self):
        # 2.0 ** 1024 overflows; the scaling to the working form does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert relative_residual([1.7e308, 1.0], -1.7e308) == 0.0

    def test_relative_residual_through_the_working_form(self):
        # 1e-200 + t + 1e200 t^2 at its root (-1 + i sqrt 3) / 2e200: a_2 z^2
        # underflowed in the coefficients as given
        z = complex(-1.0, math.sqrt(3.0)) / 2e200
        assert relative_residual([1e-200, 1.0, 1e200], z) <= 4 * np.finfo(np.float64).eps


def _sorting_working_form(p):
    """working_form as it was before its array form: a sort of every |a_i|,
    and math.frexp, math.log2 and the slopes one coefficient at a time. The
    reference the array form must match bit for bit."""
    a = p.tolist()
    mags = sorted(map(abs, a))
    smallest = mags[mags.count(0.0)] if mags[-1] else 1.0
    in_window = 2.0 ** -WINDOW <= smallest and mags[-1] <= 2.0 ** WINDOW
    if in_window and mags[-1] <= smallest * 2.0 ** (WINDOW / max(len(a) - 1, 1) - 2):
        return p, 0
    nonzero = [i for i, c in enumerate(a) if c]
    mants, exps = zip(*(math.frexp(a[i]) for i in nonzero))
    logm = [math.log2(abs(m)) for m in mants]

    def slope(j, l):
        return (exps[j] - exps[l] + (logm[j] - logm[l])) / (nonzero[l] - nonzero[j])

    hi = max((slope(j, -1) for j in range(len(nonzero) - 1)), default=0.0)
    lo = min((slope(0, j) for j in range(1, len(nonzero))), default=0.0)
    if in_window and nonzero[-1] * (max(hi, -lo) + 1) <= WINDOW:
        return p, 0
    if hi >= 1024 or lo < -1074:
        raise DomainError("a root modulus lies beyond the float64 range")
    e = round((hi + lo) / 2) if abs(hi + lo) > 2 else 0
    exps = [x + i * e for i, x in zip(nonzero, exps)]
    if min(exps) - max(exps) < -1021:
        raise DomainError("the coefficients span more than float64 holds")
    return np.ldexp(p, np.arange(len(a)) * e - max(exps)), e


@st.composite
def _coefficient_vectors(draw):
    """Finite float64 vectors of degree 0..16, or past the WINDOW/2 at which
    the spread pre-test stops: any floats, subnormal and huge among them, or
    a_i = m_i 2^(s i + c) with |m_i| in [1/2, 2) and some a_i zero, graded
    well out of the window or all of one modulus."""
    n = draw(st.one_of(st.integers(0, 16), st.integers(WINDOW // 2 - 2, WINDOW + 100)))
    if n <= 16 and draw(st.booleans()):
        return np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      min_size=n + 1, max_size=n + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    slope = draw(st.sampled_from([0, 0, 1, -1, 7, -7, 80, -80]))
    shift = np.clip(slope * np.arange(n + 1) + draw(st.integers(-1100, 1023)), -1074, 1023)
    mant = rng.uniform(0.5, 2.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
    if draw(st.booleans()):
        mant = np.ones(n + 1)
    mant[rng.random(n + 1) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))] = 0.0
    with np.errstate(over="ignore"):
        a = np.ldexp(mant, shift)
    return np.where(np.isfinite(a), a, 1.0)


def _working_form_outcome(rule, p):
    try:
        w, e = rule(p)
    except DomainError as exc:
        return str(exc)
    return w is p, w.tobytes(), e


class TestWorkingFormReference:
    @settings(max_examples=400, deadline=None)
    @given(_coefficient_vectors())
    def test_matches_the_sorting_form_bit_for_bit(self, p):
        assert _working_form_outcome(working_form, p) == _working_form_outcome(
            _sorting_working_form, p)

    def test_matches_the_sorting_form_on_the_extreme_cases(self):
        for p in EXTREME + [[0.0] * 300, [0.0] * 299 + [1e-300], [2.0 ** 520] * 260]:
            p = np.asarray(p, dtype=np.float64)
            assert _working_form_outcome(working_form, p) == _working_form_outcome(
                _sorting_working_form, p)


class TestScaleRoots:
    def test_exact_while_normal(self):
        u = np.array([0.75 + 0.5j, -1.0, 0j, 1.0 + 1e-300j])
        z = scale_roots(u, -900)
        assert z.tolist()[:3] == [complex(0.75 * 2.0 ** -900, 0.5 * 2.0 ** -900),
                                  -(2.0 ** -900), 0j]
        # a part may underflow while the root stays nonzero
        assert z[3] == 2.0 ** -900
        assert scale_roots(np.array([0.75 + 0j]), 1024).tolist() == [0.75 * 2.0 ** 1023 * 2]

    @pytest.mark.parametrize("u, e", [
        ([1.5 + 0j], 1024),             # 1.5 * 2^1024 overflows
        ([-1.0, 1e300j], 100),          # so does one part of one root
        ([0.5j], -1074),                # 2^-1075 rounds to 0
        ([1.0, 0.75 + 0.75j], -1075),   # both parts of a nonzero root read 0
    ])
    def test_a_root_beyond_float64_raises(self, u, e):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond the float64 range"):
                scale_roots(np.array(u, dtype=np.complex128), e)


class TestCanonical:
    def test_trims_trailing_zeros(self):
        np.testing.assert_array_equal(canonical([1, 2, 0, 0]), [1, 2])
        # a negative zero is a zero: it is trimmed too
        assert canonical([1, 2, -0.0]).tolist() == [1.0, 2.0]
        assert canonical([-0.0, 3.0, -0.0, 0.0]).tolist() == [-0.0, 3.0]

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            canonical([0, 0, 0])

    @pytest.mark.parametrize("coeffs", [[1, "x"], {}, [[1, 2], [3]], [1, 10**400], "abc"])
    def test_non_numeric_rejected(self, coeffs):
        with pytest.raises(DomainError):
            canonical(coeffs)

    @pytest.mark.parametrize("coeffs", [
        [1, 2, 3], (0, 0, 1.5), np.array([2.0, -1.0, 0.0]), np.arange(4, dtype=np.int32),
        np.array([1.0, 2.0, -0.0]),
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
        # trailing zeros do not hide a non-finite coefficient, nor do leading ones
        ([1.0, np.nan, 0.0], "finite"), ([np.inf, 0.0], "finite"), ([0.0, -np.inf], "finite"),
        ([np.nan, 0.0, 0.0], "finite"),
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


def _round_trip_inputs():
    """EXTREME and 300 random polynomials of degree 1..12 whose coefficients
    are scaled by 2^(s i + c), far outside the working window for many."""
    rng = np.random.default_rng(34)
    cases = [np.asarray(p, dtype=np.float64) for p in EXTREME]
    while len(cases) < len(EXTREME) + 300:
        n = int(rng.integers(1, 13))
        a = rng.uniform(0.5, 2.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
        a[1:-1][rng.random(n - 1) < 0.2] = 0.0
        shift = rng.integers(-80, 81) * np.arange(n + 1) + rng.integers(-600, 601)
        if np.abs(shift).max() <= 1000:     # every a_i a normal float
            cases.append(np.ldexp(a, shift))
    return cases


class TestCanonicalInFindRoots:
    def test_find_roots_of_a_working_form_gives_the_roots_bit_for_bit(self):
        # verify_cot solves w of working_form(q) = (w, e) and reports 2^e times
        # its roots: find_roots' own canonical and working_form must leave w
        # as it is, so that these are find_roots(q)'s roots, byte for byte
        solved = 0
        for q in _round_trip_inputs():
            if not q[0]:        # find_roots takes the zero roots off first
                continue
            try:
                expected = find_roots(q).roots
            except DomainError:
                continue
            w, e = working_form(canonical(q))
            assert scale_roots(find_roots(w).roots, e).tobytes() == expected.tobytes(), q
            solved += 1
        assert solved >= 300


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
