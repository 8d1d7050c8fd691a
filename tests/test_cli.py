import argparse
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sectorpoly import DomainError, SectorPolyError, campaigns, cli, errors, kernels, roots
from sectorpoly.cli import main
from sectorpoly.pmatrix import (
    DEFAULT_DIM_CAP,
    HARD_DIM_CAP,
    MatrixClass,
    generate_p_matrix,
    kellogg_admissible,
    wedge_angle,
)
from sectorpoly.poly import from_polar, parse_complex
from sectorpoly.synthesis import ANGLE_TOL

PI = math.pi
REGION_SAMPLES = (1, 2, 3, 7, 12, 360, 720, 1000, 4096)

# flags the shared parent parser gave every subcommand, where the subcommand
# no longer takes them
REMOVED_FLAGS = {
    "synthesize": ["--seed", "--format", "--tol-angle", "--tol-residual"],
    "verify": ["--seed", "--format", "--tol-angle", "--tol-residual"],
    "classify": ["--seed", "--format", "--tol-angle", "--tol-residual"],
    "region": ["--seed", "--tol-angle", "--tol-residual"],
    "oracle": ["--format", "--tol-angle", "--tol-residual"],
}
VALID_CALLS = {
    "synthesize": ["synthesize", "--r", "2", "--alpha", "1.2", "--n", "5", "--mode", "nonneg"],
    "verify": ["verify", "--poly", "[1,2,1]"],
    "classify": ["classify", "--matrix", "matrix.json"],
    "region": ["region", "--n", "4", "--mode", "P"],
    "oracle": ["oracle", "--suite", "synth", "--cases", "1"],
}


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# strings with quotes, backslashes, control and non-ASCII characters
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\xe9')))
_SCALARS = st.one_of(
    st.floats(),            # NaN, +-inf, -0.0 and subnormals among them
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.none(),
    _TEXT,
    st.complex_numbers(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    hnp.arrays(st.sampled_from([np.float64, np.complex128]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)),
)
_REPORTS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.floats(), max_size=4),      # the one-join path
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonWriter:
    @settings(max_examples=500, deadline=None)
    @given(_REPORTS)
    def test_writes_the_bytes_of_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2, default=cli._jsonable)

    @pytest.mark.parametrize("value", [object(), {"a": {1, 2}}, {(1, 2): 3}, {1: 2.0}])
    def test_unserializable_values_raise_type_error(self, value):
        # a key other than a str raises, where json.dumps writes a number key
        with pytest.raises(TypeError):
            cli._dumps(value)


class TestSynthesizeCommand:
    def test_polar_boundary_quarter_turn(self, capsys):
        code, out = _run(capsys, "synthesize", "--r", "1", "--alpha", repr(PI / 2),
                         "--n", "2", "--mode", "nonneg")
        assert code == 0
        report = json.loads(out)
        assert report["coeffs"] == [1.0, 0.0, 1.0]
        assert report["k"] == 2 and report["boundary"] is True
        assert report["residual_ok"] is True

    def test_positive_lift(self, capsys):
        code, out = _run(capsys, "synthesize", "--r", "1",
                         "--alpha", repr(2 * PI / 3), "--n", "5", "--mode", "positive")
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["coeffs"], [1, 2, 3, 3, 2, 1], atol=1e-12)
        assert report["construction"] == "q_avg"

    def test_cartesian_input(self, capsys):
        code, out = _run(capsys, "synthesize", "--mu-re", "-3", "--n", "1",
                         "--mode", "nonneg")
        assert code == 0
        assert json.loads(out)["coeffs"] == [3.0, 1.0]

    def test_angle_too_small_exits_2(self, capsys):
        code, out = _run(capsys, "synthesize", "--r", "1", "--alpha", "0.1",
                         "--n", "2", "--mode", "nonneg")
        assert code == 2
        assert json.loads(out)["error"] == "AngleTooSmall"

    def test_integer_ratio_exits_2(self, capsys):
        # i sits on the boundary pi/2, whose positive core has degree 3
        code, out = _run(capsys, "synthesize", "--mu-re", "0", "--mu-im", "1",
                         "--n", "2", "--mode", "positive")
        assert code == 2
        assert json.loads(out)["error"] == "AngleTooSmall"

    def test_integer_ratio_above_its_degree_synthesizes(self, capsys):
        code, out = _run(capsys, "synthesize", "--mu-re", "0", "--mu-im", "1",
                         "--n", "3", "--mode", "positive")
        assert code == 0
        report = json.loads(out)
        assert report["coeffs"] == [0.5, 1.0, 0.5, 1.0]
        assert report["construction"] == "q_avg"
        assert report["k"] == 2 and report["boundary"] is True

    def test_just_below_pi_over_3_builds_a_quartic_core(self, capsys):
        # 1.0471975511 is pi/3 less 9.7e-11: inside sector 4, not on pi/3
        code, out = _run(capsys, "synthesize", "--r", "1", "--alpha", "1.0471975511",
                         "--n", "5", "--mode", "nonneg")
        assert code == 0
        report = json.loads(out)
        assert (report["k"], report["boundary"]) == (4, False)
        assert min(report["coeffs"]) >= 0.0
        assert report["residual"] <= 1e-15

    def test_just_below_pi_over_3_positive(self, capsys):
        code, out = _run(capsys, "synthesize", "--r", "1", "--alpha", "1.0471975511",
                         "--n", "5", "--mode", "positive")
        assert code == 0
        report = json.loads(out)
        assert min(report["coeffs"]) > 0.0 and report["residual_ok"]

    @pytest.mark.parametrize("mu_im", ["1e-320", "5e-324", "0"])
    def test_tiny_angle_is_angle_too_small(self, capsys, mu_im):
        # pi/alpha overflows float64 (or alpha is 0: mu is a positive real)
        code, out = _run(capsys, "synthesize", "--mu-re", "1", "--mu-im", mu_im,
                         "--n", "3", "--mode", "nonneg")
        assert code == 2
        assert json.loads(out)["error"] == "AngleTooSmall"

    @pytest.mark.parametrize("flag", ["--r", "--alpha"])
    def test_polar_input_needs_both_parts(self, capsys, flag):
        code, out = _run(capsys, "synthesize", flag, "2", "--n", "3", "--mode", "nonneg")
        assert code == 2
        assert json.loads(out) == {"error": "DomainError",
                                   "message": "polar input needs both --r and --alpha"}

    def test_requires_exactly_one_input_form(self, capsys):
        code, out = _run(capsys, "synthesize", "--r", "1", "--alpha", "3",
                         "--mu-re", "1", "--n", "2", "--mode", "nonneg")
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("r, n, mode", [
        ("nan", "3", "nonneg"),
        ("inf", "3", "nonneg"),
        ("1e30", "12", "positive"),     # r^n overflows
        ("1e-200", "12", "positive"),   # r^n underflows to 0
        ("1e-160", "2", "positive"),    # r^n = 1e-320, and so is the core's a_0
        ("1e-160", "2", "nonneg"),
        ("-1", "3", "nonneg"),          # from_polar would turn mu by pi, off --alpha
    ])
    def test_modulus_out_of_range_exits_2(self, capsys, r, n, mode):
        code, out = _run(capsys, "synthesize", "--r", r, "--alpha", "2",
                         "--n", n, "--mode", mode)
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
    def test_non_finite_angle_exits_2(self, capsys, alpha):
        # math.cos(inf) raised ValueError: a traceback with exit 1
        code, out = _run(capsys, "synthesize", "--r", "2", "--alpha", alpha,
                         "--n", "3", "--mode", "nonneg")
        assert code == 2
        assert json.loads(out) == {"error": "DomainError",
                                   "message": f"alpha={float(alpha)!r} is not finite"}
        assert capsys.readouterr().err == ""

    def test_residual_at_an_extreme_modulus_is_ok(self, capsys):
        # |mu|^12 = 9e305 fits, but sum|a_i| |mu|^i of the coefficients as
        # given overflowed; that of the working form at mu / 2^e does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["synthesize", "--r", "4.6e25", "--alpha", "2", "--n", "12",
                         "--mode", "positive"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        report = json.loads(captured.out)
        assert report["residual_ok"] is True
        assert report["residual"] <= 1e-15

    def test_underflowing_constant_term_exits_2(self, capsys):
        # r^3 = 1e-321 is in range, but a_0 = (sin 2a / sin a) r^3 underflows to 0
        code, out = _run(capsys, "synthesize", "--r", "1e-107", "--alpha", "1.5707963",
                         "--n", "3", "--mode", "nonneg")
        assert code == 2
        assert json.loads(out) == {"error": "PreconditionError",
                                   "message": "constant term must be positive"}

    @pytest.mark.parametrize("n", [10**13, 10**30])
    def test_degree_above_the_cap_exits_2(self, capsys, n):
        # beyond MAX_DEGREE = 2**20: numpy would refuse these allocations up
        # front (72.8 TiB at 10**13); a degree between 1e8 and 1e9 would allocate
        code, out = _run(capsys, "synthesize", "--r", "1", "--alpha", "3",
                         "--n", str(n), "--mode", "nonneg")
        assert code == 2
        assert json.loads(out) == {"error": "DomainError",
                                   "message": "degree is above MAX_DEGREE = 1048576"}


class TestVerifyCommand:
    def test_inconclusive_exits_1(self, capsys, monkeypatch):
        from sectorpoly import roots

        monkeypatch.setattr(roots, "DEFAULT_MAX_ITERS", 0)
        code, out = _run(capsys, "verify", "--poly", "[1,1,1]")
        assert code == 1
        assert json.loads(out)["status"] == "inconclusive"

    def test_pass_with_margin(self, capsys):
        code, out = _run(capsys, "verify", "--poly", "[1,1,1]")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        assert report["binomial"] is False
        assert report["min_arg_defect"] == pytest.approx(PI / 6, abs=1e-9)

    def test_binomial_exception(self, capsys):
        code, out = _run(capsys, "verify", "--poly", "[1,0,1]")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        assert report["binomial"] is True

    def test_nan_coefficient_exits_2(self, capsys):
        code, out = _run(capsys, "verify", "--poly", "[1, NaN, 1]")
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    def test_overflowing_residual_exits_2(self, capsys):
        # t^20 + 1e20 t^19 + 1e-300: roots near -1e20 and 19 of modulus
        # 1.6e-17, a spread that no working form holds (w_0 = 2^-1158)
        poly = json.dumps([1e-300] + [0.0] * 18 + [1e20, 1.0])
        code, out = _run(capsys, "verify", "--poly", poly)
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    def test_root_beyond_float64_exits_2(self, capsys):
        # 1 + 1e10 t + 1e-300 t^2 has a root near -1e310, beyond its root
        # bound's float64 limit; 1e300 + 1e-300 t has the root -1e600
        for poly in ("[1,1e10,1e-300]", "[1e300,1e-300]"):
            code, out = _run(capsys, "verify", "--poly", poly)
            assert code == 2
            assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("degree", [roots.MAX_SOLVE_DEGREE + 1, 500])
    def test_degree_above_the_solver_limit_exits_2(self, capsys, degree):
        # at degree 500 an Aberth iterate can overflow its powers, though
        # every root of this polynomial lies in 0.53 .. 1.39
        poly = json.dumps(np.random.default_rng(1).uniform(0.1, 1.0, degree + 1).tolist())
        code = main(["verify", "--poly", poly])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        assert json.loads(captured.out) == {
            "error": "DomainError",
            "message": f"degree {degree} is above MAX_SOLVE_DEGREE = {roots.MAX_SOLVE_DEGREE}"}

    def test_roots_beyond_the_solver_reach_are_certified(self, capsys):
        # t^20 + 1e20 t^19 + 1 overflows the solver's powers of the root near
        # -1e20, but not those of its working form's roots
        poly = json.dumps([1.0] + [0.0] * 18 + [1e20, 1.0])
        code, out = _run(capsys, "verify", "--poly", poly)
        report = json.loads(out)
        assert (code, report["status"], report["converged"]) == (0, "pass", True)
        assert min(r["re"] for r in report["roots"]) == pytest.approx(-1e20, rel=1e-12)
        assert report["min_arg_defect"] > 0

    @pytest.mark.parametrize("poly, expected", [
        ("[1e308,2,1]", [complex(-1.0, 1e154), complex(-1.0, -1e154)]),
        ("[1,2,1e308]", [complex(-1e-308, 1e-154), complex(-1e-308, -1e-154)]),
    ])
    def test_quadratics_at_the_float64_edge_converge(self, capsys, poly, expected):
        # 1e308 + 2t + t^2 has the roots -1 +- 1e154 i, where the residual
        # scale of the coefficients as given overflows; 1 + 2t + 1e308 t^2
        # is its reversal. Both converge in their working forms and stay
        # inconclusive: their root arguments are +-pi/2 in float64, where the
        # disks cannot clear the sector
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--poly", poly])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        report = json.loads(captured.out)
        assert (report["status"], report["converged"]) == ("inconclusive", True)
        got = [complex(r["re"], r["im"]) for r in report["roots"]]
        for z in expected:
            assert min(abs(g - z) for g in got) <= 1e-15 * abs(z)

    @pytest.mark.parametrize("poly, expected", [
        ("[1e-200,1,1e200]", [complex(-0.5, s * 3 ** 0.5 / 2) / 1e200 for s in (1, -1)]),
        ("[1e200,1,1e-200]", [complex(-0.5, s * 3 ** 0.5 / 2) * 1e200 for s in (1, -1)]),
        ("[1,1e200,1e308]", [-1e-108, -1e-200]),
        ("[1e-320,0,1]", [1j * math.sqrt(1e-320), -1j * math.sqrt(1e-320)]),
        ("[8.98846567431158e307,1]", [-(2.0 ** 1023)]),
        ("[1,1.1125369292536007e-308]", [-(2.0 ** 1023)]),
        ("[1.7e308,1]", [-1.7e308]),
        # three terms whose Fujiwara bound 2^(hi + 1) passes 2^1023 while
        # every root is in range: (t + 1e308)(t + 1) and its reversal
        ("[1e308,1e308,1]", [-1.0, -1e308]),
        ("[1,1,1e-308]", [-1.0, -1e308]),
    ])
    def test_extreme_moduli_pass(self, capsys, poly, expected):
        # every root is a normal float, but the kernel's powers of them leave
        # float64 (|z|^2 of +-1e-160 i is subnormal): the working form's do not.
        # Three have two terms, whose root modulus, at 2^1023 and above, is
        # its own bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--poly", poly])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        report = json.loads(captured.out)
        assert (report["status"], report["converged"]) == ("pass", True)
        got = [complex(r["re"], r["im"]) for r in report["roots"]]
        for z in expected:
            assert min(abs(g - z) for g in got) <= 1e-14 * abs(z)
        if poly == "[1e-320,0,1]":      # a binomial: the arguments are exactly +-pi/2
            assert report["min_arg_defect"] == 0.0

    @pytest.mark.parametrize("poly", ["[1e308,1e308,1e308]", "[1e-310,1e-310,1e-310]"])
    def test_uniformly_scaled_poly_passes(self, capsys, poly):
        # c (t^2 + t + 1) has the roots of t^2 + t + 1 at every scale c
        code, out = _run(capsys, "verify", "--poly", poly)
        report = json.loads(out)
        assert (code, report["status"], report["converged"]) == (0, "pass", True)
        assert report["min_arg_defect"] == pytest.approx(PI / 6, abs=1e-9)

    @pytest.mark.parametrize("poly", [
        "abc", '[1,"x"]', "{}", "[[1,2],[3]]", "[[1,2],[3,4]]", "[true,1]", "5",
        "[1," + "9" * 400 + "]",
        "[1," + "9" * 5000 + "]",   # beyond Python's integer-string limit
    ])
    def test_malformed_poly_exits_2(self, capsys, poly):
        code, out = _run(capsys, "verify", "--poly", poly)
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("poly, message", [
        ("[1e300,1e-300]", "beyond the float64 range"),          # the root -1e600
        ("[1,1e10,1e-300]", "beyond the float64 range"),         # a root near -1e310
        (json.dumps([1e-300] + [0.0] * 18 + [1e20, 1.0]), "span"),
    ])
    def test_roots_beyond_float64_exit_2(self, capsys, poly, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--poly", poly])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        report = json.loads(captured.out)
        assert report["error"] == "DomainError" and message in report["message"]

    def test_mixed_signs_exit_2(self, capsys):
        code, out = _run(capsys, "verify", "--poly", "[-1,1]")
        assert code == 2
        assert json.loads(out)["error"] == "PreconditionError"

    @pytest.mark.parametrize("poly", ["[1,-0.9,1e12]", "[1e8,-1e-8]", "[1,-1e-13,1]"])
    def test_any_negative_coefficient_exits_2(self, capsys, poly):
        # signs are read literally, however small the negative coefficient
        code, out = _run(capsys, "verify", "--poly", poly)
        assert code == 2
        assert json.loads(out)["error"] == "PreconditionError"


class TestClassifyCommand:
    def _write(self, tmp_path, payload):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_identity(self, capsys, tmp_path):
        path = self._write(tmp_path, {"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        code, out = _run(capsys, "classify", "--matrix", path)
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "P"
        assert all(row["kellogg_P"] for row in report["eigenvalues"])
        np.testing.assert_allclose(report["char_poly"], [-1, 3, -3, 1], atol=1e-9)

    def test_rotation_boundary(self, capsys, tmp_path):
        path = self._write(tmp_path, {"n": 2, "rows": [[0, -1], [1, 0]]})
        code, out = _run(capsys, "classify", "--matrix", path)
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "P0"
        for row in report["eigenvalues"]:
            assert row["kellogg_P"] is False
            assert row["kellogg_P0"] is True

    def test_aux_signs_follow_the_minor_tolerances(self, capsys, tmp_path):
        # aux poly [1e14, -1, 1]: E_1 = -1 lies far beyond its tolerance 1e-2
        path = self._write(tmp_path, {"n": 2, "rows": [[0, 1e7], [-1e7, -1]]})
        code, out = _run(capsys, "classify", "--matrix", path)
        assert code == 0
        assert json.loads(out)["aux_sign_class"] == "mixed"

    @pytest.mark.parametrize("c", [1e-3, 10.0, 1e3])
    def test_scaled_p_matrix_has_positive_aux_signs(self, capsys, tmp_path, c):
        rows = (c * generate_p_matrix(12, 1)).tolist()
        code, out = _run(capsys, "classify", "--matrix",
                         self._write(tmp_path, {"n": 12, "rows": rows}))
        report = json.loads(out)
        assert (code, report["class"], report["aux_sign_class"]) == (0, "P", "positive")

    def test_complex_entries(self, capsys, tmp_path):
        path = self._write(tmp_path, {
            "n": 2,
            "rows": [[{"re": 2, "im": 0}, {"re": 0, "im": 1}],
                     [{"re": 0, "im": -1}, {"re": 2, "im": 0}]],
        })
        code, out = _run(capsys, "classify", "--matrix", path)
        assert code == 0
        assert json.loads(out)["class"] == "P"

    def test_entries_mix_numbers_cartesian_and_polar(self, capsys, tmp_path):
        rows = [[2, {"re": 0.5, "im": -1.5}, {"r": 2.0, "alpha": 0.7}],
                [{"r": 1.0, "alpha": -3.0}, 3.5, {"re": -0.0, "im": 0}],
                [0, {"r": 0.25, "alpha": 1.0}, {"re": 4, "im": 1e-3}]]
        path = self._write(tmp_path, {"n": 3, "rows": rows})
        # the matrix holds, bit for bit, what parse_complex gives each entry
        expected = np.empty((3, 3), dtype=np.complex128)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                expected[i, j] = parse_complex(entry)
        a = cli._parse_matrix_file(path)
        assert a.dtype == np.complex128 and a.shape == (3, 3)
        assert a.tobytes() == expected.tobytes()
        # a real matrix in all three forms classifies
        rows = [[2, {"re": 1, "im": 0}], [{"r": 0.5, "alpha": 0.0}, 3]]
        code, out = _run(capsys, "classify", "--matrix",
                         self._write(tmp_path, {"n": 2, "rows": rows}))
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["char_poly"], [5.5, -5, 1], atol=1e-12)

    def test_dimension_cap_exit_2(self, capsys, tmp_path):
        n = 13
        path = self._write(tmp_path, {"n": n, "rows": np.eye(n).tolist()})
        code, out = _run(capsys, "classify", "--matrix", path)
        assert code == 2
        assert json.loads(out)["error"] == "DimensionCap"

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        path = self._write(tmp_path, {"n": 2, "rows": [[1, 2]]})
        code, out = _run(capsys, "classify", "--matrix", path)
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("payload", [
        {"n": 1, "rows": [[{"re": "x", "im": 1}]]},
        {"n": 1, "rows": [[{"re": None, "im": 1}]]},
        {"n": 1, "rows": [[{"r": True, "alpha": 0}]]},
        {"n": 1, "rows": [["1"]]},
        {"n": True, "rows": [[1]]},
    ])
    def test_malformed_matrix_exits_2(self, capsys, tmp_path, payload):
        code, out = _run(capsys, "classify", "--matrix", self._write(tmp_path, payload))
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("text", [
        b'{"n": 1, "rows": [[' + b"9" * 5000 + b"]]}",
        b"\xff\xfe not utf-8",
    ])
    def test_unreadable_matrix_file_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "matrix.json"
        path.write_bytes(text)
        code, out = _run(capsys, "classify", "--matrix", str(path))
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    def test_nan_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text('{"n": 2, "rows": [[1, NaN], [0, 1]]}')
        code, out = _run(capsys, "classify", "--matrix", str(path))
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("entry", [
        True, "1.5", 10**400, {"re": "x", "im": 1}, {"re": 1.0, "im": False},
        {"re": 1.0}, {"r": True, "alpha": 0}, {"r": 1.0, "alpha": 10**400},
        {"r": 1, "alpha": 0, "re": 1}, {"r": 1, "alpha": math.inf},
        {"r": 1, "alpha": -math.inf}, {"r": 1, "alpha": math.nan},
    ])
    def test_malformed_entry_reports_parse_complex_error(self, capsys, tmp_path, entry):
        # the error payload is the one parse_complex raises for the entry
        with pytest.raises(DomainError) as exc:
            parse_complex(entry)
        path = self._write(tmp_path, {"n": 2, "rows": [[1.5, 2.0], [entry, 0.5]]})
        code, out = _run(capsys, "classify", "--matrix", path)
        assert code == 2
        assert json.loads(out) == {"error": "DomainError", "message": str(exc.value)}

    def test_float_entries_read_as_parse_complex_reads_them(self, tmp_path):
        rows = [[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -2.5, 1e-310],
                [3.0, {"re": -0.0, "im": 0.5}, -1e300]]
        path = self._write(tmp_path, {"n": 3, "rows": rows})
        expected = np.array([[parse_complex(x) for x in row] for row in rows])
        assert cli._parse_matrix_file(path).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [
        [[1, 1], [1, 1]],                           # eigenvalues 0 and 2
        [[0, 0, 0], [0, 1, 0], [0, 0, 2]],          # 0 on the zero-root path
        [[-2, 0], [0, 3]],                          # a negative real
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
    ] + [
        # a +- i at |theta - pi| = pi/2 + a, for a about ANGLE_TOL from the
        # boundary on both sides
        [[a, -1], [1, a]] for a in (0.0, 0.3 * ANGLE_TOL, -0.3 * ANGLE_TOL, 3 * ANGLE_TOL,
                                    -3 * ANGLE_TOL, 1e-9)
    ] + [
        # cos t +- i sin t and 1, with t within ANGLE_TOL of 2pi/3: |theta -
        # pi| within it of pi/3
        [[math.cos(t), -math.sin(t), 0], [math.sin(t), math.cos(t), 0], [0, 0, 1]]
        for t in (2 * PI / 3, 2 * PI / 3 + 0.4 * ANGLE_TOL, 2 * PI / 3 - 0.4 * ANGLE_TOL,
                  2 * PI / 3 + 4 * ANGLE_TOL, 2 * PI / 3 - 4 * ANGLE_TOL)
    ])
    def test_eigenvalue_rows_follow_kellogg_admissible(self, capsys, tmp_path, rows):
        n = len(rows)
        code, out = _run(capsys, "classify", "--matrix",
                         self._write(tmp_path, {"n": n, "rows": rows}))
        assert code == 0
        for row in json.loads(out)["eigenvalues"]:
            lam = complex(row["value"]["re"], row["value"]["im"])
            assert row["kellogg_P"] is kellogg_admissible(lam, n, MatrixClass.P)
            if lam:
                assert row["theta"] == wedge_angle(lam)
                assert row["kellogg_P0"] is kellogg_admissible(lam, n, MatrixClass.P0)
            else:
                assert row["theta"] is None and row["kellogg_P0"] is None

    def test_enumerates_minors_once(self, capsys, tmp_path, monkeypatch):
        # one principal_minors report serves the class, char_poly, aux_poly
        # and the eigenvalues
        calls = []
        minor_sums = kernels.minor_sums

        def counted(a):
            calls.append(a)
            return minor_sums(a)

        monkeypatch.setattr(kernels, "minor_sums", counted)
        path = self._write(tmp_path, {"n": 3, "rows": np.eye(3).tolist()})
        code, _ = _run(capsys, "classify", "--matrix", path)
        assert code == 0
        assert len(calls) == 1


class TestRegionCommand:
    def _rows(self, out):
        lines = out.strip().splitlines()
        assert lines[0] == "theta,admissible,boundary"
        rows = []
        for line in lines[1:]:
            theta, adm, bnd = line.split(",")
            rows.append((float(theta), adm == "true", bnd == "true"))
        return rows

    def test_strict_mode_quarter_turn_excluded(self, capsys):
        code, out = _run(capsys, "region", "--n", "2", "--mode", "P", "--samples", "8")
        assert code == 0
        rows = self._rows(out)
        by_theta = {t: adm for t, adm, _ in rows}
        assert by_theta[PI / 2] is False

    def test_weak_mode_quarter_turn_included(self, capsys):
        code, out = _run(capsys, "region", "--n", "2", "--mode", "P0", "--samples", "8")
        rows = self._rows(out)
        by_theta = {t: adm for t, adm, _ in rows}
        assert by_theta[PI / 2] is True

    def test_boundary_rows_marked(self, capsys):
        code, out = _run(capsys, "region", "--n", "3", "--mode", "P", "--samples", "10")
        rows = self._rows(out)
        marked = {t for t, _, bnd in rows if bnd}
        assert marked == {PI - PI / 3, PI + PI / 3}

    @pytest.mark.parametrize("mode", ["P", "P0"])
    @pytest.mark.parametrize("n", [*range(1, 61), 90, 180, 360, 720, 1000, 12345,
                                   31400000000000])
    def test_rows_match_predicate_oracle(self, capsys, n, mode):
        # the reference decides each row by kellogg_admissible of the unit
        # lambda at theta; the sweep includes grid points on pi -/+ pi/n
        # (n = 4, 6, 10 at 360 samples), for n = 1, 2*pi, and for the last n
        # a P0 row at theta = math.pi whose verdict needs pi beyond math.pi
        cls = MatrixClass.P if mode == "P" else MatrixClass.P0
        for samples in REGION_SAMPLES:
            grid = {2.0 * PI * i / samples: False for i in range(1, samples + 1)}
            grid.update((t, True) for t in (PI - PI / n, PI + PI / n) if t > 0.0)
            rows = [{"theta": t, "admissible": kellogg_admissible(from_polar(1.0, t), n, cls),
                     "boundary": b} for t, b in sorted(grid.items())]
            csv = "\n".join(["theta,admissible,boundary", *(
                f"{r['theta']!r},{str(r['admissible']).lower()},{str(r['boundary']).lower()}"
                for r in rows)]) + "\n"
            report = json.dumps({"n": n, "mode": mode, "rows": rows}, indent=2) + "\n"
            for fmt, expected in (("csv", csv), ("json", report)):
                code, out = _run(capsys, "region", "--n", str(n), "--mode", mode,
                                 "--samples", str(samples), "--format", fmt)
                assert code == 0
                assert out == expected, (samples, fmt)

    @pytest.mark.parametrize("mode", ["P", "P0"])
    @pytest.mark.parametrize("n, samples", [(4, 360), (6, 360), (10, 360), (1, 7)])
    def test_grid_points_on_the_boundary(self, capsys, n, samples, mode):
        # each edge pi -/+ pi/n is a grid point, as a float or one ulp away
        # (a second row then); every row there is weakly but not strictly
        # admissible
        code, out = _run(capsys, "region", "--n", str(n), "--mode", mode,
                         "--samples", str(samples))
        grid = {2.0 * PI * i / samples for i in range(1, samples + 1)}
        edges = {t for t in (PI - PI / n, PI + PI / n) if t > 0.0}
        on_edge = [adm for t, adm, _ in self._rows(out)
                   if any(abs(t - e) <= 1e-15 for e in edges)]
        assert len(on_edge) == 2 * len(edges) - len(edges & grid)
        assert all(adm is (mode == "P0") for adm in on_edge)

    @pytest.mark.parametrize("n, samples", [(str(10**400), "360"), ("4", str(10**400))],
                             ids=["n", "samples"])
    def test_size_beyond_float64_exits_2(self, capsys, n, samples):
        code, out = _run(capsys, "region", "--n", n, "--mode", "P", "--samples", samples)
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    def test_samples_beyond_cap_exit_2(self, capsys):
        # rejected before any grid is built
        code, out = _run(capsys, "region", "--n", "4", "--mode", "P",
                         "--samples", str(cli.MAX_REGION_SAMPLES + 1))
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    def test_json_report_memory(self, tmp_path):
        # the rows are written as f-strings, not held as one dict each and
        # encoded by json.dumps(..., indent=2), which peaked near 9x the report
        import tracemalloc

        out = tmp_path / "region.json"
        argv = ["region", "--n", "4", "--mode", "P", "--samples", "65536",
                "--format", "json", "--out", str(out)]
        main(["region", "--n", "4", "--mode", "P", "--samples", "1", "--out", str(out)])
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = out.read_text(encoding="utf-8")
        assert len(json.loads(text)["rows"]) >= 65536
        assert peak < 5 * len(text)

    def test_csv_report_memory(self, tmp_path):
        # each run of rows with equal verdicts is one join of the grid's theta
        # texts, streamed to the file; an f-string per row, joined into one
        # report, peaked at 6.5x the report
        import tracemalloc

        out = tmp_path / "region.csv"
        argv = ["region", "--n", "4", "--mode", "P", "--samples", "65536", "--out", str(out)]
        main(["region", "--n", "4", "--mode", "P", "--samples", "1", "--out", str(out)])
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = out.read_text(encoding="utf-8")
        assert len(text.splitlines()) >= 1 + 65536
        assert peak < 5 * len(text)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_edges_that_round_to_pi_make_one_row(self, capsys, fmt):
        # pi -/+ pi/n are both math.pi once pi/n is below half an ulp of pi
        # (n > 1.4e16): one boundary row, weakly but not strictly admissible
        for mode in ("P", "P0"):
            code, out = _run(capsys, "region", "--n", str(10**17), "--mode", mode,
                             "--samples", "7", "--format", fmt)
            assert code == 0
            rows = (self._rows(out) if fmt == "csv" else
                    [(r["theta"], r["admissible"], r["boundary"])
                     for r in json.loads(out)["rows"]])
            assert len(rows) == 8
            assert [(t, adm) for t, adm, bnd in rows if bnd] == [(PI, mode == "P0")]

    def test_json_format(self, capsys):
        code, out = _run(capsys, "region", "--n", "2", "--mode", "P",
                         "--samples", "4", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["rows"]) >= 4


class TestOracleCommand:
    def test_synth_suite_passes(self, capsys):
        code, out = _run(capsys, "oracle", "--suite", "synth", "--cases", "100",
                         "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["passes"] == 100 and report["failures"] == 0

    def test_zero_cases_vacuous(self, capsys):
        code, out = _run(capsys, "oracle", "--suite", "cot", "--cases", "0")
        assert code == 0
        assert json.loads(out)["passes"] == 0

    def test_byte_identical_reruns(self, capsys):
        args = ("oracle", "--suite", "witness", "--cases", "40", "--seed", "7")
        code1, out1 = _run(capsys, *args)
        code2, out2 = _run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = _run(capsys, "oracle", "--suite", "kellogg", "--cases", "10",
                         "--seed", "3", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["failures"] == 0


    def test_raising_case_fails_with_its_inputs(self, capsys, monkeypatch):
        # one kellogg case raises: the report names it, and the others pass
        args = ("oracle", "--suite", "kellogg", "--cases", "6", "--seed", "3")
        code, out = _run(capsys, *args)
        assert code == 0
        rng = campaigns._case_rng(3, 2)
        n, mseed = int(rng.integers(2, 9)), int(rng.integers(0, 2**63))
        real = campaigns.generate_p_matrix

        def raise_at_case_2(size, seed):
            if seed == mseed:
                raise DomainError("injected")
            return real(size, seed)

        monkeypatch.setattr(campaigns, "generate_p_matrix", raise_at_case_2)
        code, out = _run(capsys, *args)
        report = json.loads(out)
        assert code == 1
        assert (report["passes"], report["failures"]) == (5, 1)
        assert report["failure"] == {"case": 2, "n": n, "matrix_seed": mseed,
                                     "failed": ["error_DomainError"]}



# the wire name of every package error, in the order errors.py defines them:
# the "error" of the CLI's exit-2 payload and the oracle's error_<name>
WIRE_NAMES = ("SectorPolyError", "DomainError", "PreconditionError", "DegenerateInput",
              "AngleTooSmall", "ZeroModulus", "DegreeOne", "DimensionCap",
              "ComplexCharPoly", "NotConjugateClosed", "ZeroLambda", "NotAdmissible",
              "FeasibleButUnwitnessed")


class TestErrorWireNames:
    def test_package_errors_are_the_pinned_ones(self):
        classes = [v for v in vars(errors).values()
                   if isinstance(v, type) and issubclass(v, SectorPolyError)]
        assert [(cls.__name__, cls.name) for cls in classes] == [(w, w) for w in WIRE_NAMES]

    @pytest.mark.parametrize("name", WIRE_NAMES)
    def test_payload_and_campaign_failure_carry_the_name(self, capsys, monkeypatch, name):
        def fail(*args):
            raise getattr(errors, name)("injected")

        monkeypatch.setattr(cli, "verify_cot", fail)
        code, out = _run(capsys, "verify", "--poly", "[1,2,1]")
        assert code == 2
        assert out == '{\n  "error": "%s",\n  "message": "injected"\n}\n' % name
        monkeypatch.setattr(campaigns, "synthesize", fail)
        report = campaigns.run_suite("synth", 1, 0)
        assert report.failure["failed"] == [f"error_{name}"]

    def test_a_new_subclass_reports_its_own_name(self, capsys, monkeypatch):
        class UnnamedDomainError(DomainError):
            pass

        class NamedDomainError(DomainError):
            name = "OwnWireName"

        for cls, wire in ((UnnamedDomainError, "UnnamedDomainError"),
                          (NamedDomainError, "OwnWireName")):
            def fail(coeffs, cls=cls):
                raise cls("new")

            monkeypatch.setattr(cli, "verify_cot", fail)
            code, out = _run(capsys, "verify", "--poly", "[1,2,1]")
            assert code == 2
            assert json.loads(out) == {"error": wire, "message": "new"}
        assert DomainError.name == "DomainError"

class TestFlagValidation:
    def test_csv_rejected_outside_region(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--poly", "[1,1]", "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in REMOVED_FLAGS.items() for flag in flags
    ])
    def test_removed_flag_is_a_usage_error(self, capsys, command, flag):
        value = "csv" if flag == "--format" else "1"
        with pytest.raises(SystemExit) as exc:
            main([*VALID_CALLS[command], flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("usage: sectorpoly ")
        assert err[1] == f"sectorpoly: error: unrecognized arguments: {flag} {value}"

    @pytest.mark.parametrize("command", ["synthesize", "verify", "region", "oracle"])
    @pytest.mark.parametrize("where", [
        "missing_dir/report.json",
        ".",
        # an absolute path replaces tmp_path: a device that fails every write
        pytest.param("/dev/full", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full")),
    ])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, command, where):
        # a missing directory, a directory itself, or a failed write: a named
        # error, no traceback
        out = tmp_path / where
        code = main([*VALID_CALLS[command], "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        error = json.loads(captured.out)
        assert error["error"] == "DomainError" and repr(str(out)) in error["message"]
        assert not (tmp_path / "missing_dir").exists()

    def test_each_subcommand_has_only_its_flags(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: {opt for a in p._actions for opt in a.option_strings
                        if opt not in ("-h", "--help")}
                 for name, p in sub.choices.items()}
        assert flags == {
            "synthesize": {"--mu-re", "--mu-im", "--r", "--alpha", "--n", "--mode", "--j",
                           "--out"},
            "verify": {"--poly", "--out"},
            "classify": {"--matrix", "--cap", "--out"},
            "region": {"--n", "--mode", "--samples", "--format", "--out"},
            "oracle": {"--suite", "--cases", "--seed", "--out"},
        }
        assert sum(map(len, flags.values())) == 22

    def test_residual_ok_reads_the_campaign_bound(self, capsys, monkeypatch):
        args = ("synthesize", "--r", "2", "--alpha", "1.2", "--n", "5", "--mode", "positive")
        report = json.loads(_run(capsys, *args)[1])
        assert 0 < report["residual"] <= campaigns.RESIDUAL_BOUND
        assert report["residual_ok"] is True
        monkeypatch.setattr(cli, "RESIDUAL_BOUND", report["residual"] / 2)
        assert json.loads(_run(capsys, *args)[1])["residual_ok"] is False

    def test_negative_cases_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--suite", "synth", "--cases", "-5"])
        assert exc.value.code == 2

    def test_negative_seed_is_a_usage_error(self, capsys):
        # numpy's SeedSequence rejects a negative seed with ValueError
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--suite", "synth", "--cases", "1", "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith("error: --seed must be >= 0")

    def test_region_csv_is_default_and_repeatable(self, capsys):
        args = ("region", "--n", "4", "--mode", "P0", "--samples", "90")
        _, out1 = _run(capsys, *args)
        _, out2 = _run(capsys, *args)
        assert out1 == out2

    def test_cap_defaults_to_the_library_cap(self, capsys):
        parser = cli.build_parser()
        assert parser.parse_args(["classify", "--matrix", "m.json"]).cap == DEFAULT_DIM_CAP
        with pytest.raises(SystemExit):
            parser.parse_args(["classify", "--help"])
        assert f"(hard limit {HARD_DIM_CAP})" in " ".join(capsys.readouterr().out.split())


class TestNegativeExponentForms:
    """synthesize reads a negative number in exponent form as a value, on
    both of main's paths, as it reads the --flag=value spelling."""

    CALLS = {
        "--mu-re": ["--mu-re", "-1e-3", "--mu-im", "0.5"],
        "--mu-im": ["--mu-re", "0.5", "--mu-im", "-2.5E+0"],
        "--r": ["--r", "-1e-05", "--alpha", "2"],       # a DomainError, not a usage error
        "--alpha": ["--r", "2", "--alpha", "-2.5e0"],
    }

    @pytest.mark.parametrize("flag", CALLS)
    def test_reads_as_its_equals_spelling(self, capsys, flag):
        argv = ["synthesize", *self.CALLS[flag], "--n", "3", "--mode", "nonneg"]
        at = argv.index(flag)
        value = argv[at + 1]
        spelled = argv[:at] + [f"{flag}={value}"] + argv[at + 2:]
        assert getattr(cli.build_parser().parse_args(argv), flag[2:].replace("-", "_")) \
            == float(value)
        expected = _run(capsys, *spelled)
        assert expected[0] == (2 if flag == "--r" else 0)
        assert _run(capsys, *argv) == expected
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "-inf"), ("--alpha", "-Infinity"), ("--alpha", "-NAN"),
        ("--mu-re", "-inf"), ("--mu-re", "-INFINITY"), ("--mu-im", "-nan"),
    ])
    def test_non_finite_values_are_domain_errors(self, capsys, flag, value):
        # argparse took these for flags: "expected one argument"
        other = {"--alpha": ["--r", "2"], "--mu-re": ["--mu-im", "1"],
                 "--mu-im": ["--mu-re", "1"]}[flag]
        argv = ["synthesize", *other, flag, value, "--n", "3", "--mode", "nonneg"]
        got = getattr(cli.build_parser().parse_args(argv), flag[2:].replace("-", "_"))
        assert repr(got) == repr(float(value))
        code, out = _run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"
        assert capsys.readouterr().err == ""


class TestClosedStdout:
    """A reader that closes stdout early ends the run with exit 1 and nothing
    on stderr: no BrokenPipeError traceback, now or at the interpreter's exit."""

    def test_a_process_whose_reader_leaves_exits_1_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "sectorpoly.cli", "region", "--n", "4", "--mode", "P",
             "--samples", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"theta,admissible,boundary\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.parametrize("argv", [
        ["region", "--n", "4", "--mode", "P", "--samples", "100000"],
        ["verify", "--poly", "[1,2,1]"],        # held in the buffer until main flushes it
    ])
    def test_main_returns_1(self, monkeypatch, argv):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(argv) == 1


class TestParserReuse:
    """main builds its parser once per process, and no call leaves state that
    a later call sees: each output equals the same call on a fresh parser."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    @staticmethod
    def _call(capsys, argv, out_path=None):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = None
        if out_path is not None and out_path.exists():
            written = out_path.read_bytes()
            out_path.unlink()
        return code, captured.out, captured.err, written

    def _sequence(self, capsys, calls, out_path=None):
        """Outputs of the calls on one parser, then each on a fresh parser."""
        shared = [self._call(capsys, argv, out_path) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(self._call(capsys, argv, out_path))
        assert shared == fresh
        return shared

    def test_j_returns_to_its_default(self, capsys):
        base = ["synthesize", "--r", "1", "--alpha", "1.2", "--n", "4", "--mode", "nonneg"]
        with_j, without_j = self._sequence(capsys, [base + ["--j", "2"], base])
        assert json.loads(with_j[1])["j"] == 2
        assert json.loads(without_j[1])["j"] == 1

    def test_out_file_then_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        argv = ["verify", "--poly", "[1,1,1]"]
        to_file, to_stdout = self._sequence(capsys, [argv + ["--out", str(path)], argv],
                                            out_path=path)
        assert to_file[1] == "" and to_file[3] is not None
        assert to_stdout[3] is None
        assert to_stdout[1].encode() == to_file[3]

    def test_region_json_then_csv(self, capsys):
        argv = ["region", "--n", "3", "--mode", "P", "--samples", "12"]
        as_json, as_csv = self._sequence(capsys, [argv + ["--format", "json"], argv])
        assert json.loads(as_json[1])["n"] == 3
        assert as_csv[1].startswith("theta,admissible,boundary\n")

    def test_parser_error_then_valid_call(self, capsys):
        error, valid = self._sequence(capsys, [
            ["region", "--n", "0", "--mode", "P"],
            ["region", "--n", "2", "--mode", "P0", "--samples", "8"],
        ])
        assert error[0] == 2 and error[1] == "" and "--n must be >= 1" in error[2]
        assert valid[0] == 0 and valid[2] == ""

    def test_builds_the_parser_once(self, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        for _ in range(3):
            self._call(capsys, ["verify", "--poly", "[1,2,1]"])
            self._call(capsys, ["region", "--n", "0", "--mode", "P"])
            self._call(capsys, ["synthesize", "--mu-re", "-2", "--n", "3", "--mode", "nonneg"])
        assert built == [1]

    def test_import_builds_no_parser(self):
        probe = ("import sectorpoly, sectorpoly.cli as c; "
                 "print(c._parser.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "0"


def _reference_main(argv):
    """main with the top-level parser of a fresh build_parser() reading every
    argv, then args.func: the reference the direct dispatch must match."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    for flag, least in (("n", 1), ("cap", 1), ("samples", 1), ("cases", 0), ("seed", 0)):
        if getattr(args, flag, least) < least:
            parser.error(f"--{flag} must be >= {least}")
    try:
        return args.func(args)
    except SectorPolyError as exc:
        cli._emit_json({"error": exc.name, "message": str(exc)}, None)
        return 2


# argv that main hands to a subcommand's parser directly, and argv that go
# through the top-level parser
PARITY_CALLS = [
    *VALID_CALLS.values(),
    ["region", "--n=4", "--mode=P", "--samples=90", "--format=json"],
    ["region", "--n", "4", "--mode", "P", "--sam", "90"],
    ["synthesize", "--r", "-1", "--alpha", "2", "--n", "3", "--mode", "nonneg"],
    ["synthesize", "--mu-re", "-1e-3", "--mu-im", "0.5", "--n", "3", "--mode", "nonneg"],
    ["verify", "--poly", "abc"],
    ["verify", "--poly", "[1,2,1]", "--tol-angle", "1e-7"],
    ["verify", "--poly", "[1,2,1]", "extra"],
    ["region", "--n", "4", "--mode", "P", "--", "--samples", "90"],
    ["synthesize", "--r", "2", "--alpha", "1.2", "--n", "5"],
    ["verify"],
    ["region", "--n", "4", "--mode", "Q"],
    ["region", "--n", "four", "--mode", "P"],
    ["oracle", "--suite", "synth", "--cases", "1", "--seed", "x"],
    ["-h"],
    ["--help"],
    ["region", "-h"],
    ["synthesize", "--help"],
    ["oracle", "--he"],
    [],
    ["solve", "--n", "3"],
    ["--n", "4"],
    ["--", "region", "--n", "4", "--mode", "P"],
    ["region", "--n", "0", "--mode", "P"],
    ["classify", "--matrix", "matrix.json", "--cap", "0"],
    ["oracle", "--suite", "synth", "--cases", "1", "--seed", "-1"],
    ["oracle", "--suite", "synth", "--cases", "-1"],
]


class TestDirectDispatch:
    """main hands an argv that starts with a command to that command's parser
    and every other argv to the top-level parser: the exit code, stdout and
    stderr of every call equal those of the top-level parser reading it all."""

    @staticmethod
    def _outcome(capsys, run, argv):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", PARITY_CALLS, ids=lambda argv: " ".join(argv) or "no-argv")
    def test_matches_the_top_level_parser(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "matrix.json").write_text('{"n": 2, "rows": [[2, 1], [1, 2]]}')
        direct = self._outcome(capsys, main, argv)
        assert direct == self._outcome(capsys, _reference_main, argv)
        assert direct[0] in (0, 1, 2)

    def test_reads_sys_argv_without_argv(self, capsys, monkeypatch):
        argv = ["region", "--n", "3", "--mode", "P0", "--samples", "12"]
        expected = self._outcome(capsys, main, argv)
        monkeypatch.setattr(sys, "argv", ["sectorpoly", *argv])
        assert self._outcome(capsys, lambda _: main(), argv) == expected

    def test_sets_the_command(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_cmd_verify", lambda args: seen.append(args.command) or 0)
        cli._parser.cache_clear()
        try:
            assert main(["verify", "--poly", "[1,1]"]) == 0
        finally:
            cli._parser.cache_clear()
        assert seen == ["verify"]


class TestRegionGridReuse:
    """region builds its grid and the grid's texts once per samples and keeps
    the latest read-only: each output equals the same call on an empty cache."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        cli._region_grid.cache_clear()
        yield
        cli._region_grid.cache_clear()

    def _sequence(self, capsys, calls, out_path=None):
        """Outputs of the calls with the grid cache kept, then each call's
        on an empty cache."""
        shared = [TestParserReuse._call(capsys, argv, out_path) for argv in calls]
        fresh = []
        for argv in calls:
            cli._region_grid.cache_clear()
            fresh.append(TestParserReuse._call(capsys, argv, out_path))
        assert shared == fresh
        return shared

    def test_samples_change_between_calls(self, capsys, tmp_path):
        path = tmp_path / "wedge.csv"
        outputs = self._sequence(capsys, [
            ["region", "--n", "4", "--mode", "P"],
            ["region", "--n", "4", "--mode", "P", "--samples", "90"],
            ["region", "--n", "7", "--mode", "P0", "--format", "json"],
            ["region", "--n", "1", "--mode", "P", "--samples", "1"],
            ["region", "--n", "10", "--mode", "P0", "--samples", "4096", "--format", "json"],
            ["region", "--n", "3", "--mode", "P", "--out", str(path)],
        ], out_path=path)
        assert all(code == 0 and err == "" for code, _, err, _ in outputs)
        assert outputs[-1][1] == "" and outputs[-1][3].startswith(b"theta,admissible,boundary\n")

    def test_one_grid_serves_every_n_mode_and_format(self, capsys):
        calls = [["region", "--n", str(n), "--mode", mode, "--samples", "360", "--format", fmt]
                 for n in (1, 2, 5, 12) for mode in ("P", "P0") for fmt in ("csv", "json")]
        for argv in calls:
            TestParserReuse._call(capsys, argv)
        info = cli._region_grid.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(calls) - 1, 1)
        self._sequence(capsys, calls)

    def test_large_grid_is_not_kept(self, tmp_path):
        # a grid over CACHED_REGION_SAMPLES serves its call alone: the default
        # grid stays cached, and the large grid's texts go with the call
        import tracemalloc

        out = tmp_path / "wedge.csv"
        small = ["region", "--n", "4", "--mode", "P", "--out", str(out)]
        large = [*small, "--samples", str(16 * cli.CACHED_REGION_SAMPLES)]
        assert main(small) == 0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(large) == 0
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(out.read_text(encoding="utf-8").splitlines()) > 16 * cli.CACHED_REGION_SAMPLES
        assert main(small) == 0
        info = cli._region_grid.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert held < 100_000       # kept, the texts alone would be about 5 MB

    def test_cached_grid_is_read_only(self):
        grid, texts = cli._region_grid(360)
        with pytest.raises(ValueError):
            grid[0] = 0.0
        with pytest.raises(ValueError):
            np.add(grid, 1.0, out=grid)
        with pytest.raises(TypeError):
            texts[0] = "0.0"
        again = cli._region_grid(360)
        assert again[0] is grid and again[1] is texts
        assert grid.tolist() == [2.0 * PI * i / 360 for i in range(1, 361)]
        assert texts == tuple(map(repr, grid.tolist()))
