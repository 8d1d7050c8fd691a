import json
import math

import numpy as np
import pytest

from sectorpoly import kernels
from sectorpoly.cli import main
from sectorpoly.pmatrix import MatrixClass, kellogg_admissible
from sectorpoly.poly import from_polar

PI = math.pi


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


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
        code, out = _run(capsys, "synthesize", "--mu-re", "0", "--mu-im", "1",
                         "--n", "2", "--mode", "positive")
        assert code == 2
        assert json.loads(out)["error"] == "PiOverAlphaInteger"

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
        ("4.6e25", "12", "positive"),   # r^n fits, sum|a_i| r^i overflows
    ])
    def test_modulus_out_of_range_exits_2(self, capsys, r, n, mode):
        code, out = _run(capsys, "synthesize", "--r", r, "--alpha", "2",
                         "--n", n, "--mode", mode)
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"


class TestVerifyCommand:
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
        # t^20 + 1e20 t^19 + 1: the powers of the start near -1e20 overflow
        poly = json.dumps([1.0] + [0.0] * 18 + [1e20, 1.0])
        code, out = _run(capsys, "verify", "--poly", poly)
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    def test_mixed_signs_exit_2(self, capsys):
        code, out = _run(capsys, "verify", "--poly", "[-1,1]")
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

    def test_complex_entries(self, capsys, tmp_path):
        path = self._write(tmp_path, {
            "n": 2,
            "rows": [[{"re": 2, "im": 0}, {"re": 0, "im": 1}],
                     [{"re": 0, "im": -1}, {"re": 2, "im": 0}]],
        })
        code, out = _run(capsys, "classify", "--matrix", path)
        assert code == 0
        assert json.loads(out)["class"] == "P"

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

    def test_nan_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text('{"n": 2, "rows": [[1, NaN], [0, 1]]}')
        code, out = _run(capsys, "classify", "--matrix", str(path))
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    def test_enumerates_minors_at_most_twice(self, capsys, tmp_path, monkeypatch):
        # principal_minors serves class, char_poly and aux_poly; eigenvalues
        # runs its own enumeration
        calls = []
        minor_sums = kernels.minor_sums

        def counted(a):
            calls.append(a)
            return minor_sums(a)

        monkeypatch.setattr(kernels, "minor_sums", counted)
        path = self._write(tmp_path, {"n": 3, "rows": np.eye(3).tolist()})
        code, _ = _run(capsys, "classify", "--matrix", path)
        assert code == 0
        assert len(calls) <= 2


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

    def test_rows_match_predicate_oracle(self, capsys):
        for n, mode in ((1, "P"), (2, "P"), (5, "P0")):
            code, out = _run(capsys, "region", "--n", str(n), "--mode", mode,
                             "--samples", "37")
            assert code == 0
            cls = MatrixClass.P if mode == "P" else MatrixClass.P0
            for theta, adm, _ in self._rows(out):
                assert adm == kellogg_admissible(from_polar(1.0, theta), n, cls)

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


class TestFlagValidation:
    def test_csv_rejected_outside_region(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--poly", "[1,1]", "--format", "csv"])
        assert exc.value.code == 2

    def test_nonpositive_tolerance_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--poly", "[1,1]", "--tol-angle", "0"])
        assert exc.value.code == 2

    def test_negative_cases_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--suite", "synth", "--cases", "-5"])
        assert exc.value.code == 2

    def test_region_csv_is_default_and_repeatable(self, capsys):
        args = ("region", "--n", "4", "--mode", "P0", "--samples", "90")
        _, out1 = _run(capsys, *args)
        _, out2 = _run(capsys, *args)
        assert out1 == out2
