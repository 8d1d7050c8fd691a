import dataclasses
import math

import numpy as np
import pytest

from sectorpoly import DomainError, campaigns, kernels
from sectorpoly.campaigns import run_suite, run_synth_suite
from sectorpoly.pmatrix import MatrixClass, MinorReport, generate_p_matrix
from sectorpoly.poly import SignClass, principal_arg
from sectorpoly.synthesis import sector_index


@pytest.mark.parametrize("suite", ["synth", "cot", "kellogg", "witness"])
def test_small_campaigns_pass(suite):
    cases = 60 if suite in ("kellogg", "witness") else 200
    report = run_suite(suite, cases, seed=123)
    assert report.failures == 0, report.failure
    assert report.passes == cases


@pytest.mark.parametrize("cases, seed", [(300, 2132340198), (200, 1121323794)])
def test_witness_seeds_that_once_failed(cases, seed):
    # seed 2132340198, case 270 read a P witness as P0; seed 1121323794, case 191
    # missed lambda by more than the bound before the Newton-polygon starts.
    # Every witness now holds lambda itself.
    report = run_suite("witness", cases, seed)
    assert report.failures == 0, report.failure
    assert report.metrics["max_match_distance"] == 0.0


def test_mode_restricted_synth_campaigns():
    nonneg = run_synth_suite(300, 5, SignClass.NONNEGATIVE)
    positive = run_synth_suite(300, 5, SignClass.POSITIVE)
    assert nonneg.failures == 0
    assert positive.failures == 0
    assert nonneg.metrics["max_residual"] <= 1e-10
    assert positive.metrics["max_residual"] <= 1e-10


def test_reports_are_deterministic():
    a = run_suite("synth", 150, seed=9).to_dict()
    b = run_suite("synth", 150, seed=9).to_dict()
    assert a == b
    c = run_suite("witness", 50, 4).to_dict()
    d = run_suite("witness", 50, 4).to_dict()
    assert c == d


def test_different_seeds_differ():
    a = run_suite("kellogg", 20, 1).to_dict()
    b = run_suite("kellogg", 20, 2).to_dict()
    assert a["metrics"] != b["metrics"]


def test_kellogg_enumerates_minors_once_per_matrix(monkeypatch):
    # one principal_minors report serves the class, the aux signs and the
    # eigenvalues
    calls = []
    minor_sums = kernels.minor_sums

    def counted(a):
        calls.append(a)
        return minor_sums(a)

    monkeypatch.setattr(kernels, "minor_sums", counted)
    report = run_suite("kellogg", 12, 4)
    assert report.failures == 0
    assert len(calls) == 12


def test_kellogg_matrix_comes_from_the_case_generator_alone(monkeypatch):
    # (seed, case) is the whole provenance: n, then the matrix, both drawn
    # from the case's one generator
    judged = []
    real = campaigns.principal_minors

    def recorded(a):
        judged.append(a)
        return real(a)

    monkeypatch.setattr(campaigns, "principal_minors", recorded)
    seed = 7
    assert run_suite("kellogg", 10, seed).failures == 0
    assert len(judged) == 10
    for i, a in enumerate(judged):
        rng = campaigns._case_rng(seed, i)
        n = int(rng.integers(2, 9))
        np.testing.assert_array_equal(a, generate_p_matrix(n, rng))


@pytest.mark.parametrize("seed, index", [(0, 0), (5, 1), (9, 4999), (2**32, 7), (2**70, 3)])
def test_case_rng_is_the_philox_stream_at_the_case_block(seed, index):
    # every committed report reads this stream. The golden reports are
    # compared under one numpy version only; this pins the stream under any:
    # the key from SeedSequence(seed), the counter at block index * 2**64
    got = campaigns._case_rng(seed, index)
    want = np.random.Generator(np.random.Philox(seed).advance(index << 64))
    assert got.integers(0, 2**63, 8).tolist() == want.integers(0, 2**63, 8).tolist()
    assert got.uniform(size=8).tolist() == want.uniform(size=8).tolist()


@pytest.mark.parametrize("cases", [1, 2, 7, 40])
def test_each_case_in_a_run_reads_its_own_stream(cases):
    # case i draws what _case_rng(seed, i) draws, however many draws the
    # cases before it made and however long the run is: a run of fewer cases
    # checks a prefix of the same cases
    seed = 11
    drawn = []

    def draws(rng, i):
        # uneven draws, ending inside a Philox block of four words, and half a
        # word left over from the 32-bit draw
        return (rng.integers(0, 2**63, i % 5 + 1).tolist(), rng.uniform(size=3).tolist(),
                int(rng.integers(0, 10, dtype=np.int32)))

    def case(rng, i, detail, metrics):
        drawn.append(draws(rng, i))
        return []

    report = campaigns._run_cases(campaigns.SuiteReport("synth", cases, seed), case)
    assert report.passes == cases
    for i, got in enumerate(drawn):
        assert got == draws(campaigns._case_rng(seed, i), i), i


@pytest.mark.parametrize("seed", [5, 9])
@pytest.mark.parametrize("suite, target", [
    ("synth", "synthesize"), ("cot", "synthesize"), ("witness", "eigen_witness")])
def test_every_mode_reaches_both_sector_endpoints(monkeypatch, suite, target, seed):
    # among the first 32 targets of each mode: the widest admissible angle
    # pi/(n - positive) below pi, where synthesis builds a binomial or a
    # positive boundary core, and pi at n >= 2, the linear core lifted.
    # Witness targets are synthesis targets negated
    endpoints = {}
    real = getattr(campaigns, target)

    def recorded(z, n, mode):
        mu = z if target == "synthesize" else -z
        positive = mode is SignClass.POSITIVE or mode is MatrixClass.P
        si = sector_index(abs(principal_arg(mu)))
        reached = endpoints.setdefault(mode, set())
        if si.boundary and si.k == n - positive >= 2:
            reached.add("widest")
        if si.boundary and si.k == 1 and n >= 2:
            reached.add("pi")
        return real(z, n, mode)

    monkeypatch.setattr(campaigns, target, recorded)
    assert run_suite(suite, 32, seed).failures == 0
    assert len(endpoints) == 2
    assert all(reached == {"widest", "pi"} for reached in endpoints.values()), endpoints



@pytest.mark.parametrize("seed", [5, 9])
def test_linear_targets_lie_on_the_real_axis(seed):
    # alpha = pi: the linear pins of both modes, and every nonnegative n = 1
    # draw. A 1x1 real matrix has a real eigenvalue, so the n = 1 P0 witness
    # spectrum is [lambda] with an imaginary part of exactly 0
    linear = n_one = 0
    for i in range(64):
        for positive in (False, True):
            mu, n = campaigns._sample_target(campaigns._case_rng(seed, i), i, positive)
            if (i // 2) % 8 == campaigns.LINEAR_PIN or n == 1:
                assert mu.imag == 0.0 and mu.real < 0.0, (i, positive, mu)
                linear += 1
        lam, n, mode = _witness_target(seed, i)
        if n == 1 and mode is MatrixClass.P0:
            values = campaigns.eigen_witness(lam, n, mode).values
            assert values.tolist() == [lam] and values.imag.tolist() == [0.0]
            n_one += 1
    assert linear >= 16 and n_one >= 1, (linear, n_one)

def test_zero_cases_vacuous_pass():
    report = run_suite("cot", 0, seed=1)
    assert report.passes == 0 and report.failures == 0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", 10, seed=0)


@pytest.mark.parametrize("cases", [-1, campaigns.MAX_CASES + 1, 10**40])
def test_case_counts_outside_the_range_raise(monkeypatch, cases):
    # refused before any case runs
    monkeypatch.setattr(campaigns, "_case_rng", None)
    with pytest.raises(DomainError, match="number of cases"):
        run_suite("witness", cases, seed=357)
    with pytest.raises(DomainError, match="number of cases"):
        run_synth_suite(cases, 357, SignClass.POSITIVE, verify_forward=True)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "5", None, np.int64(5)])
def test_seeds_other_than_nonnegative_ints_raise(monkeypatch, seed):
    # a bool is not read as 0 or 1; refused before any case runs
    monkeypatch.setattr(campaigns, "_case_rng", None)
    with pytest.raises(DomainError, match="seed"):
        run_suite("witness", 3, seed)
    with pytest.raises(DomainError, match="seed"):
        run_synth_suite(3, seed, SignClass.POSITIVE, verify_forward=True)


# Failure paths: each test patches one dependency of a suite so that exactly
# one check fires, then reads the failure count and the first failure's detail,
# which carries the case's identifying inputs.

def _synth_inputs(seed, i, mode):
    rng = campaigns._case_rng(seed, i)
    mu, n = campaigns._sample_target(rng, i, mode is SignClass.POSITIVE)
    return {"case": i, "mu": {"re": mu.real, "im": mu.imag}, "n": n, "mode": mode.value}


def _kellogg_inputs(seed, i):
    return {"case": i, "n": int(campaigns._case_rng(seed, i).integers(2, 9))}


def _witness_target(seed, i):
    """(lambda, n, mode) of case i of a witness campaign at ``seed``: the
    negated synthesis target of the matching mode."""
    mode = MatrixClass.P if i % 2 == 0 else MatrixClass.P0
    mu, n = campaigns._sample_target(campaigns._case_rng(seed, i), i, mode is MatrixClass.P)
    return -mu, n, mode


def _witness_inputs(seed, i):
    lam, n, mode = _witness_target(seed, i)
    return {"case": i, "lambda": {"re": lam.real, "im": lam.imag}, "n": n,
            "mode": mode.value}


def _patch_result(monkeypatch, name, changes):
    """Make campaigns.<name> return its real result with the fields that
    ``changes(result)`` maps replaced."""
    real = getattr(campaigns, name)

    def patched(*args):
        result = real(*args)
        return dataclasses.replace(result, **changes(result))

    monkeypatch.setattr(campaigns, name, patched)


def _raise_domain_error(*args):
    raise DomainError("injected")


class TestSynthFailures:
    CASES, SEED = 6, 3

    def _first_failure(self, mode, verify_forward=False):
        report = run_synth_suite(self.CASES, self.SEED, mode, verify_forward)
        assert report.failures == self.CASES and report.passes == 0
        return report.failure

    @pytest.mark.parametrize("mode", [SignClass.NONNEGATIVE, SignClass.POSITIVE])
    @pytest.mark.parametrize("check, changes", [
        ("degree", lambda r: {"coeffs": np.append(r.coeffs[0], r.coeffs)}),
        ("monic", lambda r: {"coeffs": 2.0 * r.coeffs}),
        ("residual", lambda r: {"residual": 1.0}),
    ])
    def test_result_check_fires(self, monkeypatch, mode, check, changes):
        _patch_result(monkeypatch, "synthesize", changes)
        assert self._first_failure(mode) == {**_synth_inputs(self.SEED, 0, mode),
                                             "failed": [check]}

    def test_constant_term_fires(self, monkeypatch):
        # a zero constant term keeps a nonnegative sign class
        _patch_result(monkeypatch, "synthesize",
                      lambda r: {"coeffs": np.append(0.0, r.coeffs[1:])})
        mode = SignClass.NONNEGATIVE
        assert self._first_failure(mode) == {**_synth_inputs(self.SEED, 0, mode),
                                             "failed": ["constant_term"]}

    @pytest.mark.parametrize("mode, check", [(SignClass.NONNEGATIVE, "nonnegativity"),
                                             (SignClass.POSITIVE, "positivity")])
    def test_sign_check_fires(self, monkeypatch, mode, check):
        monkeypatch.setattr(campaigns, "sign_rule", lambda values, slack: SignClass.MIXED)
        assert self._first_failure(mode) == {**_synth_inputs(self.SEED, 0, mode),
                                             "failed": [check]}

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_coefficient_fails_as_domain_error(self, monkeypatch, bad):
        # the sign check reads the coefficients as Python floats, and refuses
        # a non-finite one as classify_signs does
        _patch_result(monkeypatch, "synthesize",
                      lambda r: {"coeffs": np.append(r.coeffs[:-2], [bad, 1.0])})
        mode = SignClass.POSITIVE
        assert self._first_failure(mode) == {**_synth_inputs(self.SEED, 0, mode),
                                             "failed": ["error_DomainError"]}

    def test_inconclusive_verdict_fires(self, monkeypatch):
        _patch_result(monkeypatch, "verify_cot", lambda r: {"status": "inconclusive"})
        mode = SignClass.POSITIVE
        assert self._first_failure(mode, verify_forward=True) == {
            **_synth_inputs(self.SEED, 0, mode), "failed": ["verify_inconclusive"]}

    @pytest.mark.parametrize("target", ["synthesize", "verify_cot"])
    def test_raising_case_is_a_failed_case_with_its_inputs(self, monkeypatch, target):
        monkeypatch.setattr(campaigns, target, _raise_domain_error)
        mode = SignClass.NONNEGATIVE
        assert self._first_failure(mode, verify_forward=True) == {
            **_synth_inputs(self.SEED, 0, mode), "failed": ["error_DomainError"]}

    def test_suite_without_a_mode_alternates(self, monkeypatch):
        # case 1 is the first positive case; a raising case still counts once
        real = campaigns.synthesize

        def fail_positive(mu, n, mode):
            if mode is SignClass.POSITIVE:
                raise DomainError("injected")
            return real(mu, n, mode)

        monkeypatch.setattr(campaigns, "synthesize", fail_positive)
        report = run_suite("synth", 5, self.SEED)
        assert (report.passes, report.failures) == (3, 2)
        assert report.failure == {**_synth_inputs(self.SEED, 1, SignClass.POSITIVE),
                                  "failed": ["error_DomainError"]}


class TestKelloggFailures:
    CASES, SEED = 4, 5

    def _first_failure(self):
        report = run_suite("kellogg", self.CASES, self.SEED)
        assert report.failures == self.CASES and report.passes == 0
        return report.failure

    def test_class_fires(self, monkeypatch):
        _patch_result(monkeypatch, "principal_minors",
                      lambda r: {"matrix_class": MatrixClass.P0})
        assert self._first_failure() == {**_kellogg_inputs(self.SEED, 0), "failed": ["class"]}

    def test_aux_signs_fire(self, monkeypatch):
        monkeypatch.setattr(MinorReport, "aux_sign_class", lambda self: SignClass.NONNEGATIVE)
        assert self._first_failure() == {**_kellogg_inputs(self.SEED, 0),
                                         "failed": ["aux_signs"]}

    def test_eigen_convergence_fires(self, monkeypatch):
        _patch_result(monkeypatch, "eigenvalues", lambda r: {"converged": False})
        assert self._first_failure() == {**_kellogg_inputs(self.SEED, 0),
                                         "failed": ["eigen_convergence"]}

    @pytest.mark.parametrize("extra", [-1.0, 0.0, 1e-3 * (-1.0 + 0.1j)])
    def test_admissible_fires(self, monkeypatch, extra):
        # -1 and a root at arg(-lambda) = -0.0997 lie inside Kellogg's wedge;
        # 0 is no eigenvalue of a P matrix, though |arg(-0)| reads pi
        _patch_result(monkeypatch, "eigenvalues",
                      lambda r: {"roots": np.append(extra, [1.0 + 1j, 1.0 - 1j])})
        report = run_suite("kellogg", self.CASES, self.SEED)
        assert report.failures == self.CASES
        assert report.failure == {**_kellogg_inputs(self.SEED, 0), "failed": ["admissible"]}

    def test_defect_is_the_smallest_angle_less_pi_over_n(self, monkeypatch):
        # a failing case's defect covers every root: -1 + 0.2i is already
        # inadmissible at n <= 8, and -1 beyond it lies deeper in the wedge
        _patch_result(monkeypatch, "eigenvalues",
                      lambda r: {"roots": np.array([-1.0 + 0.2j, -1.0])})
        report = run_suite("kellogg", 1, self.SEED)
        n = _kellogg_inputs(self.SEED, 0)["n"]
        assert report.metrics["min_eigen_defect"] == 0.0 - math.pi / n

    def test_raising_case_is_a_failed_case_with_its_inputs(self, monkeypatch):
        monkeypatch.setattr(campaigns, "generate_p_matrix", _raise_domain_error)
        assert self._first_failure() == {**_kellogg_inputs(self.SEED, 0),
                                         "failed": ["error_DomainError"]}
        assert run_suite("kellogg", self.CASES, self.SEED).metrics == {
            "min_eigen_defect": None, "max_root_residual": 0.0}


class TestWitnessFailures:
    SEED = 4

    def _report(self, cases):
        return run_suite("witness", cases, self.SEED)

    def _assert_first(self, report, i, check):
        assert report.failure == {**_witness_inputs(self.SEED, i), "failed": [check]}

    def test_size_fires(self, monkeypatch):
        # one real value more, which keeps the spectrum conjugate-closed
        _patch_result(monkeypatch, "eigen_witness",
                      lambda r: {"values": np.append(1.0, r.values)})
        report = self._report(4)
        assert report.failures == 4
        self._assert_first(report, 0, "size")

    def test_contains_lambda_fires(self, monkeypatch):
        _patch_result(monkeypatch, "eigen_witness", lambda r: {"values": 2.0 * r.values})
        report = self._report(4)
        assert report.failures == 4
        self._assert_first(report, 0, "contains_lambda")

    @pytest.mark.parametrize("wrong, failures", [(MatrixClass.P0, 1), (MatrixClass.NEITHER, 2)])
    def test_feasibility_fires(self, monkeypatch, wrong, failures):
        # case 0 asks for a P spectrum, which P0 fails; case 1 asks for a P0
        # one, which only NEITHER fails
        _patch_result(monkeypatch, "eigen_witness", lambda r: {"feasibility": wrong})
        report = self._report(2)
        assert report.failures == failures
        self._assert_first(report, 0, "feasibility")

    def test_conjugate_closure_fires(self, monkeypatch):
        monkeypatch.setattr(campaigns, "is_conjugate_closed", lambda values: False)
        report = self._report(4)
        assert report.failures == 4
        self._assert_first(report, 0, "conjugate_closure")

    def test_boundary_binomial_fires(self, monkeypatch):
        # only the P0 boundary pins (index 3, 19, ...) are checked for a
        # binomial; the P pins at index 2, 18, ... have positive cores
        monkeypatch.setattr(campaigns, "_is_binomial_spectrum", lambda values: False)
        report = self._report(20)
        assert (report.passes, report.failures) == (18, 2)
        self._assert_first(report, 3, "boundary_binomial")

    def test_raising_case_is_a_failed_case_with_its_inputs(self, monkeypatch):
        monkeypatch.setattr(campaigns, "eigen_witness", _raise_domain_error)
        report = self._report(4)
        assert report.failures == 4
        self._assert_first(report, 0, "error_DomainError")


def _record_working_forms(monkeypatch):
    """(p, w, e) of every later working_form call, by whichever module."""
    from sectorpoly import poly, roots, synthesis

    calls = []
    real = poly.working_form

    def recorded(p):
        w, e = real(p)
        calls.append((p, w, e))
        return w, e

    for module in (poly, roots, synthesis):
        monkeypatch.setattr(module, "working_form", recorded)
    return calls


def _solves(monkeypatch):
    """A counter of later kernel solves."""
    count = [0]
    iterate = kernels.aberth_iterate

    def counted(*args):
        count[0] += 1
        return iterate(*args)

    monkeypatch.setattr(kernels, "aberth_iterate", counted)
    return count


def test_seeded_campaigns_solve_their_inputs_as_they_are(monkeypatch):
    # every solve, residual and certificate of a 200-case seed-5 run of each
    # suite works on its input: the working form changes no seeded byte
    calls = _record_working_forms(monkeypatch)
    solves = _solves(monkeypatch)
    for suite in campaigns.SUITE_NAMES:
        assert run_suite(suite, 200, 5).failures == 0
    assert solves[0] > 0 and len(calls) > solves[0]
    assert all(w is p and e == 0 for p, w, e in calls)


def test_cli_calls_solve_their_inputs_as_they_are(monkeypatch, tmp_path, capsys):
    # the CLI calls that CI repeats byte for byte, the classify inputs with a
    # zero pivot and a scaled P matrix, and a near-boundary synthesis
    import json

    from sectorpoly import cli

    a = np.random.default_rng(12).uniform(-1.0, 1.0, (12, 12))
    a[0, 0] = 0.0
    matrices = {
        "matrix6": np.random.default_rng(12).uniform(-1.0, 1.0, (6, 6)),
        "singular": np.ones((2, 2)),
        "zero_pivot": a,
        "scaled_p": 10 * generate_p_matrix(12, 1),
    }
    for name, m in matrices.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"n": len(m), "rows": m.tolist()}))
    calls = _record_working_forms(monkeypatch)
    solves = _solves(monkeypatch)
    argvs = [
        ["verify", "--poly", "[1,2,3,1]"],
        ["synthesize", "--r", "2", "--alpha", "1.2", "--n", "5", "--mode", "nonneg", "--j", "2"],
        ["synthesize", "--r", "1", "--alpha", "1.0471975511", "--n", "5", "--mode", "nonneg"],
        ["region", "--n", "4", "--mode", "P", "--samples", "90"],
        ["region", "--n", "5", "--mode", "P0", "--samples", "720", "--format", "json"],
    ] + [["classify", "--matrix", str(tmp_path / f"{name}.json")] for name in matrices]
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert solves[0] == 5       # one verify and four classify solves
    assert all(w is p and e == 0 for p, w, e in calls)
