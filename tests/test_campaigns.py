import pytest

from sectorpoly import kernels
from sectorpoly.campaigns import (
    run_kellogg_suite,
    run_suite,
    run_synth_suite,
    run_witness_suite,
)
from sectorpoly.poly import SignClass


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
    c = run_witness_suite(50, 4).to_dict()
    d = run_witness_suite(50, 4).to_dict()
    assert c == d


def test_different_seeds_differ():
    a = run_kellogg_suite(20, 1).to_dict()
    b = run_kellogg_suite(20, 2).to_dict()
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
    report = run_kellogg_suite(12, 4)
    assert report.failures == 0
    assert len(calls) == 12


def test_zero_cases_vacuous_pass():
    report = run_suite("cot", 0, seed=1)
    assert report.passes == 0 and report.failures == 0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", 10, seed=0)
