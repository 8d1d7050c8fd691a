"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest perfbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from metrics import (  # noqa: E402
    beyond,
    covered,
    min_samples,
    percentile,
    rank,
    self_times,
    tail_percentile,
)


def test_rank_is_integer_nearest_rank():
    assert rank(1000, 99) == 990
    assert rank(1001, 99) == 991
    assert rank(10, 50) == 5
    assert rank(11, 50) == 6
    assert rank(1, 99) == 1


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert min_samples(99) == 1000
    assert beyond(1000, 99) == 10
    assert beyond(999, 99) == 9
    assert min_samples(50) == 20
    for n in range(1, 3000):
        assert (beyond(n, 99) >= 10) == (n >= 1000)


def test_tail_percentile_refuses_too_few_samples():
    samples = list(range(1, 1001))
    assert tail_percentile(samples, 99) == 990
    assert sum(s > 990 for s in samples) == 10
    with pytest.raises(ValueError):
        tail_percentile(samples[:-1], 99)


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([3.0], 99) == 3.0


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == 3.0
    assert covered(0.0, 10.0, [(-5.0, 2.0), (9.0, 12.0)]) == 3.0
    assert covered(0.0, 10.0, [(6.0, 7.0), (1.0, 2.0)]) == 2.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        (0.0, 10.0, -1),   # root
        (1.0, 4.0, 0),     # child of root
        (2.0, 3.0, 1),     # grandchild: covered by its parent, not the root
        (5.0, 9.0, 0),     # second child
    ]
    assert self_times(spans) == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_host_speed_rescales_to_the_nominal_reference_time():
    from speed import NOMINAL_S, SHARE, HostSpeed

    speed = HostSpeed()
    speed.keep_up(1.0)
    assert speed.ref_s >= SHARE * 1.0
    speed.samples = [2 * NOMINAL_S, 2 * NOMINAL_S, 5 * NOMINAL_S]
    # a host three times slower than nominal: times shrink by 3
    assert speed.factor() == pytest.approx(1 / 3)


def test_tracer_wraps_every_binding_and_restores_them():
    from sectorpoly import campaigns, pmatrix, roots, synthesis

    from tracing import Tracer

    originals = (synthesis.find_roots, pmatrix.find_roots, roots.find_roots,
                 campaigns.synthesize)
    tracer = Tracer()
    with tracer:
        assert synthesis.find_roots is pmatrix.find_roots is roots.find_roots
        assert synthesis.find_roots is not originals[0]
        report = campaigns.run_suite("cot", 4, 7)
    assert (synthesis.find_roots, pmatrix.find_roots, roots.find_roots,
            campaigns.synthesize) == originals
    assert report.failures == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("campaigns") == 1
    assert names.count("roots.find_roots") == 4
    assert names.count("kernels.aberth_iterate") == 4
    # every find_roots span sits under verify_cot, which sits under campaigns
    for name, _, _, parent, _ in tracer.spans:
        if name == "roots.find_roots":
            assert tracer.spans[parent][0] == "synthesis.verify_cot"
            assert tracer.spans[tracer.spans[parent][3]][0] == "campaigns"


def test_a_missing_target_is_a_problem_not_a_zero(monkeypatch):
    import tracing
    from sectorpoly import kernels

    from workloads import CAMPAIGNS, execute

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("sectorpoly.roots", "find_roots_renamed", "roots.find_roots_renamed"),))
    monkeypatch.delattr(kernels, "POLISH_SWEEPS")
    tracer = tracing.Tracer()
    monkeypatch.undo()    # the kernel itself needs POLISH_SWEEPS
    with tracer:
        execute(CAMPAIGNS["cot"].call(2, 5))
    tracer.check_reached("kellogg")
    assert any("find_roots_renamed is missing" in p for p in tracer.problems)
    assert any("POLISH_SWEEPS" in p for p in tracer.problems)
    assert any("reached no kernels.minor_sums" in p for p in tracer.problems)


def test_every_workload_reaches_its_layers(tmp_path):
    import tracing

    from workloads import CAMPAIGNS, CliMix, execute

    for name in ("cot", "kellogg", "witness", "cli"):
        if name == "cli":
            mix = CliMix(tmp_path)
            mix.write_inputs()
            calls = mix.block(3, 3, 0)
        else:
            calls = [CAMPAIGNS[name].call(20, 3)]
        tracer = tracing.Tracer()
        with tracer:
            for call in calls:
                execute(call)
        tracer.check_reached(name)
        assert tracer.problems == [], name


def test_counts_repeat_exactly_for_one_seed():
    from tracing import COUNTS, Tracer

    from workloads import CAMPAIGNS, execute

    def counts():
        tracer = Tracer()
        with tracer:
            for suite in ("cot", "kellogg", "witness"):
                assert not execute(CAMPAIGNS[suite].call(6, 11)).problems
        metrics = tracer.layer_metrics(1.0, 1.0)
        return {name: metrics[name] for name in COUNTS}

    first = counts()
    assert first == counts()
    assert first["kernels.minor_sums.calls_per_matrix"] == 4.0
    assert first["kernels.minor_sums.subsets"] > 0


def test_campaign_pool_leaves_out_failing_seeds_and_follows_the_seed():
    from workloads import CAMPAIGNS

    for campaign in CAMPAIGNS.values():
        pool = campaign.pool(7, 1)
        assert sorted(pool) == sorted(set(campaign.candidates()) - set(campaign.failing))
        assert set(campaign.failing) <= set(campaign.candidates())
        assert pool == campaign.pool(7, 1)
        assert pool != campaign.pool(8, 1)


def test_campaign_cases_do_not_depend_on_the_call_size():
    # so a smaller call on a pool seed checks a prefix of the screened cases
    from workloads import CAMPAIGNS

    for name, campaign in CAMPAIGNS.items():
        short, long = campaign.call(3, 5).run(), campaign.call(6, 5).run()
        for key, value in short.metrics.items():
            worst = max if key.startswith("max") else min
            assert worst(value, long.metrics[key]) == long.metrics[key], (name, key)


def test_cli_block_passes_its_checks(tmp_path):
    from workloads import CLASSIFY_SIZES, CliMix, execute

    assert max(CLASSIFY_SIZES["P"]) < 10    # classify fails P matrices from n = 10
    mix = CliMix(tmp_path)
    mix.write_inputs()
    for call in mix.block(1, 1, 0):
        assert execute(call).problems == []


def test_benchmark_json_names_what_the_harness_prints():
    from run import END_TO_END, WORKLOADS
    from tracing import LAYER_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no sectorpoly sources" in done.stderr
