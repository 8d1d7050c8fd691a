#!/usr/bin/env python3
"""Check the benchmark's fixed inputs against the program and list those it
fails.

    python3 perfbench/screen.py [cot] [kellogg] [witness] [cli]

For a campaign it runs every candidate seed of the stated-size pool at the
stated size, and the latency corpus. For ``cli`` it classifies every fixed
matrix, also those of the (kind, n) pairs the block leaves out. It prints
each failing input with its first problem, then the ``FAILING`` entries
workloads.py should hold. The exit status is 1 when these differ from the
entries it holds: a candidate fails that is not listed, or a listed one
passes again. Run it after a change to the program or to the inputs; it
takes a few minutes.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def screen_campaign(campaign) -> bool:
    from workloads import execute

    failing = {}
    for s in campaign.candidates():
        call = campaign.call(campaign.cases, s)
        report = call.run()
        failed, problems = call.check(report)
        if failed:
            first = report.failure or {}
            failing[s] = (f"case {first.get('case')}, n={first.get('n')}, "
                          f"{first.get('mode')}: {', '.join(first.get('failed', problems))}")
            print(f"{campaign.name} seed {s}: {problems}", flush=True)
    corpus_failed = 0
    for call in campaign.latency_corpus():
        result = execute(call)
        if result.failed:
            corpus_failed += 1
            print(f"{campaign.name} latency corpus: {result.problems[0]}", flush=True)
    print(f'    "{campaign.name}": {failing!r},')
    stale = sorted(set(campaign.failing) - set(failing))
    if stale:
        print(f"{campaign.name}: listed as failing but pass now: {stale}")
    return failing.keys() == campaign.failing.keys() and not corpus_failed


def screen_cli() -> bool:
    from workloads import CLASSIFY_SIZES, CliMix, execute

    with tempfile.TemporaryDirectory() as tmp:
        mix = CliMix(Path(tmp))
        mix.write_inputs()
        ok = True
        for kind, n, i in sorted(mix.matrices):
            result = execute(mix._classify(kind, n, i))
            if result.failed:
                used = n in CLASSIFY_SIZES[kind]
                ok = ok and not used
                print(f"cli classify {kind} n={n} #{i}"
                      f"{' (in the block)' if used else ''}: {result.problems[0]}", flush=True)
    return ok


def main(argv) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import CAMPAIGNS

    names = argv or [*CAMPAIGNS, "cli"]
    ok = True
    for name in names:
        ok = (screen_cli() if name == "cli" else screen_campaign(CAMPAIGNS[name])) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
