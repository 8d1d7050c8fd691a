"""The committed ``oracle`` reports, byte for byte.

``tests/golden`` holds the report of each suite at 200 cases and seed 5, as
``sectorpoly oracle --suite S --cases 200 --seed 5 --out ...`` wrote it, and
the numpy version that wrote them. A deliberate change to a report shows up
as a diff of these files. Another numpy may round differently in the last
digits, so under any other version the comparison is skipped, naming both.
"""

import pathlib

import numpy as np
import pytest

from sectorpoly import campaigns, cli

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("suite", campaigns.SUITE_NAMES)
def test_oracle_report_matches_its_golden_bytes(suite, tmp_path):
    written_with = (GOLDEN / "numpy_version.txt").read_text().strip()
    if np.__version__ != written_with:
        pytest.skip(f"golden reports written with numpy {written_with}; "
                    f"this is numpy {np.__version__}")
    out = tmp_path / f"{suite}.json"
    assert cli.main(["oracle", "--suite", suite, "--cases", "200", "--seed", "5",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"oracle_{suite}_200_5.json").read_bytes()
