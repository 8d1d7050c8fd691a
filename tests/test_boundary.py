"""One boundary-angle rule across the package.

``synthesis.sector_index`` alone decides whether an angle is pi/k, and
``synthesize``, ``kellogg_admissible`` and ``eigen_witness`` must agree with
it. The sweep below puts eigenvalue targets at relative offsets d from every
boundary, |theta - pi| = (pi/k)(1 + d), on both sides of the real axis, and
checks each admissible target end to end. Tier-1 runs a reduced grid; the
full grid runs as a script, which prints the failure counts and exits 1 on
any failure:

    PYTHONPATH=src python tests/test_boundary.py
"""

import collections
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorpoly import (
    AngleTooSmall,
    DegreeOne,
    MatrixClass,
    SectorPolyError,
    SignClass,
    eigen_witness,
    from_polar,
    kellogg_admissible,
    synthesize,
)
from sectorpoly.campaigns import RESIDUAL_BOUND
from sectorpoly.poly import is_conjugate_closed

MODE_SIGNS = {MatrixClass.P: SignClass.POSITIVE, MatrixClass.P0: SignClass.NONNEGATIVE}

FULL_OFFSETS = (
    0.0,
    *(s * 10.0**-e for e in range(16, 7, -1) for s in (1.0, -1.0)),
    5e-10, -5e-10, 3e-9, -3e-9,
)
FULL_RADII = (1e-3, 1.0, 7.0)
TIER1_OFFSETS = (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9)


def check_target(lam: complex, n: int, mode: MatrixClass) -> list[str]:
    """The ways the rule fails at one eigenvalue target (empty when it holds).

    lambda is admissible exactly when synthesize(-lambda) in the mode's sign
    class does not raise AngleTooSmall (nor, for P at n = 1, DegreeOne). An
    admissible target must synthesize with the right signs and a small
    residual, and its witness must hold n values, lambda among them, be
    conjugate-closed and reach the mode's class.
    """
    sign = MODE_SIGNS[mode]
    if not kellogg_admissible(lam, n, mode):
        expected = (AngleTooSmall, DegreeOne) if mode is MatrixClass.P else AngleTooSmall
        try:
            synthesize(-lam, n, sign)
        except expected:
            return []
        except SectorPolyError as exc:
            return [f"inadmissible_{exc.name}"]
        return ["inadmissible_synthesized"]
    bad = []
    try:
        result = synthesize(-lam, n, sign)
    except SectorPolyError as exc:
        bad.append(f"synthesize_{exc.name}")
    else:
        low = float(np.min(result.coeffs))
        if low < 0.0 or (mode is MatrixClass.P and low == 0.0):
            bad.append("coefficient_sign")
        if result.residual > RESIDUAL_BOUND:
            bad.append("residual")
    try:
        spectrum = eigen_witness(lam, n, mode)
    except SectorPolyError as exc:
        return bad + [f"witness_{exc.name}"]
    values = spectrum.values
    if len(values) != n:
        bad.append("witness_size")
    if lam not in values:
        bad.append("witness_misses_lambda")
    if not is_conjugate_closed(values):
        bad.append("witness_not_conjugate_closed")
    if spectrum.feasibility is MatrixClass.NEITHER or (
            mode is MatrixClass.P and spectrum.feasibility is not MatrixClass.P):
        bad.append("witness_feasibility")
    return bad


def sweep(modes, ks, ns, offsets, radii):
    """(checks, failure counts) over every target |theta - pi| = (pi/k)(1+d)
    with |theta - pi| <= pi, on both sides of the real axis."""
    checks = 0
    failures = collections.Counter()
    for mode, k, n, d, r, side in itertools.product(
            modes, ks, ns, offsets, radii, (1.0, -1.0)):
        gap = math.pi / k * (1.0 + d)
        if gap > math.pi:
            continue
        checks += 1
        failures.update(check_target(from_polar(r, math.pi + side * gap), n, mode))
    return checks, failures


@pytest.mark.parametrize("mode", [MatrixClass.P, MatrixClass.P0])
def test_reduced_boundary_sweep(mode):
    checks, failures = sweep((mode,), range(1, 13), range(1, 13), TIER1_OFFSETS, (1.0,))
    assert checks > 1900
    assert not failures, dict(failures)


@given(
    mode=st.sampled_from([MatrixClass.P, MatrixClass.P0]),
    k=st.integers(1, 12),
    n=st.integers(1, 12),
    log_d=st.floats(-17.0, -8.0),
    sign=st.sampled_from([1.0, -1.0]),
    side=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=300, deadline=None)
def test_rule_holds_at_random_offsets(mode, k, n, log_d, sign, side):
    gap = math.pi / k * (1.0 + sign * 10.0**log_d)
    if gap <= math.pi:
        lam = from_polar(1.0, math.pi + side * gap)
        assert check_target(lam, n, mode) == []


if __name__ == "__main__":
    checks, failures = sweep(tuple(MODE_SIGNS), range(1, 13), range(1, 13),
                             FULL_OFFSETS, FULL_RADII)
    print(f"{checks} checks, {sum(failures.values())} failures")
    for name, count in sorted(failures.items()):
        print(f"  {name}: {count}")
    sys.exit(1 if failures else 0)
