"""Command-line surface: synthesis, verification, matrix classification,
region sampling and randomized oracle campaigns. Each subcommand takes only
the flags it reads (``--out`` on every one); ``verify`` exits 1 unless
``verify_cot`` certifies the sector bound.

All reports are deterministic for fixed flags and seed: repeated runs emit
byte-identical JSON/CSV. Angles are radians only.

``main`` may be called any number of times in one process. It builds the
parser from ``build_parser`` on its first call and reuses it afterwards:
argparse reads a parser without changing it and gives every call a fresh
namespace, so no flag of one call carries over into the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import kernels
from .campaigns import RESIDUAL_BOUND, SUITE_NAMES, run_suite
from .errors import DomainError, SectorPolyError
from .pmatrix import (
    DEFAULT_DIM_CAP,
    HARD_DIM_CAP,
    MatrixClass,
    eigenvalues,
    kellogg_admissible,
    principal_minors,
    wedge_admissible,
    wedge_angle,
    wedge_half_angle,
)
from .poly import (
    SignClass,
    canonical,
    complex_to_json,
    from_polar,
    parse_complex,
)
from .synthesis import synthesize, verify_cot

MODE_BY_FLAG = {"nonneg": SignClass.NONNEGATIVE, "positive": SignClass.POSITIVE}
# 2**20 rows space the region grid 6e-6 rad apart, finer than any plot or
# check needs, and already make a 31 MB CSV report from a 240 MB peak (about
# 1.5 s on a 2-core x86_64). Every row costs memory, so a larger --samples
# would only grow the run, up to a grid that cannot be built at all.
MAX_REGION_SAMPLES = 2**20
# pi - math.pi: theta - math.pi - PI_TAIL is |theta - pi| to an ulp, as the
# argument of a unit lambda at theta reads it. theta - math.pi alone is off by
# 1.2e-16, which flips the theta = math.pi row where pi/n is that close to
# ANGLE_TOL (n near 3.14e13)
PI_TAIL = 1.2246467991473532e-16


def _jsonable(value):
    """JSON form of the numpy arrays and scalars and the complex numbers in a report."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, complex):
        return complex_to_json(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, default=_jsonable) + "\n", out_path)


def _cmd_synthesize(args) -> int:
    polar = args.r is not None or args.alpha is not None
    cartesian = args.mu_re is not None or args.mu_im is not None
    if polar == cartesian:
        raise DomainError("give exactly one of --mu-re/--mu-im or --r/--alpha")
    if polar:
        if args.r is None or args.alpha is None:
            raise DomainError("polar input needs both --r and --alpha")
        mu = from_polar(args.r, args.alpha)
    else:
        mu = complex(args.mu_re or 0.0, args.mu_im or 0.0)
    result = synthesize(mu, args.n, MODE_BY_FLAG[args.mode], j=args.j)
    _emit_json(
        {
            "mu": complex_to_json(mu),
            "n": args.n,
            "mode": args.mode,
            "coeffs": list(result.coeffs),
            "k": result.k_used.k,
            "boundary": result.k_used.boundary,
            "construction": result.construction,
            "j": result.j,
            "lift_terms": result.lift_terms,
            "conjugated": result.conjugated,
            "residual": result.residual,
            "residual_ok": bool(result.residual <= RESIDUAL_BOUND),
        },
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    try:
        payload = json.loads(args.poly)
    except ValueError as exc:     # JSONDecodeError, or an integer too long to read
        raise DomainError(f"--poly is not JSON: {exc}")
    if not isinstance(payload, list) or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in payload):
        raise DomainError("--poly must be a JSON array of numbers")
    coeffs = canonical(payload)
    report = verify_cot(coeffs)
    _emit_json(
        {
            "poly": list(coeffs),
            "degree": report.degree,
            "status": report.status,
            "binomial": report.binomial,
            "min_arg_defect": report.min_defect,
            "converged": report.converged,
            "roots": [complex_to_json(complex(z)) for z in report.roots],
            "arguments": list(report.arguments),
        },
        args.out,
    )
    return 0 if report.status == "pass" else 1


def _parse_matrix_file(path: str) -> np.ndarray:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read matrix file: {exc}")
    rows, n = (payload.get("rows"), payload.get("n")) if isinstance(payload, dict) else (0, 0)
    if not isinstance(rows, list) or not isinstance(n, int) or isinstance(n, bool):
        raise DomainError('matrix file must be {"n": int, "rows": [[...]]}')
    if len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise DomainError(f"rows do not form an {n}x{n} matrix")
    # reshape keeps n = 0 a 0x0 matrix
    entries = [[parse_complex(entry) for entry in row] for row in rows]
    return np.array(entries, dtype=np.complex128).reshape(n, n)


def _cmd_classify(args) -> int:
    a = _parse_matrix_file(args.matrix)
    n = a.shape[0]
    report = principal_minors(a, cap=args.cap)
    rs = eigenvalues(report)
    _emit_json(
        {
            "n": n,
            "class": report.matrix_class.value,
            "e_sums": report.e_sums,
            "min_real_minor": report.min_real_minor,
            "max_abs_imag_minor": report.max_abs_imag_minor,
            "char_poly": report.char_poly(),
            "aux_poly": report.aux_poly(),
            "aux_sign_class": report.aux_sign_class().value,
            "eigen_converged": rs.converged,
            "eigenvalues": [
                {
                    "value": lam,
                    "theta": wedge_angle(lam) if lam else None,
                    "kellogg_P": kellogg_admissible(lam, n, MatrixClass.P),
                    "kellogg_P0": kellogg_admissible(lam, n, MatrixClass.P0) if lam else None,
                }
                for lam in map(complex, rs.roots)
            ],
        },
        args.out,
    )
    return 0


def _cmd_region(args) -> int:
    """Sample the wedge at theta = 2*pi*i/samples, i = 1..samples, plus the
    two boundary angles pi -/+ pi/n inside (0, 2*pi], deduplicated and
    sorted. One wedge_admissible call decides every row on |theta - pi|,
    the rule kellogg_admissible applies to arg(-lambda). Both formats
    write their rows as f-strings; the JSON bytes are those of
    json.dumps(..., indent=2)."""
    if args.samples > MAX_REGION_SAMPLES:
        raise DomainError(f"--samples must be <= {MAX_REGION_SAMPLES}")
    n = args.n
    mode = MatrixClass.P if args.mode == "P" else MatrixClass.P0
    half = wedge_half_angle(n)
    edges = [t for t in (math.pi - half, math.pi + half) if t > 0.0]
    thetas = np.sort(np.concatenate(
        (2.0 * math.pi * np.arange(1, args.samples + 1) / args.samples, edges)))
    thetas = thetas[np.diff(thetas, prepend=0.0) != 0.0]    # every theta is > 0
    admissible = wedge_admissible(np.abs(thetas - math.pi - PI_TAIL), n, mode).tolist()
    boundary = np.isin(thetas, edges).tolist()
    thetas = thetas.tolist()
    word = ("false", "true")
    if args.format == "json":
        # the bytes of json.dumps(..., indent=2) without a dict per row
        rows = ",\n".join(
            f'    {{\n      "theta": {t!r},\n      "admissible": {word[a]},\n'
            f'      "boundary": {word[b]}\n    }}'
            for t, a, b in zip(thetas, admissible, boundary))
        _emit(f'{{\n  "n": {n},\n  "mode": "{args.mode}",\n  "rows": [\n{rows}\n  ]\n}}\n',
              args.out)
    else:
        lines = [f"{t!r},{word[a]},{word[b]}" for t, a, b in zip(thetas, admissible, boundary)]
        _emit("\n".join(["theta,admissible,boundary", *lines]) + "\n", args.out)
    return 0


def _cmd_oracle(args) -> int:
    report = run_suite(args.suite, args.cases, args.seed)
    _emit_json({**report.to_dict(), "backend": kernels.backend_name()}, args.out)
    return 0 if report.failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectorpoly",
        description="Polynomials with sign-constrained coefficients and a "
                    "prescribed zero; P/P0 matrix spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="build a degree-n polynomial vanishing at mu")
    p_syn.add_argument("--mu-re", type=float, default=None)
    p_syn.add_argument("--mu-im", type=float, default=None)
    p_syn.add_argument("--r", type=float, default=None, help="modulus of mu")
    p_syn.add_argument("--alpha", type=float, default=None,
                       help="argument of mu in radians")
    p_syn.add_argument("--n", type=int, required=True)
    p_syn.add_argument("--mode", choices=tuple(MODE_BY_FLAG), required=True)
    p_syn.add_argument("--j", type=int, default=1,
                       help="trinomial index for nonneg mode")
    p_syn.set_defaults(func=_cmd_synthesize)

    p_ver = sub.add_parser("verify", help="certify the sector bound on all roots")
    p_ver.add_argument("--poly", required=True,
                       help="JSON array of ascending coefficients")
    p_ver.set_defaults(func=_cmd_verify)

    p_cls = sub.add_parser("classify", help="principal-minor classification of a matrix")
    p_cls.add_argument("--matrix", required=True, help="path to the matrix JSON file")
    p_cls.add_argument("--cap", type=int, default=DEFAULT_DIM_CAP,
                       help="dimension cap for minor enumeration "
                            f"(hard limit {HARD_DIM_CAP})")
    p_cls.set_defaults(func=_cmd_classify)

    p_reg = sub.add_parser("region", help="sample the admissible eigenvalue wedge")
    p_reg.add_argument("--n", type=int, required=True)
    p_reg.add_argument("--mode", choices=("P", "P0"), required=True)
    p_reg.add_argument("--samples", type=int, default=360)
    p_reg.add_argument("--format", choices=("csv", "json"), default="csv")
    p_reg.set_defaults(func=_cmd_region)

    p_orc = sub.add_parser("oracle", help="run a randomized invariant campaign")
    p_orc.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p_orc.add_argument("--cases", type=int, required=True)
    p_orc.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_orc.set_defaults(func=_cmd_oracle)

    for command in sub.choices.values():
        command.add_argument("--out", default=None, help="write the report to a file")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built once per process, on first use."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    for flag, least in (("n", 1), ("cap", 1), ("samples", 1), ("cases", 0), ("seed", 0)):
        if getattr(args, flag, least) < least:
            parser.error(f"--{flag} must be >= {least}")
    try:
        return args.func(args)
    except SectorPolyError as exc:
        _emit_json({"error": exc.name, "message": str(exc)}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
