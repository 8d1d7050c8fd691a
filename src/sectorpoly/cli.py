"""Command-line surface: synthesis, verification, matrix classification,
region sampling and randomized oracle campaigns.

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
from .campaigns import SUITE_NAMES, run_suite
from .errors import DomainError, SectorPolyError, ZeroLambda
from .pmatrix import (
    DEFAULT_DIM_CAP,
    HARD_DIM_CAP,
    MatrixClass,
    eigenvalues,
    kellogg_admissible,
    principal_minors,
    wedge_angle,
)
from .poly import (
    SignClass,
    canonical,
    classify_signs,
    complex_to_json,
    from_polar,
    parse_complex,
)
from .synthesis import synthesize, verify_cot

MODE_BY_FLAG = {"nonneg": SignClass.NONNEGATIVE, "positive": SignClass.POSITIVE}


def _py(value):
    """Recursively coerce numpy scalars/arrays into JSON-serializable types."""
    if isinstance(value, dict):
        return {k: _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_py(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.complexfloating, complex)):
        return complex_to_json(complex(value))
    return value


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(_py(obj), indent=2) + "\n", out_path)


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
            "residual_ok": bool(result.residual <= args.tol_residual),
        },
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    coeffs = canonical(json.loads(args.poly))
    report = verify_cot(coeffs, angle_tol=args.tol_angle)
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
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read matrix file: {exc}")
    if not isinstance(payload, dict):
        raise DomainError('matrix file must be {"n": int, "rows": [[...]]}')
    rows = payload.get("rows")
    n = payload.get("n")
    if not isinstance(rows, list) or not isinstance(n, int):
        raise DomainError('matrix file must be {"n": int, "rows": [[...]]}')
    if len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise DomainError(f"rows do not form an {n}x{n} matrix")
    a = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            a[i, j] = parse_complex(entry)
    return a


def _cmd_classify(args) -> int:
    a = _parse_matrix_file(args.matrix)
    report = principal_minors(a, cap=args.cap)
    payload = {
        "n": int(a.shape[0]),
        "class": report.matrix_class.value,
        "e_sums": [complex_to_json(complex(e)) for e in report.e_sums],
        "min_real_minor": report.min_real_minor,
        "max_abs_imag_minor": report.max_abs_imag_minor,
    }
    p = report.char_poly()
    q = report.aux_poly()
    rs = eigenvalues(report)
    n = int(a.shape[0])
    eigen_rows = []
    for z in rs.roots:
        lam = complex(z)
        row = {
            "value": complex_to_json(lam),
            "theta": wedge_angle(lam) if lam != 0 else None,
        }
        row["kellogg_P"] = kellogg_admissible(lam, n, MatrixClass.P)
        try:
            row["kellogg_P0"] = kellogg_admissible(lam, n, MatrixClass.P0)
        except ZeroLambda:
            row["kellogg_P0"] = None
        eigen_rows.append(row)
    payload.update(
        {
            "char_poly": list(p),
            "aux_poly": list(q),
            "aux_sign_class": classify_signs(q).value,
            "eigen_converged": rs.converged,
            "eigenvalues": eigen_rows,
        }
    )
    _emit_json(payload, args.out)
    return 0


def _cmd_region(args) -> int:
    n = args.n
    mode = MatrixClass.P if args.mode == "P" else MatrixClass.P0
    grid = {}
    for i in range(1, args.samples + 1):
        grid[2.0 * math.pi * i / args.samples] = False
    for boundary_theta in (math.pi - math.pi / n, math.pi + math.pi / n):
        if 0.0 < boundary_theta <= 2.0 * math.pi:
            grid[boundary_theta] = True
    rows = []
    for theta in sorted(grid):
        lam = from_polar(1.0, theta)
        rows.append(
            {
                "theta": theta,
                "admissible": kellogg_admissible(lam, n, mode),
                "boundary": grid[theta],
            }
        )
    if args.format == "json":
        _emit_json({"n": n, "mode": args.mode, "rows": rows}, args.out)
    else:
        lines = ["theta,admissible,boundary"]
        for row in rows:
            lines.append(
                f"{row['theta']!r},{str(row['admissible']).lower()},"
                f"{str(row['boundary']).lower()}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_oracle(args) -> int:
    report = run_suite(args.suite, args.cases, args.seed)
    payload = report.to_dict()
    payload["backend"] = kernels.backend_name()
    _emit_json(payload, args.out)
    return 0 if report.failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0, help="campaign seed")
    shared.add_argument("--tol-residual", type=float, default=1e-10,
                        help="relative residual threshold reported by synthesize")
    shared.add_argument("--tol-angle", type=float, default=1e-7,
                        help="angle tolerance for the forward sector check")
    shared.add_argument("--out", default=None, help="write the report to a file")
    shared.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (csv applies to region only)")

    parser = argparse.ArgumentParser(
        prog="sectorpoly",
        description="Polynomials with sign-constrained coefficients and a "
                    "prescribed zero; P/P0 matrix spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", parents=[shared],
                           help="build a degree-n polynomial vanishing at mu")
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

    p_ver = sub.add_parser("verify", parents=[shared],
                           help="check the sector bound on all roots")
    p_ver.add_argument("--poly", required=True,
                       help="JSON array of ascending coefficients")
    p_ver.set_defaults(func=_cmd_verify)

    p_cls = sub.add_parser("classify", parents=[shared],
                           help="principal-minor classification of a matrix")
    p_cls.add_argument("--matrix", required=True, help="path to the matrix JSON file")
    p_cls.add_argument("--cap", type=int, default=DEFAULT_DIM_CAP,
                       help="dimension cap for minor enumeration "
                            f"(hard limit {HARD_DIM_CAP})")
    p_cls.set_defaults(func=_cmd_classify)

    p_reg = sub.add_parser("region", parents=[shared],
                           help="sample the admissible eigenvalue wedge")
    p_reg.add_argument("--n", type=int, required=True)
    p_reg.add_argument("--mode", choices=("P", "P0"), required=True)
    p_reg.add_argument("--samples", type=int, default=360)
    p_reg.set_defaults(func=_cmd_region)

    p_orc = sub.add_parser("oracle", parents=[shared],
                           help="run a randomized invariant campaign")
    p_orc.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p_orc.add_argument("--cases", type=int, required=True)
    p_orc.set_defaults(func=_cmd_oracle)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built once per process, on first use."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command != "region":
        parser.error("--format csv is only available for the region command")
    if args.format is None:
        args.format = "csv" if args.command == "region" else "json"
    if args.tol_residual <= 0 or args.tol_angle <= 0:
        parser.error("tolerances must be positive")
    for cap_flag in ("n", "cap", "samples"):
        if getattr(args, cap_flag, 1) < 1:
            parser.error(f"--{cap_flag} must be >= 1")
    if getattr(args, "cases", 0) < 0:
        parser.error("--cases must be >= 0")
    try:
        return args.func(args)
    except SectorPolyError as exc:
        _emit_json({"error": exc.name, "message": str(exc)}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
