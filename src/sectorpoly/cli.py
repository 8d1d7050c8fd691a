"""Command-line surface: synthesis, verification, matrix classification,
region sampling and randomized oracle campaigns. Each subcommand takes only
the flags it reads (``--out`` on every one); ``verify`` exits 1 unless
``verify_cot`` certifies the sector bound.

All reports are deterministic for fixed flags and seed: repeated runs emit
byte-identical JSON/CSV. Angles are radians only.

``main`` may be called any number of times in one process. It builds the
parser from ``build_parser`` on its first call and reuses it afterwards:
argparse reads a parser without changing it and gives every call a fresh
namespace, so no flag of one call carries over into the next. ``region``
reuses its grid the same way: the angles of the latest ``--samples`` up to
``CACHED_REGION_SAMPLES`` and their texts are built once and kept read-only,
so no call changes what the next one reads. Every report is written in
pieces, as it is formed, to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .campaigns import RESIDUAL_BOUND, SUITE_NAMES, run_suite
from .errors import DomainError, SectorPolyError
from .pmatrix import (
    DEFAULT_DIM_CAP,
    HARD_DIM_CAP,
    MatrixClass,
    eigenvalues,
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
    principal_arg,
)
from .synthesis import synthesize, verify_cot

MODE_BY_FLAG = {"nonneg": SignClass.NONNEGATIVE, "positive": SignClass.POSITIVE}
# 2**20 rows space the region grid 6e-6 rad apart, finer than any plot or
# check needs, and already make a 31 MB CSV report from a 176 MB peak RSS
# (1.0-1.8 s, median 1.5 s, for a fresh process on a shared 2-core x86_64)
# and a 102 MB JSON one from 231 MB (1.1-2.1 s, median 1.5 s). Every row
# costs memory, so a larger --samples would only grow the run, up to a grid
# that cannot be built at all.
MAX_REGION_SAMPLES = 2**20
# The largest region grid whose texts stay cached for later calls in the
# process (0.34 MB at 2**12, against 86 MB at 2**20). A larger grid is built
# for its call alone and leaves the cached one in place.
CACHED_REGION_SAMPLES = 2**12
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


# json's words for the floats whose repr holds an "n"; no finite repr does
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE[text] if "n" in text else text


def _dumps(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, default=_jsonable), byte for byte.

    CPython runs json.dumps in its pure-Python encoder whenever ``indent`` is
    set; this writer makes the same type tests in json's order (str, None,
    the bools, int, float, list or tuple, dict, then the default) with less
    work per value. Floats, np.float64 among them, are float.__repr__ or
    json's NaN / Infinity / -Infinity; a list of plain floats is one join;
    a complex number is written as its {"re", "im"} object, and anything
    else as its ``_jsonable`` form (an ndarray as its tolist()). Every dict
    key is a str, as in every report; any other raises TypeError. ``newline``
    is a newline and the indent of the line the value starts on.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is float for v in value):
            text = sep.join(map(float.__repr__, value))
            if "n" not in text:
                return "[" + inner + text + newline + "]"
        return "[" + inner + sep.join([_dumps(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in value.items()]
        return "{" + inner + sep.join(items) + newline + "}"
    if isinstance(value, complex):
        return (f'{{{inner}"re": {_float_text(value.real)}{sep}'
                f'"im": {_float_text(value.imag)}{newline}}}')
    return _dumps(_jsonable(value), newline)


def _emit(pieces, out_path: str | None) -> None:
    """Write the report's text pieces, in order, to ``out_path`` or stdout.
    The pieces may be formed lazily, as they are written: ``out_path`` is
    truncated before the first one, so a report that fails while it is formed
    (a MemoryError near MAX_REGION_SAMPLES) leaves a partial file. An
    ``out_path`` that cannot be opened or written raises DomainError naming it."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as f:
                f.writelines(pieces)
        except OSError as exc:
            raise DomainError(f"cannot write --out {out_path!r}: {exc.strerror}")
    else:
        sys.stdout.writelines(pieces)


def _emit_json(obj, out_path: str | None) -> None:
    """Write ``obj`` as the bytes of json.dumps(obj, indent=2) and a newline:
    every report and the error payload pass through ``_dumps``."""
    _emit((_dumps(obj), "\n"), out_path)


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
            "mu": mu,
            "n": args.n,
            "mode": args.mode,
            "coeffs": result.coeffs.tolist(),
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
            "poly": coeffs.tolist(),
            "degree": report.degree,
            "status": report.status,
            "binomial": report.binomial,
            "min_arg_defect": report.min_defect,
            "converged": report.converged,
            "roots": report.roots.tolist(),
            "arguments": report.arguments.tolist(),
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
    # reshape keeps n = 0 a 0x0 matrix; a plain float is parse_complex's
    # complex(x, 0.0) without its checks
    entries = [[complex(x) if type(x) is float else parse_complex(x) for x in row]
               for row in rows]
    return np.array(entries, dtype=np.complex128).reshape(n, n)


def _cmd_classify(args) -> int:
    a = _parse_matrix_file(args.matrix)
    n = a.shape[0]
    report = principal_minors(a, cap=args.cap)
    rs = eigenvalues(report)
    rows = []
    for lam in rs.roots.tolist():
        # kellogg_admissible's rule, on one angle: |theta - pi| = |arg(-lambda)|;
        # lambda = 0 is not P-admissible and has no P0 verdict
        gap = abs(principal_arg(-lam))
        rows.append({
            "value": lam,
            "theta": wedge_angle(lam) if lam else None,
            "kellogg_P": wedge_admissible(gap, n, MatrixClass.P) if lam else False,
            "kellogg_P0": wedge_admissible(gap, n, MatrixClass.P0) if lam else None,
        })
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
            "eigenvalues": rows,
        },
        args.out,
    )
    return 0


@functools.lru_cache(maxsize=1)
def _region_grid(samples: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """The grid theta = 2*pi*i/samples, i = 1..samples, and the text of each
    theta in a report (read-only; shared by every call). The texts are most
    of a default call's work and depend on nothing else. Only the latest
    grid of at most CACHED_REGION_SAMPLES stays cached: ``_cmd_region``
    builds a larger one through ``__wrapped__``, for its call alone."""
    grid = 2.0 * math.pi * np.arange(1, samples + 1) / samples
    grid.setflags(write=False)
    return grid, tuple(map(float.__repr__, grid.tolist()))


class _RegionFormat(NamedTuple):
    """A region format's parts, in the order a report puts them. Only
    ``head`` is a template (str.format'ed with n and mode); every other part
    is literal text."""
    head: str           # the text before the first row
    before: str         # a row's text before its theta
    admissible: str     # after its theta, before the admissible word
    boundary: str       # after the admissible word, before the boundary word
    after: str          # after the boundary word
    between: str        # between two rows
    tail: str           # after the last row


_REGION_FORMATS = {
    "csv": _RegionFormat(head="theta,admissible,boundary\n", before="", admissible=",",
                         boundary=",", after="", between="\n", tail="\n"),
    "json": _RegionFormat(head='{{\n  "n": {n},\n  "mode": "{mode}",\n  "rows": [\n',
                          before='    {\n      "theta": ',
                          admissible=',\n      "admissible": ',
                          boundary=',\n      "boundary": ',
                          after="\n    }", between=",\n", tail="\n  ]\n}\n"),
}
_WORDS = ("false", "true")


def _region_pieces(fmt: str, n: int, mode: str, texts, admissible, boundary):
    """The pieces of a region report: each run of rows with equal verdicts is
    one join of its theta texts, with the format's row parts between."""
    form = _REGION_FORMATS[fmt]
    cuts = np.flatnonzero((admissible[1:] != admissible[:-1])
                          | (boundary[1:] != boundary[:-1])) + 1
    starts = [0, *cuts.tolist()]
    lead = form.head.format(n=n, mode=mode) + form.before   # the text before a run's first theta
    for i, j, a, b in zip(starts, [*starts[1:], len(texts)],
                          admissible[starts].tolist(), boundary[starts].tolist()):
        row_end = form.admissible + _WORDS[a] + form.boundary + _WORDS[b] + form.after
        link = row_end + form.between + form.before         # from one theta to the next
        yield lead
        yield link.join(texts[i:j])
        lead = link
    yield row_end + form.tail


def _cmd_region(args) -> int:
    """Sample the wedge at theta = 2*pi*i/samples, i = 1..samples, plus the
    two boundary angles pi -/+ pi/n inside (0, 2*pi], deduplicated and
    sorted. One wedge_admissible call decides every row on |theta - pi|,
    the rule kellogg_admissible applies to arg(-lambda). The grid and its
    texts come from ``_region_grid``; both formats write each run of rows
    with equal verdicts as one join of those texts, and the JSON bytes are
    those of json.dumps(..., indent=2)."""
    if args.samples > MAX_REGION_SAMPLES:
        raise DomainError(f"--samples must be <= {MAX_REGION_SAMPLES}")
    n = args.n
    mode = MatrixClass.P if args.mode == "P" else MatrixClass.P0
    half = wedge_half_angle(n)
    build = _region_grid if args.samples <= CACHED_REGION_SAMPLES else _region_grid.__wrapped__
    grid, grid_texts = build(args.samples)
    # both edges round to pi where pi/n is below half its ulp (n > 1.4e16)
    edges = sorted({t for t in (math.pi - half, math.pi + half) if t > 0.0})
    # an edge that is a grid angle adds no row; the others go in sorted order
    added = [(i, t) for i, t in zip(np.searchsorted(grid, edges).tolist(), edges)
             if i == len(grid) or grid[i] != t]
    thetas = np.insert(grid, [i for i, _ in added], [t for _, t in added])
    texts = list(grid_texts)
    for i, t in reversed(added):
        texts.insert(i, float.__repr__(t))
    admissible = wedge_admissible(np.abs(thetas - math.pi - PI_TAIL), n, mode)
    boundary = np.isin(thetas, edges)
    _emit(_region_pieces(args.format, n, args.mode, texts, admissible, boundary), args.out)
    return 0


def _cmd_oracle(args) -> int:
    report = run_suite(args.suite, args.cases, args.seed)
    _emit_json(report.to_dict(), args.out)
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
