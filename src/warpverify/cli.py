"""Command-line front end.

Commands
--------
relation solve   --m M --beta B [--variant published|rederived]
relation sweep   --m A..B --beta B1,B2,... [--variant ...] [--format csv|json]
verify           --m M --beta B [--variant ...]
curvature        --model disk|halfplane --at x,y
pde solve        --beta B --rmax R --h H --bc NAME --out PATH
pde converge     --beta B --h H1,H2,... [--rmax R]

Exit codes: 0 success/pass, 1 usage or I/O error, 2 no admissible root,
3 verification fail (at the console also a root that fails
back-substitution), 4 solver non-convergence.  A `pde solve` CSV that
cannot be written exits 1 with "error: cannot write PATH: REASON" and
leaves no partial file; standard output closed early (`| head`) ends the
command with exit 1 and no message.

Output is deterministic: identical argv produce byte-identical stdout,
modulo the version banner which `--quiet` suppresses.  JSON floats carry
17 significant digits, human-readable text 12.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .einstein import residual_report
from .errors import (
    AdmissibilityError, BacksubstitutionError, SolverError, ToolkitError,
)
from .compatibility import (
    build_metric, integrate_s, pq_from_params, strip_points, strip_samples,
    verify_pseudospherical,
)
from .geometry2d import (
    Point2, coordinate_u, gauss_curvature, poincare_disk, poincare_half_plane, rescale,
)
from .relation import REDERIVED, VARIANTS, existence_sweep, relation_poly, solve_lambda

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_ADMISSIBLE = 2
EXIT_VERIFY_FAIL = 3
EXIT_SOLVER = 4

# The thresholds of the `verify` verdict, keyed as its report prints them;
# curvature is the finite-difference certificate's |K + 1|.
TOLERANCES = {"relation": 1e-10, "compat": 1e-8, "curvature": 1e-5, "einstein": 1e-6}


# -- deterministic serialization ------------------------------------------------


def _json_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    # escape via the stdlib, which handles control characters
    import json
    return json.dumps(x)


def to_json(obj, indent: int = 0) -> str:
    """Tiny JSON emitter: insertion-ordered keys, floats at 17 digits.

    The stdlib encoder always prints floats with repr(); the fixed
    17-significant-digit format here keeps reports stable and lossless.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{_json_scalar(str(k))}: {to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)


def fmt_text(x: float) -> str:
    return format(x, ".12g")


# -- verification ----------------------------------------------------------------


def _no_admissible_root(m: int, beta: float, variant: str) -> AdmissibilityError:
    """The refusal of an (m, beta) whose relation has no admissible root."""
    why = " (fiber dimension m < 2: the profile normalization divides by m - 1)"
    return AdmissibilityError(
        f"no admissible root for m = {m}, beta = {beta}, variant = {variant}"
        + (why if m < 2 else ""),
        reason="fiber_dimension" if m < 2 else "no_admissible_root")


def run_verification(m: int, beta: float, variant: str = REDERIVED) -> dict:
    """Full pipeline for one parameter pair, as the report `verify` prints.

    Solves the relation, builds the profile pair at the admissible root,
    integrates s, constructs the chart metric, certifies curvature -1
    (finite differences), and measures the warped-product system
    (`residual_report`) on the base metric recovered by undoing the
    unit-curvature rescaling, where the warping function is the first
    chart coordinate.  Both the curvature certificate and the Einstein
    residuals sample the default strip (`strip_points(strip_samples())`).

    The verdict compares the relation, compatibility and curvature entries
    and the largest `einstein_*` entry with their `TOLERANCES` entries.
    `vertical_ricci_max_error` (max of |vertical Ricci coefficient +
    lambda|) is informational and not part of the verdict.
    Raises AdmissibilityError when the relation has no admissible root.
    """
    roots = solve_lambda(relation_poly(m, beta, variant))["roots"]
    root = next((r for r in roots if r["admissible"]), None)
    if root is None:
        raise _no_admissible_root(m, beta, variant)
    lam, relation_residual, K = root["value"], root["backsub_residual"], root["K"]

    pq = pq_from_params(m, lam, beta)
    samples = strip_samples()
    pseudo = verify_pseudospherical(pq, samples)

    # Base metric with curvature K: undo the unit-curvature rescaling.
    s = integrate_s(pq, samples[0], samples[-1])
    g_unit = build_metric(pq, s)
    g_base = rescale(g_unit, 1.0 / (-K))
    res = residual_report(g_base, coordinate_u(), m, lam, strip_points(samples))

    measured = {"relation": relation_residual, "compat": pseudo["compat_max_residual"],
                "curvature": pseudo["curvature_max_abs_k_plus_1"],
                "einstein": max(res[f"einstein_max_{part}_residual"]
                                for part in ("tensor", "contracted", "scalar"))}
    passed = all(measured[key] <= tol for key, tol in TOLERANCES.items())
    return {
        "params": {"m": m, "beta": beta, "variant": variant, "lambda": lam, "K": K},
        "relation_residual": relation_residual,
        **pseudo,
        **res,
        "tolerances": dict(TOLERANCES),
        "verdict": "pass" if passed else "fail",
    }


# -- sweep emitters ----------------------------------------------------------------

SWEEP_CSV_HEADER = "m,beta,variant,a2,a1,a0,root1,root2,admissible_root,K,exists"

# Sweep rows are formatted and written this many at a time, so output
# streams while memory stays flat.
SWEEP_BLOCK_ROWS = 1024

_G = "%.17g"
_SKIP = "%.0s"  # consumes an absent (NaN) value and prints nothing


def _distinct_text(column):
    """column as `_G` strings: (the distinct strings, each row's index into
    them).  Values are told apart by their bits, each formatted once."""
    bits, at = np.unique(column.view(np.int64), return_inverse=True)
    return np.array([_G % x for x in bits.view(float).tolist()], dtype=object), at


def _write_sweep(table, out, template, head, separator, tail):
    """Write `head`, the rows joined by `separator`, then `tail`.  Each row
    is one %-format of (m, beta, a2, a1, a0, root1, root2, admissible_root,
    K, exists) with `template(roots, admissible)` for its number of roots
    and whether one is admissible.  beta and a2 arrive as strings: a sweep
    has few distinct values of each, so they are formatted once."""
    templates = [template(n, adm) for n in range(3) for adm in (False, True)]
    kinds = (2 * np.isfinite(table.root1) + 2 * np.isfinite(table.root2)
             + np.isfinite(table.admissible_root)).tolist()
    beta, beta_at = _distinct_text(table.beta)
    a2, a2_at = _distinct_text(table.a2)
    numbers = (table.a1, table.a0, table.root1, table.root2,
               table.admissible_root, table.K, table.exists)
    out.write(head)
    for lo in range(0, len(kinds), SWEEP_BLOCK_ROWS):
        block = slice(lo, lo + SWEEP_BLOCK_ROWS)
        columns = (table.m[block], beta[beta_at[block]], a2[a2_at[block]],
                   *(col[block] for col in numbers))
        rows = zip(kinds[block], zip(*(col.tolist() for col in columns)))
        out.write((separator if lo else "")
                  + separator.join([templates[k] % row for k, row in rows]))
    out.write(tail)


def sweep_csv_lines(table, out) -> None:
    """Write an existence sweep as CSV: the header, then one line per row
    with 17-digit floats and empty cells for absent values."""
    def template(roots, admissible):
        return ",".join(["%d", "%s", table.variant, "%s", _G, _G]
                        + [_G] * roots + [_SKIP] * (2 - roots)
                        + [_G if admissible else _SKIP] * 2 + ["%s"])

    _write_sweep(table, out, template, SWEEP_CSV_HEADER + "\n", "\n", "\n")


def sweep_json(table, out) -> None:
    """Write an existence sweep as the `to_json` text of {"rows": [...]},
    one object per row, absent roots left out and absent values null."""
    def template(roots, admissible):
        listed = ",".join(["\n        " + _G] * roots)
        fields = {
            "m": "%d", "beta": "%s", "variant": f'"{table.variant}"',
            "a2": "%s", "a1": _G, "a0": _G,
            "roots": (f"[{listed}\n      ]" if roots else "[]") + _SKIP * (2 - roots),
            "admissible_root": _G if admissible else "null" + _SKIP,
            "K": _G if admissible else "null" + _SKIP,
            "exists": '"%s"',
        }
        return "    {\n" + ",\n".join(f'      "{k}": {v}' for k, v in fields.items()) + "\n    }"

    _write_sweep(table, out, template, '{\n  "rows": [\n', ",\n", "\n  ]\n}\n")


# -- argument parsing -------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def _parse_m_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    m = int(text)
    return m, m


def _parse_floats(text: str) -> list[float]:
    """Comma-separated floats, each entry a number: `1,,2` and `0.1,` are
    refused.  Commas alone are the empty list, which callers refuse."""
    return [float(x) for x in text.split(",")] if text.strip(",") else []


def _output_path(text: str) -> str:
    """An output file path, refused at parse time (before any solve) when
    it is empty or a directory, or its directory does not exist."""
    folder = os.path.dirname(text) or "."
    if not text or os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a file name")
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"{folder!r} is not an existing directory")
    return text


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _coshdist(x, y):
    # imported on use: screened_pde loads scipy, which only `pde` needs
    from .screened_pde import coshdist_exact
    return coshdist_exact(x, y)


BOUNDARY_CATALOG = {
    "zero": lambda x, y: 0.0,
    "one": lambda x, y: 1.0,
    "coshdist": _coshdist,
    # sin(2 theta), written so that it is exactly odd in x and in y and
    # symmetric under x <-> y; boundary nodes never sit at the origin
    "angular": lambda x, y: 2.0 * x * y / (x * x + y * y),
}


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state between calls, so `run` reuses it."""
    parser = _Parser(prog="warpverify", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress the version banner")

    rel = sub.add_parser("relation", help="quadratic relation tools")
    rel_sub = rel.add_subparsers(dest="subcommand", required=True)

    rs = rel_sub.add_parser("solve", parents=[common],
                            help="solve the relation for one (m, beta)")
    rs.add_argument("--m", type=int, required=True)
    rs.add_argument("--beta", type=float, required=True)
    rs.add_argument("--variant", choices=VARIANTS, default=REDERIVED)

    rw = rel_sub.add_parser("sweep", parents=[common],
                            help="existence sweep over m and beta")
    rw.add_argument("--m", type=_parse_m_range, required=True,
                    metavar="A..B", help="integer range, e.g. 2..10")
    rw.add_argument("--beta", type=_parse_floats, required=True,
                    metavar="LIST", help="comma-separated betas")
    rw.add_argument("--variant", choices=VARIANTS, default=REDERIVED)
    rw.add_argument("--format", choices=("csv", "json"), default="csv")

    vf = sub.add_parser("verify", parents=[common],
                        help="full certification pipeline for one (m, beta)")
    vf.add_argument("--m", type=int, required=True)
    vf.add_argument("--beta", type=float, required=True)
    vf.add_argument("--variant", choices=VARIANTS, default=REDERIVED)

    cv = sub.add_parser("curvature", parents=[common],
                        help="Gaussian curvature of a model metric")
    cv.add_argument("--model", choices=("disk", "halfplane"), required=True)
    cv.add_argument("--at", type=_parse_point, required=True, metavar="x,y")
    cv.add_argument("--format", choices=("text", "json"), default="text")

    pd = sub.add_parser("pde", help="screened Poisson solver")
    pd_sub = pd.add_subparsers(dest="subcommand", required=True)

    ps = pd_sub.add_parser("solve", parents=[common],
                           help="Dirichlet solve on the subdisk")
    ps.add_argument("--beta", type=float, required=True)
    ps.add_argument("--rmax", type=float, default=0.8)
    ps.add_argument("--h", type=float, default=0.02)
    ps.add_argument("--bc", choices=sorted(BOUNDARY_CATALOG), default="zero")
    ps.add_argument("--out", type=_output_path, required=True,
                    help="CSV output path")

    pc = pd_sub.add_parser("converge", parents=[common],
                           help="manufactured-solution convergence study")
    pc.add_argument("--beta", type=float, required=True)
    pc.add_argument("--h", type=_parse_floats, required=True, metavar="LIST")
    pc.add_argument("--rmax", type=float, default=0.8)
    pc.add_argument("--format", choices=("text", "csv", "json"), default="text")

    return parser


# -- command handlers --------------------------------------------------------------


def _banner(args, out):
    if not getattr(args, "quiet", False):
        out.write(f"warpverify {__version__}\n")


def _cmd_relation_solve(args, out) -> int:
    report = solve_lambda(relation_poly(args.m, args.beta, args.variant))
    out.write(to_json(report) + "\n")
    if not report["admissible_roots"]:
        sys.stderr.write(f"{_no_admissible_root(args.m, args.beta, args.variant)}\n")
        return EXIT_NO_ADMISSIBLE
    return EXIT_OK


def _cmd_relation_sweep(args, out) -> int:
    table = existence_sweep(args.m, args.beta, args.variant)
    (sweep_csv_lines if args.format == "csv" else sweep_json)(table, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    try:
        report = run_verification(args.m, args.beta, args.variant)
    except AdmissibilityError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_NO_ADMISSIBLE
    out.write(to_json(report) + "\n")
    return EXIT_OK if report["verdict"] == "pass" else EXIT_VERIFY_FAIL


def _cmd_curvature(args, out) -> int:
    g = poincare_disk() if args.model == "disk" else poincare_half_plane()
    x, y = args.at
    k = gauss_curvature(g, Point2(x, y))
    if args.format == "json":
        out.write(to_json({"model": args.model, "at": [x, y],
                           "gauss_curvature": k}) + "\n")
    else:
        out.write(f"K({fmt_text(x)}, {fmt_text(y)}) = {fmt_text(k)}\n")
    return EXIT_OK


def _cmd_pde_solve(args, out) -> int:
    from . import screened_pde as pde
    spec = pde.GridSpec(beta=args.beta, r_max=args.rmax, h=args.h,
                        boundary=BOUNDARY_CATALOG[args.bc])
    field = pde.assemble_and_solve(spec)
    try:
        pde.write_grid_csv(field, args.out)
    except OSError as exc:
        raise ToolkitError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    res = pde.residual_field(field, spec)
    n_int = int(field.interior_mask.sum())
    out.write(f"interior nodes: {n_int}\n")
    out.write(f"max residual: {fmt_text(res)}\n")
    out.write(f"grid written to {args.out}\n")
    return EXIT_OK


def _cmd_pde_converge(args, out) -> int:
    from . import screened_pde as pde
    hs = pde.mesh_widths(args.h)
    base = pde.manufactured_spec(args.beta, r_max=args.rmax, h=hs[0])
    report = pde.convergence_study(base, hs, pde.coshdist_exact)
    rows = report["rows"]
    if args.format == "json":
        out.write(to_json(report) + "\n")
    elif args.format == "csv":
        out.write(",".join(rows[0]) + "\n")
        for r in rows:
            cells = ("" if v is None else format(v, ".17g") for v in r.values())
            out.write(",".join(cells) + "\n")
    else:
        out.write("h            max_error       observed_rate\n")
        for r in rows:
            rate = fmt_text(r["observed_rate"]) if r["observed_rate"] is not None else "-"
            out.write(f"{fmt_text(r['h']):<12} {fmt_text(r['max_error']):<15} {rate}\n")
    return EXIT_OK


_HANDLERS = {
    ("relation", "solve"): _cmd_relation_solve,
    ("relation", "sweep"): _cmd_relation_sweep,
    ("verify", None): _cmd_verify,
    ("curvature", None): _cmd_curvature,
    ("pde", "solve"): _cmd_pde_solve,
    ("pde", "converge"): _cmd_pde_converge,
}


def run(argv: Sequence[str], out=None) -> int:
    """Dispatch one command line; returns the process exit code."""
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(list(argv))
    except (_UsageError, ValueError, argparse.ArgumentError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE

    handler = _HANDLERS[(args.command, getattr(args, "subcommand", None))]
    _banner(args, out)
    try:
        return handler(args, out)
    except SolverError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BacksubstitutionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = EXIT_VERIFY_FAIL
    except BrokenPipeError:
        # The reader went away (`| head`).  Point stdout at devnull so the
        # flush at interpreter exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
