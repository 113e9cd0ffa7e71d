"""Independent checks of each operation's output.

Nothing here calls warpverify: every expected quantity is recomputed from
the command line itself, from the formulas the toolkit documents.  A
checker returns None when the output is correct and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

from workloads import Op

IDENTITY_RTOL = 1e-9
ROOT_RTOL = 1e-9
PDE_RESIDUAL_MAX = 1e-8
RATE_RANGE = (1.5, 2.5)


def flag(argv: Sequence[str], name: str, default: Optional[str] = None) -> Optional[str]:
    """Value that follows `name` in a command line, or `default`."""
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def relation_coefficients(m: float, beta: float, variant: str) -> tuple[float, float, float]:
    """Coefficients of a2 lam^2 + a1 lam + a0 as documented in `relation`."""
    a2 = 2.0 - m
    a1 = beta * (1.0 + 1.5 * m - 0.5 * m * m)
    if variant == "published":
        a0 = m * m * (1.0 - 0.5 * beta * beta) + m * (2.5 * beta * beta - 2.0)
    elif variant == "rederived":
        a0 = 0.5 * beta * beta * (m * m + m)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return a2, a1, a0


def check_verify(op: Op, code: int, text: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    report = json.loads(text)
    if report["verdict"] != "pass":
        return f"verdict {report['verdict']!r}"
    params = report["params"]
    m, beta = int(flag(op.argv, "--m")), float(flag(op.argv, "--beta"))
    if params["m"] != m or params["beta"] != beta:
        return "reported parameters differ from the command line"
    lam, K = params["lambda"], params["K"]
    lhs = (lam + m * beta) ** 2
    rhs = (m - 1) * (lam + beta) * (lam + m * beta / 2.0)
    if abs(lhs - rhs) > IDENTITY_RTOL * max(abs(lhs), abs(rhs)):
        return f"relation identity fails at lambda = {lam!r}"
    if not lam + beta < 0.0:
        return "lambda + beta is not negative"
    if not K < 0.0 or abs(K - (lam + m * beta / 2.0)) > 1e-12 * abs(K):
        return f"K = {K!r} is not lambda + m beta/2 < 0"
    tol = report["tolerances"]
    gated = (("relation_residual", "relation"), ("compat_max_residual", "compat"),
             ("curvature_max_abs_k_plus_1", "curvature"),
             ("einstein_max_tensor_residual", "einstein"),
             ("einstein_max_contracted_residual", "einstein"),
             ("einstein_max_scalar_residual", "einstein"))
    for key, tol_key in gated:
        if not report[key] <= tol[tol_key]:
            return f"{key} = {report[key]!r} exceeds its tolerance"
    return None


def _sweep_rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cell = dict(zip(header, line.split(",")))
        rows.append({
            "m": int(cell["m"]),
            "beta": float(cell["beta"]),
            "variant": cell["variant"],
            "admissible_root": (float(cell["admissible_root"])
                                if cell["admissible_root"] else None),
            "exists": cell["exists"],
        })
    return rows


def check_sweep(op: Op, code: int, text: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    lo, hi = (int(x) for x in flag(op.argv, "--m").split(".."))
    betas = [float(b) for b in flag(op.argv, "--beta").split(",")]
    variant = flag(op.argv, "--variant", "rederived")
    rows = _sweep_rows(text, flag(op.argv, "--format", "csv"))
    if len(rows) != (hi - lo + 1) * len(betas):
        return f"{len(rows)} rows, expected {(hi - lo + 1) * len(betas)}"
    expected = {(m, b) for m in range(lo, hi + 1) for b in betas}
    if {(r["m"], r["beta"]) for r in rows} != expected:
        return "rows do not cover the (m, beta) grid"
    for r in rows:
        if r["variant"] != variant:
            return f"row variant {r['variant']!r}, expected {variant!r}"
        if r["exists"] != "true":
            continue
        m, beta, lam = r["m"], r["beta"], r["admissible_root"]
        if lam is None:
            return f"m = {m}, beta = {beta!r}: exists without a root"
        a2, a1, a0 = relation_coefficients(m, beta, variant)
        scale = abs(a2) * lam * lam + abs(a1 * lam) + abs(a0)
        if abs((a2 * lam + a1) * lam + a0) > ROOT_RTOL * scale:
            return f"m = {m}, beta = {beta!r}: root {lam!r} does not solve the quadratic"
        if not (lam + beta < 0.0 and lam + m * beta / 2.0 < 0.0):
            return f"m = {m}, beta = {beta!r}: root {lam!r} is not admissible"
    return None


def check_pde_solve(op: Op, code: int, text: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    residual = float(lines["max residual"])
    if not residual <= PDE_RESIDUAL_MAX:
        return f"max residual {residual!r} exceeds {PDE_RESIDUAL_MAX}"
    r_max, h = float(flag(op.argv, "--rmax")), float(flag(op.argv, "--h"))
    n = int(math.floor(r_max / h + 1e-12))
    with open(op.out_path, encoding="ascii") as fh:
        csv_lines = fh.read().splitlines()
    if csv_lines[0] != "x1,x2,tag,value" or len(csv_lines) - 1 != (2 * n + 1) ** 2:
        return f"CSV has {len(csv_lines) - 1} rows, expected {(2 * n + 1) ** 2}"
    interior, boundary = [], []
    for line in csv_lines[1:]:
        _, _, tag, value = line.split(",")
        if tag == "interior":
            interior.append(float(value))
        elif tag == "boundary":
            boundary.append(float(value))
        elif tag != "exterior" or value:
            return f"bad CSV row {line!r}"
    if len(interior) != int(lines["interior nodes"]):
        return "CSV interior count differs from the reported count"
    # No source term and beta > 0: the discrete solution lies between the
    # extremes of the Dirichlet data and zero.
    lo, hi = min(0.0, min(boundary)), max(0.0, max(boundary))
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))
    if not (lo - slack <= min(interior) and max(interior) <= hi + slack):
        return "interior values break the discrete maximum principle"
    return None


def check_pde_converge(op: Op, code: int, text: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    rows = json.loads(text)["rows"]
    hs = [float(x) for x in flag(op.argv, "--h").split(",")]
    if [r["h"] for r in rows] != hs:
        return "rows do not match the mesh ladder"
    errors = [r["max_error"] for r in rows]
    if any(not b < a for a, b in zip(errors, errors[1:])):
        return f"errors do not decrease: {errors}"
    for r in rows[1:]:
        rate = r["observed_rate"]
        if rate is None or not RATE_RANGE[0] <= rate <= RATE_RANGE[1]:
            return f"observed rate {rate!r} outside {RATE_RANGE}"
    return None


CHECKERS = {
    "verify": check_verify,
    "sweep": check_sweep,
    "pde-solve": check_pde_solve,
    "pde-converge": check_pde_converge,
}


def check(workload: str, op: Op, code: Optional[int], text: str) -> Optional[str]:
    """Reason the operation failed, or None.

    An operation that ends with its expected non-zero exit code is a
    correct outcome and its output is not inspected further.
    """
    if code is None:
        return "raised an exception"
    if op.expect_code != 0:
        return None if code == op.expect_code else f"exit code {code}, expected {op.expect_code}"
    try:
        return CHECKERS[workload](op, code, text)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return f"unreadable output: {exc!r}"
