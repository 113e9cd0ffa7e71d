"""Acceptance suite: one test per criterion, each prints a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import subprocess
import sys

import numpy as np

from warpverify.compatibility import (
    compat_residual, pq_from_params, strip_points, strip_samples,
    verify_pseudospherical,
)
from warpverify.cli import run_verification
from warpverify.einstein import WarpParams, residual_report, vertical_ricci_coeff
from warpverify.geometry2d import (
    Point2, coordinate_u, gauss_curvature, grad_norm_sq, laplace_beltrami,
    poincare_disk, poincare_half_plane, rescale,
)
from warpverify.relation import PUBLISHED, relation_poly, solve_lambda
from warpverify.screened_pde import (
    BOUNDARY, EXTERIOR, GridSpec, assemble_and_solve, convergence_study,
    coshdist_exact,
)
from support import is_exact, max_compat_residual_for_params


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_relation_roots():
    expected = {2: -1.5, 3: -2.0, 4: -2.5}
    worst_gap, worst_res = 0.0, 0.0
    for m, lam in expected.items():
        rep = solve_lambda(relation_poly(m, 1))
        roots = [r for r in rep["roots"] if r["admissible"]]
        assert len(roots) == 1
        worst_gap = max(worst_gap, abs(roots[0]["value"] - lam))
        worst_res = max(worst_res, roots[0]["backsub_residual"])
    ok = worst_gap == 0.0 and worst_res < 1e-12
    report(1, "relation roots", ok,
           f"max root gap {worst_gap:.3g}, max back-substitution {worst_res:.3g}")


def test_criterion_02_published_rederived_equality_at_unit_beta():
    mismatches = []
    for m in range(1, 51):
        pub, red = relation_poly(m, 1, PUBLISHED), relation_poly(m, 1)
        if not (is_exact(pub) and is_exact(red)):
            mismatches.append((m, "inexact arithmetic"))
        elif (pub.a2, pub.a1, pub.a0) != (red.a2, red.a1, red.a0):
            mismatches.append((m, "coefficient mismatch"))
    report(2, "published/rederived equality at beta=1", not mismatches,
           f"m in [1, 50] exact rational comparison, {len(mismatches)} mismatches")


def test_criterion_03_compatibility_oracle():
    samples = strip_samples(0.5, 4.0, 64)
    worst_res, worst_norm = 0.0, 0.0
    for m in range(3, 13):
        for beta in (0.5, 1.0, 2.0):
            roots = solve_lambda(relation_poly(m, beta))["admissible_roots"]
            assert len(roots) == 1
            pq = pq_from_params(m, roots[0], beta)
            worst_res = max(worst_res,
                            max(abs(compat_residual(pq, t)) for t in samples))
            worst_norm = max(worst_norm, abs(pq.q(1.0) - pq.p.d1(1.0) - 1.0))
    ok = worst_res < 1e-9 and worst_norm < 1e-10
    report(3, "compatibility oracle", ok,
           f"max ODE residual {worst_res:.3g}, max |q - p' - 1| {worst_norm:.3g}")


def test_criterion_04_discrepancy_certificate():
    m, beta = 3, 2.0
    red_roots = solve_lambda(relation_poly(m, beta))["admissible_roots"]
    assert len(red_roots) == 1
    red_res, red_reason = max_compat_residual_for_params(m, beta, red_roots[0])
    pub_roots = [r["value"] for r in solve_lambda(relation_poly(m, beta, PUBLISHED))["roots"]]
    pub_results = [max_compat_residual_for_params(m, beta, r) for r in pub_roots]

    lines = [f"rederived root {red_roots[0]}: residual {red_res:.3g}"]
    for root, (res, reason) in zip(pub_roots, pub_results):
        why = f" [{reason}]" if reason else ""
        lines.append(f"published root {root}: residual {res:.3g}{why}")
    detail = "; ".join(lines) + "; intent not adjudicated"

    ok = (red_res < 1e-9 and red_reason is None
          and len(pub_roots) >= 1
          and all(res > 1e-2 for res, _ in pub_results))
    report(4, "discrepancy certificate (m=3, beta=2)", ok, detail)


def test_criterion_05_constructed_metric_curvature():
    pq = pq_from_params(3, -2.0, 1.0)
    samples = strip_samples(0.5, 4.0, 32)
    rep = verify_pseudospherical(pq, samples)
    ok = (rep["curvature_max_abs_k_plus_1"] < 1e-5 and rep["compat_max_residual"] <= 1e-8
          and len(strip_points(samples)) == 256)
    report(5, "constructed-metric curvature", ok,
           f"max |K + 1| = {rep['curvature_max_abs_k_plus_1']:.3g} over 32x8 FD strip")


def test_criterion_06_model_curvature_oracles():
    rng = np.random.default_rng(53)
    worst_disk = worst_half = worst_rescaled = 0.0
    disk, half = poincare_disk(), poincare_half_plane()
    for _ in range(100):
        r = rng.uniform(0.0, 0.95)
        th = rng.uniform(0.0, 2.0 * math.pi)
        p = Point2(r * math.cos(th), r * math.sin(th))
        worst_disk = max(worst_disk, abs(gauss_curvature(disk, p) + 1.0))
        q = Point2(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0))
        worst_half = max(worst_half, abs(gauss_curvature(half, q) + 1.0))
    for c in (0.5, 2.0, 3.7):
        g = rescale(disk, c)
        for _ in range(20):
            r = rng.uniform(0.0, 0.9)
            th = rng.uniform(0.0, 2.0 * math.pi)
            p = Point2(r * math.cos(th), r * math.sin(th))
            worst_rescaled = max(worst_rescaled,
                                 abs(gauss_curvature(g, p) + 1.0 / c))
    ok = worst_disk < 1e-10 and worst_half < 1e-10 and worst_rescaled < 1e-9
    report(6, "model curvature oracles", ok,
           f"disk {worst_disk:.3g}, half-plane {worst_half:.3g}, "
           f"rescaled {worst_rescaled:.3g}")


def test_criterion_07_einstein_system_closure():
    m, lam, beta = 3, -2.0, 1.0
    K = lam + m * beta / 2.0
    assert K == -0.5
    pq = pq_from_params(m, lam, beta)
    from warpverify.compatibility import build_metric, integrate_s
    samples = strip_samples(0.5, 4.0, 32)
    s = integrate_s(pq, samples[0], samples[-1])
    g_base = rescale(build_metric(pq, s), 1.0 / (-K))
    f = coordinate_u()
    points = [Point2(t, h) for t in samples
              for h in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    wp = WarpParams(m=m, lam=lam)
    rep = residual_report(g_base, f, wp, points)

    ricci_err = max(
        abs(vertical_ricci_coeff(f.val(p), laplace_beltrami(g_base, f, p),
                                 grad_norm_sq(g_base, f, p), m) - 2.0)
        for p in points)
    ok = max(rep.values()) < 1e-6 and ricci_err < 1e-8
    report(7, "einstein system closure", ok,
           f"max residual {max(rep.values()):.3g} over {len(points)} points, "
           f"vertical Ricci error {ricci_err:.3g}")


def test_criterion_08_pde_exactness_and_rates():
    spec = GridSpec(beta=2.0, r_max=0.8, h=0.02, boundary=coshdist_exact)
    field = assemble_and_solve(spec)
    err = field.max_error_against(coshdist_exact)

    rows = convergence_study(spec, [0.04, 0.02, 0.01], coshdist_exact)["rows"]
    rates = [r["observed_rate"] for r in rows[1:]]
    ok = err < 5e-3 and all(1.7 <= rate <= 2.3 for rate in rates)
    report(8, "pde exactness", ok,
           f"max error {err:.3g} at h=0.02, rates {[round(r, 3) for r in rates]}")


def test_criterion_09_maximum_principle():
    rng = np.random.default_rng(480)
    violations = 0
    worst_overshoot = 0.0
    for _ in range(50):
        beta = float(rng.uniform(0.05, 6.0))
        coeffs = rng.normal(size=6)

        def bd(x, y, c=coeffs):
            th = np.arctan2(y, x)
            return (c[0] + c[1] * np.sin(th) + c[2] * np.cos(th)
                    + c[3] * np.sin(2 * th) + c[4] * np.cos(2 * th)
                    + c[5] * np.sin(3 * th))

        spec = GridSpec(beta=beta, r_max=float(rng.uniform(0.4, 0.8)),
                        h=0.04, boundary=bd)
        field = assemble_and_solve(spec)
        bvals = field.values[field.tags == BOUNDARY]
        vals = field.values[field.tags != EXTERIOR]
        lo = min(0.0, float(bvals.min()))
        hi = max(0.0, float(bvals.max()))
        overshoot = max(lo - float(vals.min()), float(vals.max()) - hi, 0.0)
        worst_overshoot = max(worst_overshoot, overshoot)
        if overshoot > 1e-12:
            violations += 1
    report(9, "discrete maximum principle", violations == 0,
           f"50 randomized homogeneous solves, worst overshoot {worst_overshoot:.3g}")


def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "warpverify", "relation", "sweep",
           "--m", "2..10", "--beta", "0.5,1,2", "--format", "csv", "--quiet"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    report(10, "cli determinism", ok,
           f"two runs, {len(first.stdout)} bytes each, byte-identical: "
           f"{first.stdout == second.stdout}")


def test_verify_pipeline_end_to_end():
    """The CLI-level aggregation passes at default tolerances."""
    rep = run_verification(3, 1.0)
    assert rep["verdict"] == "pass"
    rep = run_verification(5, 0.5)
    assert rep["verdict"] == "pass"
