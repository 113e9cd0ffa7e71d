"""Residual evaluation for the Einstein warped-product system.

A warped product of a surface (B, g) with a Ricci-flat fiber of dimension
m, warping function f > 0 and Einstein constant lambda is Einstein
exactly when

    Ric_B - (m/f) Hess(f) = lambda g_B            (tensor equation)
    R_B f - m lap(f)      = 2 f lambda            (contracted equation)
    f lap(f) + (m-1) |grad f|^2 + lambda f^2 = 0  (scalar constraint)

The last right-hand side is the fiber's Einstein constant, zero for a
Ricci-flat fiber.  On a surface Ric_B = K g_B, so the tensor residual is
evaluated pointwise from the Gaussian curvature.  On a fiber-tangent
V, Ric_M(V, V) = Ric_F(V, V) - |V|^2 (lap(f)/f + (m-1) |grad f|^2 / f^2),
so with a Ricci-flat fiber the vertical Einstein condition is the scalar
constraint divided by f^2:

    lap(f)/f + (m-1) |grad f|^2 / f^2 = -lambda   (vertical Ricci)
"""

from __future__ import annotations

from typing import Sequence

from .errors import PositivityError
from .geometry2d import (
    Metric2D, Point2, ScalarField2D,
    gauss_curvature, grad_norm_sq, hessian, laplace_beltrami,
)


def _warp_value(f: ScalarField2D, p: Point2) -> float:
    fv = f.val(p)
    if fv <= 0.0:
        raise PositivityError(
            f"warping function must be positive, got f({p.u}, {p.v}) = {fv}")
    return fv


def tensor_residual(g: Metric2D, f: ScalarField2D, m: int, lam: float,
                    p: Point2) -> tuple[float, float, float]:
    """Components (a11, a12, a22) of Ric_B - (m/f) Hess(f) - lambda g_B at
    p, with the surface identity Ric_B = K g_B."""
    fv = _warp_value(f, p)
    K = gauss_curvature(g, p)
    E, G = g.components(p)
    h11, h12, h22 = hessian(g, f, p)
    coeff = m / fv
    return (K - lam) * E - coeff * h11, -coeff * h12, (K - lam) * G - coeff * h22


def contracted_residual(g: Metric2D, f: ScalarField2D, m: int, lam: float,
                        p: Point2) -> float:
    """Residual of R_B f - m lap(f) - 2 f lambda at p, with R_B = 2K."""
    fv = _warp_value(f, p)
    R_B = 2.0 * gauss_curvature(g, p)
    lap = laplace_beltrami(g, f, p)
    return R_B * fv - m * lap - 2.0 * fv * lam


def scalar_constraint_residual(g: Metric2D, f: ScalarField2D, m: int, lam: float,
                               p: Point2) -> float:
    """Residual of f lap(f) + (m-1) |grad f|^2 + lambda f^2 at p."""
    fv = _warp_value(f, p)
    lap = laplace_beltrami(g, f, p)
    gsq = grad_norm_sq(g, f, p)
    return fv * lap + (m - 1) * gsq + lam * fv * fv


def vertical_ricci_coeff(f_val: float, lap: float, gradsq: float, m: int) -> float:
    """lap/f + (m-1) |grad f|^2 / f^2, the left side of the vertical Ricci
    equation (-lambda at a solution)."""
    if f_val <= 0.0:
        raise PositivityError(f"warping value must be positive, got {f_val}")
    if m < 1:
        raise ValueError(f"fiber dimension m must be >= 1, got {m}")
    return lap / f_val + (m - 1) * gradsq / (f_val * f_val)


def residual_report(g: Metric2D, f: ScalarField2D, m: int, lam: float,
                    points: Sequence[Point2]) -> dict:
    """Max-abs residuals of all three equations over `points`, and the
    max of |vertical Ricci coefficient + lambda|, as the entries `verify`
    prints.

    The worst case is the honest certificate for a pointwise identity, so
    no averaging is done.  The tensor entry is the largest of the three
    componentwise maxima.
    """
    if not points:
        raise ValueError("need at least one sample point")
    tensor = contracted = scalar = vertical = 0.0
    for p in points:
        # Each equation evaluates K, lap(f) and |grad f|^2 afresh, so a
        # point costs two curvature and three Laplacian calls: the counts
        # the benchmark calibration pins until ROADMAP items 1, 6 and 7
        # let the equations share them.
        tensor = max(tensor, *map(abs, tensor_residual(g, f, m, lam, p)))
        contracted = max(contracted, abs(contracted_residual(g, f, m, lam, p)))
        scalar = max(scalar, abs(scalar_constraint_residual(g, f, m, lam, p)))
        coeff = vertical_ricci_coeff(
            f.val(p), laplace_beltrami(g, f, p), grad_norm_sq(g, f, p), m)
        vertical = max(vertical, abs(coeff + lam))
    return {
        "einstein_max_tensor_residual": tensor,
        "einstein_max_contracted_residual": contracted,
        "einstein_max_scalar_residual": scalar,
        "vertical_ricci_max_error": vertical,
    }
