"""Residual evaluation for the Einstein warped-product system.

A warped product of a surface (B, g) with a Ricci-flat fiber of dimension
m, warping function f > 0 and Einstein constant lambda is Einstein
exactly when

    Ric_B - (m/f) Hess(f) = lambda g_B            (tensor equation)
    R_B f - m lap(f)      = 2 f lambda            (contracted equation)
    f lap(f) + (m-1) |grad f|^2 + lambda f^2 = 0  (scalar constraint)

The last right-hand side is the fiber's Einstein constant, zero for a
Ricci-flat fiber.  On a surface Ric_B = K g_B, so the tensor residual is
evaluated pointwise from the Gaussian curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PositivityError
from .geometry2d import (
    Metric2D, Point2, ScalarField2D, SymMat2,
    gauss_curvature, grad_norm_sq, hessian, laplace_beltrami,
)


@dataclass(frozen=True)
class WarpParams:
    """Constant block of the warped-product system over a surface.

    m is the fiber dimension and lam the Einstein constant.  The fiber is
    Ricci-flat.
    """

    m: int
    lam: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"fiber dimension m must be >= 1, got {self.m}")


def _warp_value(f: ScalarField2D, p: Point2) -> float:
    fv = f.val(p)
    if fv <= 0.0:
        raise PositivityError(
            f"warping function must be positive, got f({p.u}, {p.v}) = {fv}")
    return fv


def tensor_residual(g: Metric2D, f: ScalarField2D, wp: WarpParams,
                    p: Point2) -> SymMat2:
    """Componentwise residual of Ric_B - (m/f) Hess(f) - lambda g_B at p,
    with the surface identity Ric_B = K g_B."""
    fv = _warp_value(f, p)
    K = gauss_curvature(g, p)
    E, G = g.components(p)
    H = hessian(g, f, p)
    coeff = wp.m / fv
    return SymMat2(
        a11=(K - wp.lam) * E - coeff * H.a11,
        a12=-coeff * H.a12,
        a22=(K - wp.lam) * G - coeff * H.a22,
    )


def contracted_residual(g: Metric2D, f: ScalarField2D, wp: WarpParams,
                        p: Point2) -> float:
    """Residual of R_B f - m lap(f) - 2 f lambda at p, with R_B = 2K."""
    fv = _warp_value(f, p)
    R_B = 2.0 * gauss_curvature(g, p)
    lap = laplace_beltrami(g, f, p)
    return R_B * fv - wp.m * lap - 2.0 * fv * wp.lam


def scalar_constraint_residual(g: Metric2D, f: ScalarField2D, wp: WarpParams,
                               p: Point2) -> float:
    """Residual of f lap(f) + (m-1) |grad f|^2 + lambda f^2 at p."""
    fv = _warp_value(f, p)
    lap = laplace_beltrami(g, f, p)
    gsq = grad_norm_sq(g, f, p)
    return fv * lap + (wp.m - 1) * gsq + wp.lam * fv * fv


def vertical_ricci_coeff(f_val: float, lap: float, gradsq: float, m: int) -> float:
    """lap/f + (m-1) |grad f|^2 / f^2.

    For a fiber-tangent vector V the warped-product Ricci curvature is
    Ric_M(V, V) = Ric_F(V, V) - |V|^2 * (this value); with a Ricci-flat
    fiber and a solution of the screened warping system it equals -lambda.
    """
    if f_val <= 0.0:
        raise PositivityError(f"warping value must be positive, got {f_val}")
    if m < 1:
        raise ValueError(f"fiber dimension m must be >= 1, got {m}")
    return lap / f_val + (m - 1) * gradsq / (f_val * f_val)


def residual_report(g: Metric2D, f: ScalarField2D, wp: WarpParams,
                    points: Sequence[Point2]) -> dict:
    """Max-abs residuals of all three equations over `points`, as the
    entries `verify` prints.

    The worst case is the honest certificate for a pointwise identity, so
    no averaging is done.  The tensor entry is the largest of the three
    componentwise maxima.
    """
    if not points:
        raise ValueError("need at least one sample point")
    t11 = t12 = t22 = 0.0
    contracted = scalar = 0.0
    for p in points:
        T = tensor_residual(g, f, wp, p)
        c = contracted_residual(g, f, wp, p)
        s = scalar_constraint_residual(g, f, wp, p)
        t11 = max(t11, abs(T.a11))
        t12 = max(t12, abs(T.a12))
        t22 = max(t22, abs(T.a22))
        contracted = max(contracted, abs(c))
        scalar = max(scalar, abs(s))
    return {
        "einstein_max_tensor_residual": max(t11, t12, t22),
        "einstein_max_contracted_residual": contracted,
        "einstein_max_scalar_residual": scalar,
    }
