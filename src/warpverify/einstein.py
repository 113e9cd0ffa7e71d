"""Residual evaluation for the Einstein warped-product system.

A warped product with base metric g, warping function f > 0, fiber
dimension m and Einstein constants (lambda, mu) is Einstein exactly when

    Ric_B - (m/f) Hess(f) = lambda g_B            (tensor equation)
    R_B f - m lap(f)      = n f lambda            (contracted equation)
    f lap(f) + (m-1) |grad f|^2 + lambda f^2 = mu (scalar constraint)

On a surface Ric_B = K g_B, so the tensor residual is evaluated pointwise
from the Gaussian curvature; the fiber enters only through mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import PositivityError, require_finite_positive
from .geometry2d import (
    Metric2D, Point2, ScalarField2D, SymMat2,
    gauss_curvature, grad_norm_sq, hessian, laplace_beltrami,
)


@dataclass(frozen=True)
class WarpParams:
    """Constant block of the warped-product system.

    m is the fiber dimension, lam the Einstein constant, beta the screening
    parameter of the warping equation lap(f) = beta f, mu the fiber Einstein
    constant and K the (intended constant) base Gaussian curvature.  The
    base dimension n is kept general for the contracted equations but the
    tensor equation is implemented for n = 2 only.
    """

    m: int
    lam: float
    beta: float = 1.0
    mu: float = 0.0
    n: int = 2
    K: Optional[float] = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"fiber dimension m must be >= 1, got {self.m}")
        require_finite_positive("screening parameter beta", self.beta)

    @classmethod
    def ricci_flat_fiber(cls, m: int, lam: float, beta: float = 1.0) -> "WarpParams":
        """Ricci-flat fiber over a 2D base; K follows from the contracted
        equation as lam + m*beta/2.  Requires m >= 2, lam < 0 and K < 0."""
        K = lam + m * beta / 2.0
        wp = cls(m=m, lam=lam, beta=beta, mu=0.0, n=2, K=K)
        if m < 2:
            raise ValueError("ricci-flat fiber setup needs fiber dimension m >= 2")
        if lam >= 0.0:
            raise ValueError(f"ricci-flat fiber setup needs lambda < 0, got {lam}")
        if K >= 0.0:
            raise ValueError(f"ricci-flat fiber setup needs negative base curvature, got K = {K}")
        return wp

    @property
    def fiber_scalar_curvature(self) -> float:
        return self.mu * self.m

    @property
    def base_scalar_curvature(self) -> Optional[float]:
        return None if self.K is None else 2.0 * self.K


@dataclass(frozen=True)
class ResidualReport:
    """Max-abs residuals over a sample set, with the worst point."""

    tensor_residual: SymMat2
    contracted_residual: float
    scalar_constraint_residual: float
    sample_count: int
    max_point: Point2

    def worst(self) -> float:
        return max(self.tensor_residual.max_abs(),
                   abs(self.contracted_residual),
                   abs(self.scalar_constraint_residual))


def _warp_value(f: ScalarField2D, p: Point2) -> float:
    fv = f.val(p)
    if fv <= 0.0:
        raise PositivityError(
            f"warping function must be positive, got f({p.u}, {p.v}) = {fv}")
    return fv


def tensor_residual(g: Metric2D, f: ScalarField2D, wp: WarpParams,
                    p: Point2) -> SymMat2:
    """Componentwise residual of Ric_B - (m/f) Hess(f) - lambda g_B at p.

    Uses Ric_B = K g_B, valid only on surfaces; refuses wp.n != 2.
    """
    if wp.n != 2:
        raise ValueError(
            f"tensor residual uses the surface identity Ric = K g; n must be 2, got {wp.n}")
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
    """Residual of R_B f - m lap(f) - n f lambda at p, with R_B = 2K."""
    fv = _warp_value(f, p)
    R_B = 2.0 * gauss_curvature(g, p)
    lap = laplace_beltrami(g, f, p)
    return R_B * fv - wp.m * lap - wp.n * fv * wp.lam


def scalar_constraint_residual(g: Metric2D, f: ScalarField2D, wp: WarpParams,
                               p: Point2) -> float:
    """Residual of f lap(f) + (m-1) |grad f|^2 + lambda f^2 - mu at p."""
    fv = _warp_value(f, p)
    lap = laplace_beltrami(g, f, p)
    gsq = grad_norm_sq(g, f, p)
    return fv * lap + (wp.m - 1) * gsq + wp.lam * fv * fv - wp.mu


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
                    points: Sequence[Point2]) -> ResidualReport:
    """Max-abs residuals of all three equations over `points`.

    Worst case with its argmax point is the honest certificate for a
    pointwise identity, so no averaging is done.
    """
    if not points:
        raise ValueError("need at least one sample point")
    t11 = t12 = t22 = 0.0
    contracted = scalar = 0.0
    worst = -1.0
    worst_point = points[0]
    for p in points:
        T = tensor_residual(g, f, wp, p)
        c = contracted_residual(g, f, wp, p)
        s = scalar_constraint_residual(g, f, wp, p)
        t11 = max(t11, abs(T.a11))
        t12 = max(t12, abs(T.a12))
        t22 = max(t22, abs(T.a22))
        contracted = max(contracted, abs(c))
        scalar = max(scalar, abs(s))
        local = max(T.max_abs(), abs(c), abs(s))
        if local > worst:
            worst, worst_point = local, p
    return ResidualReport(
        tensor_residual=SymMat2(t11, t12, t22),
        contracted_residual=contracted,
        scalar_constraint_residual=scalar,
        sample_count=len(points),
        max_point=worst_point,
    )
