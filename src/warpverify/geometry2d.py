"""Differential-geometric kernel for 2D metrics in orthogonal coordinates.

Everything here works on metrics of the form g = E du^2 + G dv^2 with
E, G > 0 (no off-diagonal term).  The catalog covers the Poincare disk,
the Poincare half-plane, constant rescalings, and metrics assembled from
1D profiles (used by the warped-product construction).

Scalar fields carry exact partial derivatives; the only field algebra is
scaling by a constant, which `rescale` uses.  `CentralDifferences`
differentiates a field's values by central differences instead; it exists
only for the curvature certificate, which must not share the closed-form
derivatives it is checking.  Every operator below consumes the common
val/grad/second interface of both.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Union

from .errors import DomainError, PositivityError, require_finite_positive
from .profiles import ProfileFn, const_profile, poly_profile

# Domain guard: points within eps of a chart singularity are rejected.
EPS_DOMAIN = 1e-8

# Default finite-difference step; second-derivative rounding noise ~1e-8.
DEFAULT_FD_STEP = 1e-4

# Range of sqrt(EG) over which the Brioschi formula's divisor 2 (EG)^(3/2)
# is a normal double: outside it the division underflows or overflows.
BRIOSCHI_SCALE = (sys.float_info.min ** (1.0 / 3.0),
                  (sys.float_info.max / 2.0) ** (1.0 / 3.0))


@dataclass(frozen=True)
class Point2:
    """Chart point with coordinates (u, v)."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"chart point must be finite, got ({self.u}, {self.v})")


class ScalarField2D:
    """Scalar function on a 2D chart with exact first/second derivatives.

    Parameters
    ----------
    value, du, dv, duu, duv, dvv : callable
        (u, v) -> f(u, v) and its five exact partial derivatives.  The
        single `duv` callback represents both mixed partials, so second
        derivatives are symmetric by construction.
    """

    # Read by `_require_stencil`: exact partials need no stencil.
    step = 0.0

    def __init__(self, value: Callable[[float, float], float], du, dv, duu, duv, dvv):
        self._value = value
        self._du, self._dv = du, dv
        self._duu, self._duv, self._dvv = duu, duv, dvv

    def val(self, p: Point2) -> float:
        return self._value(p.u, p.v)

    # -- derivative access ----------------------------------------------------

    def grad(self, p: Point2) -> tuple[float, float]:
        return self._du(p.u, p.v), self._dv(p.u, p.v)

    def second(self, p: Point2) -> tuple[float, float, float]:
        return self._duu(p.u, p.v), self._duv(p.u, p.v), self._dvv(p.u, p.v)

    # -- transforms ------------------------------------------------------------

    def without_exact(self, step: float = DEFAULT_FD_STEP) -> "CentralDifferences":
        """Same values, derivatives by central differences of width `step`."""
        return CentralDifferences(self._value, step)

    def __mul__(self, c: float) -> "ScalarField2D":
        """c * f for a constant c, with every partial scaled by c."""
        c = float(c)
        return ScalarField2D(lambda u, v: c * self._value(u, v),
                             *(_scaled(c, cb) for cb in (self._du, self._dv, self._duu,
                                                         self._duv, self._dvv)))


class CentralDifferences:
    """Derivatives of a value callback (u, v) -> f by central differences.

    Second-order accurate in `step`; the stencil reaches `step` away from
    the evaluation point along each axis and diagonal.
    """

    def __init__(self, value: Callable[[float, float], float],
                 step: float = DEFAULT_FD_STEP):
        require_finite_positive("finite-difference step", step)
        self._value = value
        self.step = step

    def val(self, p: Point2) -> float:
        return self._value(p.u, p.v)

    def grad(self, p: Point2) -> tuple[float, float]:
        u, v, f, h = p.u, p.v, self._value, self.step
        return ((f(u + h, v) - f(u - h, v)) / (2.0 * h),
                (f(u, v + h) - f(u, v - h)) / (2.0 * h))

    def second(self, p: Point2) -> tuple[float, float, float]:
        u, v, f, h = p.u, p.v, self._value, self.step
        return ((f(u + h, v) - 2.0 * f(u, v) + f(u - h, v)) / (h * h),
                (f(u + h, v + h) - f(u + h, v - h)
                 - f(u - h, v + h) + f(u - h, v - h)) / (4.0 * h * h),
                (f(u, v + h) - 2.0 * f(u, v) + f(u, v - h)) / (h * h))


Field = Union[ScalarField2D, CentralDifferences]


def _scaled(c, cb):
    return lambda u, v: c * cb(u, v)


# -- field catalog ------------------------------------------------------------


def coordinate_u() -> ScalarField2D:
    """The chart coordinate u.  `u + 0.0` is a float for an int u and
    +0.0 at u = -0.0."""
    one, z = (lambda u, v: 1.0), (lambda u, v: 0.0)
    return ScalarField2D(lambda u, v: u + 0.0, du=one, dv=z, duu=z, duv=z, dvv=z)


def profile_field(profile: ProfileFn, axis: str = "u") -> ScalarField2D:
    """Lift a 1D profile to a field depending on a single coordinate."""
    if axis not in ("u", "v"):
        raise ValueError("axis must be 'u' or 'v'")
    z = lambda u, v: 0.0
    if axis == "u":
        return ScalarField2D(
            lambda u, v: profile.__call__(u),
            du=lambda u, v: profile.d1(u), dv=z,
            duu=lambda u, v: profile.d2(u), duv=z, dvv=z,
        )
    return ScalarField2D(
        lambda u, v: profile.__call__(v),
        du=z, dv=lambda u, v: profile.d1(v),
        duu=z, duv=z, dvv=lambda u, v: profile.d2(v),
    )


def radial_field(profile: ProfileFn) -> ScalarField2D:
    """phi(u^2 + v^2) with chain-rule partials; `profile` is phi(w)."""
    def w(u, v):
        return u * u + v * v

    return ScalarField2D(
        lambda u, v: profile.__call__(w(u, v)),
        du=lambda u, v: 2.0 * u * profile.d1(w(u, v)),
        dv=lambda u, v: 2.0 * v * profile.d1(w(u, v)),
        duu=lambda u, v: 4.0 * u * u * profile.d2(w(u, v)) + 2.0 * profile.d1(w(u, v)),
        duv=lambda u, v: 4.0 * u * v * profile.d2(w(u, v)),
        dvv=lambda u, v: 4.0 * v * v * profile.d2(w(u, v)) + 2.0 * profile.d1(w(u, v)),
    )


# -- metrics -------------------------------------------------------------------


class Metric2D:
    """Orthogonal-coordinate 2D metric g = E du^2 + G dv^2.

    `domain` is a predicate (u, v) -> bool delimiting the chart; operations
    reject points outside it.  `kind` tags the catalog entry.
    """

    KINDS = ("poincare_disk", "poincare_half_plane", "constructed",
             "custom", "rescaled")

    def __init__(self, E: Field, G: Field,
                 domain: Callable[[float, float], bool], kind: str = "custom"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.E = E
        self.G = G
        self._domain = domain
        self.kind = kind

    def contains(self, p: Point2) -> bool:
        return bool(self._domain(p.u, p.v))

    def components(self, p: Point2) -> tuple[float, float]:
        return self.E.val(p), self.G.val(p)

    def with_fd_derivatives(self) -> "Metric2D":
        """Same component values, derivatives by central differences.

        Used to certify curvature independently of the exact partials the
        components carry.
        """
        return Metric2D(self.E.without_exact(), self.G.without_exact(),
                        self._domain, self.kind)


def poincare_disk() -> Metric2D:
    """Unit-disk model, E = G = 4 / (1 - u^2 - v^2)^2, curvature -1."""
    factor = radial_field(
        const_profile(4.0) / (poly_profile([1.0, -1.0], domain=(-math.inf, 1.0))
                              * poly_profile([1.0, -1.0], domain=(-math.inf, 1.0))))
    domain = lambda u, v: u * u + v * v < 1.0 - EPS_DOMAIN
    return Metric2D(factor, factor, domain, kind="poincare_disk")


def poincare_half_plane() -> Metric2D:
    """Upper half-plane model, E = G = 1 / v^2, curvature -1.

    The chart keeps EPS_DOMAIN <= v <= 1/EPS_DOMAIN, away from both ideal
    boundary ends v = 0 and v = infinity: far out, the partials of 1/v^2
    underflow before the value does and K silently goes wrong.
    """
    factor = profile_field(
        const_profile(1.0) / poly_profile([0.0, 0.0, 1.0], domain=(0.0, math.inf)),
        axis="v")
    domain = lambda u, v: EPS_DOMAIN <= v <= 1.0 / EPS_DOMAIN
    return Metric2D(factor, factor, domain, kind="poincare_half_plane")


# -- operator helpers ----------------------------------------------------------


def _require_in_domain(g: Metric2D, p: Point2):
    if not g.contains(p):
        raise DomainError(f"point ({p.u}, {p.v}) outside the {g.kind} chart domain")


def _require_stencil(g: Metric2D, p: Point2, *fields: Field):
    """FD stencils must not poke outside the chart.

    Checking the four corner points suffices for the convex chart domains
    in the catalog.
    """
    h = 0.0
    for f in fields:
        if f.step > h:
            h = f.step
    if h == 0.0:
        return
    for su in (-1.0, 1.0):
        for sv in (-1.0, 1.0):
            if not g._domain(p.u + su * h, p.v + sv * h):
                raise DomainError(
                    f"finite-difference stencil of half-width {h} at "
                    f"({p.u}, {p.v}) leaves the {g.kind} chart domain")


def _metric_at(g: Metric2D, p: Point2) -> tuple[float, float]:
    E, G = g.components(p)
    if not (E > 0.0 and G > 0.0):
        raise PositivityError(
            f"metric components must be positive, got E={E}, G={G} at ({p.u}, {p.v})")
    return E, G


# -- operations ----------------------------------------------------------------


def laplace_beltrami(g: Metric2D, f: Field, p: Point2) -> float:
    """Laplace-Beltrami operator of f at p.

    Divergence form for orthogonal coordinates:

        (1/sqrt(EG)) * [ d_u( sqrt(G/E) f_u ) + d_v( sqrt(E/G) f_v ) ]

    which for a conformal metric E = G reduces to (f_uu + f_vv)/E.
    """
    _require_in_domain(g, p)
    _require_stencil(g, p, g.E, g.G, f)
    E, G = _metric_at(g, p)
    Eu, Ev = g.E.grad(p)
    Gu, Gv = g.G.grad(p)
    fu, fv = f.grad(p)
    fuu, _, fvv = f.second(p)

    S = math.sqrt(E * G)
    A = math.sqrt(G / E)           # coefficient of f_u inside d_u
    B = math.sqrt(E / G)           # coefficient of f_v inside d_v
    A_u = (Gu * E - G * Eu) / (2.0 * E * E) / A
    B_v = (Ev * G - E * Gv) / (2.0 * G * G) / B
    return (A_u * fu + A * fuu + B_v * fv + B * fvv) / S


def grad_norm_sq(g: Metric2D, f: Field, p: Point2) -> float:
    """Squared gradient norm f_u^2/E + f_v^2/G at p (always >= 0)."""
    _require_in_domain(g, p)
    _require_stencil(g, p, f)
    E, G = _metric_at(g, p)
    fu, fv = f.grad(p)
    return fu * fu / E + fv * fv / G


def _christoffel(g: Metric2D, p: Point2) -> dict[str, float]:
    """The six Christoffel symbols of an orthogonal metric at p: 'uuu' for
    Gamma^u_{uu}, 'uuv' for Gamma^u_{uv}, 'uvv', 'vuu', 'vuv', 'vvv'."""
    E, G = _metric_at(g, p)
    Eu, Ev = g.E.grad(p)
    Gu, Gv = g.G.grad(p)
    return {
        "uuu": Eu / (2.0 * E),
        "uuv": Ev / (2.0 * E),
        "uvv": -Gu / (2.0 * E),
        "vuu": -Ev / (2.0 * G),
        "vuv": Gu / (2.0 * G),
        "vvv": Gv / (2.0 * G),
    }


def hessian(g: Metric2D, f: Field, p: Point2) -> tuple[float, float, float]:
    """Covariant Hessian Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f at p, as
    its components (a11, a12, a22); a21 is a12."""
    _require_in_domain(g, p)
    _require_stencil(g, p, g.E, g.G, f)
    gam = _christoffel(g, p)
    fu, fv = f.grad(p)
    fuu, fuv, fvv = f.second(p)
    return (fuu - gam["uuu"] * fu - gam["vuu"] * fv,
            fuv - gam["uuv"] * fu - gam["vuv"] * fv,
            fvv - gam["uvv"] * fu - gam["vvv"] * fv)


def gauss_curvature(g: Metric2D, p: Point2) -> float:
    """Gaussian curvature via the orthogonal-coordinate Brioschi formula:

        K = -(1/(2 sqrt(EG))) [ d_u( G_u / sqrt(EG) ) + d_v( E_v / sqrt(EG) ) ]

    The scalar curvature of the surface is 2K.  Raises DomainError where
    sqrt(EG) leaves BRIOSCHI_SCALE.
    """
    _require_in_domain(g, p)
    _require_stencil(g, p, g.E, g.G)
    E, G = _metric_at(g, p)
    S = math.sqrt(E * G)
    if not BRIOSCHI_SCALE[0] <= S <= BRIOSCHI_SCALE[1]:
        raise DomainError(
            f"metric scale sqrt(EG) = {S} at ({p.u}, {p.v}) is outside the "
            f"double-precision range of the curvature formula {BRIOSCHI_SCALE}")
    Eu, Ev = g.E.grad(p)
    Gu, Gv = g.G.grad(p)
    Euu, Euv, Evv = g.E.second(p)
    Guu, Guv, Gvv = g.G.second(p)

    dEG_u = Eu * G + E * Gu
    dEG_v = Ev * G + E * Gv
    term_u = Guu / S - Gu * dEG_u / (2.0 * S ** 3)
    term_v = Evv / S - Ev * dEG_v / (2.0 * S ** 3)
    return -(term_u + term_v) / (2.0 * S)


def rescale(g: Metric2D, c: float) -> Metric2D:
    """Constant rescaling c*g of a metric with exact components.

    Satisfies lap_{cg} f = lap_g f / c, |grad f|^2_{cg} = |grad f|^2_g / c
    and K_{cg} = K_g / c.
    """
    c = float(c)
    if c <= 0.0:
        raise ValueError(f"rescaling constant must be positive, got {c}")
    if c == 1.0:
        return g
    return Metric2D(g.E * c, g.G * c, g._domain, kind="rescaled")
