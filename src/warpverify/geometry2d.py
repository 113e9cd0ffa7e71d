"""Differential-geometric kernel for 2D metrics in orthogonal coordinates.

Everything here works on metrics of the form g = E du^2 + G dv^2 with
E, G > 0 (no off-diagonal term).  The catalog covers the Poincare disk,
the Poincare half-plane, the flat plane, constant rescalings, and metrics
assembled from 1D profiles (used by the warped-product construction).

Scalar fields carry either exact partial derivatives or central
finite differences; every operator below consumes that interface, so the
same code path serves closed-form and FD evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, PositivityError
from .profiles import ProfileFn, const_profile, poly_profile

# Domain guard: points within eps of a chart singularity are rejected.
EPS_DOMAIN = 1e-8

# Default finite-difference step; second-derivative rounding noise ~1e-8.
DEFAULT_FD_STEP = 1e-4

# Metric positivity tolerance for curvature evaluation.
EG_POSITIVITY_TOL = 1e-30


@dataclass(frozen=True)
class Point2:
    """Chart point with coordinates (u, v)."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"chart point must be finite, got ({self.u}, {self.v})")

    @property
    def r2(self) -> float:
        return self.u * self.u + self.v * self.v


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 tensor; a21 is implicitly a12."""

    a11: float
    a12: float
    a22: float

    def max_abs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a22))


class ScalarField2D:
    """Scalar function on a 2D chart with first/second derivative access.

    Parameters
    ----------
    value : callable
        (u, v) -> f(u, v).
    du, dv, duu, duv, dvv : callable, optional
        Exact partial derivatives, all five or none.  The single `duv`
        callback represents both mixed partials, so exact second
        derivatives are symmetric by construction.  Without them every
        derivative is a central finite difference of `value` with step
        `fd_step`.
    fd_step : float
        Finite-difference step (must be positive).
    """

    def __init__(
        self,
        value: Callable[[float, float], float],
        du=None, dv=None, duu=None, duv=None, dvv=None,
        fd_step: float = DEFAULT_FD_STEP,
    ):
        if fd_step <= 0:
            raise ValueError("finite-difference step must be positive")
        partials = (du, dv, duu, duv, dvv)
        given = sum(cb is not None for cb in partials)
        if given not in (0, 5):
            raise ValueError(
                f"give all five exact partial derivatives or none, got {given}")
        self._value = value
        self._partials = partials if given else None
        self.fd_step = fd_step

    @property
    def deriv_mode(self) -> str:
        return "finite_difference" if self._partials is None else "exact"

    def val(self, p: Point2) -> float:
        return self._value(p.u, p.v)

    __call__ = val

    # -- derivative access ----------------------------------------------------

    def grad(self, p: Point2) -> tuple[float, float]:
        u, v = p.u, p.v
        if self._partials is None:
            f, h = self._value, self.fd_step
            return ((f(u + h, v) - f(u - h, v)) / (2.0 * h),
                    (f(u, v + h) - f(u, v - h)) / (2.0 * h))
        du, dv = self._partials[:2]
        return du(u, v), dv(u, v)

    def second(self, p: Point2) -> tuple[float, float, float]:
        u, v = p.u, p.v
        if self._partials is None:
            f, h = self._value, self.fd_step
            return ((f(u + h, v) - 2.0 * f(u, v) + f(u - h, v)) / (h * h),
                    (f(u + h, v + h) - f(u + h, v - h)
                     - f(u - h, v + h) + f(u - h, v - h)) / (4.0 * h * h),
                    (f(u, v + h) - 2.0 * f(u, v) + f(u, v - h)) / (h * h))
        duu, duv, dvv = self._partials[2:]
        return duu(u, v), duv(u, v), dvv(u, v)

    # -- transforms ------------------------------------------------------------

    def without_exact(self, fd_step: Optional[float] = None) -> "ScalarField2D":
        """Same values, derivatives forced through finite differences."""
        return ScalarField2D(self._value, fd_step=fd_step or self.fd_step)

    def __add__(self, other):
        other = _as_field(other)
        value = lambda u, v: self._value(u, v) + other._value(u, v)
        fd_step = min(self.fd_step, other.fd_step)
        if self._partials is None or other._partials is None:
            return ScalarField2D(value, fd_step=fd_step)
        return ScalarField2D(
            value, *(_sum(a, b) for a, b in zip(self._partials, other._partials)),
            fd_step=fd_step)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            value = lambda u, v: c * self._value(u, v)
            if self._partials is None:
                return ScalarField2D(value, fd_step=self.fd_step)
            return ScalarField2D(value, *(_scaled(c, cb) for cb in self._partials),
                                 fd_step=self.fd_step)
        other = _as_field(other)
        if self._partials is None or other._partials is None:
            return ScalarField2D(
                lambda u, v: self._value(u, v) * other._value(u, v),
                fd_step=min(self.fd_step, other.fd_step))
        f, g = self._value, other._value
        fu, fv, fuu, fuv, fvv = self._partials
        gu, gv, guu, guv, gvv = other._partials
        return ScalarField2D(
            lambda u, v: f(u, v) * g(u, v),
            du=lambda u, v: fu(u, v) * g(u, v) + f(u, v) * gu(u, v),
            dv=lambda u, v: fv(u, v) * g(u, v) + f(u, v) * gv(u, v),
            duu=lambda u, v: (fuu(u, v) * g(u, v)
                              + 2.0 * fu(u, v) * gu(u, v)
                              + f(u, v) * guu(u, v)),
            duv=lambda u, v: (fuv(u, v) * g(u, v)
                              + fu(u, v) * gv(u, v)
                              + fv(u, v) * gu(u, v)
                              + f(u, v) * guv(u, v)),
            dvv=lambda u, v: (fvv(u, v) * g(u, v)
                              + 2.0 * fv(u, v) * gv(u, v)
                              + f(u, v) * gvv(u, v)),
        )

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (_as_field(other) * -1.0)


def _sum(a, b):
    return lambda u, v: a(u, v) + b(u, v)


def _scaled(c, cb):
    return lambda u, v: c * cb(u, v)


def _as_field(x) -> ScalarField2D:
    if isinstance(x, ScalarField2D):
        return x
    if isinstance(x, (int, float)):
        return constant_field(float(x))
    raise TypeError(f"cannot interpret {x!r} as a scalar field")


# -- field catalog ------------------------------------------------------------


def constant_field(c: float) -> ScalarField2D:
    c = float(c)
    z = lambda u, v: 0.0
    return ScalarField2D(lambda u, v: c, du=z, dv=z, duu=z, duv=z, dvv=z)


def poly_field(coeffs: dict[tuple[int, int], float]) -> ScalarField2D:
    """Bivariate polynomial sum_{(i,j)} c[i,j] u^i v^j with exact partials."""
    terms = {k: float(c) for k, c in coeffs.items() if c != 0.0}

    def diff(ts, axis):
        out = {}
        for (i, j), c in ts.items():
            k = (i, j)[axis]
            if k > 0:
                key = (i - 1, j) if axis == 0 else (i, j - 1)
                out[key] = out.get(key, 0.0) + k * c
        return out

    def evaluator(ts):
        items = sorted(ts.items())
        return lambda u, v: sum(c * u ** i * v ** j for (i, j), c in items)

    du_t, dv_t = diff(terms, 0), diff(terms, 1)
    return ScalarField2D(
        evaluator(terms),
        du=evaluator(du_t), dv=evaluator(dv_t),
        duu=evaluator(diff(du_t, 0)), duv=evaluator(diff(du_t, 1)),
        dvv=evaluator(diff(dv_t, 1)),
    )


def coordinate_u() -> ScalarField2D:
    return poly_field({(1, 0): 1.0})


def coordinate_v() -> ScalarField2D:
    return poly_field({(0, 1): 1.0})


def profile_field(profile: ProfileFn, axis: str = "u") -> ScalarField2D:
    """Lift a 1D profile to a field depending on a single coordinate."""
    if axis not in ("u", "v"):
        raise ValueError("axis must be 'u' or 'v'")
    z = lambda u, v: 0.0
    if axis == "u":
        return ScalarField2D(
            lambda u, v: profile(u),
            du=lambda u, v: profile.d1(u), dv=z,
            duu=lambda u, v: profile.d2(u), duv=z, dvv=z,
        )
    return ScalarField2D(
        lambda u, v: profile(v),
        du=z, dv=lambda u, v: profile.d1(v),
        duu=z, duv=z, dvv=lambda u, v: profile.d2(v),
    )


def radial_field(profile: ProfileFn) -> ScalarField2D:
    """phi(u^2 + v^2) with chain-rule partials; `profile` is phi(w)."""
    def w(u, v):
        return u * u + v * v

    return ScalarField2D(
        lambda u, v: profile(w(u, v)),
        du=lambda u, v: 2.0 * u * profile.d1(w(u, v)),
        dv=lambda u, v: 2.0 * v * profile.d1(w(u, v)),
        duu=lambda u, v: 4.0 * u * u * profile.d2(w(u, v)) + 2.0 * profile.d1(w(u, v)),
        duv=lambda u, v: 4.0 * u * v * profile.d2(w(u, v)),
        dvv=lambda u, v: 4.0 * v * v * profile.d2(w(u, v)) + 2.0 * profile.d1(w(u, v)),
    )


def cosh_distance_field() -> ScalarField2D:
    """(1 + r^2)/(1 - r^2) on the unit disk.

    On the curvature -1 disk model this is cosh of the hyperbolic distance
    from the origin, hence satisfies Hess(f) = f g, has Laplacian 2 f and
    |grad f|^2 = f^2 - 1.
    """
    ratio = poly_profile([1.0, 1.0], domain=(-math.inf, 1.0)) / \
        poly_profile([1.0, -1.0], domain=(-math.inf, 1.0))
    return radial_field(ratio)


# -- metrics -------------------------------------------------------------------


class Metric2D:
    """Orthogonal-coordinate 2D metric g = E du^2 + G dv^2.

    `domain` is a predicate (u, v) -> bool delimiting the chart; operations
    reject points outside it.  `kind` tags the catalog entry.
    """

    KINDS = ("poincare_disk", "poincare_half_plane", "constructed",
             "custom", "rescaled", "flat")

    def __init__(self, E: ScalarField2D, G: ScalarField2D,
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

    def with_fd_derivatives(self, fd_step: float = DEFAULT_FD_STEP) -> "Metric2D":
        """Same component values, all derivatives via finite differences.

        Used to certify curvature independently of any exact-derivative
        callbacks the components may carry.
        """
        return Metric2D(self.E.without_exact(fd_step),
                        self.G.without_exact(fd_step), self._domain, self.kind)


def poincare_disk() -> Metric2D:
    """Unit-disk model, E = G = 4 / (1 - u^2 - v^2)^2, curvature -1."""
    factor = radial_field(
        const_profile(4.0) / (poly_profile([1.0, -1.0], domain=(-math.inf, 1.0))
                              * poly_profile([1.0, -1.0], domain=(-math.inf, 1.0))))
    domain = lambda u, v: u * u + v * v < 1.0 - EPS_DOMAIN
    return Metric2D(factor, factor, domain, kind="poincare_disk")


def poincare_half_plane() -> Metric2D:
    """Upper half-plane model, E = G = 1 / v^2, curvature -1."""
    factor = profile_field(
        const_profile(1.0) / poly_profile([0.0, 0.0, 1.0], domain=(0.0, math.inf)),
        axis="v")
    domain = lambda u, v: v >= EPS_DOMAIN
    return Metric2D(factor, factor, domain, kind="poincare_half_plane")


def flat_metric() -> Metric2D:
    one = constant_field(1.0)
    return Metric2D(one, one, lambda u, v: True, kind="flat")


# -- operator helpers ----------------------------------------------------------


def _require_in_domain(g: Metric2D, p: Point2):
    if not g.contains(p):
        raise DomainError(f"point ({p.u}, {p.v}) outside the {g.kind} chart domain")


def _require_stencil(g: Metric2D, p: Point2, *fields: ScalarField2D):
    """FD stencils must not poke outside the chart.

    Checking the four corner points suffices for the convex chart domains
    in the catalog.
    """
    h = max((f.fd_step for f in fields if f.deriv_mode != "exact"), default=None)
    if h is None:
        return
    for su in (-1.0, 1.0):
        for sv in (-1.0, 1.0):
            if not g._domain(p.u + su * h, p.v + sv * h):
                raise DomainError(
                    f"finite-difference stencil of half-width {h} at "
                    f"({p.u}, {p.v}) leaves the {g.kind} chart domain")


def _metric_at(g: Metric2D, p: Point2) -> tuple[float, float]:
    E, G = g.components(p)
    if E <= 0.0 or G <= 0.0:
        raise PositivityError(
            f"metric components must be positive, got E={E}, G={G} at ({p.u}, {p.v})")
    return E, G


# -- operations ----------------------------------------------------------------


def laplace_beltrami(g: Metric2D, f: ScalarField2D, p: Point2) -> float:
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


def grad_norm_sq(g: Metric2D, f: ScalarField2D, p: Point2) -> float:
    """Squared gradient norm f_u^2/E + f_v^2/G at p (always >= 0)."""
    _require_in_domain(g, p)
    _require_stencil(g, p, f)
    E, G = _metric_at(g, p)
    fu, fv = f.grad(p)
    return fu * fu / E + fv * fv / G


def christoffel_symbols(g: Metric2D, p: Point2) -> dict[str, float]:
    """The six Christoffel symbols of an orthogonal metric at p.

    Keys: 'uuu' for Gamma^u_{uu}, 'uuv' for Gamma^u_{uv}, 'uvv', 'vuu',
    'vuv', 'vvv'.
    """
    _require_in_domain(g, p)
    _require_stencil(g, p, g.E, g.G)
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


def hessian(g: Metric2D, f: ScalarField2D, p: Point2) -> SymMat2:
    """Covariant Hessian Hess(f)_ij = d_i d_j f - Gamma^k_ij d_k f at p."""
    _require_in_domain(g, p)
    _require_stencil(g, p, g.E, g.G, f)
    gam = christoffel_symbols(g, p)
    fu, fv = f.grad(p)
    fuu, fuv, fvv = f.second(p)
    return SymMat2(
        a11=fuu - gam["uuu"] * fu - gam["vuu"] * fv,
        a12=fuv - gam["uuv"] * fu - gam["vuv"] * fv,
        a22=fvv - gam["uvv"] * fu - gam["vvv"] * fv,
    )


def gauss_curvature(g: Metric2D, p: Point2) -> float:
    """Gaussian curvature via the orthogonal-coordinate Brioschi formula:

        K = -(1/(2 sqrt(EG))) [ d_u( G_u / sqrt(EG) ) + d_v( E_v / sqrt(EG) ) ]

    The scalar curvature of the surface is 2K.
    """
    _require_in_domain(g, p)
    _require_stencil(g, p, g.E, g.G)
    E, G = g.components(p)
    if E * G < EG_POSITIVITY_TOL:
        raise PositivityError(
            f"determinant EG = {E * G} below positivity tolerance at ({p.u}, {p.v})")
    Eu, Ev = g.E.grad(p)
    Gu, Gv = g.G.grad(p)
    Euu, Euv, Evv = g.E.second(p)
    Guu, Guv, Gvv = g.G.second(p)

    S = math.sqrt(E * G)
    dEG_u = Eu * G + E * Gu
    dEG_v = Ev * G + E * Gv
    term_u = Guu / S - Gu * dEG_u / (2.0 * S ** 3)
    term_v = Evv / S - Ev * dEG_v / (2.0 * S ** 3)
    return -(term_u + term_v) / (2.0 * S)


def scalar_curvature(g: Metric2D, p: Point2) -> float:
    """R = 2K for a surface."""
    return 2.0 * gauss_curvature(g, p)


def rescale(g: Metric2D, c: float) -> Metric2D:
    """Constant rescaling c*g.

    Satisfies lap_{cg} f = lap_g f / c, |grad f|^2_{cg} = |grad f|^2_g / c
    and K_{cg} = K_g / c.
    """
    c = float(c)
    if c <= 0.0:
        raise ValueError(f"rescaling constant must be positive, got {c}")
    if c == 1.0:
        return g
    return Metric2D(g.E * c, g.G * c, g._domain, kind="rescaled")
