"""Profile reduction machinery for the warped-product construction.

A warping function with |grad f|^2 = p(f)^2 and lap(f) = p(f) q(f) exists
on a curvature -1 surface exactly when the pair (p, q) satisfies the
compatibility ODE

    p p'' - p'^2 + 2 q p' - p q' - q^2 + 1 = 0.

This module evaluates that residual, generates the rescaled pair from a
parameter triple (m, lambda, beta), integrates the conformal profile s
with s'/s = (q - p')/p, assembles the chart metric

    g = (df / p(f))^2 + (s(f) dh)^2

and certifies that its Gaussian curvature is -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    AdmissibilityError, DomainError, PositivityError, require_finite_positive,
)
from .geometry2d import Metric2D, Point2, gauss_curvature, profile_field
from .profiles import (
    ProfileFn, POSITIVE_AXIS, const_profile, exp_profile, linear_profile,
    power_profile,
)

# Default verification strip: the construction is scale-covariant in f,
# so any window bounded away from 0 is representative.
DEFAULT_STRIP = (0.5, 4.0)
DEFAULT_STRIP_SHAPE = (32, 8)

SIMPSON_TOL = 1e-10
SIMPSON_MAX_DEPTH = 40


@dataclass(frozen=True)
class PQPair:
    """Profile pair (p, q); `rescaled` marks pairs living on the unit-
    curvature rescaling of the base metric."""

    p: ProfileFn
    q: ProfileFn
    rescaled: bool = False

    @property
    def domain(self) -> tuple[float, float]:
        return (max(self.p.domain[0], self.q.domain[0]),
                min(self.p.domain[1], self.q.domain[1]))


def compat_residual(pq: PQPair, t: float) -> float:
    """Left-hand side of the compatibility ODE at t.

    Zero (within tolerance) certifies that a warping function with the
    given profile data exists on a pseudospherical surface.
    """
    p, q = pq.p, pq.q
    pv = p(t)
    if pv <= 0.0:
        raise PositivityError(f"profile p must be positive, got p({t}) = {pv}")
    return (pv * p.d2(t) - p.d1(t) ** 2 + 2.0 * q(t) * p.d1(t)
            - pv * q.d1(t) - q(t) ** 2 + 1.0)


def pq_from_params(m: int, lam: float, beta: float) -> PQPair:
    """Rescaled profile pair for fiber dimension m, Einstein constant
    lambda and screening parameter beta.

    The warping system forces |grad f|^2 = -f^2 (lam + beta)/(m - 1) and
    lap f = beta f; pushing both through the unit-curvature rescaling of
    the base (factor -K with K = lam + m beta / 2) gives

        p(f) = f sqrt(-(lam + beta)) / sqrt((m - 1)(-K)),
        q    = beta sqrt(m - 1) / (sqrt(-(lam + beta)) sqrt(-K)).

    Raises AdmissibilityError when m < 2, lam + beta >= 0 (p degenerate or
    imaginary) or K >= 0 (no negative-curvature rescaling).
    """
    require_finite_positive("screening parameter beta", beta)
    if m < 2:
        raise AdmissibilityError(
            f"fiber dimension m = {m} < 2: the gradient normalization divides by m - 1",
            reason="fiber_dimension")
    A = -(lam + beta)
    if A == 0.0:
        raise AdmissibilityError(
            f"lambda + beta = 0 at lambda = {lam}: degenerate pair with p identically zero",
            reason="degenerate")
    if A < 0.0:
        raise AdmissibilityError(
            f"lambda + beta = {lam + beta} > 0: profile p would be imaginary",
            reason="lambda_plus_beta")
    K = lam + m * beta / 2.0
    if K >= 0.0:
        raise AdmissibilityError(
            f"base curvature K = {K} >= 0: no negative-curvature rescaling exists",
            reason="base_curvature")
    slope = math.sqrt(A) / math.sqrt((m - 1) * (-K))
    q_val = beta * math.sqrt(m - 1) / (math.sqrt(A) * math.sqrt(-K))
    return PQPair(
        p=linear_profile(slope, 0.0, domain=POSITIVE_AXIS),
        q=const_profile(q_val, domain=POSITIVE_AXIS),
        rescaled=True,
    )


# -- the conformal profile s ---------------------------------------------------


def _adaptive_simpson(fn, a: float, b: float, tol: float) -> float:
    """Classic recursive adaptive Simpson quadrature (deterministic)."""
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = fn(lm), fn(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if depth >= SIMPSON_MAX_DEPTH or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth + 1)
                + recurse(x1, x2, f1, frm, f2, right, eps / 2.0, depth + 1))

    if a == b:
        return 0.0
    f0, f2 = fn(a), fn(b)
    f1 = fn(0.5 * (a + b))
    whole = simpson(a, b, f0, f1, f2)
    return recurse(a, b, f0, f1, f2, whole, tol, 0)


def integrate_s(pq: PQPair, f0: float, f1: float) -> ProfileFn:
    """Solve s' = s (q - p')/p on [f0, f1], normalized to s(f0) = 1.

    The solution is unique up to a constant multiple; the normalization
    pins it.  When p is linear and q constant the closed form is used
    (for p = a t through the origin: s(f) = (f/f0)^((q - a)/a)); otherwise
    log s is accumulated by adaptive Simpson quadrature and the returned
    profile differentiates through the defining ODE.
    """
    if not (0.0 < f0 < f1):
        raise ValueError(f"need 0 < f0 < f1, got f0 = {f0}, f1 = {f1}")
    lo, hi = pq.domain
    if not (lo < f0 and f1 < hi):
        raise DomainError(
            f"[{f0}, {f1}] not inside the profile domain ({lo}, {hi})")
    p, q = pq.p, pq.q
    for t in (f0, 0.5 * (f0 + f1), f1):
        if p(t) <= 0.0:
            raise PositivityError(f"profile p must be positive on the interval, "
                                  f"p({t}) = {p(t)}")

    p_struct, q_struct = p.structure, q.structure
    if (p_struct is not None and p_struct[0] in ("linear", "const")
            and q_struct is not None and q_struct[0] == "const"):
        c = q_struct[1]
        if p_struct[0] == "const":
            a, b = 0.0, p_struct[1]
        else:
            a, b = p_struct[1], p_struct[2]
        if a == 0.0:
            # s = exp((c/b) (f - f0))
            rate = c / b
            return exp_profile(linear_profile(rate, -rate * f0, domain=pq.domain))
        if b == 0.0:
            # s = (f/f0)^((c-a)/a)
            k = (c - a) / a
            return power_profile(k, coeff=f0 ** (-k), domain=pq.domain)
        # s = ((a f + b)/(a f0 + b))^((c-a)/a)
        k = (c - a) / a
        s = power_profile(k, coeff=(a * f0 + b) ** (-k), domain=POSITIVE_AXIS)
        return ProfileFn(
            lambda t: s(a * t + b),
            lambda t: s.d1(a * t + b) * a,
            lambda t: s.d2(a * t + b) * a * a,
            domain=pq.domain,
        )

    def log_deriv(t):
        return (q(t) - p.d1(t)) / p(t)

    def log_s(t):
        if t >= f0:
            return _adaptive_simpson(log_deriv, f0, t, SIMPSON_TOL)
        return -_adaptive_simpson(log_deriv, t, f0, SIMPSON_TOL)

    def value(t):
        return math.exp(log_s(t))

    def d1(t):
        return value(t) * log_deriv(t)

    def d2(t):
        # differentiate s' = s (q - p')/p once more
        ld = log_deriv(t)
        ld_prime = (q.d1(t) - p.d2(t)) / p(t) - ld * p.d1(t) / p(t)
        return value(t) * (ld * ld + ld_prime)

    return ProfileFn(value, d1, d2, domain=pq.domain)


# -- constructed metric ---------------------------------------------------------


def build_metric(pq: PQPair, s: ProfileFn) -> Metric2D:
    """Chart metric E = 1/p(u)^2, G = s(u)^2 on the strip I x R.

    With s solving the conformal ODE, the compatibility residual of (p, q)
    vanishes exactly when this metric has Gaussian curvature -1.
    """
    p = pq.p
    lo = max(p.domain[0], s.domain[0])
    hi = min(p.domain[1], s.domain[1])
    if not lo < hi:
        raise DomainError("profile domains do not overlap")
    # spot-check positivity at a few chart points
    if math.isfinite(lo) and math.isfinite(hi):
        probes = (lo + 0.25 * (hi - lo), lo + 0.5 * (hi - lo), lo + 0.75 * (hi - lo))
    elif math.isfinite(lo):
        probes = (lo + 0.5, lo + 1.0, lo + 2.0)
    elif math.isfinite(hi):
        probes = (hi - 2.0, hi - 1.0, hi - 0.5)
    else:
        probes = (0.0, 1.0, 2.0)
    for t in probes:
        if p(t) <= 0.0 or s(t) <= 0.0:
            raise PositivityError(
                f"metric profiles must be positive: p({t}) = {p(t)}, s({t}) = {s(t)}")
    E = profile_field(const_profile(1.0, domain=p.domain) / (p * p), axis="u")
    G = profile_field(s * s, axis="u")
    return Metric2D(E, G, lambda u, v: lo < u < hi, kind="constructed")


@dataclass(frozen=True)
class PseudosphericalReport:
    """Outcome of the two-sided certification of a profile pair."""

    max_abs_compat_residual: float
    max_abs_curvature_plus_one: float
    compat_ok: bool
    curvature_ok: bool
    curvature_tol: float
    compat_tol: float
    sample_count: int

    @property
    def certificates_agree(self) -> bool:
        return self.compat_ok == self.curvature_ok

    @property
    def passed(self) -> bool:
        return self.compat_ok and self.curvature_ok


def verify_pseudospherical(
    pq: PQPair,
    samples: Sequence[float],
    tol: float,
    compat_tol: float = 1e-8,
    h_samples: int = DEFAULT_STRIP_SHAPE[1],
) -> PseudosphericalReport:
    """Certify a profile pair both ways: ODE residual and curvature.

    Integrates s, builds the chart metric and reports the max of
    |K + 1| over the strip samples x h-samples next to the max
    compatibility residual over the f samples.  The equivalence of the
    construction says both checks must agree on success/failure.

    The curvature is evaluated from central finite differences of the
    metric component values (`Metric2D.with_fd_derivatives`), so it does
    not share the profiles' closed-form derivatives with the ODE residual:
    the two certificates stay independent.
    """
    if tol <= 0.0:
        raise ValueError("curvature tolerance must be positive")
    samples = sorted(float(t) for t in samples)
    if len(samples) < 2:
        raise ValueError("need at least two profile samples")

    max_resid = max(abs(compat_residual(pq, t)) for t in samples)

    f0, f1 = samples[0], samples[-1]
    s = integrate_s(pq, f0, f1)
    g = build_metric(pq, s).with_fd_derivatives()

    h_coords = [(-1.0 + 2.0 * j / (h_samples - 1)) if h_samples > 1 else 0.0
                for j in range(h_samples)]
    max_kp1 = 0.0
    for t in samples:
        for hc in h_coords:
            k = gauss_curvature(g, Point2(t, hc))
            max_kp1 = max(max_kp1, abs(k + 1.0))

    return PseudosphericalReport(
        max_abs_compat_residual=max_resid,
        max_abs_curvature_plus_one=max_kp1,
        compat_ok=max_resid <= compat_tol,
        curvature_ok=max_kp1 <= tol,
        curvature_tol=tol,
        compat_tol=compat_tol,
        sample_count=len(samples) * h_samples,
    )


def strip_samples(f0: float = DEFAULT_STRIP[0], f1: float = DEFAULT_STRIP[1],
                  n: int = DEFAULT_STRIP_SHAPE[0]) -> list[float]:
    """Uniform f-samples on the default verification strip."""
    if n < 2:
        raise ValueError("need at least two samples")
    return [f0 + (f1 - f0) * i / (n - 1) for i in range(n)]


def max_compat_residual_for_params(
    m: int, beta: float, lam: float,
    samples: Optional[Sequence[float]] = None,
) -> tuple[float, Optional[str]]:
    """Max |compatibility residual| for the pair generated by (m, lam, beta).

    Returns (residual, failure_reason).  When no real positive pair exists
    the residual is +inf and the reason names the violated constraint;
    this is the honest failure certificate for roots of a wrong relation.
    """
    if samples is None:
        samples = strip_samples()
    try:
        pq = pq_from_params(m, lam, beta)
    except AdmissibilityError as exc:
        return math.inf, exc.reason
    return max(abs(compat_residual(pq, t)) for t in samples), None
