"""Profile reduction machinery for the warped-product construction.

A warping function with |grad f|^2 = p(f)^2 and lap(f) = p(f) q(f) exists
on a curvature -1 surface exactly when the pair (p, q) satisfies the
compatibility ODE

    p p'' - p'^2 + 2 q p' - p q' - q^2 + 1 = 0.

This module evaluates that residual, generates the rescaled pair from a
parameter triple (m, lambda, beta), solves s'/s = (q - p')/p for the
conformal profile s in closed form, assembles the chart metric

    g = (df / p(f))^2 + (s(f) dh)^2

and measures how far its Gaussian curvature is from -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AdmissibilityError, DomainError, PositivityError, require_finite_positive,
)
from .geometry2d import Metric2D, Point2, gauss_curvature, profile_field
from .profiles import (
    ProfileFn, POSITIVE_AXIS, const_profile, linear_profile, power_profile,
)

# Default verification strip: the construction is scale-covariant in f,
# so any window bounded away from 0 is representative.
DEFAULT_STRIP = (0.5, 4.0)
DEFAULT_STRIP_SHAPE = (32, 8)


@dataclass(frozen=True)
class PQPair:
    """Profile pair (p, q)."""

    p: ProfileFn
    q: ProfileFn

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

    Raises ValueError on a non-finite lam or a beta that is not finite and
    positive, and AdmissibilityError when m < 2, lam + beta >= 0 (p
    degenerate or imaginary) or K >= 0 (no negative-curvature rescaling).
    """
    require_finite_positive("screening parameter beta", beta)
    if not math.isfinite(lam):
        raise ValueError(f"Einstein constant lambda must be finite, got {lam}")
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
    )


# -- the conformal profile s ---------------------------------------------------


def integrate_s(pq: PQPair, f0: float, f1: float) -> ProfileFn:
    """Solve s' = s (q - p')/p on [f0, f1], normalized to s(f0) = 1.

    The solution is unique up to a constant multiple; the normalization
    pins it.  Only the pair `pq_from_params` builds is accepted, p = a t
    with a > 0 and constant q = c, for which s(f) = (f/f0)^((c - a)/a);
    any other pair raises ValueError.
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
    # a > 0 follows from the probes: p(f0) = a f0 > 0.
    if not (p.structure is not None and p.structure[0] == "linear"
            and p.structure[2] == 0.0
            and q.structure is not None and q.structure[0] == "const"):
        raise ValueError(
            "integrate_s needs p = a t with a > 0 and a constant q, got "
            f"p tagged {p.structure} and q tagged {q.structure}")
    a, c = p.structure[1], q.structure[1]
    k = (c - a) / a
    return power_profile(k, coeff=f0 ** (-k), domain=pq.domain)


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


def verify_pseudospherical(pq: PQPair, samples: Sequence[float]) -> dict:
    """Measure a profile pair both ways: ODE residual and curvature.

    Integrates s, builds the chart metric and returns the entries `verify`
    prints: `compat_max_residual`, the max compatibility residual over
    the f samples, and `curvature_max_abs_k_plus_1`, the max of |K + 1|
    over `strip_points(samples)`.  The equivalence of the construction
    says both vanish together.

    The curvature is evaluated from central finite differences of the
    metric component values (`Metric2D.with_fd_derivatives`), so it does
    not share the profiles' closed-form derivatives with the ODE residual:
    the two certificates stay independent.
    """
    samples = sorted(float(t) for t in samples)
    if len(samples) < 2:
        raise ValueError("need at least two profile samples")

    max_resid = max(abs(compat_residual(pq, t)) for t in samples)

    f0, f1 = samples[0], samples[-1]
    s = integrate_s(pq, f0, f1)
    g = build_metric(pq, s).with_fd_derivatives()

    max_kp1 = 0.0
    for p in strip_points(samples):
        max_kp1 = max(max_kp1, abs(gauss_curvature(g, p) + 1.0))

    return {"compat_max_residual": max_resid, "curvature_max_abs_k_plus_1": max_kp1}


def strip_samples(f0: float = DEFAULT_STRIP[0], f1: float = DEFAULT_STRIP[1],
                  n: int = DEFAULT_STRIP_SHAPE[0]) -> list[float]:
    """Uniform f-samples on the default verification strip."""
    if n < 2:
        raise ValueError("need at least two samples")
    return [f0 + (f1 - f0) * i / (n - 1) for i in range(n)]


def strip_points(samples: Sequence[float]) -> list[Point2]:
    """Chart points (t, h) for every f-sample t, t-major, with the
    DEFAULT_STRIP_SHAPE[1] h-values evenly spaced on [-1, 1]."""
    nh = DEFAULT_STRIP_SHAPE[1]
    h_coords = [-1.0 + 2.0 * j / (nh - 1) for j in range(nh)]
    return [Point2(t, hc) for t in samples for hc in h_coords]
