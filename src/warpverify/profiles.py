"""One-dimensional profile functions with closed-form derivatives.

A profile is a real function on an open interval together with its first
and second derivatives, both supplied in closed form.  The builtin
constructors cover constants, linear and polynomial profiles and scaled
powers: the warping profile pair (p, q), the conformal profile s, and the
1D factors of the model metrics in the 2D geometry kernel.

The product and the quotient of two profiles chain exact derivatives
through the product and quotient rules; they build the metric components
1/p^2 and s^2 and the rational factors of the model metrics.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .errors import DomainError

FULL_LINE = (-math.inf, math.inf)
POSITIVE_AXIS = (0.0, math.inf)


class ProfileFn:
    """Real-valued function of one variable with derivative access.

    `__call__`, `d1` and `d2` take a real number t and pass it on as
    given, not converted: an int gives the double of float(t) for the
    builtin profiles.  NaN, infinities and points outside `domain` raise
    DomainError.

    Parameters
    ----------
    value, deriv, deriv2 : callable
        t -> f(t), f'(t) and f''(t), all in closed form.
    domain : (lo, hi)
        Open interval on which the profile may be evaluated.
    structure : tuple, optional
        Structural tag read by `compatibility.integrate_s`: ("const", c)
        from `const_profile` or ("linear", a, b) for a*t + b from
        `linear_profile`.
    """

    def __init__(
        self,
        value: Callable[[float], float],
        deriv: Callable[[float], float],
        deriv2: Callable[[float], float],
        domain: tuple[float, float] = FULL_LINE,
        structure: Optional[tuple] = None,
    ):
        self._value = value
        self._deriv = deriv
        self._deriv2 = deriv2
        self.domain = (float(domain[0]), float(domain[1]))
        self._lo, self._hi = self.domain
        self.structure = structure

    # -- evaluation ---------------------------------------------------------
    # The domain test is written out in each entry point: these run once
    # per profile evaluation, and a shared helper costs a call each time.
    # NaN fails the chained comparison, so it is rejected too.

    def __call__(self, t: float) -> float:
        if not self._lo < t < self._hi:
            raise self._outside(t)
        return self._value(t)

    def d1(self, t: float) -> float:
        if not self._lo < t < self._hi:
            raise self._outside(t)
        return self._deriv(t)

    def d2(self, t: float) -> float:
        if not self._lo < t < self._hi:
            raise self._outside(t)
        return self._deriv2(t)

    def _outside(self, t: float) -> DomainError:
        return DomainError(
            f"profile argument {t!r} outside domain ({self._lo}, {self._hi})")

    # -- algebra ------------------------------------------------------------
    # Inside the closure trees below and the field lifts of geometry2d an
    # evaluation is written as a method call, `p.__call__(t)`, not `p(t)`:
    # calling an instance goes through the type's call slot, which costs
    # about twice as much per evaluation.  The method is still looked up on
    # the class at each call, so wrappers installed on the class see every
    # evaluation.  One-off probes and user code keep p(t).

    def _merged_domain(self, other: "ProfileFn") -> tuple[float, float]:
        return (max(self.domain[0], other.domain[0]),
                min(self.domain[1], other.domain[1]))

    def __mul__(self, other: "ProfileFn") -> "ProfileFn":
        return ProfileFn(
            lambda t: self.__call__(t) * other.__call__(t),
            lambda t: self.d1(t) * other.__call__(t) + self.__call__(t) * other.d1(t),
            lambda t: (self.d2(t) * other.__call__(t) + 2.0 * self.d1(t) * other.d1(t)
                       + self.__call__(t) * other.d2(t)),
            domain=self._merged_domain(other),
        )

    def __truediv__(self, other: "ProfileFn") -> "ProfileFn":
        def w(t):
            return self.__call__(t) / other.__call__(t)

        def w1(t):
            return (self.d1(t) - w(t) * other.d1(t)) / other.__call__(t)

        def w2(t):
            return ((self.d2(t) - 2.0 * w1(t) * other.d1(t) - w(t) * other.d2(t))
                    / other.__call__(t))

        return ProfileFn(w, w1, w2, domain=self._merged_domain(other))


# -- builtin catalog ---------------------------------------------------------


def const_profile(c: float, domain=FULL_LINE) -> ProfileFn:
    c = float(c)
    return ProfileFn(lambda t: c, lambda t: 0.0, lambda t: 0.0,
                     domain=domain, structure=("const", c))


def linear_profile(a: float, b: float = 0.0, domain=FULL_LINE) -> ProfileFn:
    """a*t + b."""
    a, b = float(a), float(b)
    return ProfileFn(lambda t: a * t + b, lambda t: a, lambda t: 0.0,
                     domain=domain, structure=("linear", a, b))


def poly_profile(coeffs: Sequence[float], domain=FULL_LINE) -> ProfileFn:
    """Polynomial with coefficients low order first: coeffs[k] * t**k."""
    c = [float(x) for x in coeffs]
    d1 = [k * c[k] for k in range(1, len(c))]
    d2 = [k * d1[k] for k in range(1, len(d1))]

    def horner(cs, t):
        acc = 0.0
        for x in reversed(cs):
            acc = acc * t + x
        return acc

    return ProfileFn(lambda t: horner(c, t), lambda t: horner(d1, t),
                     lambda t: horner(d2, t), domain=domain)


def power_profile(exponent: float, coeff: float = 1.0,
                  domain=POSITIVE_AXIS) -> ProfileFn:
    """coeff * t**exponent on the positive axis."""
    k, c = float(exponent), float(coeff)
    return ProfileFn(
        lambda t: c * t ** k,
        lambda t: c * k * t ** (k - 1.0),
        lambda t: c * k * (k - 1.0) * t ** (k - 2.0),
        domain=domain,
    )
