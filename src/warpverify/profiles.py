"""One-dimensional profile functions with closed-form derivatives.

The profile machinery backs both the (p, q) reduction of the warped-product
system and the scalar-field catalog of the 2D geometry kernel.  A profile is
a real function on an open interval together with its first and second
derivatives, both supplied in closed form.

Combinators (`+`, `-`, `*`, `/`, composition, sqrt, exp, log, power) chain
exact derivatives through the usual calculus rules, so profiles assembled
from the builtin constructors keep closed-form derivatives throughout.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .errors import DomainError

FULL_LINE = (-math.inf, math.inf)
POSITIVE_AXIS = (0.0, math.inf)


class ProfileFn:
    """Real-valued function of one variable with derivative access.

    Parameters
    ----------
    value, deriv, deriv2 : callable
        t -> f(t), f'(t) and f''(t), all in closed form.
    domain : (lo, hi)
        Open interval on which the profile may be evaluated.
    structure : tuple, optional
        Structural tag used for closed-form detection downstream:
        ("const", c) or ("linear", a, b) for a*t + b.
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
        t = float(t)
        if not self._lo < t < self._hi:
            raise self._outside(t)
        return self._value(t)

    def d1(self, t: float) -> float:
        t = float(t)
        if not self._lo < t < self._hi:
            raise self._outside(t)
        return self._deriv(t)

    def d2(self, t: float) -> float:
        t = float(t)
        if not self._lo < t < self._hi:
            raise self._outside(t)
        return self._deriv2(t)

    def _outside(self, t: float) -> DomainError:
        return DomainError(
            f"profile argument {t!r} outside domain ({self._lo}, {self._hi})")

    # -- algebra ------------------------------------------------------------

    def _merged_domain(self, other: "ProfileFn") -> tuple[float, float]:
        return (max(self.domain[0], other.domain[0]),
                min(self.domain[1], other.domain[1]))

    def __add__(self, other):
        other = as_profile(other)
        return ProfileFn(
            lambda t: self(t) + other(t),
            lambda t: self.d1(t) + other.d1(t),
            lambda t: self.d2(t) + other.d2(t),
            domain=self._merged_domain(other),
        )

    __radd__ = __add__

    def __neg__(self):
        return ProfileFn(
            lambda t: -self(t),
            lambda t: -self.d1(t),
            lambda t: -self.d2(t),
            domain=self.domain,
        )

    def __sub__(self, other):
        return self + (-as_profile(other))

    def __rsub__(self, other):
        return as_profile(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            structure = None
            if self.structure is not None:
                kind, *coeffs = self.structure
                structure = (kind, *[c * x for x in coeffs])
            return ProfileFn(
                lambda t: c * self(t),
                lambda t: c * self.d1(t),
                lambda t: c * self.d2(t),
                domain=self.domain,
                structure=structure,
            )
        other = as_profile(other)
        return ProfileFn(
            lambda t: self(t) * other(t),
            lambda t: self.d1(t) * other(t) + self(t) * other.d1(t),
            lambda t: (self.d2(t) * other(t) + 2.0 * self.d1(t) * other.d1(t)
                       + self(t) * other.d2(t)),
            domain=self._merged_domain(other),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / float(other))
        other = as_profile(other)

        def w(t):
            return self(t) / other(t)

        def w1(t):
            return (self.d1(t) - w(t) * other.d1(t)) / other(t)

        def w2(t):
            return (self.d2(t) - 2.0 * w1(t) * other.d1(t) - w(t) * other.d2(t)) / other(t)

        return ProfileFn(w, w1, w2, domain=self._merged_domain(other))

    def __rtruediv__(self, other):
        return as_profile(other) / self


def as_profile(x) -> ProfileFn:
    if isinstance(x, ProfileFn):
        return x
    if isinstance(x, (int, float)):
        return const_profile(float(x))
    raise TypeError(f"cannot interpret {x!r} as a profile function")


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

    structure = None
    if len(c) <= 1:
        structure = ("const", c[0] if c else 0.0)
    elif len(c) == 2:
        structure = ("linear", c[1], c[0])
    return ProfileFn(lambda t: horner(c, t), lambda t: horner(d1, t),
                     lambda t: horner(d2, t), domain=domain, structure=structure)


def power_profile(exponent: float, coeff: float = 1.0,
                  domain=POSITIVE_AXIS) -> ProfileFn:
    """coeff * t**exponent on the positive axis."""
    k, c = float(exponent), float(coeff)
    return ProfileFn(
        lambda t: c * t ** k,
        lambda t: c * k * t ** (k - 1.0),
        lambda t: c * k * (k - 1.0) * t ** (k - 2.0),
        domain=domain,
        structure=("linear", c, 0.0) if k == 1.0 else (
            ("const", c) if k == 0.0 else None),
    )


def sqrt_profile(inner: ProfileFn) -> ProfileFn:
    """sqrt of a (positive) profile, derivatives by the chain rule."""
    def value(t):
        return math.sqrt(inner(t))

    def d1(t):
        return inner.d1(t) / (2.0 * value(t))

    def d2(t):
        s = value(t)
        return inner.d2(t) / (2.0 * s) - inner.d1(t) ** 2 / (4.0 * s ** 3)

    return ProfileFn(value, d1, d2, domain=inner.domain)


def exp_profile(inner: ProfileFn) -> ProfileFn:
    def value(t):
        return math.exp(inner(t))

    return ProfileFn(
        value,
        lambda t: value(t) * inner.d1(t),
        lambda t: value(t) * (inner.d1(t) ** 2 + inner.d2(t)),
        domain=inner.domain,
    )


def log_profile(inner: ProfileFn) -> ProfileFn:
    def d1(t):
        return inner.d1(t) / inner(t)

    return ProfileFn(
        lambda t: math.log(inner(t)),
        d1,
        lambda t: inner.d2(t) / inner(t) - d1(t) ** 2,
        domain=inner.domain,
    )

