"""The quadratic relation between curvature, fiber dimension and screening.

Existence of a warping function with lap(f) = beta f on a negatively
curved surface base ties lambda, m and beta together through a quadratic
equation.  Two coefficient sets ship:

* ``published``: the historically circulated coefficients, kept verbatim
  for literal reproduction, with constant term
  m^2 (1 - beta^2/2) + m (5 beta^2/2 - 2);

* ``rederived``: obtained independently by pushing the beta-general
  profile pair through the compatibility ODE, constant term
  beta^2 (m^2 + m)/2.

The two agree identically at beta = 1 and differ by m (m - 2)(1 - beta^2)
otherwise.  Only the rederived variant is scaling-covariant
(roots(m, beta) = beta * roots(m, 1)) and only its roots pass the
compatibility-ODE oracle, so it is the default everywhere; the published
variant remains available for literal reproduction.

Coefficients are kept in exact rational arithmetic whenever m and beta are
given as int/Fraction, so identities can be asserted exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import require_finite_positive

Number = Union[int, float, Fraction]

PUBLISHED = "published"
REDERIVED = "rederived"
VARIANTS = (PUBLISHED, REDERIVED)

# Back-substitution acceptance: |P(root)| <= BACKSUB_RTOL * max(1, |a0|).
BACKSUB_RTOL = 1e-10


@dataclass(frozen=True)
class RelationPoly:
    """Quadratic a2 lam^2 + a1 lam + a0 with provenance and parameters.

    Coefficients are Fractions when (m, beta) were rational inputs,
    floats otherwise.
    """

    a2: Number
    a1: Number
    a0: Number
    provenance: str
    m: Number
    beta: Number

    def coeffs_float(self) -> tuple[float, float, float]:
        return float(self.a2), float(self.a1), float(self.a0)

    def eval_at(self, lam: float) -> float:
        a2, a1, a0 = self.coeffs_float()
        return (a2 * lam + a1) * lam + a0

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in (self.a2, self.a1, self.a0))


def _shared_terms(m: Number, beta: Number) -> tuple[Number, ...]:
    """Validated (m, beta, 1/2, a2, a1); both variants share a2 and a1.

    All five are Fractions when m and beta are both int/Fraction, floats
    otherwise.
    """
    if float(m) < 1:
        raise ValueError(f"fiber dimension m must be >= 1, got {m}")
    require_finite_positive("screening parameter beta", beta)
    if isinstance(m, (int, Fraction)) and isinstance(beta, (int, Fraction)):
        mv, bv, half = Fraction(m), Fraction(beta), Fraction(1, 2)
    else:
        mv, bv, half = float(m), float(beta), 0.5
    a2 = 2 - mv
    a1 = bv * (1 + 3 * mv * half - mv * mv * half)
    return mv, bv, half, a2, a1


def poly_published(m: Number, beta: Number) -> RelationPoly:
    """The published coefficient set, reproduced verbatim:

    a2 = 2 - m
    a1 = beta (1 + 3m/2 - m^2/2)
    a0 = m^2 (1 - beta^2/2) + m (5 beta^2/2 - 2)
    """
    mv, bv, half, a2, a1 = _shared_terms(m, beta)
    a0 = mv * mv * (1 - bv * bv * half) + mv * (5 * bv * bv * half - 2)
    return RelationPoly(a2, a1, a0, PUBLISHED, m, beta)


def poly_rederived(m: Number, beta: Number) -> RelationPoly:
    """Independently rederived coefficients:

    a2 = 2 - m
    a1 = beta (1 + 3m/2 - m^2/2)
    a0 = beta^2 (m^2 + m)/2

    Obtained by eliminating the profile pair from the compatibility ODE:
    the relation is equivalent to (lam + m beta)^2 =
    (m - 1)(lam + beta)(lam + m beta / 2).  Roots scale linearly in beta.
    """
    mv, bv, half, a2, a1 = _shared_terms(m, beta)
    a0 = bv * bv * (mv * mv + mv) * half
    return RelationPoly(a2, a1, a0, REDERIVED, m, beta)


def relation_poly(m: Number, beta: Number, variant: str = REDERIVED) -> RelationPoly:
    if variant == PUBLISHED:
        return poly_published(m, beta)
    if variant == REDERIVED:
        return poly_rederived(m, beta)
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


@dataclass(frozen=True)
class RootAdmissibility:
    """Admissibility record for a single root."""

    root: float
    lambda_plus_beta_negative: bool
    K_negative: bool
    overall: bool
    K: float


@dataclass(frozen=True)
class RootReport:
    """Real roots of a relation polynomial with admissibility flags."""

    poly: RelationPoly
    roots: list[float]
    multiplicities: list[int]
    degenerate_linear: bool
    admissibility: list[RootAdmissibility]
    backsub_residuals: list[float]
    formal_extrapolation: bool = False

    @property
    def admissible_roots(self) -> list[float]:
        return [a.root for a in self.admissibility if a.overall]


def _classify(root: float, m: float, beta: float) -> RootAdmissibility:
    K = root + m * beta / 2.0
    lpb = root + beta < 0.0
    kn = K < 0.0
    return RootAdmissibility(
        root=root,
        lambda_plus_beta_negative=lpb,
        K_negative=kn,
        overall=lpb and kn and m >= 2,
        K=K,
    )


def solve_lambda(poly: RelationPoly) -> RootReport:
    """Real roots via the cancellation-safe quadratic formula.

    A vanishing leading coefficient degrades to the linear case; a zero
    discriminant reports one root with multiplicity 2.  Every root is
    classified admissible iff lam + beta < 0, lam + m beta/2 < 0 and
    m >= 2.  Non-integer m is accepted but flagged as formal extrapolation.
    """
    a2, a1, a0 = poly.coeffs_float()
    m, beta = float(poly.m), float(poly.beta)
    if a2 == 0.0 and a1 == 0.0:
        raise ValueError("relation polynomial is identically "
                         + ("zero" if a0 == 0.0 else "constant; no roots to solve"))

    if a2 == 0.0:
        roots = [-a0 / a1]
        mults = [1]
        degenerate = True
    else:
        degenerate = False
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            roots, mults = [], []
        elif disc == 0.0:
            roots, mults = [-a1 / (2.0 * a2)], [2]
        else:
            # q = -(a1 + sign(a1) sqrt(disc))/2 avoids subtractive cancellation
            sq = math.sqrt(disc)
            sign = 1.0 if a1 >= 0.0 else -1.0
            qq = -0.5 * (a1 + sign * sq)
            r1, r2 = qq / a2, a0 / qq
            roots = sorted((r1, r2))
            mults = [1, 1]

    residuals = [abs(poly.eval_at(r)) for r in roots]
    bound = BACKSUB_RTOL * max(1.0, abs(a0))
    for r, res in zip(roots, residuals):
        if res > bound:
            raise ArithmeticError(
                f"root {r} fails back-substitution: |P(root)| = {res} > {bound}")

    return RootReport(
        poly=poly,
        roots=roots,
        multiplicities=mults,
        degenerate_linear=degenerate,
        admissibility=[_classify(r, m, beta) for r in roots],
        backsub_residuals=residuals,
        formal_extrapolation=not float(m).is_integer(),
    )


@dataclass(frozen=True)
class SweepRecord:
    """One (m, beta) row of an existence sweep."""

    m: int
    beta: float
    variant: str
    a2: float
    a1: float
    a0: float
    roots: list[float]
    admissible_root: Optional[float]
    K: Optional[float]
    exists: str  # "true" | "false" | "out_of_domain"


def existence_sweep(m_range: tuple[int, int], betas: Sequence[Number],
                    variant: str = REDERIVED) -> list[SweepRecord]:
    """One record per (m, beta), m ascending then beta ascending.

    Existence verdict: "true" when at least one admissible root exists,
    "false" otherwise, "out_of_domain" for m = 1 (the profile
    normalization needs m >= 2, so the relation has no geometric content
    there even though its coefficients evaluate).
    """
    m_lo, m_hi = m_range
    if m_lo > m_hi or not betas:
        raise ValueError("need a nonempty m range and at least one beta")
    records = []
    for m in range(m_lo, m_hi + 1):
        for beta in sorted(betas, key=float):
            poly = relation_poly(m, beta, variant)
            report = solve_lambda(poly)
            a2, a1, a0 = poly.coeffs_float()
            admissible = report.admissible_roots
            root = admissible[0] if admissible else None
            if m < 2:
                verdict = "out_of_domain"
            else:
                verdict = "true" if admissible else "false"
            records.append(SweepRecord(
                m=m, beta=float(beta), variant=variant,
                a2=a2, a1=a1, a0=a0,
                roots=report.roots,
                admissible_root=root,
                K=None if root is None else root + m * float(beta) / 2.0,
                exists=verdict,
            ))
    return records
