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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import require_finite_positive

Number = Union[int, float, Fraction]

PUBLISHED = "published"
REDERIVED = "rederived"
VARIANTS = (PUBLISHED, REDERIVED)

# Back-substitution acceptance: |P(root)| <= BACKSUB_RTOL * max(1, |a0|).
BACKSUB_RTOL = 1e-10

# Largest existence sweep, in (m, beta) rows; the same order as the
# ~1e6-node cap on screened-PDE lattices.
MAX_SWEEP_ROWS = 1_000_000


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


def _validated(m: Number, beta: Number) -> tuple[Number, Number, Number]:
    """Validated (m, beta, 1/2): Fractions when m and beta are both
    int/Fraction, floats otherwise."""
    if float(m) < 1:
        raise ValueError(f"fiber dimension m must be >= 1, got {m}")
    require_finite_positive("screening parameter beta", beta)
    if isinstance(m, (int, Fraction)) and isinstance(beta, (int, Fraction)):
        return Fraction(m), Fraction(beta), Fraction(1, 2)
    return float(m), float(beta), 0.5


def _coefficients(mv, bv, half, variant: str):
    """(a2, a1, a0) of `variant`, evaluated alike on Fractions, floats and
    float arrays, so a sweep row and `relation_poly` give the same doubles."""
    a2 = 2 - mv
    a1 = bv * (1 + 3 * mv * half - mv * mv * half)
    if variant == PUBLISHED:
        a0 = mv * mv * (1 - bv * bv * half) + mv * (5 * bv * bv * half - 2)
    elif variant == REDERIVED:
        a0 = bv * bv * (mv * mv + mv) * half
    else:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return a2, a1, a0


def poly_published(m: Number, beta: Number) -> RelationPoly:
    """The published coefficient set, reproduced verbatim:

    a2 = 2 - m
    a1 = beta (1 + 3m/2 - m^2/2)
    a0 = m^2 (1 - beta^2/2) + m (5 beta^2/2 - 2)
    """
    return relation_poly(m, beta, PUBLISHED)


def poly_rederived(m: Number, beta: Number) -> RelationPoly:
    """Independently rederived coefficients:

    a2 = 2 - m
    a1 = beta (1 + 3m/2 - m^2/2)
    a0 = beta^2 (m^2 + m)/2

    Obtained by eliminating the profile pair from the compatibility ODE:
    the relation is equivalent to (lam + m beta)^2 =
    (m - 1)(lam + beta)(lam + m beta / 2).  Roots scale linearly in beta.
    """
    return relation_poly(m, beta, REDERIVED)


def relation_poly(m: Number, beta: Number, variant: str = REDERIVED) -> RelationPoly:
    a2, a1, a0 = _coefficients(*_validated(m, beta), variant)
    return RelationPoly(a2, a1, a0, variant, m, beta)


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


def _admissibility(root, m, beta):
    """(K, lam + beta < 0, K < 0, admissible) for roots `root`; admissible
    iff lam + beta < 0, K = lam + m beta/2 < 0 and m >= 2.  NaN roots are
    inadmissible."""
    K = root + m * beta / 2.0
    lpb = root + beta < 0.0
    kn = K < 0.0
    return K, lpb, kn, lpb & kn & (m >= 2)


def _real_roots(a2, a1, a0, m, beta) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of the rows a2 lam^2 + a1 lam + a0 (float arrays) by the
    cancellation-safe quadratic formula, and their |P(root)|: two (rows, 2)
    arrays, roots ascending, NaN where a row has fewer than two roots (a
    vanishing a2 gives the linear root, a zero discriminant one double root).

    Raises ValueError naming m and beta of the first row whose coefficients,
    discriminant, roots or residuals are not finite, then ArithmeticError at
    the first root whose residual exceeds BACKSUB_RTOL * max(1, |a0|).
    """
    linear = a2 == 0.0
    constant = linear & (a1 == 0.0)
    if constant.any():
        raise ValueError("relation polynomial is identically " + (
            "zero" if a0[constant][0] == 0.0 else "constant; no roots to solve"))
    # every row runs the whole formula; lanes it does not apply to are masked
    with np.errstate(all="ignore"):
        disc = a1 * a1 - 4.0 * a2 * a0
        sq = np.sqrt(disc)
        # q = -(a1 + sign(a1) sqrt(disc))/2 avoids subtractive cancellation
        qq = -0.5 * (a1 + np.where(a1 >= 0.0, sq, -sq))
        r1, r2 = qq / a2, a0 / qq
        two = ~linear & (disc > 0.0)
        present = np.stack([linear | (disc >= 0.0), two], axis=1)
        first = np.where(linear, -a0 / a1, np.where(two, np.fmin(r1, r2), -a1 / (2.0 * a2)))
        roots = np.where(present, np.stack([first, np.fmax(r1, r2)], axis=1), np.nan)
        residuals = np.abs((a2[:, None] * roots + a1[:, None]) * roots + a0[:, None])
    finite = (np.isfinite(a2) & np.isfinite(a1) & np.isfinite(a0)
              & (linear | np.isfinite(disc))
              & (np.isfinite(roots) & np.isfinite(residuals) | ~present).all(axis=1))
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            f"the relation at m = {m[i]:.17g}, beta = {float(beta[i])!r} leaves the "
            "double range: a coefficient, the discriminant or a root is not finite")
    bound = BACKSUB_RTOL * np.maximum(1.0, np.abs(a0))
    rejected = residuals > bound[:, None]
    if rejected.any():
        i, j = np.unravel_index(np.argmax(rejected), rejected.shape)
        raise ArithmeticError(
            f"root {float(roots[i, j])} fails back-substitution: "
            f"|P(root)| = {float(residuals[i, j])} > {float(bound[i])}")
    return roots, residuals


def solve_lambda(poly: RelationPoly) -> RootReport:
    """Real roots via the cancellation-safe quadratic formula.

    A vanishing leading coefficient degrades to the linear case; a zero
    discriminant reports one root with multiplicity 2.  Every root is
    classified admissible iff lam + beta < 0, lam + m beta/2 < 0 and
    m >= 2.  Non-integer m is accepted but flagged as formal extrapolation.
    Coefficients, roots or residuals that leave the double range raise
    ValueError, a root failing back-substitution ArithmeticError.
    """
    a2, a1, a0 = poly.coeffs_float()
    m, beta = float(poly.m), float(poly.beta)
    roots, residuals = _real_roots(*(np.array([x]) for x in (a2, a1, a0, m, beta)))
    present = ~np.isnan(roots[0])
    roots, residuals = roots[0, present], residuals[0, present]
    degenerate = a2 == 0.0
    K, lpb, kn, overall = (x.tolist() for x in _admissibility(roots, m, beta))
    roots = roots.tolist()
    return RootReport(
        poly=poly,
        roots=roots,
        multiplicities=[2] if len(roots) == 1 and not degenerate else [1] * len(roots),
        degenerate_linear=degenerate,
        admissibility=[RootAdmissibility(*adm) for adm in zip(roots, lpb, kn, overall, K)],
        backsub_residuals=residuals.tolist(),
        formal_extrapolation=not m.is_integer(),
    )


@dataclass(frozen=True, eq=False)
class SweepTable:
    """An existence sweep as columns, one entry per (m, beta) row.  Float
    columns hold NaN where a row has no such value (root2 of a single
    root, both roots when none is real, admissible_root and K when no root
    is admissible); `exists` holds "true", "false" or "out_of_domain"."""

    variant: str
    m: np.ndarray
    beta: np.ndarray
    a2: np.ndarray
    a1: np.ndarray
    a0: np.ndarray
    root1: np.ndarray
    root2: np.ndarray
    admissible_root: np.ndarray
    K: np.ndarray
    exists: np.ndarray


_VERDICTS = np.array(["false", "true", "out_of_domain"], dtype=object)


def existence_sweep(m_range: tuple[int, int], betas: Sequence[Number],
                    variant: str = REDERIVED) -> SweepTable:
    """Every (m, beta) row, m ascending then beta ascending, in one array pass.

    Floats only: each row holds the doubles `solve_lambda(relation_poly(m,
    float(beta), variant))` gives, from the same expressions and root
    kernel; exact rational arithmetic stays with those two.  A row's
    admissible root is its smaller admissible one.  Verdict: "true" when an
    admissible root exists, "false" otherwise, "out_of_domain" for m = 1
    (the profile normalization needs m >= 2, so the relation has no
    geometric content there even though its coefficients evaluate).  More
    than MAX_SWEEP_ROWS rows are refused before any array is built.
    """
    m_lo, m_hi = m_range
    if m_lo > m_hi or not betas:
        raise ValueError("need a nonempty m range and at least one beta")
    rows = (m_hi - m_lo + 1) * len(betas)
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"a sweep of {rows} rows exceeds the cap of "
                         f"MAX_SWEEP_ROWS = {MAX_SWEEP_ROWS} rows")
    if m_hi >= 2 ** 63:
        raise ValueError(f"fiber dimension m must be below 2**63, got {m_hi}")
    ordered = sorted(betas, key=float)
    for beta in ordered:
        _validated(m_lo, beta)
    m = np.repeat(np.arange(m_lo, m_hi + 1), len(ordered))
    beta = np.tile(np.array(ordered, dtype=float), m_hi - m_lo + 1)
    mv = m.astype(float)
    with np.errstate(all="ignore"):  # rows outside the double range fail below
        a2, a1, a0 = _coefficients(mv, beta, 0.5, variant)
    roots, _ = _real_roots(a2, a1, a0, mv, beta)
    K, _, _, ok = _admissibility(roots, mv[:, None], beta[:, None])

    def first_admissible(values):
        return np.where(ok[:, 0], values[:, 0], np.where(ok[:, 1], values[:, 1], np.nan))

    return SweepTable(
        variant=variant, m=m, beta=beta, a2=a2, a1=a1, a0=a0,
        root1=roots[:, 0], root2=roots[:, 1],
        admissible_root=first_admissible(roots), K=first_admissible(K),
        exists=_VERDICTS[np.where(m < 2, 2, ok.any(axis=1))],
    )
