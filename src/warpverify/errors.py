"""Exception taxonomy shared across the toolkit, and the one guard for
finite positive parameters."""

import math


class ToolkitError(Exception):
    """Base class for all warpverify-specific failures."""


class DomainError(ToolkitError):
    """A point or interval lies outside the declared chart domain, a
    finite-difference stencil would leave it, or a value at the point is
    outside the floating-point range an operator can evaluate."""


class PositivityError(ToolkitError):
    """A quantity required to be strictly positive is not
    (metric component, warping function, profile p, profile s)."""


class AdmissibilityError(ToolkitError):
    """Parameter triple (m, lambda, beta) violates the constraints needed
    to build real, positive profile functions.

    `reason` is one of: "fiber_dimension", "lambda_plus_beta", "degenerate",
    "base_curvature", or "no_admissible_root" when the relation at m >= 2
    has no root that satisfies them (raised by `cli.run_verification`).
    """

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


class SolverError(ToolkitError):
    """Linear solve failed or the grid is degenerate.  Carries the final
    relative residual when an iterative solve stalled."""

    def __init__(self, message, final_residual=None):
        super().__init__(message)
        self.final_residual = final_residual


class BacksubstitutionError(ArithmeticError):
    """A computed relation root fails its back-substitution check.  Not a
    ToolkitError: `cli.run` lets it through, and only `cli.main` turns it
    into an exit code, so other arithmetic faults still show."""


def require_finite_positive(name: str, x) -> None:
    """Raise ValueError unless `x` is a finite number > 0 (rejects NaN, inf)."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be finite and positive, got {x}")
