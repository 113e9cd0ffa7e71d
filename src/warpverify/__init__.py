"""Verification toolkit for Einstein warped products over pseudospherical
bases whose warping function satisfies the homogeneous screened Poisson
equation.

Submodules
----------
profiles      : 1D profiles with closed-form derivatives.
geometry2d    : 2D orthogonal-metric kernel (Laplace-Beltrami, gradient,
                Hessian, Gaussian curvature, rescaling, model catalog).
einstein      : residuals of the Einstein system for a Ricci-flat fiber
                over a surface, and the vertical Ricci coefficient.
compatibility : profile-pair reduction, the closed-form conformal profile
                of the (linear p, constant q) pair, constructed chart
                metric, the two pseudospherical certificates as max-abs
                values.
relation      : the lambda-m-beta quadratic relation (published and
                rederived variants), root solving, existence sweeps.
screened_pde  : finite-difference Dirichlet solver for [lap - beta] f = -psi
                on the disk chart, with convergence studies.
cli           : command-line front end with CSV/JSON emission.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AdmissibilityError, DomainError, PositivityError, SolverError, ToolkitError,
)
from .geometry2d import (  # noqa: F401
    Metric2D, Point2, ScalarField2D, SymMat2,
    gauss_curvature, grad_norm_sq, hessian, laplace_beltrami, rescale,
    poincare_disk, poincare_half_plane, flat_metric,
)
from .einstein import (  # noqa: F401
    ResidualReport, WarpParams,
    contracted_residual, residual_report, scalar_constraint_residual,
    tensor_residual, vertical_ricci_coeff,
)
from .compatibility import (  # noqa: F401
    PQPair, PseudosphericalReport,
    build_metric, compat_residual, integrate_s, pq_from_params,
    verify_pseudospherical,
)
from .relation import (  # noqa: F401
    RelationPoly, RootReport,
    existence_sweep, poly_published, poly_rederived, solve_lambda,
)
from .screened_pde import (  # noqa: F401
    GridField, GridSpec,
    assemble_and_solve, convergence_study, residual_field, write_grid_csv,
)
