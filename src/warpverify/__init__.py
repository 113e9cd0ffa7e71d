"""Verification toolkit for Einstein warped products over pseudospherical
bases whose warping function satisfies the homogeneous screened Poisson
equation.  Import from the submodules; the package exports only
`__version__`.

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
