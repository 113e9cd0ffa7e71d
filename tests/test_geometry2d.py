"""Geometry kernel: operator examples, model curvature oracles, invariants.

Derived expected values are frozen from independent closed-form oracles:
the conformal Laplacian reduction, the radial Laplacian f'' + f'/r, and
the conformal-log curvature formula K = -lap_euc(log E) / (2E).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from warpverify.cli import TOLERANCES
from warpverify.compatibility import (
    build_metric, integrate_s, pq_from_params, strip_points, strip_samples,
)
from warpverify.einstein import (
    contracted_residual, scalar_constraint_residual, tensor_residual, vertical_ricci_coeff,
)
from warpverify.errors import DomainError, PositivityError
from warpverify.geometry2d import (
    CentralDifferences, Metric2D, Point2, ScalarField2D,
    coordinate_u, gauss_curvature, grad_norm_sq, hessian,
    laplace_beltrami, poincare_disk, poincare_half_plane, profile_field,
    radial_field, rescale,
)
from warpverify.profiles import const_profile, poly_profile
from warpverify.relation import PUBLISHED, REDERIVED, relation_poly, solve_lambda
from support import (
    callback_profile_field, constant_field, cosh_distance_field, flat_metric, poly_field,
)

DISK = poincare_disk()
HALF_PLANE = poincare_half_plane()
FLAT = flat_metric()

FSTAR = cosh_distance_field()


def fstar_value(u, v):
    r2 = u * u + v * v
    return (1.0 + r2) / (1.0 - r2)


def jet(f, u, v):
    """(f, f_u, f_v, f_uu, f_uv, f_vv) at (u, v)."""
    p = Point2(u, v)
    return (f.val(p), *f.grad(p), *f.second(p))


def field_from_jet(fn):
    """Field whose value and partials are the six entries of fn(u, v)."""
    return ScalarField2D(*(lambda u, v, k=k: fn(u, v)[k] for k in range(6)))


def linear_combination(a, f, b, g):
    return field_from_jet(lambda u, v: tuple(
        a * x + b * y for x, y in zip(jet(f, u, v), jet(g, u, v))))


def square(f):
    def fn(u, v):
        f0, fu, fv, fuu, fuv, fvv = jet(f, u, v)
        return (f0 * f0, 2.0 * f0 * fu, 2.0 * f0 * fv, 2.0 * (fu * fu + f0 * fuu),
                2.0 * (fu * fv + f0 * fuv), 2.0 * (fv * fv + f0 * fvv))
    return field_from_jet(fn)


# ---------------------------------------------------------------------------
# laplace_beltrami
# ---------------------------------------------------------------------------


class TestLaplaceBeltrami:
    def test_harmonic_linear_field_on_disk(self):
        assert laplace_beltrami(DISK, coordinate_u(), Point2(0.3, 0.1)) == pytest.approx(0.0, abs=1e-14)

    def test_conformal_reduction_r_squared(self):
        # ((1 - r^2)^2 / 4) * 4 at r = 0.5 -> 0.75^2 = 0.5625
        f = poly_field({(2, 0): 1.0, (0, 2): 1.0})
        assert laplace_beltrami(DISK, f, Point2(0.5, 0.0)) == pytest.approx(0.5625, abs=1e-13)

    @pytest.mark.parametrize("p", [Point2(0.5, 0.0), Point2(0.1, -0.3), Point2(-0.6, 0.55)])
    def test_cosh_distance_eigenfunction(self, p):
        # radial oracle: lap f = ((1-r^2)^2/4)(F'' + F'/r) for radial F(r),
        # which collapses to 2 F for F = (1+r^2)/(1-r^2)
        ratio = poly_profile([1.0, 1.0]) / poly_profile([1.0, -1.0])
        r = math.hypot(p.u, p.v)
        radial = lambda rr: ratio(rr * rr)
        h = 1e-5
        d1 = (radial(r + h) - radial(r - h)) / (2 * h)
        d2 = (radial(r + h) - 2 * radial(r) + radial(r - h)) / h**2
        oracle = (1 - r * r) ** 2 / 4.0 * (d2 + d1 / r)
        lap = laplace_beltrami(DISK, FSTAR, p)
        assert lap == pytest.approx(oracle, rel=1e-6)
        assert lap == pytest.approx(2.0 * FSTAR.val(p), rel=1e-12)

    def test_domain_rejected(self):
        with pytest.raises(DomainError):
            laplace_beltrami(DISK, FSTAR, Point2(0.8, 0.7))

    def test_fd_stencil_guard(self):
        f = FSTAR.without_exact(1e-2)
        with pytest.raises(DomainError):
            laplace_beltrami(DISK, f, Point2(0.9999, 0.0))


# ---------------------------------------------------------------------------
# grad_norm_sq
# ---------------------------------------------------------------------------


class TestGradNormSq:
    def test_linear_at_origin(self):
        assert grad_norm_sq(DISK, coordinate_u(), Point2(0.0, 0.0)) == pytest.approx(0.25, abs=1e-14)

    def test_constant_field(self):
        for g in (DISK, HALF_PLANE, FLAT):
            p = Point2(0.2, 0.5)
            assert grad_norm_sq(g, constant_field(7.0), p) == 0.0

    def test_cosh_distance_identity(self):
        # |grad f|^2 = f^2 - 1; at (0.5, 0): (5/3)^2 - 1 = 16/9
        got = grad_norm_sq(DISK, FSTAR, Point2(0.5, 0.0))
        assert got == pytest.approx(16.0 / 9.0, rel=1e-12)

    def test_nonnegative(self):
        for p in (Point2(0.1, 0.2), Point2(-0.4, 0.3)):
            assert grad_norm_sq(DISK, FSTAR, p) >= 0.0


# ---------------------------------------------------------------------------
# hessian
# ---------------------------------------------------------------------------


class TestHessian:
    def test_flat_euclidean(self):
        H = hessian(FLAT, poly_field({(2, 0): 1.0}), Point2(0.4, 1.2))
        assert H == (2.0, 0.0, 0.0)

    def test_constant_field_zero(self):
        H = hessian(DISK, constant_field(3.0), Point2(0.2, -0.1))
        assert H == (0.0, 0.0, 0.0)

    def test_cosh_distance_is_metric_multiple(self):
        p = Point2(0.5, 0.0)
        h11, h12, h22 = hessian(DISK, FSTAR, p)
        E, G = DISK.components(p)
        fv = FSTAR.val(p)
        assert h11 == pytest.approx(fv * E, rel=1e-12)
        assert h22 == pytest.approx(fv * G, rel=1e-12)
        assert h12 == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# gauss_curvature
# ---------------------------------------------------------------------------


def conformal_log_curvature(E_fn, u, v, h=1e-4):
    """Independent oracle for conformal metrics: K = -lap(log E)/(2E)."""
    def logE(x, y):
        return math.log(E_fn(x, y))

    lap = (logE(u + h, v) + logE(u - h, v) + logE(u, v + h) + logE(u, v - h)
           - 4.0 * logE(u, v)) / h**2
    return -lap / (2.0 * E_fn(u, v))


class TestGaussCurvature:
    def test_flat(self):
        assert gauss_curvature(FLAT, Point2(3.0, -2.0)) == pytest.approx(0.0, abs=1e-15)

    def test_disk_is_minus_one(self):
        p = Point2(0.2, 0.4)
        k = gauss_curvature(DISK, p)
        assert k == pytest.approx(-1.0, abs=1e-12)
        oracle = conformal_log_curvature(
            lambda u, v: 4.0 / (1.0 - u * u - v * v) ** 2, p.u, p.v)
        assert k == pytest.approx(oracle, abs=1e-6)

    def test_half_plane_is_minus_one(self):
        p = Point2(1.0, 2.0)
        k = gauss_curvature(HALF_PLANE, p)
        assert k == pytest.approx(-1.0, abs=1e-12)
        oracle = conformal_log_curvature(lambda u, v: 1.0 / (v * v), p.u, p.v)
        assert k == pytest.approx(oracle, abs=1e-6)

    def test_positivity_tolerance(self):
        zero = constant_field(0.0)
        g = Metric2D(zero, zero, lambda u, v: True, kind="custom")
        with pytest.raises(PositivityError):
            gauss_curvature(g, Point2(0.0, 0.0))

    @pytest.mark.parametrize("c", [-1.0, math.nan])
    def test_negative_or_nan_metric_rejected(self, c):
        # E G > 0 at c = -1, but E and G are negative: not a Riemannian metric
        field = constant_field(c)
        g = Metric2D(field, field, lambda u, v: True, kind="custom")
        p = Point2(0.0, 0.0)
        with pytest.raises(PositivityError):
            gauss_curvature(g, p)
        with pytest.raises(PositivityError):
            laplace_beltrami(g, coordinate_u(), p)

    @pytest.mark.parametrize("c", [1e-210, 1e210])
    def test_scale_beyond_double_range_rejected(self, c):
        # K = -1/c is representable, but the Brioschi divisor is not
        with pytest.raises(DomainError):
            gauss_curvature(rescale(DISK, c), Point2(0.1, 0.2))

    @pytest.mark.parametrize("v", [1e-8, 1e8])
    def test_half_plane_chart_ends_included(self, v):
        assert gauss_curvature(HALF_PLANE, Point2(0.0, v)) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("v", [0.5e-8, 2e8, 1e45])
    def test_half_plane_beyond_chart_ends_rejected(self, v):
        # at v = 1e45 the exact partials underflow and the formula gives -3
        with pytest.raises(DomainError):
            gauss_curvature(HALF_PLANE, Point2(0.0, v))


# ---------------------------------------------------------------------------
# operator guards
# ---------------------------------------------------------------------------

# Each operator on (metric, field, point); gauss_curvature reads no field.
OPERATORS = {
    "laplace_beltrami": laplace_beltrami,
    "grad_norm_sq": grad_norm_sq,
    "hessian": hessian,
    "gauss_curvature": lambda g, f, p: gauss_curvature(g, p),
}


def unit_disk_metric(E, G):
    return Metric2D(E, G, lambda u, v: u * u + v * v < 1.0, kind="custom")


NEGATIVE_FD = constant_field(-1.0).without_exact(0.5)
OUTSIDE = (DomainError, r"point \(0\.9, 0\.9\) outside the poincare_disk chart domain$")
STENCIL_F = (DomainError, r"finite-difference stencil of half-width 0\.01 at \(0\.995, 0\.0\) "
                          r"leaves the poincare_disk chart domain$")
STENCIL_G = (DomainError, r"finite-difference stencil of half-width 0\.0001 at \(0\.99995, 0\.0\) "
                          r"leaves the poincare_disk chart domain$")
STENCIL_HALF = (DomainError, r"stencil of half-width 0\.5 at \(0\.6, 0\.0\) leaves the custom chart")
NEGATIVE = (PositivityError, r"metric components must be positive, got E=-1\.0, G=-1\.0 at \(0\.0, 0\.0\)$")
HUGE_NEGATIVE = (PositivityError, r"metric components must be positive, got E=-1e\+300")
BRIOSCHI = (DomainError, r"outside the double-precision range of the curvature formula")

# (metric, field, point, outcome per operator); None is a finite value.
# The checks run chart, then the widest stencil among the fields an operator
# reads, then positivity of E and G, then gauss_curvature's Brioschi range,
# so a case that fails two of them names the earlier one.
GUARD_CASES = {
    "outside the chart": (
        DISK, FSTAR, Point2(0.9, 0.9), dict.fromkeys(OPERATORS, OUTSIDE)),
    "outside the chart before stencil and positivity": (
        unit_disk_metric(NEGATIVE_FD, NEGATIVE_FD), NEGATIVE_FD, Point2(1.0, 0.0),
        dict.fromkeys(OPERATORS, (DomainError, r"^point \(1\.0, 0\.0\) outside the custom chart domain$"))),
    "the field's stencil leaves the chart": (
        DISK, FSTAR.without_exact(1e-2), Point2(0.995, 0.0),
        {"laplace_beltrami": STENCIL_F, "grad_norm_sq": STENCIL_F, "hessian": STENCIL_F,
         "gauss_curvature": None}),
    "the metric's stencil leaves the chart": (
        DISK.with_fd_derivatives(), FSTAR, Point2(0.99995, 0.0),
        {"laplace_beltrami": STENCIL_G, "grad_norm_sq": None, "hessian": STENCIL_G,
         "gauss_curvature": STENCIL_G}),
    "the widest stencil is checked": (
        DISK.with_fd_derivatives(), FSTAR.without_exact(1e-2), Point2(0.995, 0.0),
        {"laplace_beltrami": STENCIL_F, "grad_norm_sq": STENCIL_F, "hessian": STENCIL_F,
         "gauss_curvature": None}),
    "stencil before positivity": (
        unit_disk_metric(NEGATIVE_FD, NEGATIVE_FD), coordinate_u().without_exact(0.5),
        Point2(0.6, 0.0), dict.fromkeys(OPERATORS, STENCIL_HALF)),
    "non-positive components": (
        unit_disk_metric(constant_field(-1.0), constant_field(-1.0)), coordinate_u(),
        Point2(0.0, 0.0), dict.fromkeys(OPERATORS, NEGATIVE)),
    "positivity before the Brioschi range": (
        # E G overflows, so sqrt(EG) = inf is outside BRIOSCHI_SCALE too
        unit_disk_metric(constant_field(-1e300), constant_field(-1e300)), coordinate_u(),
        Point2(0.0, 0.0), dict.fromkeys(OPERATORS, HUGE_NEGATIVE)),
    "the Brioschi range is gauss_curvature's alone": (
        rescale(DISK, 1e105), FSTAR, Point2(0.1, 0.2),
        {"laplace_beltrami": None, "grad_norm_sq": None, "hessian": None,
         "gauss_curvature": BRIOSCHI}),
}


@pytest.mark.parametrize("case", GUARD_CASES)
@pytest.mark.parametrize("name", OPERATORS)
def test_operator_guards_and_their_order(name, case):
    g, f, p, outcomes = GUARD_CASES[case]
    outcome = outcomes[name]
    if outcome is None:
        value = OPERATORS[name](g, f, p)
        assert all(map(math.isfinite, value if isinstance(value, tuple) else (value,)))
        return
    error, message = outcome
    with pytest.raises(error, match=message) as raised:
        OPERATORS[name](g, f, p)
    assert type(raised.value) is error


# ---------------------------------------------------------------------------
# rescale
# ---------------------------------------------------------------------------


class TestRescale:
    def test_identity(self):
        g = rescale(DISK, 1.0)
        p = Point2(0.3, 0.3)
        assert g.components(p) == DISK.components(p)

    def test_curvature_scaling(self):
        g = rescale(DISK, 2.0)
        for p in (Point2(0.1, 0.0), Point2(0.3, -0.4), Point2(-0.5, 0.2)):
            assert gauss_curvature(g, p) == pytest.approx(-0.5, abs=1e-12)

    def test_laplacian_scaling(self):
        g = rescale(DISK, 0.5)
        f = poly_field({(2, 0): 1.0, (0, 2): 1.0})
        assert laplace_beltrami(g, f, Point2(0.5, 0.0)) == pytest.approx(1.125, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rescale(DISK, 0.0)
        with pytest.raises(ValueError):
            rescale(DISK, -2.0)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_fd_metric_curvature_scaling(self, c):
        # the certificate's central differences of a rescaled metric, at
        # the default step, still give K_cg = K_g / c
        g = rescale(DISK, c).with_fd_derivatives()
        assert isinstance(g.E, CentralDifferences) and g.E.step == 1e-4
        for p in (Point2(0.1, 0.0), Point2(0.3, -0.4), Point2(-0.5, 0.2)):
            assert gauss_curvature(g, p) == pytest.approx(
                -1.0 / c, abs=TOLERANCES["curvature"])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

points = st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)).map(lambda t: Point2(*t))

smooth_fields = st.sampled_from([
    FSTAR,
    poly_field({(0, 0): 1.0, (2, 0): 0.5, (0, 2): -0.25, (1, 1): 1.5}),
    poly_field({(1, 0): 2.0, (0, 1): -1.0, (3, 0): 0.2}),
    radial_field(poly_profile([1.0, 0.5, 0.25])),
])


class TestInvariants:
    @given(p=points, alpha=st.floats(-3, 3), beta=st.floats(-3, 3),
           f1=smooth_fields, f2=smooth_fields)
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, p, alpha, beta, f1, f2):
        combo = linear_combination(alpha, f1, beta, f2)
        lhs = laplace_beltrami(DISK, combo, p)
        rhs = (alpha * laplace_beltrami(DISK, f1, p)
               + beta * laplace_beltrami(DISK, f2, p))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(p=points, f=smooth_fields)
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, p, f):
        lhs = laplace_beltrami(DISK, square(f), p)
        rhs = (2.0 * f.val(p) * laplace_beltrami(DISK, f, p)
               + 2.0 * grad_norm_sq(DISK, f, p))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(p=points, f=smooth_fields)
    @settings(max_examples=60, deadline=None)
    def test_trace_consistency(self, p, f):
        h11, _, h22 = hessian(DISK, f, p)
        E, G = DISK.components(p)
        trace = h11 / E + h22 / G
        assert trace == pytest.approx(laplace_beltrami(DISK, f, p), rel=1e-9, abs=1e-9)

    @given(p=points, c=st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_rescale_contract(self, p, c):
        g = rescale(DISK, c)
        assert laplace_beltrami(g, FSTAR, p) == pytest.approx(
            laplace_beltrami(DISK, FSTAR, p) / c, rel=1e-11)
        assert grad_norm_sq(g, FSTAR, p) == pytest.approx(
            grad_norm_sq(DISK, FSTAR, p) / c, rel=1e-11)
        assert gauss_curvature(g, p) == pytest.approx(-1.0 / c, rel=1e-11)

    def test_fd_vs_exact_second_order(self):
        p = Point2(0.3, 0.2)
        exact = laplace_beltrami(DISK, FSTAR, p)
        errs = []
        for h in (1e-3, 5e-4):
            fd = FSTAR.without_exact(h)
            errs.append(abs(laplace_beltrami(DISK, fd, p) - exact))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5


class TestGenericMetricOracle:
    """Sympy oracle on an orthogonal metric with E != G, both depending on u
    and v, and a field with f_v != 0 and f_uv != 0.  The model metrics are
    conformal and their fields depend on one coordinate or have no mixed
    Hessian, which leaves the f_v / G term, the signs of the mixed
    Christoffel terms and the tensor residual's a12 unchecked.  The closed
    forms come from the general coordinate formulas (Levi-Civita symbols of
    the metric matrix, the divergence-form Laplacian and K = R_1212 / det g),
    not from the orthogonal-coordinate shortcuts of the kernel, and the
    Einstein residuals from the equations of the `einstein` docstring."""

    E = {(0, 0): 2.0, (1, 0): 0.5, (1, 1): 0.375, (0, 2): 0.25}
    G = {(0, 0): 1.0, (0, 1): 0.5, (2, 0): 0.75, (1, 1): -0.25}
    F = {(0, 0): 1.5, (1, 0): 0.25, (0, 1): 0.75, (1, 1): 0.5, (0, 2): -0.125}
    POINTS = [(0.25, 0.5), (0.5, 0.125), (0.625, 0.375)]
    M, LAM = 3, -2.0

    @pytest.fixture(scope="class")
    def closed_forms(self):
        sp = pytest.importorskip("sympy")
        u, v = x = sp.symbols("u v")

        def poly(coeffs):
            return sum(sp.Rational(c) * u ** i * v ** j for (i, j), c in coeffs.items())

        g, f = sp.diag(poly(self.E), poly(self.G)), poly(self.F)
        ginv, det = g.inv(), g.det()
        pairs = [(i, j) for i in range(2) for j in range(2)]
        gamma = [[[sum(ginv[k, l] * (sp.diff(g[l, i], x[j]) + sp.diff(g[l, j], x[i])
                                     - sp.diff(g[i, j], x[l])) for l in range(2)) / 2
                   for j in range(2)] for i in range(2)] for k in range(2)]

        def riemann(a, b, c, d):  # R^a_bcd
            return (sp.diff(gamma[a][d][b], x[c]) - sp.diff(gamma[a][c][b], x[d])
                    + sum(gamma[a][c][e] * gamma[e][d][b] - gamma[a][d][e] * gamma[e][c][b]
                          for e in range(2)))

        K = sum(g[0, a] * riemann(a, 1, 0, 1) for a in range(2)) / det
        hess = [[sp.diff(f, x[i], x[j]) - sum(gamma[k][i][j] * sp.diff(f, x[k]) for k in range(2))
                 for j in range(2)] for i in range(2)]
        m, lam = self.M, sp.Rational(self.LAM)
        residual = [[K * g[i, j] - m / f * hess[i][j] - lam * g[i, j] for j in range(2)]
                    for i in range(2)]
        gradsq = sum(ginv[i, j] * sp.diff(f, x[i]) * sp.diff(f, x[j]) for i, j in pairs)
        lap = sum(sp.diff(sp.sqrt(det) * ginv[i, j] * sp.diff(f, x[j]), x[i])
                  for i, j in pairs) / sp.sqrt(det)
        forms = {
            "grad_norm_sq": gradsq,
            "laplace_beltrami": lap,
            "gauss_curvature": K,
            "hessian": (hess[0][0], hess[0][1], hess[1][1]),
            "tensor_residual": (residual[0][0], residual[0][1], residual[1][1]),
            # R_B = 2K on a surface
            "contracted_residual": 2 * K * f - m * lap - 2 * f * lam,
            "scalar_constraint_residual": f * lap + (m - 1) * gradsq + lam * f ** 2,
            "vertical_ricci_coeff": lap / f + (m - 1) * gradsq / f ** 2,
        }

        def at(expr, pu, pv):
            return float(expr.subs({u: sp.Rational(pu), v: sp.Rational(pv)}).evalf(30))

        return forms, at

    @pytest.mark.parametrize("point", POINTS)
    def test_operators_match_the_closed_forms(self, closed_forms, point):
        forms, at = closed_forms
        g = Metric2D(poly_field(self.E), poly_field(self.G), lambda u, v: True)
        f, p, m, lam = poly_field(self.F), Point2(*point), self.M, self.LAM
        got = {
            "grad_norm_sq": grad_norm_sq(g, f, p),
            "laplace_beltrami": laplace_beltrami(g, f, p),
            "gauss_curvature": gauss_curvature(g, p),
            "hessian": hessian(g, f, p),
            "tensor_residual": tensor_residual(g, f, m, lam, p),
            "contracted_residual": contracted_residual(g, f, m, lam, p),
            "scalar_constraint_residual": scalar_constraint_residual(g, f, m, lam, p),
            "vertical_ricci_coeff": vertical_ricci_coeff(
                f.val(p), laplace_beltrami(g, f, p), grad_norm_sq(g, f, p), m),
        }
        for name, want in forms.items():
            want = tuple(at(w, *point) for w in want) if isinstance(want, tuple) else at(want, *point)
            assert got[name] == pytest.approx(want, rel=1e-12), name


# ---------------------------------------------------------------------------
# misc structure
# ---------------------------------------------------------------------------


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point2(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, math.inf)


def test_hessian_of_the_coordinates_reads_the_christoffel_symbols():
    # Hess(u)_ij = -Gamma^u_ij and Hess(v)_ij = -Gamma^v_ij: zero on the flat
    # chart, and on the disk, where d ln E = 4 (u du + v dv) / (1 - r^2),
    # the symbols are +-2u/(1 - r^2) and +-2v/(1 - r^2)
    u, v = coordinate_u(), poly_field({(0, 1): 1.0})
    p = Point2(0.7, -0.2)
    assert hessian(FLAT, u, p) == (0.0, 0.0, 0.0)
    assert hessian(FLAT, v, p) == (0.0, 0.0, 0.0)
    x, y = 0.3, -0.4
    d = 1.0 - x * x - y * y
    p = Point2(x, y)
    assert hessian(DISK, u, p) == pytest.approx((-2 * x / d, -2 * y / d, 2 * x / d), rel=1e-12)
    assert hessian(DISK, v, p) == pytest.approx((2 * y / d, -2 * x / d, -2 * y / d), rel=1e-12)


def test_deriv_mode_tags():
    # the derivative source is the type: exact fields vs. central differences
    assert isinstance(FSTAR, ScalarField2D)
    assert isinstance(coordinate_u(), ScalarField2D)
    fd = FSTAR.without_exact()
    assert isinstance(fd, CentralDifferences)
    assert fd.step == 1e-4
    assert FSTAR.without_exact(1e-3).step == 1e-3
    fd_metric = DISK.with_fd_derivatives()
    assert isinstance(fd_metric.E, CentralDifferences)
    assert isinstance(fd_metric.G, CentralDifferences)


@pytest.mark.parametrize("given", [1, 2, 4])
def test_partial_set_of_partials_rejected(given):
    z = lambda u, v: 0.0
    with pytest.raises(TypeError):
        ScalarField2D(fstar_value, *([z] * given))


@pytest.mark.parametrize("step", [0.0, -1e-4, math.nan, math.inf])
def test_central_differences_step_must_be_finite_positive(step):
    with pytest.raises(ValueError):
        CentralDifferences(fstar_value, step)


def test_profile_field_axis_v():
    f = profile_field(poly_profile([0.0, 0.0, 1.0]), axis="v")
    p = Point2(2.0, 1.5)
    assert f.val(p) == pytest.approx(2.25)
    assert f.grad(p) == (0.0, pytest.approx(3.0))


def test_fd_field_on_scalarfield_mode():
    f = CentralDifferences(fstar_value, 1e-4)
    p = Point2(0.2, 0.1)
    fu, fv = f.grad(p)
    eu, ev = FSTAR.grad(p)
    assert fu == pytest.approx(eu, rel=1e-6)
    assert fv == pytest.approx(ev, rel=1e-6)


def test_coordinate_u_matches_the_polynomial_field_bit_for_bit():
    # the closed-form coordinate field gives the values of the general
    # polynomial evaluator on the verify strip, every one of them a float
    closed, poly = coordinate_u(), poly_field({(1, 0): 1.0})
    for p in strip_points(strip_samples()):
        got, want = jet(closed, p.u, p.v), jet(poly, p.u, p.v)
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [float(x).hex() for x in want]


# ---------------------------------------------------------------------------
# field kinds against the lambda-per-partial construction
# ---------------------------------------------------------------------------


def bits(values):
    return [x.hex() for x in values]


def swapped(p):
    return Point2(p.v, p.u)


class TestFieldKindsMatchCallbacks:
    """Profile fields on either axis, the coordinate field and scaled fields
    answer val/grad/second through methods, with literal zeros and scaling
    applied to results.  At every verify strip point each returns the
    doubles of the one-callback-per-partial construction, and its
    central-difference twin the values of that construction's twin at
    every stencil point."""

    @pytest.fixture(scope="class", params=[(3, 1.0, REDERIVED), (5, 0.6, PUBLISHED)],
                    ids=["m3_beta1", "m5_beta0.6_published"])
    def case(self, request):
        # the metric profiles E = 1/p^2 and G = s^2, the rescaling to the
        # base metric and the pair itself, as `verify` builds them
        m, beta, variant = request.param
        root = next(r for r in solve_lambda(relation_poly(m, beta, variant))["roots"]
                    if r["admissible"])
        pq = pq_from_params(m, root["value"], beta)
        samples = strip_samples()
        s = integrate_s(pq, samples[0], samples[-1])
        profiles = (const_profile(1.0, domain=pq.p.domain) / (pq.p * pq.p), s * s)
        return profiles, 1.0 / (-root["K"]), (pq, s)

    POINTS = strip_points(strip_samples())

    @staticmethod
    def assert_same(new, old, points):
        for p in points:
            assert bits(jet(new, p.u, p.v)) == bits(jet(old, p.u, p.v))
        fd_new, fd_old = new.without_exact(), old.without_exact()
        h = fd_new.step
        for p in points:
            for su in (-1.0, 0.0, 1.0):
                for sv in (-1.0, 0.0, 1.0):
                    q = Point2(p.u + su * h, p.v + sv * h)
                    assert fd_new.val(q).hex() == fd_old.val(q).hex()

    @pytest.mark.parametrize("axis", ["u", "v"])
    def test_profile_field(self, case, axis):
        profiles, _, _ = case
        points = self.POINTS if axis == "u" else [swapped(p) for p in self.POINTS]
        for profile in profiles:
            self.assert_same(profile_field(profile, axis),
                             callback_profile_field(profile, axis), points)

    @pytest.mark.parametrize("axis", ["u", "v"])
    def test_scaled_profile_field(self, case, axis):
        profiles, c, _ = case
        points = self.POINTS if axis == "u" else [swapped(p) for p in self.POINTS]
        for profile in profiles:
            self.assert_same(profile_field(profile, axis) * c,
                             callback_profile_field(profile, axis, scale=c), points)

    def test_rescaled_constructed_metric(self, case):
        (E, G), c, (pq, s) = case
        g = rescale(build_metric(pq, s), c)
        self.assert_same(g.E, callback_profile_field(E, scale=c), self.POINTS)
        self.assert_same(g.G, callback_profile_field(G, scale=c), self.POINTS)

    @pytest.mark.parametrize("c", [2.5, 1.0 / 3.0])
    def test_scaled_field_multiplies_every_result(self, c):
        # fields whose six entries are all nonzero off the axes
        points = [Point2(0.3, -0.4), Point2(-0.5, 0.2), Point2(0.1, 0.6)]
        for f in (FSTAR, poly_field({(2, 1): 1.5, (1, 3): -0.7, (0, 0): 2.0})):
            scaled = f * c
            for p in points:
                assert bits(jet(scaled, p.u, p.v)) == bits(c * x for x in jet(f, p.u, p.v))
                assert (scaled.without_exact().val(p).hex()
                        == (c * f.without_exact().val(p)).hex())

    def test_coordinate_u(self):
        one, z = (lambda u, v: 1.0), (lambda u, v: 0.0)
        old = ScalarField2D(lambda u, v: u + 0.0, one, z, z, z, z)
        self.assert_same(coordinate_u(), old, self.POINTS + [Point2(-0.0, 1.0)])
