"""Geometry kernel: operator examples, model curvature oracles, invariants.

Derived expected values are frozen from independent closed-form oracles:
the conformal Laplacian reduction, the radial Laplacian f'' + f'/r, and
the conformal-log curvature formula K = -lap_euc(log E) / (2E).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from warpverify.errors import DomainError, PositivityError
from warpverify.geometry2d import (
    Metric2D, Point2, ScalarField2D, SymMat2,
    christoffel_symbols, constant_field, coordinate_u, coordinate_v,
    cosh_distance_field, flat_metric, gauss_curvature,
    grad_norm_sq, hessian, laplace_beltrami, poincare_disk,
    poincare_half_plane, poly_field, profile_field, radial_field, rescale,
)
from warpverify.profiles import poly_profile

DISK = poincare_disk()
HALF_PLANE = poincare_half_plane()
FLAT = flat_metric()

FSTAR = cosh_distance_field()


def fstar_value(u, v):
    r2 = u * u + v * v
    return (1.0 + r2) / (1.0 - r2)


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
        r = math.sqrt(p.r2)
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
        assert (H.a11, H.a12, H.a22) == (2.0, 0.0, 0.0)

    def test_constant_field_zero(self):
        H = hessian(DISK, constant_field(3.0), Point2(0.2, -0.1))
        assert H.max_abs() == 0.0

    def test_cosh_distance_is_metric_multiple(self):
        p = Point2(0.5, 0.0)
        H = hessian(DISK, FSTAR, p)
        E, G = DISK.components(p)
        fv = FSTAR.val(p)
        assert H.a11 == pytest.approx(fv * E, rel=1e-12)
        assert H.a22 == pytest.approx(fv * G, rel=1e-12)
        assert H.a12 == pytest.approx(0.0, abs=1e-12)


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
        combo = alpha * f1 + beta * f2
        lhs = laplace_beltrami(DISK, combo, p)
        rhs = (alpha * laplace_beltrami(DISK, f1, p)
               + beta * laplace_beltrami(DISK, f2, p))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(p=points, f=smooth_fields)
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, p, f):
        lhs = laplace_beltrami(DISK, f * f, p)
        rhs = (2.0 * f.val(p) * laplace_beltrami(DISK, f, p)
               + 2.0 * grad_norm_sq(DISK, f, p))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(p=points, f=smooth_fields)
    @settings(max_examples=60, deadline=None)
    def test_trace_consistency(self, p, f):
        H = hessian(DISK, f, p)
        E, G = DISK.components(p)
        trace = H.a11 / E + H.a22 / G
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


# ---------------------------------------------------------------------------
# misc structure
# ---------------------------------------------------------------------------


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point2(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, math.inf)


def test_symmat_max_abs():
    assert SymMat2(1.0, -3.0, 2.0).max_abs() == 3.0


def test_christoffel_flat_vanishes():
    gam = christoffel_symbols(FLAT, Point2(0.7, -0.2))
    assert all(v == 0.0 for v in gam.values())


def test_deriv_mode_tags():
    assert FSTAR.deriv_mode == "exact"
    assert ScalarField2D(fstar_value).deriv_mode == "finite_difference"
    assert coordinate_v().deriv_mode == "exact"


@pytest.mark.parametrize("given", [1, 2, 4])
def test_partial_set_of_partials_rejected(given):
    z = lambda u, v: 0.0
    with pytest.raises(ValueError):
        ScalarField2D(fstar_value, *([z] * given))


def test_profile_field_axis_v():
    f = profile_field(poly_profile([0.0, 0.0, 1.0]), axis="v")
    p = Point2(2.0, 1.5)
    assert f.val(p) == pytest.approx(2.25)
    assert f.grad(p) == (0.0, pytest.approx(3.0))


def test_fd_field_on_scalarfield_mode():
    f = ScalarField2D(fstar_value, fd_step=1e-4)
    p = Point2(0.2, 0.1)
    fu, fv = f.grad(p)
    eu, ev = FSTAR.grad(p)
    assert fu == pytest.approx(eu, rel=1e-6)
    assert fv == pytest.approx(ev, rel=1e-6)
