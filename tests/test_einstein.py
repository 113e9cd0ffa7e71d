"""Residuals of the warped-product Einstein system."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from warpverify.compatibility import build_metric, integrate_s, pq_from_params
from warpverify.einstein import (
    WarpParams, contracted_residual, residual_report, scalar_constraint_residual,
    tensor_residual, vertical_ricci_coeff,
)
from warpverify.errors import PositivityError
from warpverify.geometry2d import (
    Point2, coordinate_u, gauss_curvature, grad_norm_sq, laplace_beltrami,
    poincare_disk, rescale,
)
from support import constant_field, flat_metric, poly_field, symmat_max_abs

DISK = poincare_disk()
FLAT = flat_metric()


def solution_base_metric(m=3, lam=-2.0, beta=1.0, f0=0.5, f1=4.0):
    """Base metric with curvature K = lam + m beta/2 on which the first
    chart coordinate solves the full warping system."""
    pq = pq_from_params(m, lam, beta)
    s = integrate_s(pq, f0, f1)
    K = lam + m * beta / 2.0
    return rescale(build_metric(pq, s), 1.0 / (-K)), K


class TestTensorResidual:
    def test_trivial_flat(self):
        wp = WarpParams(m=4, lam=0.0)
        T = tensor_residual(FLAT, constant_field(1.0), wp, Point2(0.2, 0.1))
        assert symmat_max_abs(T) == 0.0

    def test_constant_f_leaves_curvature_gap(self):
        # constant f kills the Hessian term; residual = (K - lam) g
        wp = WarpParams(m=3, lam=-2.0)
        p = Point2(0.3, 0.1)
        T = tensor_residual(DISK, constant_field(1.0), wp, p)
        E, G = DISK.components(p)
        assert T.a11 == pytest.approx(E, rel=1e-12)
        assert T.a22 == pytest.approx(G, rel=1e-12)
        assert T.a12 == pytest.approx(0.0, abs=1e-14)

    def test_solution_pipeline_vanishes(self):
        g, K = solution_base_metric()
        wp = WarpParams(m=3, lam=-2.0)
        f = coordinate_u()
        for p in (Point2(0.7, 0.0), Point2(1.5, -0.8), Point2(3.5, 0.9)):
            assert symmat_max_abs(tensor_residual(g, f, wp, p)) < 1e-6

    def test_rejects_positive_lambda_free_nonpositive_f(self):
        wp = WarpParams(m=2, lam=0.0)
        with pytest.raises(PositivityError):
            tensor_residual(DISK, constant_field(-1.0), wp, Point2(0.1, 0.1))


class TestContractedResidual:
    def test_trivial_flat(self):
        wp = WarpParams(m=5, lam=0.0)
        assert contracted_residual(FLAT, constant_field(1.0), wp, Point2(1.0, 2.0)) == 0.0

    def test_harmonic_f_on_disk(self):
        # 2K f - 0 - 2 f lam = 0 when lam = K = -1
        wp = WarpParams(m=2, lam=-1.0)
        got = contracted_residual(DISK, coordinate_u(), wp, Point2(0.3, 0.0))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_ricci_flat_fiber_closure(self):
        g, _ = solution_base_metric()
        wp = WarpParams(m=3, lam=-2.0)
        for p in (Point2(0.6, 0.2), Point2(2.0, -0.5)):
            assert abs(contracted_residual(g, coordinate_u(), wp, p)) < 1e-8


class TestScalarConstraintResidual:
    def test_constant_f_zero_lambda(self):
        wp = WarpParams(m=3, lam=0.0)
        assert scalar_constraint_residual(FLAT, constant_field(2.0), wp,
                                          Point2(0.0, 0.0)) == 0.0

    def test_constant_f_negative_lambda(self):
        # only lam f^2 survives: -c^2 at lam = -1
        wp = WarpParams(m=7, lam=-1.0)
        got = scalar_constraint_residual(FLAT, constant_field(3.0), wp, Point2(0.0, 0.0))
        assert got == pytest.approx(-9.0, rel=1e-14)

    def test_ricci_flat_fiber_closure(self):
        g, _ = solution_base_metric()
        wp = WarpParams(m=3, lam=-2.0)
        for p in (Point2(0.6, 0.2), Point2(2.7, 0.4)):
            assert abs(scalar_constraint_residual(g, coordinate_u(), wp, p)) < 1e-8


class TestVerticalRicci:
    def test_trivial(self):
        assert vertical_ricci_coeff(1.0, 0.0, 0.0, 5) == 0.0

    def test_solution_values(self):
        # lap = f, gradsq = f^2/2: coeff = 1 + (m-1)/2
        assert vertical_ricci_coeff(1.0, 1.0, 0.5, 3) == pytest.approx(2.0)
        assert vertical_ricci_coeff(4.0, 4.0, 8.0, 2) == pytest.approx(1.5)

    def test_rejects_nonpositive_f(self):
        with pytest.raises(PositivityError):
            vertical_ricci_coeff(0.0, 1.0, 1.0, 2)

    @given(f=st.floats(0.1, 10.0), m=st.integers(2, 12),
           beta=st.floats(0.1, 4.0), gap=st.floats(0.01, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_ricci_flat_fiber_identities(self, f, m, beta, gap):
        # impose lap = beta f and |grad f|^2 = -f^2(lam+beta)/(m-1) exactly
        lam = -beta - gap
        lap = beta * f
        gradsq = -f * f * (lam + beta) / (m - 1)
        coeff = vertical_ricci_coeff(f, lap, gradsq, m)
        assert coeff == pytest.approx(-lam, rel=1e-12)
        scalar = f * lap + (m - 1) * gradsq + lam * f * f
        assert scalar == pytest.approx(0.0, abs=1e-10 * max(1.0, f * f))


class TestTraceIdentity:
    @given(p=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)).map(lambda t: Point2(*t)),
           m=st.integers(1, 8), lam=st.floats(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_trace_of_tensor_equals_contracted_over_f(self, p, m, lam):
        f = poly_field({(0, 0): 2.0, (2, 0): 0.3, (1, 1): -0.2, (0, 2): 0.4})
        wp = WarpParams(m=m, lam=lam)
        T = tensor_residual(DISK, f, wp, p)
        E, G = DISK.components(p)
        trace = T.a11 / E + T.a22 / G
        K = gauss_curvature(DISK, p)
        lap = laplace_beltrami(DISK, f, p)
        fv = f.val(p)
        assert trace == pytest.approx(2.0 * K - m * lap / fv - 2.0 * lam,
                                      rel=1e-9, abs=1e-9)
        assert fv * trace == pytest.approx(
            contracted_residual(DISK, f, wp, p), rel=1e-9, abs=1e-9)


class TestSignAtMinimum:
    """With a Ricci-flat fiber the vertical Ricci curvature is <= 0 at an
    interior minimum of the warping function."""

    BUMPS = [
        poly_field({(0, 0): 1.0, (2, 0): 1.0, (0, 2): 1.0}),
        poly_field({(0, 0): 2.0, (2, 0): 0.5, (0, 2): 1.5, (1, 0): 0.1}),
        poly_field({(0, 0): 1.5, (2, 0): 2.0, (0, 2): 2.0, (1, 1): 0.5}),
    ]

    @pytest.mark.parametrize("f", BUMPS)
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_interior_sampled_minimum(self, f, m):
        grid = [Point2(0.06 * i, 0.06 * j)
                for i in range(-10, 11) for j in range(-10, 11)]
        pmin = min(grid, key=f.val)
        fu, fv = f.grad(pmin)
        if math.hypot(fu, fv) > 0.2:
            pytest.skip("sampled minimum not interior")
        coeff = vertical_ricci_coeff(
            f.val(pmin),
            laplace_beltrami(DISK, f, pmin),
            grad_norm_sq(DISK, f, pmin), m)
        assert -coeff <= 1e-12

    def test_solution_family_everywhere(self):
        g, _ = solution_base_metric()
        f = coordinate_u()
        for p in (Point2(0.6, 0.0), Point2(1.0, 0.5), Point2(3.0, -0.9)):
            coeff = vertical_ricci_coeff(
                f.val(p), laplace_beltrami(g, f, p), grad_norm_sq(g, f, p), 3)
            assert -coeff <= 0.0
            assert coeff == pytest.approx(2.0, rel=1e-10)


class TestResidualReport:
    def test_returns_the_printed_entries(self):
        wp = WarpParams(m=3, lam=-2.0)
        points = [Point2(0.0, 0.0), Point2(0.5, 0.0), Point2(0.0, 0.6)]
        rep = residual_report(DISK, constant_field(1.0), wp, points)
        assert list(rep) == ["einstein_max_tensor_residual",
                             "einstein_max_contracted_residual",
                             "einstein_max_scalar_residual"]
        # residual = (K - lam) g grows with the conformal factor
        E06, _ = DISK.components(Point2(0.0, 0.6))
        assert rep["einstein_max_tensor_residual"] == pytest.approx(E06, rel=1e-12)

    def test_mixed_hessian_enters_the_tensor_entry(self):
        # at the disk's origin Hess f is the plain second derivative, so
        # a11 = a22 = (K - lam) E = 4 and a12 = -(m/f) f_uv = -9
        f = poly_field({(0, 0): 1.0, (1, 1): 3.0})
        rep = residual_report(DISK, f, WarpParams(m=3, lam=-2.0), [Point2(0.0, 0.0)])
        assert rep["einstein_max_tensor_residual"] == 9.0

    def test_needs_points(self):
        wp = WarpParams(m=3, lam=-2.0)
        with pytest.raises(ValueError):
            residual_report(DISK, constant_field(1.0), wp, [])


class TestWarpParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WarpParams(m=0, lam=0.0)
