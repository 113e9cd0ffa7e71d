"""Profile reduction: compatibility ODE, pair generation, s-integration,
constructed metric, and the two-sided pseudospherical certificate."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from warpverify.compatibility import (
    PQPair, build_metric, compat_residual, integrate_s,
    max_compat_residual_for_params, pq_from_params, strip_samples,
    verify_pseudospherical,
)
from warpverify.errors import AdmissibilityError, DomainError, PositivityError
from warpverify.geometry2d import Point2, gauss_curvature
from warpverify.profiles import (
    ProfileFn, const_profile, linear_profile, poly_profile, sqrt_profile,
)


def cosh_family(domain=(1.0, math.inf)):
    """p = sqrt(t^2 - 1), q = 2t / sqrt(t^2 - 1): the cosh-of-distance
    warping profile on a curvature -1 surface."""
    t2m1 = poly_profile([-1.0, 0.0, 1.0], domain=domain)
    p = sqrt_profile(t2m1)
    q = poly_profile([0.0, 2.0], domain=domain) / p
    return PQPair(p, q)


def no_structure(fn, d1, d2, domain):
    """Profile with callbacks but no structural tag, to force quadrature."""
    return ProfileFn(fn, d1, d2, domain=domain)


class TestCompatResidual:
    def test_constant_pair(self):
        pq = PQPair(const_profile(1.0), const_profile(0.0))
        assert compat_residual(pq, 17.3) == 1.0

    def test_linear_p_constant_q(self):
        pq = PQPair(linear_profile(1.0, 0.0, domain=(0.0, math.inf)),
                    const_profile(2.0))
        assert compat_residual(pq, 5.0) == pytest.approx(0.0, abs=1e-14)

    def test_cosh_family_collapses(self):
        pq = cosh_family()
        assert compat_residual(pq, 2.0) == pytest.approx(0.0, abs=1e-12)
        for t in (1.3, 1.9, 3.7, 8.0):
            assert compat_residual(pq, t) == pytest.approx(0.0, abs=1e-9)

    def test_requires_positive_p(self):
        pq = PQPair(const_profile(-1.0), const_profile(0.0))
        with pytest.raises(PositivityError):
            compat_residual(pq, 1.0)

    @given(a=st.floats(0.1, 5.0), c=st.floats(-5.0, 5.0), t=st.floats(0.1, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_linear_pair_closed_form(self, a, c, t):
        # residual of (p = a t, q = c) is exactly 1 - (c - a)^2
        pq = PQPair(linear_profile(a, 0.0, domain=(0.0, math.inf)),
                    const_profile(c))
        expected = 1.0 - (c - a) ** 2
        assert compat_residual(pq, t) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestPqFromParams:
    @pytest.mark.parametrize("m,lam", [(3, -2.0), (2, -1.5), (4, -2.5)])
    def test_unit_beta_gives_identity_slope_and_q_two(self, m, lam):
        pq = pq_from_params(m, lam, 1.0)
        assert pq.rescaled
        assert pq.p.d1(1.0) == pytest.approx(1.0, rel=1e-14)
        assert pq.p(1.7) == pytest.approx(1.7, rel=1e-14)
        assert pq.q(0.4) == pytest.approx(2.0, rel=1e-14)

    def test_rescaling_formulas(self):
        m, lam, beta = 5, -4.0, 1.5
        A = -(lam + beta)
        K = lam + m * beta / 2.0
        pq = pq_from_params(m, lam, beta)
        assert pq.p(2.0) == pytest.approx(
            2.0 * math.sqrt(A) / math.sqrt((m - 1) * (-K)), rel=1e-14)
        assert pq.q(2.0) == pytest.approx(
            beta * math.sqrt(m - 1) / (math.sqrt(A) * math.sqrt(-K)), rel=1e-14)

    def test_inadmissible_raises(self):
        with pytest.raises(AdmissibilityError) as ei:
            pq_from_params(3, 3.0, 1.0)
        assert ei.value.reason == "lambda_plus_beta"
        with pytest.raises(AdmissibilityError) as ei:
            pq_from_params(3, -1.0, 1.0)
        assert ei.value.reason == "degenerate"
        with pytest.raises(AdmissibilityError) as ei:
            pq_from_params(8, -1.5, 1.0)   # K = 2.5 > 0
        assert ei.value.reason == "base_curvature"
        with pytest.raises(AdmissibilityError) as ei:
            pq_from_params(1, -2.0, 1.0)
        assert ei.value.reason == "fiber_dimension"

    def test_beta_must_be_positive(self):
        for beta in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                pq_from_params(3, -2.0, beta)
        for lam in (math.nan, -math.inf, math.inf):
            with pytest.raises(ValueError, match="lambda must be finite"):
                pq_from_params(3, lam, 1.0)


class TestIntegrateS:
    def test_zero_log_derivative(self):
        pq = PQPair(linear_profile(1.0, 0.0, domain=(0.0, math.inf)),
                    const_profile(1.0))
        s = integrate_s(pq, 1.0, 3.0)
        for t in (1.0, 1.7, 2.9):
            assert s(t) == pytest.approx(1.0, rel=1e-13)

    def test_linear_exponent_one(self):
        pq = PQPair(linear_profile(1.0, 0.0, domain=(0.0, math.inf)),
                    const_profile(2.0))
        s = integrate_s(pq, 1.0, 4.0)
        assert s(2.5) == pytest.approx(2.5, rel=1e-13)
        assert s.d1(2.5) == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_exponent(self):
        pq = PQPair(linear_profile(1.0, 0.0, domain=(0.0, math.inf)),
                    const_profile(3.0))
        s = integrate_s(pq, 1.0, 2.0)
        assert s(2.0) == pytest.approx(4.0, rel=1e-13)

    def test_quadrature_matches_closed_form(self):
        # same pair without structural tags takes the quadrature path
        pq = PQPair(
            no_structure(lambda t: t, lambda t: 1.0, lambda t: 0.0, (0.0, math.inf)),
            no_structure(lambda t: 3.0, lambda t: 0.0, lambda t: 0.0, (0.0, math.inf)))
        s = integrate_s(pq, 1.0, 2.0)
        assert s(2.0) == pytest.approx(4.0, abs=1e-9)
        assert s(1.5) == pytest.approx(2.25, abs=1e-9)
        assert s.d1(1.5) == pytest.approx(3.0, abs=1e-8)
        assert s.d2(1.5) == pytest.approx(2.0, abs=1e-8)

    def test_normalization(self):
        pq = cosh_family()
        s = integrate_s(pq, 1.5, 4.0)
        assert s(1.5) == pytest.approx(1.0, abs=1e-12)

    def test_uniqueness_up_to_constant(self):
        pq = cosh_family()
        s_a = integrate_s(pq, 1.5, 4.0)
        s_b = integrate_s(pq, 2.0, 4.0)
        ratios = [s_a(t) / s_b(t) for t in (1.7, 2.3, 3.1, 3.9)]
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], rel=1e-9)

    def test_cosh_family_closed_form_cross_check(self):
        # s'/s = t/(t^2-1) integrates to s = sqrt((t^2-1)/(f0^2-1))
        pq = cosh_family()
        f0 = 1.5
        s = integrate_s(pq, f0, 4.0)
        for t in (1.6, 2.0, 3.5):
            ref = math.sqrt((t * t - 1.0) / (f0 * f0 - 1.0))
            assert s(t) == pytest.approx(ref, rel=1e-9)

    def test_constant_p_exponential(self):
        pq = PQPair(const_profile(2.0), const_profile(1.0))
        s = integrate_s(pq, 1.0, 3.0)
        assert s(2.0) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_affine_p_closed_form(self):
        # p = t + 1, q = 3: s = ((t+1)/(f0+1))^2
        pq = PQPair(linear_profile(1.0, 1.0, domain=(-1.0, math.inf)),
                    const_profile(3.0))
        s = integrate_s(pq, 1.0, 4.0)
        assert s(3.0) == pytest.approx(4.0, rel=1e-12)

    def test_interval_validation(self):
        pq = cosh_family()
        with pytest.raises(ValueError):
            integrate_s(pq, 2.0, 2.0)
        with pytest.raises(DomainError):
            integrate_s(pq, 0.5, 2.0)

    def test_vanishing_p_rejected(self):
        pq = PQPair(linear_profile(1.0, -2.0, domain=(0.0, math.inf)),
                    const_profile(1.0))
        with pytest.raises(PositivityError):
            integrate_s(pq, 1.0, 3.0)


class TestBuildMetric:
    def test_flat_construction(self):
        g = build_metric(PQPair(const_profile(1.0), const_profile(0.0)),
                         const_profile(1.0))
        assert gauss_curvature(g, Point2(0.7, -2.0)) == pytest.approx(0.0, abs=1e-14)

    def test_identity_profiles_pseudosphere(self):
        pos = (0.0, math.inf)
        g = build_metric(
            PQPair(linear_profile(1.0, 0.0, domain=pos), const_profile(2.0)),
            linear_profile(1.0, 0.0, domain=pos))
        p = Point2(1.3, 0.4)
        E, G = g.components(p)
        assert E == pytest.approx(1.0 / 1.69, rel=1e-14)
        assert G == pytest.approx(1.69, rel=1e-14)
        for q in (Point2(0.5, 0.0), p, Point2(3.0, -1.0)):
            assert gauss_curvature(g, q) == pytest.approx(-1.0, rel=1e-12)

    def test_cosh_family_pseudosphere_fd_brioschi(self):
        pq = cosh_family()
        f0 = 1.5
        s = sqrt_profile(poly_profile([-1.0, 0.0, 1.0], domain=(1.0, math.inf)))
        s = s * (1.0 / math.sqrt(f0 * f0 - 1.0))
        g = build_metric(pq, s).with_fd_derivatives()
        for q in (Point2(1.8, 0.3), Point2(2.5, 0.0), Point2(3.6, -0.7)):
            assert gauss_curvature(g, q) == pytest.approx(-1.0, abs=1e-5)

    def test_cosh_family_with_quadrature_s(self):
        pq = cosh_family()
        s = integrate_s(pq, 1.5, 4.0)
        g = build_metric(pq, s)
        for q in (Point2(1.8, 0.3), Point2(2.5, 0.0), Point2(3.6, -0.7)):
            assert gauss_curvature(g, q) == pytest.approx(-1.0, abs=1e-9)
        gfd = g.with_fd_derivatives()
        for q in (Point2(1.8, 0.3), Point2(2.5, 0.0)):
            assert gauss_curvature(gfd, q) == pytest.approx(-1.0, abs=1e-5)

    def test_positivity_guard(self):
        pq = PQPair(const_profile(1.0), const_profile(0.0))
        with pytest.raises(PositivityError):
            build_metric(pq, const_profile(-1.0))


class TestVerifyPseudospherical:
    def test_admissible_root_pipeline(self):
        pq = pq_from_params(3, -2.0, 1.0)
        rep = verify_pseudospherical(pq, strip_samples(), tol=1e-6)
        assert rep.max_abs_curvature_plus_one < 1e-6
        assert rep.max_abs_compat_residual < 1e-10
        assert rep.passed and rep.certificates_agree
        assert rep.sample_count == 256

    def test_flat_pair_fails_both_ways(self):
        pq = PQPair(const_profile(1.0), const_profile(0.0))
        rep = verify_pseudospherical(pq, strip_samples(), tol=1e-5)
        assert rep.max_abs_compat_residual == pytest.approx(1.0)
        assert rep.max_abs_curvature_plus_one == pytest.approx(1.0, abs=1e-7)
        assert not rep.compat_ok and not rep.curvature_ok
        assert rep.certificates_agree

    def test_inadmissible_params_raise_before_verification(self):
        with pytest.raises(AdmissibilityError):
            pq_from_params(3, 3.0, 1.0)

    def test_exact_mode_tightens(self):
        # the profiles' closed-form derivatives over the same 32x8 strip
        pq = pq_from_params(3, -2.0, 1.0)
        samples = strip_samples()
        g = build_metric(pq, integrate_s(pq, samples[0], samples[-1]))
        h_coords = [-1.0 + 2.0 * j / 7 for j in range(8)]
        worst = max(abs(gauss_curvature(g, Point2(t, hc)) + 1.0)
                    for t in samples for hc in h_coords)
        assert worst < 1e-10

    @pytest.mark.parametrize("m,beta", [(3, 0.5), (5, 1.0), (9, 2.0)])
    def test_equivalence_over_admissible_family(self, m, beta):
        from warpverify.relation import poly_rederived, solve_lambda
        lam = solve_lambda(poly_rederived(m, beta)).admissible_roots[0]
        pq = pq_from_params(m, lam, beta)
        rep = verify_pseudospherical(pq, strip_samples(), tol=1e-5)
        assert rep.max_abs_compat_residual <= 1e-8
        assert rep.max_abs_curvature_plus_one <= 1e-5
        assert rep.certificates_agree

    def test_equivalence_fails_together_for_near_miss(self):
        # small perturbation of an admissible pair breaks both certificates
        pos = (0.0, math.inf)
        pq = PQPair(linear_profile(1.0, 0.0, domain=pos), const_profile(2.2))
        rep = verify_pseudospherical(pq, strip_samples(), tol=1e-5)
        assert not rep.compat_ok and not rep.curvature_ok
        assert rep.certificates_agree


class TestAdmissibleRootNormalForm:
    @pytest.mark.parametrize("m", range(3, 13))
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_q_minus_slope_is_one(self, m, beta):
        from warpverify.relation import poly_rederived, solve_lambda
        roots = solve_lambda(poly_rederived(m, beta)).admissible_roots
        assert len(roots) == 1
        pq = pq_from_params(m, roots[0], beta)
        assert abs(pq.q(1.0) - pq.p.d1(1.0) - 1.0) < 1e-10


def test_max_compat_residual_helper():
    res, reason = max_compat_residual_for_params(3, 1.0, -2.0)
    assert res < 1e-12 and reason is None
    res, reason = max_compat_residual_for_params(3, 2.0, 5.0)
    assert math.isinf(res) and reason == "lambda_plus_beta"
