"""Profile reduction: compatibility ODE, pair generation, the closed-form
conformal profile s, constructed metric, and the two-sided pseudospherical
certificate."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from warpverify.compatibility import (
    PQPair, build_metric, compat_residual, integrate_s, pq_from_params,
    strip_points, strip_samples, verify_pseudospherical,
)
from warpverify.errors import AdmissibilityError, DomainError, PositivityError
from warpverify.geometry2d import DEFAULT_FD_STEP, Metric2D, Point2, gauss_curvature
from warpverify.profiles import (
    ProfileFn, const_profile, linear_profile, poly_profile,
)
from support import max_compat_residual_for_params

POS = (0.0, math.inf)


def scaled_sqrt_t2m1(c, domain=(1.0, math.inf)):
    """c sqrt(t^2 - 1) with its closed-form derivatives."""
    return ProfileFn(lambda t: c * math.sqrt(t * t - 1.0),
                     lambda t: c * t / math.sqrt(t * t - 1.0),
                     lambda t: -c * (t * t - 1.0) ** -1.5, domain=domain)


def cosh_family(domain=(1.0, math.inf)):
    """p = sqrt(t^2 - 1), q = 2t / sqrt(t^2 - 1): the cosh-of-distance
    warping profile on a curvature -1 surface."""
    p = scaled_sqrt_t2m1(1.0, domain)
    q = poly_profile([0.0, 2.0], domain=domain) / p
    return PQPair(p, q)


def quadrature_s(pq, f0, panels=2000):
    """s with s(f0) = 1 solving s' = s (q - p')/p, log s by composite
    Simpson over `panels` panels; s' and s'' come from the ODE."""
    p, q = pq.p, pq.q

    def log_deriv(t):
        return (q(t) - p.d1(t)) / p(t)

    def value(t):
        h = (t - f0) / panels
        acc = log_deriv(f0) + log_deriv(t)
        for k in range(1, panels):
            acc += (4.0 if k % 2 else 2.0) * log_deriv(f0 + k * h)
        return math.exp(acc * h / 3.0)

    def d1(t):
        return value(t) * log_deriv(t)

    def d2(t):
        ld = log_deriv(t)
        ld_prime = (q.d1(t) - p.d2(t)) / p(t) - ld * p.d1(t) / p(t)
        return value(t) * (ld * ld + ld_prime)

    return ProfileFn(value, d1, d2, domain=pq.domain)


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
        assert pq.p.structure[0] == "linear" and pq.q.structure[0] == "const"
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

    def test_normalization(self):
        pq = PQPair(linear_profile(1.5, 0.0, domain=POS), const_profile(2.0))
        s = integrate_s(pq, 1.5, 4.0)
        assert s(1.5) == pytest.approx(1.0, abs=1e-12)

    def test_uniqueness_up_to_constant(self):
        pq = PQPair(linear_profile(0.8, 0.0, domain=POS), const_profile(2.9))
        s_a = integrate_s(pq, 1.5, 4.0)
        s_b = integrate_s(pq, 2.0, 4.0)
        ratios = [s_a(t) / s_b(t) for t in (1.7, 2.3, 3.1, 3.9)]
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], rel=1e-12)

    @pytest.mark.parametrize("pq", [
        PQPair(ProfileFn(lambda t: t, lambda t: 1.0, lambda t: 0.0, domain=POS),
               ProfileFn(lambda t: 3.0, lambda t: 0.0, lambda t: 0.0, domain=POS)),
        PQPair(const_profile(2.0), const_profile(1.0)),
        PQPair(linear_profile(1.0, 1.0, domain=(-1.0, math.inf)), const_profile(3.0)),
        PQPair(linear_profile(1.0, 0.0, domain=POS), linear_profile(0.0, 2.0)),
        cosh_family(),
    ], ids=["untagged", "constant-p", "affine-p", "linear-q", "cosh"])
    def test_other_pairs_are_refused(self, pq):
        with pytest.raises(ValueError, match="needs p = a t"):
            integrate_s(pq, 1.5, 4.0)

    def test_interval_validation(self):
        pq = PQPair(linear_profile(1.0, 0.0, domain=(1.0, math.inf)),
                    const_profile(2.0))
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
        # s'/s = t/(t^2 - 1) integrates to s = sqrt((t^2 - 1)/(f0^2 - 1))
        pq = cosh_family()
        f0 = 1.5
        g = build_metric(pq, scaled_sqrt_t2m1(1.0 / math.sqrt(f0 * f0 - 1.0)))
        for q in (Point2(1.8, 0.3), Point2(2.5, 0.0), Point2(3.6, -0.7)):
            assert gauss_curvature(g, q) == pytest.approx(-1.0, abs=1e-9)
        gfd = g.with_fd_derivatives()
        for q in (Point2(1.8, 0.3), Point2(2.5, 0.0), Point2(3.6, -0.7)):
            assert gauss_curvature(gfd, q) == pytest.approx(-1.0, abs=1e-5)

    def test_cosh_family_with_quadrature_s(self):
        # integrate_s refuses the cosh pair, so s is accumulated here from
        # s'/s = (q - p')/p by composite Simpson, independent of the closed form
        pq = cosh_family()
        f0 = 1.5
        s = quadrature_s(pq, f0)
        closed = scaled_sqrt_t2m1(1.0 / math.sqrt(f0 * f0 - 1.0))
        for t in (1.5, 2.2, 3.9):
            assert s(t) == pytest.approx(closed(t), rel=1e-10)
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


def certificates_agree(rep, tol):
    """The compatibility residual within 1e-8 exactly when |K + 1| is
    within tol: both certificates judge the pair alike."""
    return (rep["compat_max_residual"] <= 1e-8) == (rep["curvature_max_abs_k_plus_1"] <= tol)


class TestVerifyPseudospherical:
    def test_admissible_root_pipeline(self):
        pq = pq_from_params(3, -2.0, 1.0)
        rep = verify_pseudospherical(pq, strip_samples())
        assert rep["curvature_max_abs_k_plus_1"] < 1e-6
        assert rep["compat_max_residual"] < 1e-10
        assert rep["compat_max_residual"] <= 1e-8 and rep["curvature_max_abs_k_plus_1"] <= 1e-6
        assert certificates_agree(rep, 1e-6)
        assert len(strip_points(strip_samples())) == 256

    def test_flat_pair_fails_both_ways(self):
        # s = 1 and E = 1/t^2: the chart metric (dt/t)^2 + dh^2 is flat
        pq = PQPair(linear_profile(1.0, 0.0, domain=POS), const_profile(1.0))
        rep = verify_pseudospherical(pq, strip_samples())
        assert rep["compat_max_residual"] == pytest.approx(1.0)
        assert rep["curvature_max_abs_k_plus_1"] == pytest.approx(1.0, abs=1e-7)
        assert rep["compat_max_residual"] > 1e-8 and rep["curvature_max_abs_k_plus_1"] > 1e-5
        assert certificates_agree(rep, 1e-5)

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
        from warpverify.relation import relation_poly, solve_lambda
        lam = solve_lambda(relation_poly(m, beta))["admissible_roots"][0]
        pq = pq_from_params(m, lam, beta)
        rep = verify_pseudospherical(pq, strip_samples())
        assert rep["compat_max_residual"] <= 1e-8
        assert rep["curvature_max_abs_k_plus_1"] <= 1e-5
        assert certificates_agree(rep, 1e-5)

    def test_equivalence_fails_together_for_near_miss(self):
        # small perturbation of an admissible pair breaks both certificates
        pos = (0.0, math.inf)
        pq = PQPair(linear_profile(1.0, 0.0, domain=pos), const_profile(2.2))
        rep = verify_pseudospherical(pq, strip_samples())
        assert rep["compat_max_residual"] > 1e-8 and rep["curvature_max_abs_k_plus_1"] > 1e-5
        assert certificates_agree(rep, 1e-5)


def test_curvature_certificate_error_model():
    # the verify metric at (m, beta) = (3, 1): the certificate's error is
    # second-order truncation (about 8 step^2) until rounding, which grows
    # like 1/step^2, takes over; the default step sits between the two
    pq = pq_from_params(3, -2.0, 1.0)
    samples = strip_samples()
    g = build_metric(pq, integrate_s(pq, samples[0], samples[-1]))
    points = strip_points(samples)

    def error(fd):
        return max(abs(gauss_curvature(fd, p) + 1.0) for p in points)

    err = {h: error(Metric2D(g.E.without_exact(h), g.G.without_exact(h), g._domain))
           for h in (1e-2, 1e-3, 1e-4, 1e-5)}
    assert 80.0 <= err[1e-2] / err[1e-3] <= 120.0
    default = error(g.with_fd_derivatives())
    assert default == err[DEFAULT_FD_STEP]
    assert default < err[1e-3] and default < err[1e-5]
    assert default == verify_pseudospherical(pq, samples)["curvature_max_abs_k_plus_1"]


class TestAdmissibleRootNormalForm:
    @pytest.mark.parametrize("m", range(3, 13))
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_q_minus_slope_is_one(self, m, beta):
        from warpverify.relation import relation_poly, solve_lambda
        roots = solve_lambda(relation_poly(m, beta))["admissible_roots"]
        assert len(roots) == 1
        pq = pq_from_params(m, roots[0], beta)
        assert abs(pq.q(1.0) - pq.p.d1(1.0) - 1.0) < 1e-10


def test_max_compat_residual_helper():
    res, reason = max_compat_residual_for_params(3, 1.0, -2.0)
    assert res < 1e-12 and reason is None
    res, reason = max_compat_residual_for_params(3, 2.0, 5.0)
    assert math.isinf(res) and reason == "lambda_plus_beta"
