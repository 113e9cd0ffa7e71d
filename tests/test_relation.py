"""Quadratic relation: coefficients, roots, admissibility, sweeps.

The rederivation identity is asserted in exact rational arithmetic by
expanding (lam + m b)^2 - (m-1)(lam + b)(lam + m b/2) as a polynomial in
lam with Fraction coefficients and comparing coefficientwise.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from warpverify.compatibility import (
    max_compat_residual_for_params, pq_from_params, strip_samples,
)
from warpverify.relation import (
    PUBLISHED, REDERIVED, existence_sweep, poly_published, poly_rederived,
    relation_poly, solve_lambda,
)


def poly_mul(a, b):
    """Multiply coefficient lists (low order first) of Fractions."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def rederived_oracle(m, b):
    """(lam + m b)^2 - (m - 1)(lam + b)(lam + m b/2), low order first."""
    m, b = Fraction(m), Fraction(b)
    lhs = poly_mul([m * b, Fraction(1)], [m * b, Fraction(1)])
    rhs = poly_mul([b, Fraction(1)], [m * b / 2, Fraction(1)])
    rhs = [(m - 1) * c for c in rhs]
    return poly_sub(lhs, rhs)


class TestPolyPublished:
    def test_m2_beta1(self):
        p = poly_published(2, 1)
        assert p.coeffs_float() == (0.0, 2.0, 3.0)

    def test_m3_beta1(self):
        assert poly_published(3, 1).coeffs_float() == (-1.0, 1.0, 6.0)

    def test_m3_beta2_as_printed(self):
        # 9 (1 - 2) + 3 (10 - 2) = 15
        assert poly_published(3, 2).coeffs_float() == (-1.0, 2.0, 15.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            poly_published(0, 1)
        for beta in (0, math.nan, math.inf):
            with pytest.raises(ValueError):
                poly_published(3, beta)
            with pytest.raises(ValueError):
                poly_rederived(3, beta)


class TestPolyRederived:
    def test_m3_beta1_matches_unit_screening(self):
        assert poly_rederived(3, 1).coeffs_float() == (-1.0, 1.0, 6.0)

    def test_m3_beta2(self):
        # beta^2 (m^2 + m)/2 = 4 * 6 = 24; differs from published (15)
        assert poly_rederived(3, 2).coeffs_float() == (-1.0, 2.0, 24.0)

    def test_m2_beta3_linear(self):
        p = poly_rederived(2, 3)
        assert p.coeffs_float() == (0.0, 6.0, 27.0)
        roots = solve_lambda(p).roots
        assert roots == [pytest.approx(-4.5)]

    def test_m3_beta2_root_passes_ode_oracle_published_fails(self):
        lam = solve_lambda(poly_rederived(3, 2)).admissible_roots[0]
        assert lam == pytest.approx(-4.0)
        res, reason = max_compat_residual_for_params(3, 2.0, lam)
        assert res < 1e-9 and reason is None
        for root in solve_lambda(poly_published(3, 2)).roots:
            res, reason = max_compat_residual_for_params(3, 2.0, root)
            assert res > 1e-2 and reason is not None

    @given(m=st.integers(2, 30), b=st.fractions(min_value=Fraction(1, 10),
                                                max_value=Fraction(10)))
    @settings(max_examples=60, deadline=None)
    def test_exact_rederivation_identity(self, m, b):
        oracle = rederived_oracle(m, b)
        p = poly_rederived(m, b)
        assert (oracle[2], oracle[1], oracle[0]) == (p.a2, p.a1, p.a0)

    @given(m=st.integers(2, 30), b=st.fractions(min_value=Fraction(1, 10),
                                                max_value=Fraction(10)))
    @settings(max_examples=60, deadline=None)
    def test_published_discrepancy_is_documented_formula(self, m, b):
        # published - rederived constant term = m (m - 2)(1 - beta^2);
        # the other coefficients agree identically
        pub, red = poly_published(m, b), poly_rederived(m, b)
        assert pub.a2 == red.a2 and pub.a1 == red.a1
        assert pub.a0 - red.a0 == Fraction(m) * (m - 2) * (1 - Fraction(b) ** 2)


class TestSymbolicRelation:
    """Sympy oracle for the relation: the compatibility ODE, fed the
    `pq_from_params` pair with symbolic m, lambda and beta, gives the
    rederived quadratic exactly."""

    @staticmethod
    def ode_relation(sp, m, beta, lam):
        """(a2, a1, a0) of the relation the compatibility ODE imposes on
        lambda, normalized to a2 = 2 - m like both coefficient sets."""
        f = sp.Symbol("f", positive=True)
        # -(lambda + beta), -K and m - 1: positive wherever pq_from_params
        # builds the pair, so sqrt((m - 1)(-K)) splits and radicals cancel.
        A, N, m1 = sp.symbols("A N m1", positive=True)
        p = f * sp.sqrt(A) / sp.sqrt(m1 * N)
        q = beta * sp.sqrt(m1) / (sp.sqrt(A) * sp.sqrt(N))
        ode = (p * p.diff(f, 2) - p.diff(f) ** 2 + 2 * q * p.diff(f)
               - p * q.diff(f) - q ** 2 + 1)
        num, den = sp.fraction(sp.together(sp.expand(ode)))
        assert not (num.has(f) or den.has(f))
        for power in (num * den).atoms(sp.Pow):
            assert power.exp.is_integer
        # The denominator is positive, so the ODE holds iff num = 0.
        assert sp.expand(den - A * N * m1) == 0
        num = num.subs({A: -(lam + beta), N: -(lam + m * beta / 2), m1: m - 1})
        poly = sp.Poly(sp.expand(num), lam)
        assert poly.degree() == 2
        a2 = sp.expand(poly.coeff_monomial(lam ** 2))
        assert sp.expand(a2 + (2 - m)) == 0
        return [sp.expand(-poly.coeff_monomial(lam ** k)) for k in (2, 1, 0)]

    @staticmethod
    def code_coefficients(sp, poly_fn, m, beta):
        """poly_fn's (a2, a1, a0) as polynomials in m and beta: Lagrange
        interpolation of its exact Fraction values on a 3 x 3 grid, which
        determines a polynomial of degree <= 2 in each variable, confirmed
        exactly on a 5 x 5 grid so a higher degree cannot pass."""
        ms = [2, 3, 4]
        betas = [Fraction(1, 2), Fraction(1), Fraction(3)]

        def basis(nodes, x):
            return [sp.prod([(x - sp.Rational(o)) / (sp.Rational(n) - sp.Rational(o))
                             for o in nodes if o != n]) for n in nodes]

        weights = [(mi, bj, lm * lb) for mi, lm in zip(ms, basis(ms, m))
                   for bj, lb in zip(betas, basis(betas, beta))]
        coeffs = []
        for name in ("a2", "a1", "a0"):
            expr = sp.expand(sum(sp.Rational(getattr(poly_fn(mi, bj), name)) * w
                                 for mi, bj, w in weights))
            for mi in range(2, 7):
                for bj in (Fraction(k, 3) for k in range(1, 6)):
                    value = getattr(poly_fn(mi, bj), name)
                    assert expr.subs({m: mi, beta: sp.Rational(bj)}) == sp.Rational(value)
            coeffs.append(expr)
        return coeffs

    @pytest.fixture
    def sym(self):
        sp = pytest.importorskip("sympy")
        m, beta = sp.symbols("m beta", positive=True)
        return sp, m, beta, sp.Symbol("lambda", real=True)

    def test_transcribed_pair_is_pq_from_params(self, sym):
        sp, m, beta, lam = sym
        A, N, m1 = -(lam + beta), -(lam + m * beta / 2), m - 1
        slope = sp.sqrt(A) / sp.sqrt(m1 * N)
        q_val = beta * sp.sqrt(m1) / (sp.sqrt(A) * sp.sqrt(N))
        for mv, bv in ((3, 1.0), (7, 0.8), (40, 2.5)):
            lv = solve_lambda(poly_rederived(mv, bv)).admissible_roots[0]
            pq = pq_from_params(mv, lv, bv)
            at = {m: mv, beta: bv, lam: lv}
            assert pq.p.d1(1.0) == pytest.approx(float(slope.subs(at)), rel=1e-14)
            assert pq.q(1.0) == pytest.approx(float(q_val.subs(at)), rel=1e-14)

    def test_compatibility_ode_gives_the_rederived_coefficients(self, sym):
        sp, m, beta, lam = sym
        ode = self.ode_relation(sp, m, beta, lam)
        code = self.code_coefficients(sp, poly_rederived, m, beta)
        assert [sp.expand(a - b) for a, b in zip(ode, code)] == [0, 0, 0]
        assert ode[2] == sp.expand(beta ** 2 * (m ** 2 + m) / 2)

    def test_published_constant_term_is_off_by_the_stated_amount(self, sym):
        sp, m, beta, lam = sym
        ode = self.ode_relation(sp, m, beta, lam)
        published = self.code_coefficients(sp, poly_published, m, beta)
        assert [sp.expand(a - b) for a, b in zip(published, ode)] == [
            0, 0, sp.expand(m * (m - 2) * (1 - beta ** 2))]


class TestUnitScreeningEquality:
    def test_exact_for_m_up_to_50(self):
        for m in range(1, 51):
            pub, red = poly_published(m, 1), poly_rederived(m, 1)
            assert pub.is_exact and red.is_exact
            assert (pub.a2, pub.a1, pub.a0) == (red.a2, red.a1, red.a0)


class TestSolveLambda:
    def test_m2_linear(self):
        rep = solve_lambda(poly_rederived(2, 1))
        assert rep.degenerate_linear
        assert rep.roots == [pytest.approx(-1.5)]
        assert rep.admissible_roots == [pytest.approx(-1.5)]
        assert rep.admissibility[0].K == pytest.approx(-0.5)

    def test_m3_factors(self):
        rep = solve_lambda(poly_rederived(3, 1))
        assert rep.roots == [pytest.approx(-2.0), pytest.approx(3.0)]
        assert rep.admissible_roots == [pytest.approx(-2.0)]

    def test_m4(self):
        rep = solve_lambda(poly_rederived(4, 1))
        assert rep.roots == [pytest.approx(-2.5), pytest.approx(2.0)]
        assert rep.admissible_roots == [pytest.approx(-2.5)]

    def test_backsub_residuals_small(self):
        for m in range(2, 20):
            rep = solve_lambda(poly_rederived(m, 1))
            a0 = abs(float(rep.poly.a0))
            for res in rep.backsub_residuals:
                assert res <= 1e-10 * max(1.0, a0)

    def test_double_root_multiplicity(self):
        from warpverify.relation import RelationPoly
        rep = solve_lambda(RelationPoly(1.0, -2.0, 1.0, REDERIVED, 3, 1.0))
        assert rep.roots == [pytest.approx(1.0)]
        assert rep.multiplicities == [2]

    def test_no_real_roots(self):
        from warpverify.relation import RelationPoly
        rep = solve_lambda(RelationPoly(1.0, 0.0, 1.0, REDERIVED, 3, 1.0))
        assert rep.roots == []

    def test_identically_zero_rejected(self):
        from warpverify.relation import RelationPoly
        with pytest.raises(ValueError):
            solve_lambda(RelationPoly(0.0, 0.0, 1.0, REDERIVED, 3, 1.0))

    def test_formal_extrapolation_flag(self):
        rep = solve_lambda(poly_rederived(2.5, 1.0))
        assert rep.formal_extrapolation
        assert not solve_lambda(poly_rederived(3, 1)).formal_extrapolation

    @given(m=st.integers(2, 12), beta=st.floats(0.01, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_scaling_covariance(self, m, beta):
        unit = solve_lambda(poly_rederived(m, 1)).roots
        scaled = solve_lambda(poly_rederived(m, beta)).roots
        assert len(unit) == len(scaled)
        for u, s in zip(sorted(unit, key=abs), sorted(scaled, key=abs)):
            assert s == pytest.approx(beta * u, rel=1e-9)

    @given(m=st.integers(3, 12), beta=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_ground_truth_linkage(self, m, beta):
        rep = solve_lambda(poly_rederived(m, beta))
        assert len(rep.admissible_roots) == 1
        pq = pq_from_params(m, rep.admissible_roots[0], beta)
        from warpverify.compatibility import compat_residual
        worst = max(abs(compat_residual(pq, t)) for t in strip_samples())
        assert worst < 1e-9


class TestExistenceSweep:
    def test_unit_screening_verdicts(self):
        recs = existence_sweep((2, 4), [1.0], REDERIVED)
        assert [r.exists for r in recs] == ["true"] * 3
        assert [r.admissible_root for r in recs] == [
            pytest.approx(-1.5), pytest.approx(-2.0), pytest.approx(-2.5)]

    def test_m2_scaling(self):
        for beta in (0.25, 1.0, 7.0):
            recs = existence_sweep((2, 2), [beta], REDERIVED)
            assert recs[0].admissible_root == pytest.approx(-1.5 * beta)
            assert recs[0].exists == "true"

    def test_published_equals_rederived_at_unit_screening(self):
        a = existence_sweep((2, 4), [1.0], PUBLISHED)
        b = existence_sweep((2, 4), [1.0], REDERIVED)
        for ra, rb in zip(a, b):
            assert (ra.a2, ra.a1, ra.a0) == (rb.a2, rb.a1, rb.a0)
            assert ra.roots == rb.roots
            assert ra.exists == rb.exists

    def test_row_ordering(self):
        recs = existence_sweep((2, 3), [2.0, 0.5], REDERIVED)
        assert [(r.m, r.beta) for r in recs] == [(2, 0.5), (2, 2.0), (3, 0.5), (3, 2.0)]

    def test_m1_out_of_domain(self):
        recs = existence_sweep((1, 2), [1.0], REDERIVED)
        assert recs[0].exists == "out_of_domain"
        assert recs[1].exists == "true"

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            existence_sweep((3, 2), [1.0])
        with pytest.raises(ValueError):
            existence_sweep((2, 3), [])


def test_relation_poly_dispatch():
    assert relation_poly(3, 1, PUBLISHED).provenance == PUBLISHED
    assert relation_poly(3, 1).provenance == REDERIVED
    with pytest.raises(ValueError):
        relation_poly(3, 1, "folklore")


def test_float_beta_falls_back_to_float_arithmetic():
    p = poly_rederived(3, 0.5)
    assert not p.is_exact
    assert p.coeffs_float()[2] == pytest.approx(1.5)
