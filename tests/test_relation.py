"""Quadratic relation: coefficients, roots, admissibility, sweeps.

The rederivation identity is asserted in exact rational arithmetic by
expanding (lam + m b)^2 - (m-1)(lam + b)(lam + m b/2) as a polynomial in
lam with Fraction coefficients and comparing coefficientwise.
"""

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpverify import relation
from warpverify.cli import SWEEP_BLOCK_ROWS, SWEEP_CSV_HEADER, run, to_json
from warpverify.compatibility import (
    max_compat_residual_for_params, pq_from_params, strip_samples,
)
from warpverify.relation import (
    MAX_SWEEP_ROWS, PUBLISHED, REDERIVED, existence_sweep, poly_published,
    poly_rederived, relation_poly, solve_lambda,
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
        table = existence_sweep((2, 4), [1.0], REDERIVED)
        assert table.exists.tolist() == ["true"] * 3
        assert table.admissible_root.tolist() == [
            pytest.approx(-1.5), pytest.approx(-2.0), pytest.approx(-2.5)]
        assert table.K.tolist() == pytest.approx(table.admissible_root + table.m / 2.0)

    def test_m2_scaling(self):
        for beta in (0.25, 1.0, 7.0):
            table = existence_sweep((2, 2), [beta], REDERIVED)
            assert table.admissible_root[0] == pytest.approx(-1.5 * beta)
            assert np.isnan(table.root2[0])
            assert table.exists[0] == "true"

    def test_published_equals_rederived_at_unit_screening(self):
        a = existence_sweep((2, 4), [1.0], PUBLISHED)
        b = existence_sweep((2, 4), [1.0], REDERIVED)
        for name in ("a2", "a1", "a0", "root1", "root2", "exists"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=name != "exists")

    def test_row_ordering(self):
        table = existence_sweep((2, 3), [2.0, 0.5], REDERIVED)
        assert list(zip(table.m.tolist(), table.beta.tolist())) == [
            (2, 0.5), (2, 2.0), (3, 0.5), (3, 2.0)]

    def test_m1_out_of_domain(self):
        table = existence_sweep((1, 2), [1.0], REDERIVED)
        assert table.exists.tolist() == ["out_of_domain", "true"]
        # m = 1, beta = 1 is the double root -1 of lam^2 + 2 lam + 1
        assert table.root1[0] == -1.0 and np.isnan(table.root2[0])
        assert np.isnan(table.admissible_root[0]) and np.isnan(table.K[0])

    def test_published_rows_without_real_roots(self):
        # at m = 1 the published discriminant is 4 - 4 beta^2
        table = existence_sweep((1, 1), [2.0], PUBLISHED)
        assert np.isnan(table.root1[0]) and np.isnan(table.root2[0])
        assert table.exists[0] == "out_of_domain"

    def test_columns_equal_solve_lambda_row_by_row(self):
        betas = [0.3, 1.0, 2.5, 3.3]
        for variant in (PUBLISHED, REDERIVED):
            table = existence_sweep((1, 12), betas, variant)
            for i, (m, beta) in enumerate(zip(table.m.tolist(), table.beta.tolist())):
                report = solve_lambda(relation_poly(m, beta, variant))
                assert (table.a2[i], table.a1[i], table.a0[i]) == report.poly.coeffs_float()
                roots = [r for r in (table.root1[i], table.root2[i]) if not np.isnan(r)]
                assert roots == report.roots
                admissible = report.admissible_roots
                assert (table.admissible_root[i] == admissible[0] if admissible
                        else np.isnan(table.admissible_root[i]))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            existence_sweep((3, 2), [1.0])
        with pytest.raises(ValueError):
            existence_sweep((2, 3), [])

    @pytest.mark.parametrize("m_range, betas", [((0, 3), [1.0]), ((2, 3), [1.0, math.nan]),
                                               ((2, 3), [-1.0])])
    def test_invalid_rows_rejected(self, m_range, betas):
        with pytest.raises(ValueError):
            existence_sweep(m_range, betas)

    def test_published_root_rejection_near_sqrt2_still_raises(self):
        # the known back-substitution defect: |P(root)| = 3.16e-10 > 1.45e-10
        with pytest.raises(ArithmeticError, match="fails back-substitution"):
            existence_sweep((145, 145), [1.4292354702724506], PUBLISHED)
        with pytest.raises(ArithmeticError, match="fails back-substitution"):
            solve_lambda(poly_published(145, 1.4292354702724506))

    def test_rows_outside_the_double_range_are_value_errors(self):
        with pytest.raises(ValueError, match=r"m = 2, beta = 1e\+200"):
            existence_sweep((2, 3), [1.0, 1e200])

    @pytest.mark.parametrize("m_hi", [MAX_SWEEP_ROWS, MAX_SWEEP_ROWS + 1])
    def test_row_cap_checked_before_any_array(self, m_hi, monkeypatch):
        class Reached(Exception):
            pass

        sizes = []

        def solve(mv, bv, half, variant):
            sizes.append(len(mv))
            raise Reached

        monkeypatch.setattr(relation, "_coefficients", solve)
        if m_hi <= MAX_SWEEP_ROWS:
            with pytest.raises(Reached):
                existence_sweep((1, m_hi), [1.0])
            assert sizes == [MAX_SWEEP_ROWS]
        else:
            with pytest.raises(ValueError, match=f"MAX_SWEEP_ROWS = {MAX_SWEEP_ROWS}"):
                existence_sweep((1, m_hi), [1.0])
            assert sizes == []


class TestRootKernel:
    @staticmethod
    def roots(a2, a1, a0, m=3.0, beta=1.0):
        return relation._real_roots(*(np.array([x], dtype=float)
                                      for x in (a2, a1, a0, m, beta)))

    def test_double_root(self):
        roots, residuals = self.roots(1, 2, 1)
        assert roots[0, 0] == -1.0 and np.isnan(roots[0, 1])
        assert residuals[0, 0] == 0.0
        from warpverify.relation import RelationPoly
        rep = solve_lambda(RelationPoly(1.0, 2.0, 1.0, REDERIVED, 3, 1.0))
        assert rep.roots == [-1.0] and rep.multiplicities == [2]

    def test_linear_and_missing_roots(self):
        roots, _ = self.roots(0, 2, 3)
        assert roots[0, 0] == -1.5 and np.isnan(roots[0, 1])
        roots, residuals = self.roots(1, 0, 1)
        assert np.isnan(roots).all() and np.isnan(residuals).all()

    @pytest.mark.parametrize("coeffs", [(1, 0, math.inf), (1, math.nan, 1),
                                        (1e200, 1e200, -1e200), (-1, 0, 1e308)])
    def test_non_finite_values_name_the_row(self, coeffs):
        with pytest.raises(ValueError, match="m = 3, beta = 1.0 leaves the double range"):
            self.roots(*coeffs)


# Reference implementation: the per-row sweep and its emitters as they were
# before the columnar rewrite, kept verbatim (relation coefficients, root
# formula, one record per row, one format call per cell).  The CLI must
# match it byte for byte.

def reference_shared_terms(m, beta):
    if float(m) < 1:
        raise ValueError(f"fiber dimension m must be >= 1, got {m}")
    if isinstance(m, (int, Fraction)) and isinstance(beta, (int, Fraction)):
        mv, bv, half = Fraction(m), Fraction(beta), Fraction(1, 2)
    else:
        mv, bv, half = float(m), float(beta), 0.5
    a2 = 2 - mv
    a1 = bv * (1 + 3 * mv * half - mv * mv * half)
    return mv, bv, half, a2, a1


def reference_relation_poly(m, beta, variant):
    from warpverify.relation import RelationPoly
    mv, bv, half, a2, a1 = reference_shared_terms(m, beta)
    if variant == PUBLISHED:
        a0 = mv * mv * (1 - bv * bv * half) + mv * (5 * bv * bv * half - 2)
    else:
        a0 = bv * bv * (mv * mv + mv) * half
    return RelationPoly(a2, a1, a0, variant, m, beta)


def reference_classify(root, m, beta):
    from warpverify.relation import RootAdmissibility
    K = root + m * beta / 2.0
    lpb = root + beta < 0.0
    kn = K < 0.0
    return RootAdmissibility(
        root=root,
        lambda_plus_beta_negative=lpb,
        K_negative=kn,
        overall=lpb and kn and m >= 2,
        K=K,
    )


def reference_solve_lambda(poly):
    from warpverify.relation import BACKSUB_RTOL, RootReport
    a2, a1, a0 = poly.coeffs_float()
    m, beta = float(poly.m), float(poly.beta)
    if a2 == 0.0 and a1 == 0.0:
        raise ValueError("relation polynomial is identically "
                         + ("zero" if a0 == 0.0 else "constant; no roots to solve"))

    if a2 == 0.0:
        roots = [-a0 / a1]
        mults = [1]
        degenerate = True
    else:
        degenerate = False
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            roots, mults = [], []
        elif disc == 0.0:
            roots, mults = [-a1 / (2.0 * a2)], [2]
        else:
            # q = -(a1 + sign(a1) sqrt(disc))/2 avoids subtractive cancellation
            sq = math.sqrt(disc)
            sign = 1.0 if a1 >= 0.0 else -1.0
            qq = -0.5 * (a1 + sign * sq)
            r1, r2 = qq / a2, a0 / qq
            roots = sorted((r1, r2))
            mults = [1, 1]

    residuals = [abs(poly.eval_at(r)) for r in roots]
    bound = BACKSUB_RTOL * max(1.0, abs(a0))
    for r, res in zip(roots, residuals):
        if res > bound:
            raise ArithmeticError(
                f"root {r} fails back-substitution: |P(root)| = {res} > {bound}")

    return RootReport(
        poly=poly,
        roots=roots,
        multiplicities=mults,
        degenerate_linear=degenerate,
        admissibility=[reference_classify(r, m, beta) for r in roots],
        backsub_residuals=residuals,
        formal_extrapolation=not float(m).is_integer(),
    )


@dataclass(frozen=True)
class SweepRecord:
    """One (m, beta) row of an existence sweep."""

    m: int
    beta: float
    variant: str
    a2: float
    a1: float
    a0: float
    roots: list[float]
    admissible_root: Optional[float]
    K: Optional[float]
    exists: str  # "true" | "false" | "out_of_domain"


def reference_existence_sweep(m_range, betas, variant=REDERIVED):
    m_lo, m_hi = m_range
    if m_lo > m_hi or not betas:
        raise ValueError("need a nonempty m range and at least one beta")
    records = []
    for m in range(m_lo, m_hi + 1):
        for beta in sorted(betas, key=float):
            poly = reference_relation_poly(m, beta, variant)
            report = reference_solve_lambda(poly)
            a2, a1, a0 = poly.coeffs_float()
            admissible = report.admissible_roots
            root = admissible[0] if admissible else None
            if m < 2:
                verdict = "out_of_domain"
            else:
                verdict = "true" if admissible else "false"
            records.append(SweepRecord(
                m=m, beta=float(beta), variant=variant,
                a2=a2, a1=a1, a0=a0,
                roots=report.roots,
                admissible_root=root,
                K=None if root is None else root + m * float(beta) / 2.0,
                exists=verdict,
            ))
    return records


def reference_sweep_csv_lines(records):
    lines = [SWEEP_CSV_HEADER]
    for rec in records:
        roots = list(rec.roots) + ["", ""]
        cells = [
            str(rec.m),
            format(rec.beta, ".17g"),
            rec.variant,
            format(rec.a2, ".17g"),
            format(rec.a1, ".17g"),
            format(rec.a0, ".17g"),
            format(roots[0], ".17g") if roots[0] != "" else "",
            format(roots[1], ".17g") if roots[1] != "" else "",
            format(rec.admissible_root, ".17g") if rec.admissible_root is not None else "",
            format(rec.K, ".17g") if rec.K is not None else "",
            rec.exists,
        ]
        lines.append(",".join(cells))
    return lines


def reference_sweep_json(records):
    return {
        "rows": [
            {
                "m": rec.m,
                "beta": rec.beta,
                "variant": rec.variant,
                "a2": rec.a2, "a1": rec.a1, "a0": rec.a0,
                "roots": list(rec.roots),
                "admissible_root": rec.admissible_root,
                "K": rec.K,
                "exists": rec.exists,
            }
            for rec in records
        ]
    }


def reference_stdout(m_range, betas, variant, fmt):
    records = reference_existence_sweep(m_range, betas, variant)
    if fmt == "csv":
        return "\n".join(reference_sweep_csv_lines(records)) + "\n"
    return to_json(reference_sweep_json(records)) + "\n"


class TestSweepMatchesReference:
    GRIDS = {
        # m = 1 (out_of_domain, the double root at beta = 1 and, published,
        # no real roots for beta > 1), m = 2 (linear), duplicate betas
        "edge": ((1, 7), [3.3, 0.5, 1.0, 1.0, 2.0, 1e-3, 40.0]),
        # 2 * SWEEP_BLOCK_ROWS + 1 rows: two full blocks and one row
        "blocks": ((2, 2 * SWEEP_BLOCK_ROWS // 3 + 2), [0.5, 1.0, 2.0]),
        "single": ((2, 2), [1.0]),
        "wide_m": ((1, 400), [0.25, 1.41, 1.46, 4.0]),
    }

    @pytest.mark.parametrize("variant", [PUBLISHED, REDERIVED])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_cli_stdout_is_byte_identical(self, grid, fmt, variant):
        (m_lo, m_hi), betas = self.GRIDS[grid]
        if grid == "blocks":
            assert (m_hi - m_lo + 1) * len(betas) == 2 * SWEEP_BLOCK_ROWS + 1
        buf = io.StringIO()
        code = run(["relation", "sweep", "--m", f"{m_lo}..{m_hi}",
                    "--beta", ",".join(repr(b) for b in betas),
                    "--variant", variant, "--format", fmt, "--quiet"], out=buf)
        assert code == 0
        assert buf.getvalue() == reference_stdout((m_lo, m_hi), betas, variant, fmt)

    def test_reference_raises_where_the_sweep_does(self):
        with pytest.raises(ArithmeticError):
            reference_existence_sweep((145, 145), [1.4292354702724506], PUBLISHED)


def test_relation_poly_dispatch():
    assert relation_poly(3, 1, PUBLISHED).provenance == PUBLISHED
    assert relation_poly(3, 1).provenance == REDERIVED
    with pytest.raises(ValueError):
        relation_poly(3, 1, "folklore")


def test_float_beta_falls_back_to_float_arithmetic():
    p = poly_rederived(3, 0.5)
    assert not p.is_exact
    assert p.coeffs_float()[2] == pytest.approx(1.5)
