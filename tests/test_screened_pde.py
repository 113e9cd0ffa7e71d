"""Screened-Poisson Dirichlet solver: exactness, residuals, convergence,
maximum principle, symmetry, CSV output."""

import io
import math

import numpy as np
import pytest

from warpverify.errors import SolverError
from warpverify.screened_pde import (
    BOUNDARY, EXTERIOR, INTERIOR, ConvergenceRow, GridSpec,
    assemble_and_solve, convergence_study, coshdist_exact, manufactured_spec,
    residual_field, sample_exact, write_grid_csv,
)


class TestGridSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            GridSpec(beta=0.0)
        with pytest.raises(ValueError):
            GridSpec(beta=1.0, r_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(beta=1.0, r_max=0.4, h=0.2)   # h >= r_max/4
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                GridSpec(beta=bad)
            with pytest.raises(ValueError):
                GridSpec(beta=1.0, h=bad)


class TestAssembleAndSolve:
    def test_zero_data_gives_zero(self):
        spec = GridSpec(beta=1.0, r_max=0.6, h=0.05)
        field = assemble_and_solve(spec)
        assert np.max(np.abs(field.values[field.tags != EXTERIOR])) == 0.0

    def test_classification_invariant(self):
        spec = GridSpec(beta=1.0, r_max=0.6, h=0.05)
        field = assemble_and_solve(spec)
        tags = field.tags
        ii, jj = np.nonzero(tags == INTERIOR)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert np.all(tags[ii + di, jj + dj] != EXTERIOR)

    def test_exact_solution_at_beta_two(self):
        spec = GridSpec(beta=2.0, r_max=0.8, h=0.02, boundary=coshdist_exact)
        field = assemble_and_solve(spec)
        assert field.max_error_against(coshdist_exact) < 5e-3

    def test_manufactured_linear_solution(self):
        # f = u is harmonic, so psi = u makes it exact at beta = 1;
        # the stencil is exact on affine functions
        spec = GridSpec(beta=1.0, r_max=0.6, h=0.05,
                        source=lambda x, y: x, boundary=lambda x, y: x)
        field = assemble_and_solve(spec)
        assert field.max_error_against(lambda x, y: x) < 1e-12

    def test_data_callbacks_once_per_node_in_row_major_order(self):
        calls = []

        def record(tag):
            def fn(x, y):
                calls.append((tag, x, y))
                return 0.0
            return fn

        spec = GridSpec(beta=1.0, r_max=0.3, h=0.05,
                        source=record("src"), boundary=record("bnd"))
        field = assemble_and_solve(spec)
        X, Y = field.meshes()
        expected = [("bnd", x, y) for x, y in zip(X[field.boundary_mask],
                                                   Y[field.boundary_mask])]
        expected += [("src", x, y) for x, y in zip(X[field.interior_mask],
                                                    Y[field.interior_mask])]
        assert calls == expected

    def test_solver_residual_definition(self):
        spec = manufactured_spec(beta=1.5, r_max=0.7, h=0.04)
        field = assemble_and_solve(spec)
        assert residual_field(field, spec) <= 1e-10


class TestResidualField:
    def test_constant_field(self):
        spec = GridSpec(beta=1.0, r_max=0.6, h=0.05)
        field = sample_exact(spec, lambda x, y: 1.0)
        # lap 1 - 1 = -1 at every interior node
        assert residual_field(field, spec) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_on_exact_solution(self):
        # frozen from the stencil-truncation oracle
        # w(x,y) h^2/12 (f_xxxx + f_yyyy): worst interior node gives
        # ~6.1e-2 at h = 0.02 on r_max = 0.8, and the rate is O(h^2)
        spec = GridSpec(beta=2.0, r_max=0.8, h=0.02, boundary=coshdist_exact)
        field = sample_exact(spec, coshdist_exact)
        res = residual_field(field, spec)
        oracle = truncation_oracle(spec)
        assert res == pytest.approx(oracle, rel=0.05)
        assert res < 0.1

    def test_truncation_is_second_order_at_fixed_point(self):
        # compare the stencil residual at one fixed interior node
        errs = []
        for h in (0.04, 0.02):
            spec = GridSpec(beta=2.0, r_max=0.8, h=h, boundary=coshdist_exact)
            errs.append(stencil_residual_at(spec, 0.6, 0.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_lattice_mismatch(self):
        spec_a = GridSpec(beta=1.0, r_max=0.6, h=0.05)
        spec_b = GridSpec(beta=1.0, r_max=0.6, h=0.04)
        field = assemble_and_solve(spec_a)
        with pytest.raises(ValueError):
            residual_field(field, spec_b)


def truncation_oracle(spec):
    """Independent truncation bound: evaluate w * (lap5 - lap) f* directly
    against the analytic Laplacian 2 f* ((1-r^2)^2/4) lap_euc = lap_g."""
    field = sample_exact(spec, coshdist_exact)
    X, Y = field.meshes()
    interior = field.tags == INTERIOR
    h2 = spec.h ** 2
    f = field.values
    lap5 = np.zeros_like(f)
    lap5[1:-1, 1:-1] = (f[:-2, 1:-1] + f[2:, 1:-1] + f[1:-1, :-2] + f[1:-1, 2:]
                        - 4.0 * f[1:-1, 1:-1]) / h2
    w = (1.0 - X ** 2 - Y ** 2) ** 2 / 4.0
    exact_lap_g = 2.0 * f      # eigenfunction property
    return float(np.max(np.abs((w * lap5 - exact_lap_g)[interior])))


def stencil_residual_at(spec, x, y):
    h = spec.h
    f = coshdist_exact
    lap5 = (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4 * f(x, y)) / h**2
    w = (1 - x * x - y * y) ** 2 / 4.0
    return abs(w * lap5 - spec.beta * f(x, y))


class TestConvergence:
    def test_rates_near_two(self):
        spec = manufactured_spec(beta=2.0, r_max=0.8, h=0.04)
        rows = convergence_study(spec, [0.04, 0.02, 0.01], coshdist_exact)
        assert rows[0].observed_rate is None
        for row in rows[1:]:
            assert 1.7 <= row.observed_rate <= 2.3

    def test_two_width_halving(self):
        spec = manufactured_spec(beta=2.0, r_max=0.6, h=0.1)
        rows = convergence_study(spec, [0.1, 0.05], coshdist_exact)
        assert rows[1].max_error < rows[0].max_error
        assert rows[1].observed_rate == pytest.approx(2.0, abs=0.5)

    def test_affine_exact_for_all_h(self):
        spec = GridSpec(beta=1.0, r_max=0.6, h=0.1,
                        source=lambda x, y: x, boundary=lambda x, y: x)
        rows = convergence_study(spec, [0.1, 0.05, 0.025], lambda x, y: x)
        for row in rows:
            assert row.max_error < 1e-11

    def test_monotone_refinement(self):
        spec = manufactured_spec(beta=2.0, r_max=0.8, h=0.08)
        rows = convergence_study(spec, [0.08, 0.04, 0.02], coshdist_exact)
        for a, b in zip(rows, rows[1:]):
            assert b.max_error <= a.max_error * 1.05

    def test_manufactured_source_other_beta(self):
        spec = manufactured_spec(beta=5.0, r_max=0.7, h=0.04)
        field = assemble_and_solve(spec)
        assert field.max_error_against(coshdist_exact) < 2e-2

    def test_validation(self):
        spec = manufactured_spec(beta=2.0)
        with pytest.raises(ValueError):
            convergence_study(spec, [0.02], coshdist_exact)
        with pytest.raises(ValueError):
            convergence_study(spec, [0.02, 0.04], coshdist_exact)


class TestOperatorConsistency:
    def test_discrete_matches_continuous_residual_at_second_order(self):
        # the nodal stencil residual of a smooth non-solution field must
        # approach the continuous [lap_g - beta] f value at O(h^2)
        from warpverify.geometry2d import (
            Point2, laplace_beltrami, poincare_disk, poly_field,
        )
        disk = poincare_disk()
        # quartic terms keep the stencil's 4th-derivative truncation nonzero
        f_field = poly_field({(0, 0): 1.0, (4, 0): 0.5, (0, 4): -0.3, (2, 1): 0.7})
        beta = 1.3
        x, y = 0.24, -0.12
        p = Point2(x, y)
        continuous = laplace_beltrami(disk, f_field, p) - beta * f_field.val(p)

        def discrete(h):
            fn = lambda a, b: f_field.val(Point2(a, b))
            lap5 = (fn(x + h, y) + fn(x - h, y) + fn(x, y + h) + fn(x, y - h)
                    - 4.0 * fn(x, y)) / h**2
            w = (1 - x * x - y * y) ** 2 / 4.0
            return w * lap5 - beta * fn(x, y)

        errs = [abs(discrete(h) - continuous) for h in (0.02, 0.01)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


class TestMaximumPrinciple:
    def test_randomized_homogeneous_solves(self):
        rng = np.random.default_rng(20240503)
        for _ in range(20):
            beta = float(rng.uniform(0.1, 5.0))
            coeffs = rng.normal(size=5)

            def bd(x, y, c=coeffs):
                th = math.atan2(y, x)
                return (c[0] + c[1] * math.sin(th) + c[2] * math.cos(th)
                        + c[3] * math.sin(2 * th) + c[4] * math.cos(2 * th))

            spec = GridSpec(beta=beta, r_max=0.6, h=0.04, boundary=bd)
            field = assemble_and_solve(spec)
            bvals = field.values[field.tags == BOUNDARY]
            vals = field.values[field.tags != EXTERIOR]
            lo = min(0.0, bvals.min()) - 1e-12
            hi = max(0.0, bvals.max()) + 1e-12
            assert vals.min() >= lo and vals.max() <= hi

    def test_positive_boundary_keeps_solution_in_band(self):
        spec = GridSpec(beta=3.0, r_max=0.6, h=0.04, boundary=lambda x, y: 1.0)
        field = assemble_and_solve(spec)
        vals = field.values[field.tags != EXTERIOR]
        assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12


class TestSymmetry:
    def test_quarter_turn_invariance(self):
        # radial boundary data on the origin-symmetric lattice
        spec = GridSpec(beta=1.0, r_max=0.6, h=0.05,
                        boundary=lambda x, y: x * x + y * y)
        field = assemble_and_solve(spec)
        vals = np.where(field.tags == EXTERIOR, 0.0, field.values)
        rotated = np.rot90(vals)
        assert np.array_equal(np.rot90(field.tags), field.tags)
        assert np.max(np.abs(rotated - vals)) < 1e-11


class TestCsvOutput:
    def test_format_and_determinism(self):
        spec = GridSpec(beta=1.0, r_max=0.5, h=0.1,
                        boundary=lambda x, y: x + 2 * y)
        field = assemble_and_solve(spec)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_grid_csv(field, buf_a)
        write_grid_csv(assemble_and_solve(spec), buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        lines = buf_a.getvalue().splitlines()
        assert lines[0] == "x1,x2,tag,value"
        n = len(field.axis)
        assert len(lines) == 1 + n * n
        first = lines[1].split(",")
        assert first[2] == "exterior" and first[3] == ""
        tags = {row.split(",")[2] for row in lines[1:]}
        assert tags == {"interior", "boundary", "exterior"}

    def test_row_major_order(self):
        spec = GridSpec(beta=1.0, r_max=0.5, h=0.1)
        field = assemble_and_solve(spec)
        buf = io.StringIO()
        write_grid_csv(field, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        n = len(field.axis)
        # x1 constant over each block of n rows, x2 cycling
        assert rows[0][0] == rows[n - 1][0]
        assert rows[0][1] != rows[1][1]


def test_degenerate_grid():
    # h < r_max/4 guarantees interior nodes, so the degenerate branch is
    # defensive; reach it by bypassing the GridSpec validation
    spec = object.__new__(GridSpec)
    for k, v in (("beta", 1.0), ("r_max", 0.05), ("h", 0.06),
                 ("source", None), ("boundary", None)):
        object.__setattr__(spec, k, v)
    with pytest.raises(SolverError):
        assemble_and_solve(spec)


def test_convergence_row_shape():
    row = ConvergenceRow(h=0.1, max_error=1.0, observed_rate=None)
    assert row.h == 0.1
