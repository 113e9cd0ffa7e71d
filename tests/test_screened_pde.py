"""Screened-Poisson Dirichlet solver: exactness, residuals, convergence,
maximum principle, symmetry, CSV output."""

import io
import json
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from warpverify import screened_pde
from warpverify.cli import BOUNDARY_CATALOG, run
from warpverify.errors import SolverError
from warpverify.screened_pde import (
    BOUNDARY, EXTERIOR, INTERIOR, RATE_ERROR_FLOOR, TAG_NAMES, ConvergenceRow, GridField,
    GridSpec, _assemble, _class_cg, _class_system, _conformal_weight, _lattice,
    _mirror_transform, _nodes, _quadrants, _sample, assemble_and_solve,
    convergence_study, coshdist_exact, manufactured_spec, residual_field,
    write_grid_csv,
)
from support import poly_field, sample_exact


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

    def test_a_mesh_width_whose_square_underflows_is_refused(self):
        # the stencil's 1/h**2 would be inf, and the solve used to blame
        # the data; h**2 = 2**-1022 is the smallest normal square
        with pytest.raises(ValueError, match=r"mesh spacing h must have h\*\*2 >= "
                                             r"2.2250738585072014e-308 .*, got 1e-302"):
            GridSpec(beta=1.0, r_max=1e-300, h=1e-302)
        GridSpec(beta=1.0, r_max=2.0 ** -507, h=2.0 ** -511)

    def test_lattice_size_cap(self):
        # 160001^2 nodes would take ~200 GB per array; the spec is refused
        # before any lattice exists, and the message names a usable h
        with pytest.raises(ValueError, match="smallest usable h") as ei:
            GridSpec(beta=1.0, h=1e-5)
        usable = float(str(ei.value).rsplit(" ", 1)[1])
        assert GridSpec(beta=1.0, h=usable).h == usable
        # h = r_max/500 is the first width past the cap, r_max/499 the last
        # width within it, and the finest benchmark widths stay well inside
        with pytest.raises(ValueError):
            GridSpec(beta=1.0, r_max=0.5, h=0.001)
        GridSpec(beta=1.0, r_max=0.5, h=0.5 / 499)
        GridSpec(beta=1.0, r_max=0.8, h=0.0025)

    def test_convergence_ladder_checks_every_width_before_solving(self):
        calls = []
        spec = GridSpec(beta=1.0, r_max=0.6, h=0.1,
                        boundary=lambda x, y: calls.append(1) or 0.0)
        with pytest.raises(ValueError):
            convergence_study(spec, [0.1, 1e-5], lambda x, y: 0.0)
        assert calls == []


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

    def test_solver_residual_definition(self):
        spec = manufactured_spec(beta=1.5, r_max=0.7, h=0.04)
        field = assemble_and_solve(spec)
        assert residual_field(field, spec) <= 1e-10


class TestDataCallbacks:
    @pytest.mark.parametrize("source", [lambda x, y: x * y, None],
                             ids=["source", "homogeneous"])
    def test_each_datum_called_once_per_node_set_in_row_major_order(
            self, source, monkeypatch):
        # the data are read through source_fn/boundary_fn, so wrapping
        # those sees the zero default of the homogeneous problem as well
        calls = []

        def recorded(tag, fn):
            def wrapper(x, y):
                calls.append((tag, x.copy(), y.copy()))
                return fn(x, y)
            return wrapper

        for method, tag in (("source_fn", "source"), ("boundary_fn", "boundary")):
            real = getattr(GridSpec, method)
            monkeypatch.setattr(GridSpec, method,
                                lambda spec, real=real, tag=tag: recorded(tag, real(spec)))
        spec = GridSpec(beta=1.3, r_max=0.3, h=0.05, source=source,
                        boundary=coshdist_exact)
        field = assemble_and_solve(spec)
        X, Y = np.meshgrid(field.axis, field.axis, indexing="ij")
        nodes = {"boundary": field.tags == BOUNDARY, "source": field.interior_mask,
                 "exact": field.tags != EXTERIOR}

        def assert_calls(*tags):
            assert [tag for tag, _, _ in calls] == list(tags)
            for tag, x, y in calls:
                assert np.array_equal(x, X[nodes[tag]])
                assert np.array_equal(y, Y[nodes[tag]])
            calls.clear()

        assert_calls("boundary", "source")
        assert residual_field(field, spec) <= 1e-10
        assert_calls("source")
        exact = recorded("exact", coshdist_exact)
        field.max_error_against(exact)
        assert_calls("exact")
        sample_exact(spec, exact)
        assert_calls("exact")

    @pytest.mark.parametrize("datum", ["boundary", "source"])
    @pytest.mark.parametrize("value", [
        lambda x, y: 1.0 / (x - x),                             # inf at every node
        lambda x, y: np.where(x > 0.1, np.nan, 1.0),            # NaN at some nodes
    ], ids=["inf", "nan"])
    def test_non_finite_data_is_a_value_error(self, datum, value):
        # the datum runs with numpy's floating-point warnings off, so the
        # ValueError that names it is all that escapes
        spec = GridSpec(beta=1.0, r_max=0.3, h=0.05, **{datum: value})
        with pytest.raises(ValueError, match=datum):
            assemble_and_solve(spec)

    @pytest.mark.parametrize("value", [
        lambda x, y: x[:-1],                         # one node short
        lambda x, y: np.zeros((x.size, 2)),          # two values per node
        lambda x, y: [0.0, 1.0],                     # a list of the wrong length
        lambda x, y: 1j * x,                         # complex
        lambda x, y: "zero",                         # not a number
        lambda x, y: None,                           # no value at all
    ], ids=["short", "two-per-node", "list", "complex", "string", "none"])
    def test_data_that_does_not_fit_the_nodes_is_a_value_error(self, value):
        spec = GridSpec(beta=1.0, r_max=0.3, h=0.05, boundary=value)
        with pytest.raises(ValueError, match="boundary: need real values"):
            assemble_and_solve(spec)

    def test_exact_solution_is_checked_like_the_data(self):
        spec = GridSpec(beta=1.0, r_max=0.3, h=0.05)
        field = assemble_and_solve(spec)
        with pytest.raises(ValueError, match="exact solution"):
            field.max_error_against(lambda x, y: np.full(x.size, np.inf))
        with pytest.raises(ValueError, match="exact solution: need real values"):
            sample_exact(spec, lambda x, y: x[:-1])

    def test_angular_data_match_per_node_math_evaluation(self):
        # np.sin/np.arctan2 and their math counterparts may differ in the
        # last bit; the solved values must stay within 1e-12 * max|f|
        per_node = GridSpec(beta=1.3, r_max=0.9, h=0.03, boundary=lambda x, y: np.array(
            [math.sin(2.0 * math.atan2(b, a)) for a, b in zip(x.tolist(), y.tolist())]))
        field = assemble_and_solve(per_node)
        angular = assemble_and_solve(replace(per_node, boundary=BOUNDARY_CATALOG["angular"]))
        mask = field.tags != EXTERIOR
        scale = np.max(np.abs(field.values[mask]))
        assert np.max(np.abs(angular.values[mask] - field.values[mask])) <= 1e-12 * scale


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
    X, Y = np.meshgrid(field.axis, field.axis, indexing="ij")
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


def sequential_rows(spec, hs, exact):
    """The rows of `convergence_study` from its levels solved one by one on
    the calling thread."""
    levels = []
    for h in hs:
        field = assemble_and_solve(replace(spec, h=h))
        solved = field.values[field.tags != EXTERIOR]
        levels.append((field.max_error_against(exact), float(np.max(np.abs(solved)))))
    rows = []
    for i, (h, (err, scale)) in enumerate(zip(hs, levels)):
        rate = None
        if i and err > RATE_ERROR_FLOOR * scale \
                and levels[i - 1][0] > RATE_ERROR_FLOOR * levels[i - 1][1]:
            rate = math.log(levels[i - 1][0] / err) / math.log(hs[i - 1] / h)
        rows.append(ConvergenceRow(h=h, max_error=err, observed_rate=rate))
    return rows


class LevelFailure(Exception):
    pass


def level_source(spec, hs, react):
    """A source that calls react(level) and is 0 otherwise; the level is
    told by the number of interior nodes it is sampled on."""
    sizes = [int(np.count_nonzero(_lattice(replace(spec, h=h))[1] == INTERIOR)) for h in hs]
    assert len(set(sizes)) == len(hs)

    def source(x, y):
        react(sizes.index(x.size))
        return 0.0
    return source


class TestLadderThreads:
    """`convergence_study` solves the finest level on the calling thread
    and the coarser ones on one helper thread."""

    @pytest.mark.parametrize("limit, hs, finest_cg", [
        (screened_pde.DIRECT_SOLVE_LIMIT, [0.04, 0.02, 0.01, 0.005], 0),
        (2_000, [0.08, 0.04, 0.02], 1),     # the finest level alone runs CG
    ])
    def test_rows_match_solving_the_levels_one_by_one(self, limit, hs, finest_cg,
                                                      monkeypatch):
        monkeypatch.setattr(screened_pde, "DIRECT_SOLVE_LIMIT", limit)
        threads = {"cg": [], "spsolve": []}
        for name, seen in threads.items():
            def record(*args, _solve=getattr(spla, name), _seen=seen, **options):
                _seen.append(threading.current_thread())
                return _solve(*args, **options)
            monkeypatch.setattr(screened_pde.spla, name, record)
        spec = manufactured_spec(beta=2.5, r_max=0.8, h=hs[0])
        before = threading.active_count()
        rows = convergence_study(spec, hs, coshdist_exact)
        assert threading.active_count() == before
        # one class solve per level, the finest one on the calling thread
        main = threading.main_thread()
        assert len(threads["cg"]) + len(threads["spsolve"]) == len(hs)
        assert [t is main for t in threads["cg"]] == [True] * finest_cg
        assert sum(t is main for t in threads["spsolve"]) == 1 - finest_cg
        assert rows == sequential_rows(spec, hs, coshdist_exact)
        assert all(1.5 <= row.observed_rate <= 2.5 for row in rows[1:])

    def test_rows_hold_under_frequent_thread_switches(self):
        # both threads factorize at once; the rows stay bit for bit
        hs = [0.04, 0.02, 0.01]
        spec = manufactured_spec(beta=1.3, r_max=0.9, h=hs[0])
        reference = sequential_rows(spec, hs, coshdist_exact)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert convergence_study(spec, hs, coshdist_exact) == reference
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", [{0, 3}, {1, 3}, {2, 3}, {0, 2}, {1}, {3}])
    def test_the_coarsest_failing_level_is_raised(self, failing):
        hs = [0.16, 0.08, 0.04, 0.02]
        spec = GridSpec(beta=2.0, r_max=0.8, h=hs[0], boundary=coshdist_exact)

        def react(level):
            if level in failing:
                raise LevelFailure(level)
        spec = replace(spec, source=level_source(spec, hs, react))
        before = threading.active_count()
        with pytest.raises(LevelFailure) as info:
            convergence_study(spec, hs, coshdist_exact)
        assert info.value.args == (min(failing),)
        assert threading.active_count() == before

    def test_an_interrupt_on_the_calling_thread_cancels_the_queued_levels(self):
        hs = [0.16, 0.08, 0.04, 0.02]
        spec = GridSpec(beta=2.0, r_max=0.8, h=hs[0], boundary=coshdist_exact)
        started = []

        def react(level):
            started.append(level)
            if level == 0:
                time.sleep(0.3)     # the helper is busy when the interrupt comes
            if level == len(hs) - 1:
                raise KeyboardInterrupt
        spec = replace(spec, source=level_source(spec, hs, react))
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            convergence_study(spec, hs, coshdist_exact)
        assert threading.active_count() == before
        assert set(started) <= {0, 3} and 3 in started

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="nice values are per thread on Linux only")
    def test_the_helper_runs_at_the_lowest_priority(self):
        hs = [0.16, 0.08, 0.04]
        spec = GridSpec(beta=2.0, r_max=0.8, h=hs[0], boundary=coshdist_exact)
        nice = {}

        def react(level):
            nice[level] = os.getpriority(os.PRIO_PROCESS, threading.get_native_id())
        spec = replace(spec, source=level_source(spec, hs, react))
        caller = os.getpriority(os.PRIO_PROCESS, threading.get_native_id())
        convergence_study(spec, hs, coshdist_exact)
        assert nice == {0: 19, 1: 19, 2: caller}
        assert os.getpriority(os.PRIO_PROCESS, threading.get_native_id()) == caller


class TestRateFloor:
    @pytest.mark.parametrize("argv", [
        ("--beta", "2", "--rmax", "1e-60", "--h", "1e-62,5e-63"),
        ("--beta", "1e150", "--h", "0.01,0.005,0.0035"),     # direct levels and one CG
    ])
    def test_rates_from_errors_at_the_rounding_floor_are_null(self, argv):
        buf = io.StringIO()
        assert run(["pde", "converge", *argv, "--format", "json", "--quiet"], out=buf) == 0
        rows = json.loads(buf.getvalue())["rows"]
        assert [row["observed_rate"] for row in rows] == [None] * len(rows)

    def test_an_error_at_the_floor_gives_no_rate(self, monkeypatch):
        # (max error, max|f|) per level; the floor itself counts as rounding
        levels = {0.16: (1e-3, 1.0), 0.08: (2.5e-4, 1.0), 0.04: (1e-8, 1.0),
                  0.02: (4e-6, 100.0), 0.01: (1e-6, 99.0), 0.005: (2.5e-7, 25.0)}
        monkeypatch.setattr(screened_pde, "_measure_level",
                            lambda spec, exact: levels[spec.h])
        spec = GridSpec(beta=1.0, r_max=0.8, h=0.16)
        rows = convergence_study(spec, list(levels), coshdist_exact)
        assert [row.observed_rate for row in rows] == [None, 2.0, None, None, 2.0, None]


class TestOperatorConsistency:
    def test_discrete_matches_continuous_residual_at_second_order(self):
        # the nodal stencil residual of a smooth non-solution field must
        # approach the continuous [lap_g - beta] f value at O(h^2)
        from warpverify.geometry2d import Point2, laplace_beltrami, poincare_disk
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
                th = np.arctan2(y, x)
                return (c[0] + c[1] * np.sin(th) + c[2] * np.cos(th)
                        + c[3] * np.sin(2 * th) + c[4] * np.cos(2 * th))

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


def d4_images(a):
    """a under the eight symmetries of the square lattice: the identity,
    the reflections in the axes and diagonals and the rotations."""
    return [b for t in (a, a.T) for b in (t, t[::-1, :], t[:, ::-1], t[::-1, ::-1])]


class TestSymmetry:
    def test_quarter_turn_invariance(self):
        # radial boundary data on the origin-symmetric lattice
        spec = GridSpec(beta=1.0, r_max=0.6, h=0.05,
                        boundary=lambda x, y: x * x + y * y)
        field = assemble_and_solve(spec)
        vals = np.where(field.tags == EXTERIOR, 0.0, field.values)
        rotated = np.rot90(vals)
        assert np.array_equal(np.rot90(field.tags), field.tags)
        assert np.array_equal(rotated, vals)

    @pytest.mark.parametrize("spec", [
        GridSpec(beta=1.3, r_max=0.9, h=0.013, boundary=coshdist_exact),
        GridSpec(beta=0.4, r_max=0.77, h=0.0061, boundary=BOUNDARY_CATALOG["one"]),
        manufactured_spec(beta=2.5, r_max=0.8, h=0.0093),
    ], ids=["coshdist", "one", "manufactured"])
    def test_radial_solutions_are_exactly_d4_invariant(self, spec):
        values = assemble_and_solve(spec).values
        for image in d4_images(values):
            assert np.array_equal(image, values, equal_nan=True)

    def test_angular_solution_is_exactly_odd_and_diagonal_symmetric(self):
        spec = GridSpec(beta=1.3, r_max=0.9, h=0.011, boundary=BOUNDARY_CATALOG["angular"])
        values = assemble_and_solve(spec).values
        assert np.array_equal(-values[::-1, :], values, equal_nan=True)
        assert np.array_equal(-values[:, ::-1], values, equal_nan=True)
        assert np.array_equal(values.T, values, equal_nan=True)
        assert np.nanmax(np.abs(values)) > 0.5


def reference_lattice(spec):
    """The lattice from its two coordinate meshes: (axis, tags, X, Y).  The
    solver reads coordinates off the axis; it must give these bits."""
    n = screened_pde._half_width(spec.r_max, spec.h)
    axis = np.arange(-n, n + 1, dtype=float) * spec.h
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    inside = X * X + Y * Y <= spec.r_max * spec.r_max + 1e-12
    interior = np.zeros_like(inside)
    interior[1:-1, 1:-1] = (inside[1:-1, 1:-1] & inside[:-2, 1:-1] & inside[2:, 1:-1]
                            & inside[1:-1, :-2] & inside[1:-1, 2:])
    tags = np.full(inside.shape, EXTERIOR, dtype=np.int8)
    tags[inside] = BOUNDARY
    tags[interior] = INTERIOR
    return axis, tags, X, Y


def reference_assemble(spec):
    """The interior system's data as lattice arrays from the meshes: (tags,
    boundary values, conformal weight, right-hand side), the last 0 off
    the interior and the Dirichlet terms summed as (E + W) + (N + S)."""
    _, tags, X, Y = reference_lattice(spec)
    interior, boundary = tags == INTERIOR, tags == BOUNDARY
    weight = _conformal_weight(X, Y)
    scaled = weight[interior] / (spec.h * spec.h)
    bvals = np.zeros(tags.shape)
    bvals[boundary] = _sample(spec.boundary_fn(), X[boundary], Y[boundary], "boundary")
    src = _sample(spec.source_fn(), X[interior], Y[interior], "source")
    inner = interior[1:-1, 1:-1]
    east, west, north, south = (scaled * b[inner] for b in (
        bvals[2:, 1:-1], bvals[:-2, 1:-1], bvals[1:-1, 2:], bvals[1:-1, :-2]))
    rhs = np.zeros(tags.shape)
    rhs[interior] = src + ((east + west) + (north + south))
    return tags, bvals, weight, rhs


def reference_residual(field, spec):
    """`residual_field` on the meshes, its Laplacian over the lattice."""
    _, tags, X, Y = reference_lattice(spec)
    f = field.values
    interior = tags == INTERIOR
    lap5 = np.zeros_like(f)
    lap5[1:-1, 1:-1] = (f[:-2, 1:-1] + f[2:, 1:-1] + f[1:-1, :-2] + f[1:-1, 2:]
                        - 4.0 * f[1:-1, 1:-1]) / (spec.h * spec.h)
    w = _conformal_weight(X[interior], Y[interior])
    psi = _sample(spec.source_fn(), X[interior], Y[interior], "source")
    return float(np.max(np.abs(w * lap5[interior] - spec.beta * f[interior] + psi)))


def reference_samples(field, exact):
    """exact at the non-exterior nodes of field, read off the meshes."""
    X, Y = np.meshgrid(field.axis, field.axis, indexing="ij")
    mask = field.tags != EXTERIOR
    return _sample(exact, X[mask], Y[mask], "exact solution")


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def whole_lattice_system(spec):
    """The interior system M f = rhs over the whole lattice, its unknowns
    numbered row-major: (conformal weight at the unknowns, M as CSR, rhs).
    The solver never builds it; the class systems are checked against it."""
    tags, _, weight, rhs = reference_assemble(spec)
    interior = tags == INTERIOR
    scaled = weight[interior] / (spec.h * spec.h)
    # In the row-major numbering the columns of a row, in increasing order,
    # are the nodes at flat lattice offsets -(2n+1), -1, 0, 1, 2n+1 from it;
    # Dirichlet neighbours are left out.
    near = np.flatnonzero(interior)[:, None] + np.array(
        [-tags.shape[1], -1, 0, 1, tags.shape[1]])
    coupled = interior.reshape(-1)[near]
    vals = np.repeat(-scaled[:, None], 5, axis=1)
    vals[:, 2] = spec.beta + 4.0 * scaled
    M = sp.csr_matrix(
        (vals[coupled], numbering(interior).reshape(-1)[near[coupled]],
         np.concatenate(([0], np.cumsum(coupled.sum(axis=1))))),
        shape=(scaled.size, scaled.size))
    return weight[interior], M, rhs[interior]


def reference_solve(spec, **options):
    """Interior values from one unsplit `spsolve` of the whole-lattice system."""
    _, M, rhs = whole_lattice_system(spec)
    return spla.spsolve(M, rhs, **options)


def assert_matches_reference(field, reference):
    solved = field.values[field.interior_mask]
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solved - reference)) <= 1e-12 * scale


def mirrored(a):
    """a under x -> -x, y -> -y and x <-> y on the lattice."""
    return a[::-1, :], a[:, ::-1], a.T


def seeded_asymmetric_spec(seed, beta=0.9, r_max=0.85, h=0.03):
    """Source and boundary data with no mirror symmetry: all four parity
    classes of the split carry a right-hand side."""
    c = np.random.default_rng(seed).normal(size=6)
    return GridSpec(
        beta=beta, r_max=r_max, h=h,
        source=lambda x, y: c[0] * x + c[1] * y * y + c[2] * x * y + np.exp(c[3] * x - y),
        boundary=lambda x, y: np.sin(3.0 * x + c[4]) + c[5] * y)


SPLIT_SPECS = {
    **{bc: GridSpec(beta=1.3, r_max=0.9, h=0.025, boundary=fn)
       for bc, fn in sorted(BOUNDARY_CATALOG.items())},
    "manufactured": manufactured_spec(beta=2.5, r_max=0.8, h=0.02),
    "asymmetric-1": seeded_asymmetric_spec(1),
    "asymmetric-2": seeded_asymmetric_spec(2, beta=3.7, r_max=0.6, h=0.011),
    "odd-in-x": GridSpec(beta=1.0, r_max=0.7, h=0.02, source=lambda x, y: x * np.cos(y),
                         boundary=lambda x, y: x * y * y),
    "odd-in-y": GridSpec(beta=1.0, r_max=0.7, h=0.02, boundary=lambda x, y: y),
}


def numbering(interior):
    """The rows of M at the interior nodes of the lattice, -1 elsewhere."""
    num = np.full(interior.shape, -1)
    num[interior] = np.arange(interior.sum())
    return num


def folded_whole_rows(M, interior, parity, swap=None):
    """A class system built over every interior node: the fold map of all
    of them onto the kept nodes as a signed matrix E, then M[rows] @ E.
    Returns the kept nodes, the matrix and the orbit sizes (how many
    interior nodes E folds onto each kept node)."""
    n = interior.shape[0] // 2
    a, b = parity
    keep = interior[n:, n:].copy()
    keep[:a] = False
    keep[:, :b] = False
    if swap is not None:
        keep &= np.tri(n + 1, dtype=bool, k=-swap)
    k, l = np.nonzero(keep)
    column = np.full(keep.shape, -1)
    column[k, l] = np.arange(k.size)
    ii, jj = np.nonzero(interior)
    ki, lj = np.abs(ii - n), np.abs(jj - n)
    sign = np.where(ii < n, 1.0 - 2 * a, 1.0) * np.where(jj < n, 1.0 - 2 * b, 1.0)
    if swap is not None:
        flip = ki < lj
        ki, lj = np.maximum(ki, lj), np.minimum(ki, lj)
        sign[flip] *= 1.0 - 2 * swap
    folded = column[ki, lj]
    kept = folded >= 0
    E = sp.csr_matrix((sign[kept], (np.flatnonzero(kept), folded[kept])),
                      shape=(ii.size, k.size))
    rows = numbering(interior)[n + k, n + l]
    return (k, l), M[rows] @ E, np.bincount(folded[kept], minlength=k.size)


CLASSES = [((0, 0), 0), ((0, 0), 1), ((1, 1), 0), ((1, 1), 1), ((0, 1), None),
           ((1, 0), None), ((0, 0), None), ((1, 1), None)]


class TestMirrorSplit:
    @pytest.mark.parametrize("r_max, h", [(0.3, 0.05), (0.9, 0.03), (0.8, 0.0123),
                                          (0.95, 0.0031)])
    def test_lattice_and_weight_are_exactly_mirror_invariant(self, r_max, h):
        axis, tags = _lattice(GridSpec(beta=1.0, r_max=r_max, h=h))
        assert np.array_equal(axis[::-1], -axis)
        w = _conformal_weight(*np.meshgrid(axis, axis, indexing="ij"))
        for image in mirrored(tags):
            assert np.array_equal(image, tags)
        for image in mirrored(w):
            assert np.array_equal(image, w)

    @pytest.mark.parametrize("name", ["angular", "asymmetric-1"])
    def test_even_odd_matrix_is_the_transposed_odd_even_one(self, name):
        spec = SPLIT_SPECS[name]
        axis, tags = _lattice(spec)
        interior = tags == INTERIOR
        (k, l), even_odd, _ = _class_system(interior, axis, spec.beta, spec.h, (0, 1))
        (k_t, l_t), odd_even, _ = _class_system(interior, axis, spec.beta, spec.h, (1, 0))
        # both number their nodes row-major; renumber the (odd, even)
        # unknowns so that its j-th sits at the transpose of the j-th
        # (even, odd) node
        index = np.full(interior.shape, -1)
        index[k_t, l_t] = np.arange(k_t.size)
        order = index[l, k]
        assert np.array_equal(np.sort(order), np.arange(k.size))
        assert np.array_equal(k, l_t[order]) and np.array_equal(l, k_t[order])
        odd_even = odd_even[order][:, order]
        assert even_odd.shape == odd_even.shape == (k.size, k.size)
        assert (even_odd != odd_even).nnz == 0
        assert even_odd.nnz == odd_even.nnz

    @pytest.mark.parametrize("spec", [
        SPLIT_SPECS["angular"], SPLIT_SPECS["asymmetric-2"], GridSpec(beta=0.3, r_max=0.3, h=0.05),
        GridSpec(beta=1.0, r_max=0.95, h=0.0031)], ids=["angular", "asymmetric-2", "small", "fine"])
    def test_class_matrices_equal_the_folded_whole_rows(self, spec):
        # writing and folding only the stencils of the kept rows gives,
        # entry for entry, the rows of the whole-lattice M folded by the
        # whole-lattice fold map
        axis, tags = _lattice(spec)
        interior = tags == INTERIOR
        _, M, _ = whole_lattice_system(spec)
        for parity, swap in CLASSES:
            nodes, A, orbit = _class_system(interior, axis, spec.beta, spec.h, parity, swap)
            want_nodes, want, want_orbit = folded_whole_rows(M, interior, parity, swap)
            assert np.array_equal(nodes, want_nodes)
            A.sort_indices()
            want = want.tocsr()
            want.sort_indices()
            for got, expected in zip((A.indptr, A.indices, A.data),
                                     (want.indptr, want.indices, want.data)):
                assert np.array_equal(got, expected)
            assert np.array_equal(orbit, want_orbit)

    @pytest.mark.parametrize("name", sorted(SPLIT_SPECS))
    def test_split_solve_matches_one_unsplit_spsolve(self, name):
        spec = SPLIT_SPECS[name]
        assert_matches_reference(assemble_and_solve(spec), reference_solve(spec))

    @pytest.mark.parametrize("spec", [
        *(GridSpec(beta=1.3, r_max=0.9, h=0.02, boundary=fn)
          for _, fn in sorted(BOUNDARY_CATALOG.items())),
        manufactured_spec(beta=2.5, r_max=0.8, h=0.02),
    ], ids=[*sorted(BOUNDARY_CATALOG), "manufactured"])
    def test_direct_solve_matches_natural_order(self, spec):
        # the split solve against one unsplit natural-order solve
        assert_matches_reference(assemble_and_solve(spec),
                                 reference_solve(spec, permc_spec="NATURAL"))

    @pytest.mark.parametrize("name, solves, classes", [
        ("coshdist", 1, 1), ("one", 1, 1), ("manufactured", 1, 1), ("zero", 0, 0),
        ("odd-in-x", 1, 1), ("odd-in-y", 1, 1), ("asymmetric-1", 5, 6), ("angular", 1, 1),
    ])
    def test_one_factorization_per_class_the_data_excite(self, name, solves, classes,
                                                         monkeypatch):
        # data symmetric under the whole group excite only the symmetric
        # (even, even) octant class, the angular data only the symmetric
        # (odd, odd) one and data odd in one coordinate one mixed class;
        # the two mixed classes share one quarter matrix and one solve with
        # two right-hand sides; data with no symmetry excite the four
        # octant classes as well, and zero data need no solve at all
        calls = []
        solve = spla.spsolve

        def counted(A, b, **options):
            calls.append((A.shape[0], 1 if b.ndim == 1 else b.shape[1]))
            return solve(A, b, **options)

        monkeypatch.setattr(screened_pde.spla, "spsolve", counted)
        field = assemble_and_solve(SPLIT_SPECS[name])
        assert len(calls) == solves
        assert sum(columns for _, columns in calls) == classes
        # octant solves (about N/8 unknowns, one right-hand side each) come
        # first, then the quarter solve (about N/4)
        octants = {"odd-in-x": 0, "odd-in-y": 0, "asymmetric-1": 4}.get(name, solves)
        n_int, edge = field.interior_mask.sum(), 2 * len(field.axis)
        for k, (unknowns, columns) in enumerate(calls):
            part = 8 if k < octants else 4
            assert columns == 1 or part == 4
            assert n_int / part - edge < unknowns < n_int / part + edge


def nonsymmetric_exact(x, y):
    return np.cos(x - 2.0 * y) + x * y * y


class TestAxisDataFlow:
    """The solver reads node coordinates off the 1D axis and keeps no
    lattice-sized weight, boundary or right-hand-side array; every float
    must equal, bit for bit, the one the coordinate meshes give."""

    @pytest.mark.parametrize("r_max, h", [(0.3, 0.05), (0.9, 0.03), (0.8, 0.0123),
                                          (0.95, 0.0031), (0.999, 0.002004)])
    def test_lattice_tags_match_the_mesh_classification(self, r_max, h):
        spec = GridSpec(beta=1.0, r_max=r_max, h=h)
        axis, tags = _lattice(spec)
        want_axis, want_tags, _, _ = reference_lattice(spec)
        assert_same_bits(axis, want_axis)
        assert_same_bits(tags, want_tags)

    @pytest.mark.parametrize("r_max, h", [(0.3, 0.05), (0.8, 0.0123)])
    def test_node_coordinates_match_the_meshes(self, r_max, h):
        axis, tags, X, Y = reference_lattice(GridSpec(beta=1.0, r_max=r_max, h=h))
        scattered = np.random.default_rng(7).random(tags.shape) < 0.3
        for mask in (tags == INTERIOR, tags == BOUNDARY, tags != EXTERIOR, scattered):
            x, y = _nodes(axis, mask)
            assert_same_bits(x, X[mask])
            assert_same_bits(y, Y[mask])

    @pytest.mark.parametrize("name", sorted(SPLIT_SPECS))
    def test_assembled_classes_match_the_mesh_assembly(self, name):
        # the boundary values in row-major order, and the class right-hand
        # sides as the mirror transform of the lattice right-hand side
        spec = SPLIT_SPECS[name]
        _, tags, bvals, classes = _assemble(spec)
        want_tags, want_bvals, _, rhs = reference_assemble(spec)
        assert_same_bits(tags, want_tags)
        assert_same_bits(bvals, want_bvals[tags == BOUNDARY])
        for got, want in zip(classes, _mirror_transform(_quadrants(rhs))):
            for got_class, want_class in zip(got, want):
                if isinstance(got_class, float):
                    assert got_class == 0.0 and not want_class.any()
                else:
                    assert_same_bits(got_class, want_class)

    @pytest.mark.parametrize("name, arrays", [
        ("coshdist", {(0, 0)}), ("one", {(0, 0)}), ("manufactured", {(0, 0)}),
        ("angular", {(1, 1)}), ("odd-in-x", {(1, 0)}), ("odd-in-y", {(0, 1)}),
        ("asymmetric-1", {(0, 0), (0, 1), (1, 0), (1, 1)}), ("zero", set()),
    ])
    def test_only_the_excited_classes_are_arrays(self, name, arrays):
        # a class the data leave zero is the scalar 0.0, never a quarter array
        classes = _assemble(SPLIT_SPECS[name])[3]
        got = {(a, b) for a in (0, 1) for b in (0, 1)
               if isinstance(classes[a][b], np.ndarray)}
        assert got == arrays
        assert all(classes[a][b] == 0.0 for a in (0, 1) for b in (0, 1)
                   if (a, b) not in arrays)

    @pytest.mark.parametrize("name", [*sorted(BOUNDARY_CATALOG), "manufactured", "asymmetric-1"])
    def test_residual_and_exact_samples_match_the_meshes(self, name):
        spec = SPLIT_SPECS[name]
        field = assemble_and_solve(spec)
        assert_same_bits(residual_field(field, spec), reference_residual(field, spec))
        mask = field.tags != EXTERIOR
        ref = reference_samples(field, nonsymmetric_exact)
        assert_same_bits(field.max_error_against(nonsymmetric_exact),
                         np.max(np.abs(field.values[mask] - ref)))
        sampled = sample_exact(spec, nonsymmetric_exact)
        assert_same_bits(sampled.values[mask], ref)
        assert np.isnan(sampled.values[~mask]).all()

    def test_overflowing_right_hand_side_is_a_value_error(self):
        # each source value is finite, but the sums that split it into
        # symmetry classes are not
        spec = GridSpec(beta=1.0, r_max=0.6, h=0.1, source=lambda x, y: 1e308)
        with pytest.raises(ValueError, match="right-hand side overflows"):
            assemble_and_solve(spec)


def counted_cg(monkeypatch):
    """Replace `spla.cg` inside the solver by one that records the size of
    each system and the iterations it runs."""
    calls = []
    cg = spla.cg

    def counted(A, b, **options):
        calls.append([A.shape[0], 0])
        return cg(A, b, callback=lambda x: calls[-1].__setitem__(1, calls[-1][1] + 1),
                  **options)

    monkeypatch.setattr(screened_pde.spla, "cg", counted)
    return calls


class TestClassConjugateGradients:
    @pytest.mark.parametrize("name, classes", [
        ("coshdist", 1), ("one", 1), ("manufactured", 1), ("angular", 1), ("odd-in-x", 1),
        ("asymmetric-1", 6), ("asymmetric-2", 6),
    ])
    def test_matches_the_direct_split(self, name, classes, monkeypatch):
        spec = SPLIT_SPECS[name]
        direct = assemble_and_solve(spec).values
        monkeypatch.setattr(screened_pde, "DIRECT_SOLVE_LIMIT", 0)
        calls = counted_cg(monkeypatch)
        values = assemble_and_solve(spec).values
        # one CG solve per excited class and right-hand side
        assert len(calls) == classes
        scale = np.nanmax(np.abs(direct))
        assert np.nanmax(np.abs(values - direct)) <= 1e-9 * scale

    @pytest.mark.parametrize("name", ["coshdist", "one", "manufactured", "angular", "odd-in-x"])
    def test_one_class_runs_the_whole_lattice_iteration(self, name, monkeypatch):
        # the class iteration is CG on diag(1/w) M restricted to the class,
        # so it stops after as many iterations as CG on the whole lattice
        spec = SPLIT_SPECS[name]
        weight, M, rhs = whole_lattice_system(spec)
        whole = []
        d = 1.0 / weight
        _, info = spla.cg(sp.diags(d) @ M, d * rhs, rtol=screened_pde.CG_RTOL, atol=0.0,
                          callback=lambda x: whole.append(1))
        assert info == 0
        monkeypatch.setattr(screened_pde, "DIRECT_SOLVE_LIMIT", 0)
        calls = counted_cg(monkeypatch)
        assemble_and_solve(spec)
        assert len(calls) == 1
        unknowns, iterations = calls[0]
        assert unknowns < M.shape[0] / 3
        assert iterations == len(whole)

    @pytest.mark.parametrize("spec", [SPLIT_SPECS["asymmetric-2"],
                                      manufactured_spec(2.5, 0.8, 0.0035)],
                             ids=["asymmetric-2", "calibration-finest"])
    def test_symmetrized_matrix_is_the_diagonal_product(self, spec, monkeypatch):
        # B is written entry by entry as (root/w)[row] * a * (1/root)[col]:
        # the bits, the column order and so the CG iterates of
        # diag(root/w) @ A @ diag(1/root)
        class Captured(Exception):
            pass

        def capture(B, b, **options):
            raise Captured(B)

        monkeypatch.setattr(screened_pde.spla, "cg", capture)
        axis, tags = _lattice(spec)
        interior, n = tags == INTERIOR, len(axis) // 2
        for parity, swap in CLASSES:
            (k, l), A, orbit = _class_system(interior, axis, spec.beta, spec.h, parity, swap)
            root, w = np.sqrt(orbit), _conformal_weight(axis[n + k], axis[n + l])
            with pytest.raises(Captured) as info:
                _class_cg(A, np.ones(k.size), root, w)
            got = info.value.args[0]
            want = (sp.diags(root / w) @ A @ sp.diags(1.0 / root)).tocsr()
            for part in ("indptr", "indices", "data"):
                assert_same_bits(getattr(got, part), getattr(want, part))

    def test_scaling_the_right_hand_side_by_a_power_of_two_is_exact(self):
        # b = 2**600 once squared in a dot product overflows; the scaled
        # iteration runs without a warning and returns exactly 2**600 x
        spec = SPLIT_SPECS["coshdist"]
        axis, tags = _lattice(spec)
        interior, n = tags == INTERIOR, len(axis) // 2
        (k, l), A, orbit = _class_system(interior, axis, spec.beta, spec.h, (0, 0), 0)
        root, w = np.sqrt(orbit), _conformal_weight(axis[n + k], axis[n + l])
        b = 1.0 + np.cos(k) * np.sin(l)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _class_cg(A, b, root, w)
            big = _class_cg(A, 2.0 ** 600 * b, root, w)
        assert_same_bits(big, 2.0 ** 600 * x)

    def test_stall_is_a_solver_error_with_the_class_residual(self, monkeypatch):
        monkeypatch.setattr(screened_pde, "DIRECT_SOLVE_LIMIT", 0)
        monkeypatch.setattr(screened_pde, "CG_MAX_ITER", 1)
        with pytest.raises(SolverError) as info:
            assemble_and_solve(SPLIT_SPECS["coshdist"])
        assert math.isfinite(info.value.final_residual)
        assert info.value.final_residual > 0.0


class TestClassAssembly:
    @pytest.mark.parametrize("name", ["coshdist", "asymmetric-1"])
    @pytest.mark.parametrize("limit", [screened_pde.DIRECT_SOLVE_LIMIT, 0], ids=["direct", "cg"])
    def test_no_matrix_spans_the_whole_interior(self, name, limit, monkeypatch):
        shapes = []
        csr_matrix = sp.csr_matrix

        def recorded(*args, **options):
            matrix = csr_matrix(*args, **options)
            shapes.append(matrix.shape)
            return matrix

        monkeypatch.setattr(screened_pde, "DIRECT_SOLVE_LIMIT", limit)
        monkeypatch.setattr(screened_pde.sp, "csr_matrix", recorded)
        field = assemble_and_solve(SPLIT_SPECS[name])
        n_int = np.count_nonzero(field.interior_mask)
        assert shapes
        assert all(rows < n_int for rows, _ in shapes)

    @pytest.mark.parametrize("h, unknowns", [(0.0035, 162_865), (0.005, 79_477)],
                             ids=["cg", "direct"])
    def test_traced_peak_of_a_solve_and_its_checks(self, h, unknowns):
        # the solve, its error against the exact solution and its residual
        # stay within 9 lattice-sized float arrays (5.6 measured; 11.7-11.8
        # while coordinate meshes, the lattice weight, boundary values and
        # right-hand side and every class's quarters were held at once, 30
        # with the whole-lattice matrix and its N x 5 temporaries)
        spec = manufactured_spec(2.5, 0.8, h)
        tracemalloc.start()
        try:
            field = assemble_and_solve(spec)
            field.max_error_against(coshdist_exact)
            residual_field(field, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(field.interior_mask) == unknowns
        assert (unknowns > screened_pde.DIRECT_SOLVE_LIMIT) == (h == 0.0035)
        assert peak <= 9 * field.values.nbytes

    @pytest.mark.parametrize("offset, solver", [(0, "spsolve"), (-1, "cg")])
    def test_solver_switch_compares_the_whole_interior_count(self, offset, solver,
                                                             monkeypatch):
        # the one excited class is far smaller than the limit either way
        spec = SPLIT_SPECS["coshdist"]
        n_int = np.count_nonzero(_lattice(spec)[1] == INTERIOR)
        monkeypatch.setattr(screened_pde, "DIRECT_SOLVE_LIMIT", n_int + offset)
        calls = []
        for name in ("spsolve", "cg"):
            def counted(*args, _name=name, _solve=getattr(spla, name), **options):
                calls.append(_name)
                return _solve(*args, **options)
            monkeypatch.setattr(screened_pde.spla, name, counted)
        assemble_and_solve(spec)
        assert calls == [solver]


def reference_grid_csv(field, fh):
    """Reference writer: one `.17g` format per coordinate and value, one
    write per node.  `write_grid_csv` must match it byte for byte."""
    fh.write("x1,x2,tag,value\n")
    n = len(field.axis)
    for i in range(n):
        for j in range(n):
            tag = TAG_NAMES[int(field.tags[i, j])]
            val = field.values[i, j]
            sval = "" if math.isnan(val) else format(val, ".17g")
            fh.write(f"{format(field.axis[i], '.17g')},"
                     f"{format(field.axis[j], '.17g')},{tag},{sval}\n")


def reference_text(field):
    buf = io.StringIO()
    reference_grid_csv(field, buf)
    return buf.getvalue()


def written_text(field, dest_kind, tmp_path):
    if dest_kind == "textio":
        buf = io.StringIO()
        write_grid_csv(field, buf)
        return buf.getvalue()
    path = tmp_path / "grid.csv"
    write_grid_csv(field, str(path))
    return path.read_bytes().decode("ascii")


class TestCsvOutput:
    @pytest.mark.parametrize("dest_kind", ["path", "textio"])
    def test_matches_reference_on_edge_values(self, dest_kind, tmp_path):
        axis = np.array([-1e300, -0.0, 5e-324, 0.1 + 0.2])
        tags = np.array([[EXTERIOR, BOUNDARY, INTERIOR, EXTERIOR],
                         [BOUNDARY, INTERIOR, INTERIOR, BOUNDARY],
                         [EXTERIOR, INTERIOR, BOUNDARY, EXTERIOR],
                         [EXTERIOR, EXTERIOR, EXTERIOR, EXTERIOR]], dtype=np.int8)
        # the value column is empty exactly where the value is NaN, so an
        # interior NaN and a finite exterior value are in here too
        values = np.array([[math.nan, -0.0, 5e-324, math.nan],
                           [1e300, -1e300, math.nan, -5e-324],
                           [math.nan, 2.5e-310, 0.0, 1.0 / 3.0],
                           [math.nan, math.nan, math.nan, math.nan]])
        field = GridField(axis=axis, tags=tags, values=values, h=0.1, r_max=0.3)
        text = written_text(field, dest_kind, tmp_path)
        assert text == reference_text(field)
        assert "\n-0,-0,interior,-1.0000000000000001e+300\n" in text
        assert text.endswith("0.30000000000000004,0.30000000000000004,exterior,\n")

    @pytest.mark.parametrize("bc", sorted(BOUNDARY_CATALOG))
    def test_matches_reference_on_pde_solve_lattice(self, bc, tmp_path):
        path = tmp_path / "grid.csv"
        code = run(["pde", "solve", "--beta", "1.3", "--rmax", "0.9",
                    "--h", "0.03", "--bc", bc, "--out", str(path), "--quiet"],
                   out=io.StringIO())
        assert code == 0
        field = assemble_and_solve(
            GridSpec(beta=1.3, r_max=0.9, h=0.03, boundary=BOUNDARY_CATALOG[bc]))
        expected = reference_text(field)
        assert path.read_bytes() == expected.encode("ascii")
        assert written_text(field, "textio", tmp_path) == expected

    @pytest.mark.parametrize("block_rows", [7, screened_pde.CSV_BLOCK_ROWS])
    def test_matches_reference_across_row_blocks(self, block_rows, monkeypatch):
        # 191 lattice rows: several blocks, the last one partial
        monkeypatch.setattr(screened_pde, "CSV_BLOCK_ROWS", block_rows)
        field = assemble_and_solve(
            GridSpec(beta=1.3, r_max=0.95, h=0.01, boundary=BOUNDARY_CATALOG["coshdist"]))
        n = len(field.axis)
        assert n > 2 * block_rows and n % block_rows != 0
        assert written_text(field, "textio", None) == reference_text(field)

    def test_matches_reference_on_all_distinct_values(self):
        # no symmetry: nothing for the writer to share between nodes
        field = assemble_and_solve(seeded_asymmetric_spec(3, r_max=0.85, h=0.006))
        known = field.values[~np.isnan(field.values)]
        assert field.values.size > 80_000
        assert np.unique(known).size == known.size
        assert written_text(field, "textio", None) == reference_text(field)

    def test_matches_reference_on_an_odd_field(self):
        # exactly odd in x and y: +-v pairs share their digits but not their
        # bits, and the axes carry both 0.0 and -0.0
        field = assemble_and_solve(
            GridSpec(beta=1.3, r_max=0.9, h=0.011, boundary=BOUNDARY_CATALOG["angular"]))
        values = field.values
        assert np.array_equal(-values[::-1, :], values, equal_nan=True)
        zeros = values[values == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        text = written_text(field, "textio", None)
        assert text == reference_text(field)
        assert ",boundary,-0\n" in text and ",boundary,0\n" in text

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
