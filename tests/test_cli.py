"""Command-line interface: dispatch, exit codes, output formats, schemas."""

import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from warpverify import cli
from warpverify.cli import (
    EXIT_NO_ADMISSIBLE, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, EXIT_VERIFY_FAIL,
    SWEEP_CSV_HEADER, TOLERANCES, main, run, to_json,
)
from warpverify.compatibility import (
    build_metric, integrate_s, pq_from_params, strip_points, strip_samples,
    verify_pseudospherical,
)
from warpverify.einstein import residual_report
from warpverify.errors import BacksubstitutionError, ToolkitError
from warpverify.geometry2d import coordinate_u, rescale
from warpverify.relation import PUBLISHED, REDERIVED, relation_poly, solve_lambda
from warpverify.screened_pde import convergence_study, coshdist_exact, manufactured_spec

from support import assert_same_text


def invoke(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


def load_schema(name):
    text = resources.files("warpverify.schemas").joinpath(name).read_text()
    return json.loads(text)


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


class TestRelationSolve:
    def test_admissible_case(self):
        code, out = invoke("relation", "solve", "--m", "3", "--beta", "1", "--quiet")
        assert code == EXIT_OK
        payload = json.loads(out)
        validate(payload, "root_report.schema.json")
        assert sorted(r["value"] for r in payload["roots"]) == [-2.0, 3.0]
        assert payload["admissible_roots"] == [-2.0]

    def test_no_admissible_root_exit_code(self):
        code, out = invoke("relation", "solve", "--m", "1", "--beta", "1", "--quiet")
        assert code == EXIT_NO_ADMISSIBLE
        payload = json.loads(out)
        validate(payload, "root_report.schema.json")
        assert payload["admissible_roots"] == []

    def test_published_variant(self):
        code, out = invoke("relation", "solve", "--m", "3", "--beta", "2",
                           "--variant", "published", "--quiet")
        payload = json.loads(out)
        assert payload["coefficients"]["a0"] == 15.0
        assert code == EXIT_NO_ADMISSIBLE


class TestRelationSweep:
    def test_csv_shape(self):
        code, out = invoke("relation", "sweep", "--m", "2..4", "--beta", "0.5,1",
                           "--format", "csv", "--quiet")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + 3 * 2
        assert lines[1].startswith("2,0.5,rederived,")

    def test_json_schema(self):
        code, out = invoke("relation", "sweep", "--m", "1..3", "--beta", "1",
                           "--format", "json", "--quiet")
        assert code == EXIT_OK
        payload = json.loads(out)
        validate(payload, "sweep.schema.json")
        assert payload["rows"][0]["exists"] == "out_of_domain"


class TestVerify:
    def test_pass(self):
        code, out = invoke("verify", "--m", "3", "--beta", "1", "--quiet")
        assert code == EXIT_OK
        payload = json.loads(out)
        validate(payload, "verify_report.schema.json")
        assert payload["verdict"] == "pass"
        assert payload["params"]["lambda"] == -2.0
        assert payload["params"]["K"] == -0.5

    def test_pass_implies_admissible_root(self):
        code, verify_out = invoke("verify", "--m", "4", "--beta", "0.5", "--quiet")
        assert code == EXIT_OK
        code, solve_out = invoke("relation", "solve", "--m", "4", "--beta", "0.5",
                                 "--quiet")
        assert code == EXIT_OK
        assert len(json.loads(solve_out)["admissible_roots"]) >= 1

    def test_no_admissible_root(self):
        code, _ = invoke("verify", "--m", "1", "--beta", "1", "--quiet")
        assert code == EXIT_NO_ADMISSIBLE

    @pytest.mark.parametrize("m, beta, variant, why", [
        ("1", "1", "rederived", " (fiber dimension m < 2: the profile normalization divides by m - 1)"),
        ("3", "2", "published", ""),
    ])
    def test_relation_solve_and_verify_share_one_refusal(self, m, beta, variant, why, capsys):
        argv = ("--m", m, "--beta", beta, "--variant", variant, "--quiet")
        code, _ = invoke("relation", "solve", *argv)
        assert code == EXIT_NO_ADMISSIBLE
        solve_err = capsys.readouterr().err
        code, out = invoke("verify", *argv)
        assert code == EXIT_NO_ADMISSIBLE and out == ""
        want = f"no admissible root for m = {m}, beta = {float(beta)}, variant = {variant}{why}\n"
        assert solve_err == capsys.readouterr().err == want

    @pytest.mark.parametrize("key", sorted(TOLERANCES))
    def test_each_gate_reads_its_tolerance(self, key, monkeypatch):
        # every measurement passes at (3, 1); a threshold just below its
        # reported value alone must turn the verdict to fail
        code, out = invoke("verify", "--m", "3", "--beta", "1", "--quiet")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        reported = {
            "relation": payload["relation_residual"],
            "compat": payload["compat_max_residual"],
            "curvature": payload["curvature_max_abs_k_plus_1"],
            "einstein": max(payload[f"einstein_max_{part}_residual"]
                            for part in ("tensor", "contracted", "scalar")),
        }[key]
        below = math.nextafter(reported, -math.inf)
        patched = {**TOLERANCES, key: below}
        monkeypatch.setitem(cli.TOLERANCES, key, below)
        code, out = invoke("verify", "--m", "3", "--beta", "1", "--quiet")
        assert code == EXIT_VERIFY_FAIL
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        assert payload["tolerances"] == patched

    def test_vertical_ricci_entry_is_informational(self, monkeypatch):
        # the einstein gate reads the three einstein_* entries only: a
        # vertical error far beyond every tolerance leaves the verdict at
        # pass, a scalar residual above 1e-6 turns it to fail
        def patched(**entries):
            def report(*args):
                return {**residual_report(*args), **entries}
            return report

        monkeypatch.setattr(cli, "residual_report", patched(vertical_ricci_max_error=1.0))
        report = cli.run_verification(3, 1.0)
        assert report["vertical_ricci_max_error"] == 1.0
        assert report["verdict"] == "pass"
        monkeypatch.setattr(cli, "residual_report", patched(
            vertical_ricci_max_error=1.0, einstein_max_scalar_residual=2e-6))
        assert cli.run_verification(3, 1.0)["verdict"] == "fail"

    @pytest.mark.xfail(strict=True, reason=(
        "verify gates relation_residual at an absolute 1e-10 while solve_lambda "
        "accepts a root up to 1e-10 max(1, |a0|); ROADMAP item 2's closed-form "
        "rederived roots have residual 0"))
    def test_a_root_solve_lambda_accepts_passes_the_relation_gate(self):
        assert cli.run_verification(56, 3.9445187560835393)["verdict"] == "pass"

    def test_unattainable_tolerance_fails(self):
        # the published pair fails the compatibility oracle, so its
        # residuals exceed the pinned tolerances
        code, out = invoke("verify", "--m", "5", "--beta", "0.6",
                           "--variant", "published", "--quiet")
        assert code == EXIT_VERIFY_FAIL
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        assert payload["tolerances"] == TOLERANCES


class TestCurvature:
    def test_disk_text(self):
        code, out = invoke("curvature", "--model", "disk", "--at", "0.2,0.4",
                           "--quiet")
        assert code == EXIT_OK
        assert out == "K(0.2, 0.4) = -1\n"

    def test_halfplane_json(self):
        code, out = invoke("curvature", "--model", "halfplane", "--at", "1,2",
                           "--quiet", "--format", "json")
        payload = json.loads(out)
        assert payload["gauss_curvature"] == pytest.approx(-1.0, abs=1e-12)

    def test_outside_domain_is_usage_error(self):
        code, _ = invoke("curvature", "--model", "disk", "--at", "2,0", "--quiet")
        assert code == EXIT_USAGE

    def test_halfplane_far_from_boundary(self):
        # E = G = 1e-16 there: tiny but positive, so the metric is valid
        code, out = invoke("curvature", "--model", "halfplane", "--at", "0,1e8",
                           "--quiet")
        assert code == EXIT_OK
        assert out == "K(0, 100000000) = -1\n"


class TestPde:
    def test_solve_writes_grid(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out = invoke("pde", "solve", "--beta", "2", "--rmax", "0.5",
                           "--h", "0.05", "--bc", "coshdist",
                           "--out", str(out_path), "--quiet")
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x1,x2,tag,value"
        assert "max residual:" in out

    @pytest.mark.parametrize("bc", ["zero", "one", "coshdist", "angular"])
    def test_solve_prints_a_backward_error_at_the_rounding_level(self, bc, tmp_path):
        # direct solves; zero data solve exactly, with residual 0
        code, out = invoke("pde", "solve", "--beta", "1.3", "--rmax", "0.95", "--h", "0.00546",
                           "--bc", bc, "--out", str(tmp_path / "grid.csv"), "--quiet")
        assert code == EXIT_OK
        lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        assert list(lines) == ["interior nodes", "max residual", "backward error"]
        assert lines["interior nodes"] == "94089"
        backward = float(lines["backward error"])
        assert 0.0 <= backward <= 10 * sys.float_info.epsilon
        assert (backward == 0.0) == (bc == "zero") == (float(lines["max residual"]) == 0.0)

    def test_converge_json(self):
        code, out = invoke("pde", "converge", "--beta", "2", "--h", "0.08,0.04",
                           "--rmax", "0.6", "--format", "json", "--quiet")
        assert code == EXIT_OK
        payload = json.loads(out)
        validate(payload, "convergence.schema.json")
        assert payload["rows"][1]["observed_rate"] == pytest.approx(2.0, abs=0.5)

    def test_converge_csv(self):
        code, out = invoke("pde", "converge", "--beta", "2", "--h", "0.08,0.04",
                           "--rmax", "0.6", "--format", "csv", "--quiet")
        lines = out.splitlines()
        assert lines[0] == "h,max_error,observed_rate"
        assert len(lines) == 3

    def test_data_near_the_largest_double_converge_to_the_rounding_level(self):
        # at beta = 1.4e307 the manufactured source is finite everywhere
        # and the right-hand side too, but the sums that split it by
        # symmetry would not be: they are formed after it is scaled by the
        # power of two that puts its max-abs in [1/2, 1); no numpy warning
        # escapes either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = invoke("pde", "converge", "--beta", "1.4e307", "--h", "0.1,0.05",
                               "--rmax", "0.6", "--format", "json", "--quiet")
        assert code == EXIT_OK
        errors = [row["max_error"] for row in json.loads(out)["rows"]]
        assert len(errors) == 2
        assert all(0.0 <= error <= 1e-12 for error in errors)

    def test_calibration_ladder_max_errors(self):
        # the two coarse levels are solved directly, the finest (about
        # 1.6e5 unknowns) by conjugate gradients on one octant
        code, out = invoke("pde", "converge", "--beta", "2.5", "--h", "0.01,0.005,0.0035",
                           "--rmax", "0.8", "--format", "json", "--quiet")
        assert code == EXIT_OK
        errors = [row["max_error"] for row in json.loads(out)["rows"]]
        assert errors == pytest.approx([6.9056576344e-4, 1.8276706058e-4, 9.1718927e-5],
                                       rel=0, abs=1e-10)


class TestUsageErrors:
    def test_unknown_command(self):
        code, _ = invoke("frobnicate")
        assert code == EXIT_USAGE

    def test_missing_required_flag(self):
        code, _ = invoke("relation", "solve", "--m", "3")
        assert code == EXIT_USAGE

    def test_bad_point_syntax(self):
        code, _ = invoke("curvature", "--model", "disk", "--at", "0.2")
        assert code == EXIT_USAGE

    def test_bad_beta_value(self):
        code, _ = invoke("relation", "solve", "--m", "3", "--beta", "-1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("pde", "solve", "--out", "/dev/null"),
        ("pde", "converge", "--h", "0.08,0.04", "--rmax", "0.6"),
        ("relation", "sweep", "--m", "2..3"),
        ("relation", "solve", "--m", "3"),
        ("verify", "--m", "3"),
    ])
    def test_nonfinite_beta_is_usage_error(self, argv, beta, capsys):
        code, out = invoke(*argv, "--beta", beta, "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert "must be finite and positive" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("flag", ["--tol-relation", "--tol-compat",
                                      "--tol-curvature", "--tol-einstein"])
    def test_tolerance_option_is_refused(self, flag, capsys):
        # the verdict's tolerances are pinned in TOLERANCES
        code, out = invoke("verify", "--m", "3", "--beta", "1", flag, "1",
                           "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert err == f"usage error: unrecognized arguments: {flag} 1\n"

    @pytest.mark.parametrize("argv", [
        ("relation", "sweep", "--m", "2..3", "--beta", "1,,2"),
        ("relation", "sweep", "--m", "2..3", "--beta", "1,"),
        ("pde", "converge", "--beta", "2", "--h", "0.1,,0.05"),
        ("pde", "converge", "--beta", "2", "--h", "0.1,0.05,"),
    ])
    def test_empty_list_entry_is_usage_error(self, argv, capsys):
        # empty entries used to be dropped, so these ran as if well-formed
        code, out = invoke(*argv, "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        flag, value = argv[-2:]
        assert capsys.readouterr().err == (
            f"usage error: argument {flag}: invalid _parse_floats value: {value!r}\n")

    def test_oversized_pde_grid_is_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code, out = invoke("pde", "solve", "--beta", "1", "--h", "1e-5",
                           "--out", str(out_path), "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        assert not out_path.exists()
        err = capsys.readouterr().err
        assert "smallest usable h" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("solve", "--h", "5e-324", "--out", "/dev/null"),
        ("solve", "--h", "1e-310", "--out", "/dev/null"),
        ("converge", "--h", "0.1,1e-310"),
    ])
    def test_subnormal_h_is_usage_error(self, argv, capsys):
        # r_max/h overflows to inf; it used to reach int() in _half_width
        # and end in an OverflowError traceback
        code, out = invoke("pde", *argv, "--beta", "1", "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error: mesh spacing h = ")
        assert "gives a lattice of inf^2 nodes, above the 999^2 cap" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_cap_message_prints_a_huge_lattice_compactly(self, capsys):
        code, _ = invoke("pde", "solve", "--beta", "1", "--h", "1e-300",
                         "--out", "/dev/null", "--quiet")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: mesh spacing h = 1e-300 gives a lattice of 1.6e+300^2 nodes, "
            "above the 999^2 cap; the smallest usable h at r_max = 0.8 is 0.00160321\n")

    @pytest.mark.parametrize("case", ["missing_directory", "directory"])
    def test_unwritable_out_path_is_refused_before_the_solve(
            self, case, tmp_path, monkeypatch, capsys):
        from warpverify import screened_pde

        def solve(spec):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(screened_pde, "assemble_and_solve", solve)
        dest = {"missing_directory": tmp_path / "no" / "such" / "g.csv",
                "directory": tmp_path}[case]
        code, out = invoke("pde", "solve", "--beta", "1", "--out", str(dest),
                           "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --out: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("beta, rmax, h, message", [
        ("1e308", "0.8", "0.1,0.05", "source is not finite at every node"),
        ("1.7e308", "1e-153", "2e-154,1.5e-154",
         "right-hand side overflows: source or boundary data too large"),
    ], ids=["source", "right-hand-side"])
    def test_overflowing_data_is_a_usage_error_without_a_warning(self, beta, rmax, h, message,
                                                                 capsys):
        # at beta = 1e308 the manufactured source (beta - 2) f overflows to
        # inf where f > 1.8 (r > 0.53).  At beta = 1.7e308 on a lattice of
        # spacing 1e-154 every source value is finite, but the Dirichlet
        # terms w/h^2 times the boundary values, about 1e307 each, overflow
        # the right-hand side of the ring next to the boundary.  Both are
        # refused by name and no numpy warning escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = invoke("pde", "converge", "--beta", beta, "--h", h,
                               "--rmax", rmax, "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("widths", ["", ",", "0.04"])
    def test_fewer_than_two_mesh_widths_is_usage_error(self, widths, capsys):
        code, out = invoke("pde", "converge", "--beta", "2", "--h", widths,
                           "--rmax", "0.6", "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == "usage error: need at least two mesh widths\n"

    @pytest.mark.parametrize("m", [str(2 ** 63), str(10 ** 400)])
    @pytest.mark.parametrize("argv", [
        ("relation", "solve"),
        ("verify",),
        ("relation", "sweep"),
    ])
    def test_m_beyond_int64_is_usage_error(self, argv, m, capsys):
        # 10**400 used to end in an OverflowError traceback from float(m)
        code, out = invoke(*argv, "--m", m, "--beta", "1", "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == (
            f"usage error: fiber dimension m must be at most 2**53 = {2 ** 53} (doubles "
            f"do not hold every integer above it), got {m}\n")

    @pytest.mark.parametrize("argv, m", [
        (("relation", "solve"), str(2 ** 53 + 1)),
        (("verify",), str(2 ** 53 + 1)),
        (("relation", "sweep"), f"{2 ** 53 - 2}..{2 ** 53 + 1}"),
    ])
    def test_m_beyond_2_to_the_53_is_usage_error(self, argv, m, monkeypatch, capsys):
        # the relation is solved in doubles: m = 2**53 + 1 used to get the
        # roots of m = 2**53, and a usage message at --beta 1e154 named it
        code, out, err = run_main(monkeypatch, capsys, [*argv, "--m", m, "--beta", "1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"usage error: fiber dimension m must be at most 2**53 = {2 ** 53} "
                       f"(doubles do not hold every integer above it), got {2 ** 53 + 1}\n")

    @pytest.mark.parametrize("variant", ["rederived", "published"])
    @pytest.mark.parametrize("beta", [1, 1.0])
    def test_m_of_2_to_the_53_passes_the_limit(self, variant, beta):
        poly = relation_poly(2 ** 53, beta, variant)
        assert poly.m == 2 ** 53 and float(poly.m) == 2.0 ** 53

    @pytest.mark.parametrize("beta", ["1e-160", "1e-162"])
    @pytest.mark.parametrize("argv, betas", [
        (("relation", "solve", "--m", "3"), "{}"),
        (("verify", "--m", "3"), "{}"),
        (("relation", "sweep", "--m", "3..3"), "1,{}"),
    ])
    def test_beta_squared_below_the_smallest_normal_is_usage_error(
            self, argv, betas, beta, capsys):
        # 1e-160 used to print a root 6.5e-6 off as admissible, 1e-162 to
        # find no admissible root: a0 = beta**2 (m**2 + m)/2 underflowed
        code, out = invoke(*argv, "--beta", betas.format(beta), "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == (
            "usage error: screening parameter beta must have beta**2 >= "
            f"2.2250738585072014e-308 (the smallest normal double), got {beta}\n")

    @pytest.mark.parametrize("beta", ["1e-110", "1e110"])
    def test_metric_scale_beyond_double_range_is_usage_error(self, beta, capsys):
        # the base metric is the unit metric times 1/(-K), about 1/beta here
        code, out = invoke("verify", "--m", "3", "--beta", beta, "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert "double-precision range of the curvature formula" in err


class TestNonFiniteRelation:
    @pytest.mark.parametrize("argv", [
        ("relation", "sweep", "--m", "2..3"),
        ("relation", "solve", "--m", "3"),
        ("verify", "--m", "3"),
    ])
    def test_relation_outside_the_double_range_is_usage_error(self, argv, capsys):
        code, out = invoke(*argv, "--beta", "1e200", "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error: the relation at m = ")
        assert "beta = 1e+200" in err and "not finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_sweep_beyond_the_row_cap_is_usage_error(self, capsys):
        code, out = invoke("relation", "sweep", "--m", "1..500001", "--beta", "1,2",
                           "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        assert "exceeds the cap of MAX_SWEEP_ROWS = 1000000 rows" in capsys.readouterr().err


class DiskFullAfterOneWrite:
    """A text file whose first write reaches the disk and whose later
    writes fail with ENOSPC."""

    def __init__(self, fh):
        self.fh, self.written = fh, False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        if self.written:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.fh.write(text)
        self.fh.flush()
        self.written = True


def solve_into_a_full_disk(dest, monkeypatch, capsys):
    """Run `pde solve --out dest` on a disk that fills up once the CSV
    header is written, and check the reported error."""
    from warpverify import screened_pde

    monkeypatch.setattr(screened_pde, "open", raising=False,
                        value=lambda *args, **options: DiskFullAfterOneWrite(
                            open(*args, **options)))
    code, out = invoke("pde", "solve", "--beta", "1", "--rmax", "0.5",
                       "--h", "0.05", "--out", str(dest), "--quiet")
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == \
        f"error: cannot write {dest}: No space left on device\n"


class TestOutputFailures:
    def test_failed_csv_write_is_reported_and_leaves_no_file(
            self, tmp_path, monkeypatch, capsys):
        solve_into_a_full_disk(tmp_path / "g.csv", monkeypatch, capsys)
        assert sorted(tmp_path.iterdir()) == []

    def test_failed_csv_write_removes_a_longer_existing_file(
            self, tmp_path, monkeypatch, capsys):
        # the file is rewritten in place, so its old tail must not outlive
        # the failure either
        dest = tmp_path / "g.csv"
        dest.write_bytes(b"0,0,interior,1\n" * 800)
        solve_into_a_full_disk(dest, monkeypatch, capsys)
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("link", ["symlink", "hardlink"])
    def test_failed_csv_write_through_a_link_leaves_no_rows_under_any_name(
            self, link, tmp_path, monkeypatch, capsys):
        target, dest = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"0,0,interior,1\n" * 800)
        if link == "symlink":
            dest.symlink_to(target)
        else:
            os.link(target, dest)
        solve_into_a_full_disk(dest, monkeypatch, capsys)
        assert sorted(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self, capsys):
        code, out = invoke("pde", "solve", "--beta", "1", "--rmax", "0.5",
                           "--h", "0.05", "--out", "/dev/full", "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == \
            "error: cannot write /dev/full: No space left on device\n"
        assert os.path.exists("/dev/full")

    def test_stdout_closed_early_ends_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "warpverify", "relation", "sweep",
             "--m", "2..30000", "--beta", "0.5,1,2", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == (SWEEP_CSV_HEADER + "\n").encode()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_USAGE
        assert err == b""


class TestDeterminismAndBanner:
    def test_banner_suppressed_by_quiet(self):
        code, loud = invoke("curvature", "--model", "disk", "--at", "0,0")
        _, quiet = invoke("curvature", "--model", "disk", "--at", "0,0", "--quiet")
        assert loud.startswith("warpverify ")
        assert loud.splitlines()[1:] == quiet.splitlines()

    def test_repeated_invocations_identical(self):
        a = invoke("relation", "sweep", "--m", "2..6", "--beta", "0.5,1,2",
                   "--format", "csv", "--quiet")
        b = invoke("relation", "sweep", "--m", "2..6", "--beta", "0.5,1,2",
                   "--format", "csv", "--quiet")
        assert a == b

    def test_subprocess_byte_identical(self):
        cmd = [sys.executable, "-m", "warpverify", "relation", "sweep",
               "--m", "2..5", "--beta", "1,2", "--format", "csv", "--quiet"]
        runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestScipyOnlyForPde:
    """Only the `pde` handlers import `screened_pde`, and with it scipy."""

    def test_a_fresh_interpreter_runs_the_other_commands_without_scipy(self):
        script = "\n".join([
            "import io, sys",
            "from warpverify import cli",
            "def scipy_loaded():",
            "    return sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')",
            "for argv in (['verify', '--m', '3', '--beta', '1'],",
            "             ['relation', 'solve', '--m', '3', '--beta', '1'],",
            "             ['relation', 'sweep', '--m', '2..6', '--beta', '0.5,1', '--format', 'csv'],",
            "             ['relation', 'sweep', '--m', '2..6', '--beta', '0.5,1', '--format', 'json'],",
            "             ['curvature', '--model', 'disk', '--at', '0.3,-0.4']):",
            "    assert cli.run([*argv, '--quiet'], out=io.StringIO()) == 0, argv",
            "print(scipy_loaded())",
            "argv = ['pde', 'converge', '--beta', '2', '--h', '0.1,0.05', '--rmax', '0.6', '--quiet']",
            "assert cli.run(argv, out=io.StringIO()) == 0",
            "print('scipy.sparse.linalg' in scipy_loaded())",
        ])
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\nTrue\n"


class TestFloattextOnlyForTheFloatColumns:
    """Only the sweep emitters and the grid-CSV writer import `floattext`."""

    def test_verify_relation_solve_and_curvature_do_not_load_it(self):
        script = "\n".join([
            "import io, sys",
            "from warpverify import cli",
            "for argv in (['verify', '--m', '3', '--beta', '1'],",
            "             ['relation', 'solve', '--m', '3', '--beta', '1'],",
            "             ['curvature', '--model', 'disk', '--at', '0.3,-0.4']):",
            "    assert cli.run([*argv, '--quiet'], out=io.StringIO()) == 0, argv",
            "print('warpverify.floattext' in sys.modules)",
            "argv = ['relation', 'sweep', '--m', '2..6', '--beta', '0.5,1', '--quiet']",
            "assert cli.run(argv, out=io.StringIO()) == 0",
            "print('warpverify.floattext' in sys.modules)",
        ])
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\nTrue\n"


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestGoldenOutput:
    """Exact stdout and exit code of fixed command lines.  The verify and
    curvature outputs were recorded from the release before the profile,
    field and compatibility kernels were cut to the (linear p, constant q)
    pair, the relation outputs before the per-variant relation
    constructors and the package re-exports were deleted, the m = 40
    and m = 2 verify outputs before profile evaluations inside closure
    trees became method calls, the m = 2 and m = 1 relation outputs
    before `solve_lambda` began returning the printed report, and the
    `pde converge` ladder before `convergence_study` did, the m = 57
    verify output before the verify kernels returned the printed
    entries, the beta = 1e-9 and beta = 1e8 verify outputs before
    profile fields answered through their profile's methods, and the
    published m = 1..6 sweeps before the sweep emitters formatted K once
    per distinct value in a block, printed the admissible root from
    root1's text and each block of rows in one %-format, and the extreme
    beta sweeps and the direct-size `pde solve` grid CSV before the sweep
    and grid-CSV emitters formatted their doubles through
    `floattext.g17`.  The ladder and the grid CSV were re-recorded when
    each direct class solve began eliminating its red nodes before the
    factorization: the grid values moved by at most 6.1e-16 * max|f| and
    the ladder's max_error by at most 4.9e-15, within the 1e-12 bounds
    stated for that change, and again when the black half began to be
    factorized by banded Cholesky instead of SuperLU: the grid values
    moved by at most 4.5e-16 * max|f| (564 of 797 values) and the
    ladder's max_error by at most 2.3e-14, within the same bounds, and
    again when both class solvers began to run on one symmetric class
    matrix scaled by a power of two, each stencil entry multiplied once by
    its row and column scale: the grid values moved by at most
    8.9e-16 * max|f| (616 of 797 values) and the ladder's max_error by at
    most 9.8e-15, within the 1e-13 * max|f| bound stated for that change.
    The ladder is golden in the text format only: its 12 significant
    digits leave room for last-bit differences that a BLAS kernel or an
    older scipy may make in the 17-digit JSON and CSV."""

    @pytest.mark.parametrize("name, argv, exit_code", [
        ("verify_m3_beta1", ("verify", "--m", "3", "--beta", "1"), EXIT_OK),
        ("verify_m5_beta0.6_published", ("verify", "--m", "5", "--beta", "0.6",
                                         "--variant", "published"), EXIT_VERIFY_FAIL),
        ("curvature_disk", ("curvature", "--model", "disk", "--at", "0.3,-0.4",
                            "--format", "json"), EXIT_OK),
        ("curvature_halfplane", ("curvature", "--model", "halfplane", "--at", "1.5,0.25",
                                 "--format", "json"), EXIT_OK),
        ("relation_solve_m3_beta1", ("relation", "solve", "--m", "3", "--beta", "1"), EXIT_OK),
        ("relation_solve_m5_beta0.6_published", ("relation", "solve", "--m", "5", "--beta", "0.6",
                                                 "--variant", "published"), EXIT_OK),
        ("relation_sweep_m2-6_csv", ("relation", "sweep", "--m", "2..6", "--beta", "0.5,1,2",
                                     "--format", "csv"), EXIT_OK),
        ("relation_sweep_m2-6_json", ("relation", "sweep", "--m", "2..6", "--beta", "0.5,1,2",
                                      "--format", "json"), EXIT_OK),
        ("verify_m40_beta2.5", ("verify", "--m", "40", "--beta", "2.5"), EXIT_OK),
        # at m = 2 the relation is degenerate-linear
        ("verify_m2_beta0.25", ("verify", "--m", "2", "--beta", "0.25"), EXIT_OK),
        ("relation_solve_m2_beta3", ("relation", "solve", "--m", "2", "--beta", "3"), EXIT_OK),
        # a double root, inadmissible at m = 1: the report is still printed
        ("relation_solve_m1_beta1", ("relation", "solve", "--m", "1", "--beta", "1"),
         EXIT_NO_ADMISSIBLE),
        ("pde_converge_beta2.5", ("pde", "converge", "--beta", "2.5", "--h", "0.04,0.02,0.01",
                                  "--rmax", "0.8"), EXIT_OK),
        # relation_residual at 98 % of its absolute 1e-10 gate
        ("verify_m57_beta3.81", ("verify", "--m", "57", "--beta", "3.81"), EXIT_OK),
        # the two ends of beta: profiles evaluated at extreme magnitudes
        ("verify_m2_beta1e-9", ("verify", "--m", "2", "--beta", "1e-9"), EXIT_OK),
        ("verify_m3_beta1e8", ("verify", "--m", "3", "--beta", "1e8"), EXIT_OK),
        # out_of_domain rows, rows with 0, 1 and 2 real roots, and 2-root
        # rows with and without an admissible root
        ("relation_sweep_m1-6_published_csv", ("relation", "sweep", "--m", "1..6", "--beta",
                                               "0.5,1.9,3", "--variant", "published",
                                               "--format", "csv"), EXIT_OK),
        ("relation_sweep_m1-6_published_json", ("relation", "sweep", "--m", "1..6", "--beta",
                                                "0.5,1.9,3", "--variant", "published",
                                                "--format", "json"), EXIT_OK),
        # exponents at both ends (1e-05 rows, 1e+17 beside 30000000000000000),
        # a2 = 0 and an empty root2
        ("relation_sweep_m2-4_extremes_csv", ("relation", "sweep", "--m", "2..4", "--beta",
                                              "1e-5,0.7,1e8", "--format", "csv"), EXIT_OK),
        ("relation_sweep_m2-4_extremes_json", ("relation", "sweep", "--m", "2..4", "--beta",
                                               "1e-5,0.7,1e8", "--format", "json"), EXIT_OK),
    ])
    def test_stdout_matches_the_golden_bytes(self, name, argv, exit_code):
        code, out = invoke(*argv, "--quiet")
        assert code == exit_code
        assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()

    def test_pde_solve_grid_csv_matches_the_golden_bytes(self, tmp_path):
        # 709 unknowns, a direct solve; the file holds -0, 0 and negative values
        out = tmp_path / "grid.csv"
        code, printed = invoke("pde", "solve", "--beta", "1.3", "--rmax", "0.8", "--h", "0.05",
                               "--bc", "angular", "--out", str(out), "--quiet")
        assert code == EXIT_OK
        assert printed.startswith("interior nodes: 709\n")
        golden = GOLDEN / "pde_solve_beta1.3_angular_grid.csv"
        assert_same_text(out.read_bytes().decode("ascii"), golden.read_bytes().decode("ascii"))

    def test_published_sweep_golden_meets_the_schema(self):
        payload = json.loads((GOLDEN / "relation_sweep_m1-6_published_json.txt").read_text())
        validate(payload, "sweep.schema.json")
        assert {(len(row["roots"]), row["admissible_root"] is None, row["exists"])
                for row in payload["rows"]} == {
            (2, True, "out_of_domain"), (0, True, "out_of_domain"), (1, False, "true"),
            (2, False, "true"), (2, True, "false")}

    def test_run_verification_returns_the_printed_report(self):
        report = cli.run_verification(3, 1.0)
        validate(report, "verify_report.schema.json")
        assert (to_json(report) + "\n").encode() == (GOLDEN / "verify_m3_beta1.txt").read_bytes()

    @pytest.mark.parametrize("m, beta, variant", [(3, 1.0, REDERIVED), (5, 0.6, PUBLISHED)])
    def test_verify_kernels_return_the_printed_entries(self, m, beta, variant):
        report = cli.run_verification(m, beta, variant)
        lam, K = report["params"]["lambda"], report["params"]["K"]
        pq = pq_from_params(m, lam, beta)
        samples = strip_samples()
        g_base = rescale(build_metric(pq, integrate_s(pq, samples[0], samples[-1])),
                         1.0 / (-K))
        pseudo = verify_pseudospherical(pq, samples)
        res = residual_report(g_base, coordinate_u(), m, lam, strip_points(samples))
        # the same keys in the same order, and the same doubles
        printed = list(report.items())
        assert list(pseudo.items()) == printed[2:4]
        assert list(res.items()) == printed[4:8]

    def test_solve_lambda_returns_the_printed_report(self):
        report = solve_lambda(relation_poly(3, 1))
        validate(report, "root_report.schema.json")
        assert ((to_json(report) + "\n").encode()
                == (GOLDEN / "relation_solve_m3_beta1.txt").read_bytes())

    def test_convergence_study_returns_the_printed_report(self):
        hs = [0.04, 0.02, 0.01]
        report = convergence_study(manufactured_spec(2.5, 0.8, 0.04), hs, coshdist_exact)
        validate(report, "convergence.schema.json")
        argv = ("pde", "converge", "--beta", "2.5", "--h", "0.04,0.02,0.01", "--rmax", "0.8")
        assert invoke(*argv, "--format", "json", "--quiet") == (EXIT_OK, to_json(report) + "\n")
        code, out = invoke(*argv, "--format", "csv", "--quiet")
        assert code == EXIT_OK
        header, *lines = out.splitlines()
        assert header == ",".join(report["rows"][0])
        # the 17-digit cells read back as the report's doubles
        assert ([[float(c) if c else None for c in line.split(",")] for line in lines]
                == [list(r.values()) for r in report["rows"]])


class TestParserReuse:
    def test_runs_match_a_fresh_parser(self, tmp_path, monkeypatch, capsys):
        # one parser serves every run of the process; runs of different
        # subcommands, with usage errors in between, behave as with a
        # parser built for each run
        from warpverify import cli

        assert cli.build_parser() is cli.build_parser()
        dest = str(tmp_path / "g.csv")
        argvs = [
            ("relation", "solve", "--m", "3", "--beta", "1", "--quiet"),
            ("pde", "solve", "--beta", "1", "--rmax", "0.5", "--h", "0.05",
             "--bc", "angular", "--out", dest, "--quiet"),
            ("verify", "--m", "3", "--beta", "nan", "--quiet"),
            ("relation", "sweep", "--m", "2..4", "--beta", "0.5,2", "--format", "json"),
            ("pde", "solve", "--beta", "1"),
            ("curvature", "--model", "disk", "--at", "0.1,0.2", "--format", "json"),
            ("pde", "converge", "--beta", "2", "--h", "0.1,0.05", "--rmax", "0.6",
             "--format", "csv", "--quiet"),
            ("relation", "sweep", "--m", "2..x", "--beta", "1"),
            ("no-such-command",),
            ("curvature", "--model", "halfplane", "--at", "0.1,0.5", "--quiet"),
        ]

        def results():
            seen = []
            for argv in argvs:
                code, out = invoke(*argv)
                seen.append((code, out, capsys.readouterr().err))
            return seen

        cached = results()
        assert [code for code, _, _ in cached] == [0, 0, 1, 0, 1, 0, 0, 1, 1, 0]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert results() == cached


class TestSolverFailureExit:
    def test_exit_code_four_and_no_file(self, monkeypatch, tmp_path):
        from warpverify import screened_pde
        from warpverify.errors import SolverError

        def boom(spec):
            raise SolverError("stalled", final_residual=1e-3)

        monkeypatch.setattr(screened_pde, "assemble_and_solve", boom)
        dest = tmp_path / "g.csv"
        code, _ = invoke("pde", "solve", "--beta", "1", "--rmax", "0.5",
                         "--h", "0.05", "--bc", "zero", "--out", str(dest),
                         "--quiet")
        assert code == EXIT_SOLVER
        assert not dest.exists()

    def test_an_existing_file_is_left_as_it_was(self, monkeypatch, tmp_path):
        from warpverify import screened_pde
        from warpverify.errors import SolverError

        def boom(spec):
            raise SolverError("stalled", final_residual=1e-3)

        monkeypatch.setattr(screened_pde, "assemble_and_solve", boom)
        dest = tmp_path / "g.csv"
        previous = b"x1,x2,tag,value\n" + b"0,0,interior,1\n" * 800
        dest.write_bytes(previous)
        code, _ = invoke("pde", "solve", "--beta", "1", "--rmax", "0.5",
                         "--h", "0.05", "--bc", "zero", "--out", str(dest),
                         "--quiet")
        assert code == EXIT_SOLVER
        assert dest.read_bytes() == previous

    def test_conjugate_gradient_stall(self, monkeypatch, tmp_path, capsys):
        from warpverify import screened_pde

        monkeypatch.setattr(screened_pde, "DIRECT_SOLVE_LIMIT", 0)
        monkeypatch.setattr(screened_pde, "CG_MAX_ITER", 1)
        dest = tmp_path / "g.csv"
        code, _ = invoke("pde", "solve", "--beta", "1", "--rmax", "0.5",
                         "--h", "0.05", "--bc", "coshdist", "--out", str(dest),
                         "--quiet")
        assert code == EXIT_SOLVER
        assert not dest.exists()
        err = capsys.readouterr().err
        assert err.startswith("solver failure: conjugate-gradient") and "Traceback" not in err
        # how far it got: the class's relative residual after its one iteration
        match = re.fullmatch(r"solver failure: conjugate-gradient solve did not converge "
                             r"\(info=1\): relative residual (\S+), target 1e-12\n", err)
        assert match and 1e-12 < float(match[1]) < 1.0

    def test_failed_banded_factorization(self, monkeypatch, tmp_path, capsys):
        # LAPACK refuses the negated band, which is negative definite
        from warpverify import screened_pde

        solve = screened_pde.banded_cholesky_solve
        monkeypatch.setattr(screened_pde, "banded_cholesky_solve",
                            lambda band, rhs: solve(-band, rhs))
        dest = tmp_path / "g.csv"
        code, out = invoke("pde", "solve", "--beta", "1", "--rmax", "0.5",
                           "--h", "0.05", "--bc", "coshdist", "--out", str(dest),
                           "--quiet")
        assert code == EXIT_SOLVER
        assert out == "" and not dest.exists()
        err = capsys.readouterr().err
        assert err == ("solver failure: banded Cholesky factorization failed: the leading "
                       "minor of order 1 is not positive definite\n")


class TestJsonEmitter:
    def test_seventeen_digit_floats(self):
        assert to_json(0.1) == "0.10000000000000001"
        assert to_json(-2.0) == "-2"
        assert to_json({"a": [1, True, None]}) == \
            '{\n  "a": [\n    1,\n    true,\n    null\n  ]\n}'

    def test_round_trips_through_stdlib(self):
        payload = {"x": 1 / 3, "nested": {"y": [2.5e-300, 1e17]}}
        assert json.loads(to_json(payload)) == payload


# Values for the `pde` options.  Valid ones keep every solve to a few
# milliseconds; the bad ones are nan, inf, 0, negative, out-of-range,
# over-the-lattice-cap and malformed values, bad paths and bad ladders.
GOOD = {
    "beta": st.sampled_from(["1", "2.5", "0.05", "1e-300", "1e300", "1e308"]),
    "rmax": st.sampled_from([None, "0.6", "0.999"]),
    "h": st.sampled_from(["0.1", "0.05", "0.04"]),
    "ladder": st.sampled_from(["0.1,0.05", "0.08,0.04,0.02", "0.125,0.0625"]),
    "out": st.just("file"),
}
BAD_NUMBER_VALUES = [
    "nan", "-nan", "inf", "-inf", "0", "-0", "-1", "-0.05", "1e-5", "1",
    "1e-320", "0.5", "abc", "",
]
BAD_LADDER_VALUES = ["", ",", "0.1", "0.05,0.1", "0.1,0.1", "0.1,,0.05",
                     "0.1;0.05", "0.1 0.05", "0.1,0.05,", "0.1,1e-5"]
BAD_OUT_VALUES = ["missing_directory", "directory", "empty", "under_a_file"]
BAD_NUMBERS = st.sampled_from(BAD_NUMBER_VALUES)
BAD = {
    "beta": BAD_NUMBERS,
    "rmax": BAD_NUMBERS,
    "h": BAD_NUMBERS,
    "ladder": st.one_of(
        st.lists(BAD_NUMBERS, max_size=3).map(",".join),
        st.sampled_from(BAD_LADDER_VALUES)),
    "out": st.sampled_from(BAD_OUT_VALUES),
}
# Every value a BAD strategy samples on its own (a ladder of one bad
# number included), and one valid value of each option.
EACH_BAD = {
    "beta": BAD_NUMBER_VALUES,
    "rmax": BAD_NUMBER_VALUES,
    "h": BAD_NUMBER_VALUES,
    "ladder": sorted(set(BAD_NUMBER_VALUES) | set(BAD_LADDER_VALUES)),
    "out": BAD_OUT_VALUES,
}
ONE_GOOD = {"beta": "1", "rmax": "0.6", "h": "0.1", "ladder": "0.1,0.05", "out": "file"}
PDE_OPTIONS = {"solve": ("beta", "rmax", "h", "out"), "converge": ("beta", "rmax", "ladder")}


def run_pde_argv(command, arg, choice):
    """Run `pde command` with the option values `arg` (`choice` is the
    --bc of a solve, the --format of a study) in a fresh directory; returns
    (argv, exit code, stdout, stderr, whether a grid file was left)."""
    with tempfile.TemporaryDirectory() as tmp:
        blocker = os.path.join(tmp, "blocker")
        open(blocker, "w").close()
        dest = {"file": os.path.join(tmp, "g.csv"),
                "missing_directory": os.path.join(tmp, "no", "g.csv"),
                "directory": tmp, "empty": "",
                "under_a_file": os.path.join(blocker, "g.csv")}[arg["out"]]
        argv = ["pde", command, "--beta", arg["beta"], "--quiet"]
        argv += [] if arg["rmax"] is None else ["--rmax", arg["rmax"]]
        if command == "solve":
            argv += ["--h", arg["h"], "--out", dest, "--bc", choice]
        else:
            argv += ["--h", arg["ladder"], "--format", choice]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = invoke(*argv)
        wrote = os.path.exists(os.path.join(tmp, "g.csv"))
    return argv, code, out, err.getvalue(), wrote


def assert_exit_code_and_streams(argv, code, out, err, wrote):
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_SOLVER), argv
    assert "Traceback" not in err
    if code == EXIT_OK:
        assert "nan" not in out.lower(), argv
    else:
        assert out == "" and err.count("\n") == 1, argv
        assert not wrote, argv


class TestPdeArgvProperty:
    """Fuzzes `pde solve` and `pde converge` argv, breaking up to two
    options at a time, and breaks each option alone with each of its bad
    values.  `TestRelationArgv` breaks the relation and verify options."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_streams(self, data):
        command = data.draw(st.sampled_from(["solve", "converge"]))
        broken = data.draw(st.sets(st.sampled_from(sorted(GOOD)), max_size=2))
        arg = {name: data.draw((BAD if name in broken else GOOD)[name])
               for name in sorted(GOOD)}
        choice = data.draw(st.sampled_from(
            ["zero", "one", "coshdist", "angular"] if command == "solve"
            else ["text", "csv", "json"]))
        assert_exit_code_and_streams(*run_pde_argv(command, arg, choice))

    @pytest.mark.parametrize("command, name, value", [
        (command, name, value)
        for command, names in PDE_OPTIONS.items()
        for name in names for value in EACH_BAD[name]])
    def test_each_bad_value_alone(self, command, name, value):
        # the property draws few examples per value; here every bad value
        # breaks its option once with every other option valid
        arg = {**ONE_GOOD, name: value}
        choice = "angular" if command == "solve" else "json"
        assert_exit_code_and_streams(*run_pde_argv(command, arg, choice))


def run_main(monkeypatch, capsys, argv):
    """Run the console entry point on `argv`; returns (exit code, stdout,
    stderr)."""
    monkeypatch.setattr(sys, "argv", ["warpverify", *argv, "--quiet"])
    with pytest.raises(SystemExit) as stop:
        main()
    out, err = capsys.readouterr()
    return stop.value.code, out, err


# Roots that solve_lambda rejects on back-substitution: m near 10**12, and
# the published relation near beta = sqrt(2) at large m.
BACKSUB_REFUSED = [
    ("relation", "solve", "--m", "1000000000000", "--beta", "1"),
    ("verify", "--m", "1000000000000", "--beta", "1"),
    ("relation", "sweep", "--m", "999999999990..1000000000000", "--beta", "1"),
    ("relation", "solve", "--m", "145", "--beta", "1.4292354702724506",
     "--variant", "published"),
    ("verify", "--m", "145", "--beta", "1.4292354702724506", "--variant", "published"),
    ("relation", "sweep", "--variant", "published", "--m", "2..1000", "--beta", "1.42"),
    ("relation", "sweep", "--variant", "published", "--m", "2..1000",
     "--beta", "1.40,1.42,1.44,1.46"),
]


class TestBacksubstitutionRefusal:
    @pytest.mark.parametrize("argv", BACKSUB_REFUSED)
    def test_console_exits_three_without_a_traceback(self, argv, monkeypatch, capsys):
        code, out, err = run_main(monkeypatch, capsys, argv)
        assert code == EXIT_VERIFY_FAIL
        assert out == ""
        assert err.startswith("error: root ") and "fails back-substitution" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", BACKSUB_REFUSED)
    def test_run_raises_it(self, argv):
        # only the console maps it to an exit code
        with pytest.raises(BacksubstitutionError):
            invoke(*argv, "--quiet")

    def test_other_arithmetic_faults_keep_their_traceback(self, monkeypatch, capsys):
        from warpverify import cli

        assert not issubclass(BacksubstitutionError, ToolkitError)

        def fault(poly):
            raise ZeroDivisionError("a defect")

        monkeypatch.setattr(cli, "solve_lambda", fault)
        with pytest.raises(ZeroDivisionError):
            run_main(monkeypatch, capsys, ["relation", "solve", "--m", "3", "--beta", "1"])


# Bad values for the relation and verify options: numbers, m ranges and
# beta lists, each tried on every option.
RELATION_BAD_VALUES = [
    "nan", "inf", "0", "-1", "1e300", "1e-160", str(2 ** 63), str(10 ** 400),
    "5..3", "2..", "..3", "a..b", "2..4..6",
    "1,,2", ",",
]
RELATION_OPTIONS = {
    ("relation", "solve"): {"--m": "3", "--beta": "1", "--variant": "published"},
    ("relation", "sweep"): {"--m": "2..4", "--beta": "0.5,1", "--variant": "published",
                            "--format": "json"},
    ("verify",): {"--m": "3", "--beta": "1", "--variant": "rederived"},
}


class TestRelationArgv:
    """Breaks each option of `relation solve`, `relation sweep` and
    `verify` alone, through the console entry point;
    `TestBacksubstitutionRefusal` runs the back-substitution cases."""

    @pytest.mark.parametrize("command, name, value", [
        (command, name, value)
        for command, options in RELATION_OPTIONS.items()
        for name in options for value in RELATION_BAD_VALUES])
    def test_each_bad_value_alone(self, command, name, value, monkeypatch, capsys):
        options = {**RELATION_OPTIONS[command], name: value}
        argv = [*command, *(x for item in options.items() for x in item)]
        code, out, err = run_main(monkeypatch, capsys, argv)
        assert code in range(5), argv
        assert "Traceback" not in err, argv
        if code == EXIT_OK:
            assert "nan" not in out.lower(), argv
