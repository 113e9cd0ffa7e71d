"""Command-line interface: dispatch, exit codes, output formats, schemas."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from warpverify.cli import (
    EXIT_NO_ADMISSIBLE, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, EXIT_VERIFY_FAIL,
    SWEEP_CSV_HEADER, run, to_json,
)


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

    def test_unattainable_tolerance_fails(self):
        code, out = invoke("verify", "--m", "3", "--beta", "1", "--quiet",
                           "--tol-curvature", "1e-30")
        assert code == EXIT_VERIFY_FAIL
        assert json.loads(out)["verdict"] == "fail"


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


    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--tol-relation", "--tol-compat",
                                      "--tol-curvature", "--tol-einstein"])
    def test_nonfinite_tolerance_is_usage_error(self, flag, value, capsys):
        code, out = invoke("verify", "--m", "3", "--beta", "1", flag, value,
                           "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert "tolerance must be finite and positive" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("case", ["missing_directory", "directory"])
    def test_unwritable_out_path_is_refused_before_the_solve(
            self, case, tmp_path, monkeypatch, capsys):
        from warpverify import cli

        def solve(spec):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli.pde, "assemble_and_solve", solve)
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

    @pytest.mark.parametrize("widths", ["", ",", "0.04"])
    def test_fewer_than_two_mesh_widths_is_usage_error(self, widths, capsys):
        code, out = invoke("pde", "converge", "--beta", "2", "--h", widths,
                           "--rmax", "0.6", "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == "usage error: need at least two mesh widths\n"

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


class TestOutputFailures:
    def test_failed_csv_write_is_reported_and_leaves_no_file(
            self, tmp_path, monkeypatch, capsys):
        from warpverify import cli

        def write_then_fail(field, fh):
            fh.write("x1,x2,tag,value\n")
            fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli.pde, "_write_grid_rows", write_then_fail)
        dest = tmp_path / "g.csv"
        code, out = invoke("pde", "solve", "--beta", "1", "--rmax", "0.5",
                           "--h", "0.05", "--out", str(dest), "--quiet")
        assert code == EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == \
            f"error: cannot write {dest}: No space left on device\n"
        assert sorted(tmp_path.iterdir()) == []

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


class TestSolverFailureExit:
    def test_exit_code_four_and_no_file(self, monkeypatch, tmp_path):
        from warpverify import cli
        from warpverify.errors import SolverError

        def boom(spec):
            raise SolverError("stalled", final_residual=1e-3)

        monkeypatch.setattr(cli.pde, "assemble_and_solve", boom)
        dest = tmp_path / "g.csv"
        code, _ = invoke("pde", "solve", "--beta", "1", "--rmax", "0.5",
                         "--h", "0.05", "--bc", "zero", "--out", str(dest),
                         "--quiet")
        assert code == EXIT_SOLVER
        assert not dest.exists()


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
    "beta": st.sampled_from(["1", "2.5", "0.05", "1e-300", "1e300"]),
    "rmax": st.sampled_from([None, "0.6", "0.999"]),
    "h": st.sampled_from(["0.1", "0.05", "0.04"]),
    "ladder": st.sampled_from(["0.1,0.05", "0.08,0.04,0.02", "0.125,0.0625"]),
    "out": st.just("file"),
}
BAD_NUMBERS = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "0", "-0", "-1", "-0.05", "1e-5", "1",
    "1e-320", "0.5", "abc", "",
])
BAD = {
    "beta": BAD_NUMBERS,
    "rmax": BAD_NUMBERS,
    "h": BAD_NUMBERS,
    "ladder": st.one_of(
        st.lists(BAD_NUMBERS, max_size=3).map(",".join),
        st.sampled_from(["", ",", "0.1", "0.05,0.1", "0.1,0.1", "0.1,,0.05",
                         "0.1;0.05", "0.1 0.05", "0.1,0.05,", "0.1,1e-5"])),
    "out": st.sampled_from(["missing_directory", "directory", "empty", "under_a_file"]),
}


class TestPdeArgvProperty:
    """Fuzzes `pde solve` and `pde converge` argv, breaking up to two
    options at a time.

    The relation commands are left out: near beta = sqrt(2) the published
    relation at large m raises an ArithmeticError that the CLI does not
    catch yet, and that defect is pinned by the strict xfail in
    perfbench/test_perfbench.py.
    """

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_streams(self, data):
        command = data.draw(st.sampled_from(["solve", "converge"]))
        broken = data.draw(st.sets(st.sampled_from(sorted(GOOD)), max_size=2))
        arg = {name: data.draw((BAD if name in broken else GOOD)[name])
               for name in sorted(GOOD)}
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
                argv += ["--h", arg["h"], "--out", dest,
                         "--bc", data.draw(st.sampled_from(["zero", "one", "coshdist",
                                                            "angular"]))]
            else:
                argv += ["--h", arg["ladder"],
                         "--format", data.draw(st.sampled_from(["text", "csv", "json"]))]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = invoke(*argv)
            wrote = os.path.exists(os.path.join(tmp, "g.csv"))
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_SOLVER), argv
        assert "Traceback" not in err.getvalue()
        if code == EXIT_OK:
            assert "nan" not in out.lower(), argv
        else:
            assert out == "" and err.getvalue().count("\n") == 1, argv
            assert not wrote, argv
