"""Command-line interface: dispatch, exit codes, output formats, schemas."""

import io
import json
import subprocess
import sys
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from warpverify.cli import (
    EXIT_NO_ADMISSIBLE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL,
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
    def test_exit_code_four(self, monkeypatch):
        from warpverify import cli
        from warpverify.errors import SolverError

        def boom(spec):
            raise SolverError("stalled", final_residual=1e-3)

        monkeypatch.setattr(cli.pde, "assemble_and_solve", boom)
        code, _ = invoke("pde", "solve", "--beta", "1", "--rmax", "0.5",
                         "--h", "0.05", "--bc", "zero", "--out", "/dev/null",
                         "--quiet")
        assert code == 4


class TestJsonEmitter:
    def test_seventeen_digit_floats(self):
        assert to_json(0.1) == "0.10000000000000001"
        assert to_json(-2.0) == "-2"
        assert to_json({"a": [1, True, None]}) == \
            '{\n  "a": [\n    1,\n    true,\n    null\n  ]\n}'

    def test_round_trips_through_stdlib(self):
        payload = {"x": 1 / 3, "nested": {"y": [2.5e-300, 1e17]}}
        assert json.loads(to_json(payload)) == payload
