"""Tests of the benchmark itself: input generation, self-time arithmetic,
the output checkers and the tracer's calibration counts.

    python3 -m pytest perfbench -q
"""

import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Span, self_times  # noqa: E402
from workloads import Op  # noqa: E402

from warpverify import cli  # noqa: E402


def first_ops(workload, seed, n=12, out_dir="out"):
    stream = workloads.op_stream(workload, seed, out_dir)
    return [next(stream) for _ in range(n)]


def execute(op):
    buf = io.StringIO()
    return cli.run(list(op.argv), out=buf), buf.getvalue()


# -- input generation -------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops(workload, 7) != first_ops(workload, 8)


def test_each_cycle_draws_every_size_stratum_once():
    lo, hi = workloads.PDE_CONVERGE_FINEST
    for seed in range(5):
        strata = set()
        for op in first_ops("pde-converge", seed, n=workloads.STRATA):
            r_max = float(checks.flag(op.argv, "--rmax"))
            h = float(checks.flag(op.argv, "--h").split(",")[-1])
            share = math.pi * (r_max / h) ** 2 / workloads.DIRECT_SOLVE_LIMIT
            strata.add(int((share - lo) / (hi - lo) * workloads.STRATA))
        assert strata == set(range(workloads.STRATA))


def test_pde_sizes_straddle_the_direct_solve_limit():
    for op in first_ops("pde-solve", 3) + first_ops("pde-converge", 3):
        r_max = float(checks.flag(op.argv, "--rmax"))
        hs = [float(h) for h in checks.flag(op.argv, "--h").split(",")]
        nodes = [math.pi * (r_max / h) ** 2 for h in hs]
        if op.argv[1] == "solve":
            assert 54_000 < nodes[0] < workloads.DIRECT_SOLVE_LIMIT
        else:
            assert all(n < workloads.DIRECT_SOLVE_LIMIT for n in nodes[:-1])
            assert 1.2 * workloads.DIRECT_SOLVE_LIMIT < nodes[-1] < 2 * workloads.DIRECT_SOLVE_LIMIT


# -- self time ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),       # overlaps a: the union [1, 5] counts once
        Span("c", 8.0, 12.0, 0),      # clipped to the parent's end
        Span("a.leaf", 1.5, 2.5, 1),  # a grandchild does not reduce the root
        Span("other", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0, 1.0])


def test_tracer_nests_spans_and_folds_recursion():
    tracer = layertrace.Tracer()

    def fact(n):
        return 1 if n == 0 else n * traced_fact(n - 1)

    traced_fact = tracer.spanned(fact, "fact")
    outer = tracer.spanned(lambda: traced_fact(5), "outer")
    assert outer() == 120
    spans = tracer.fold()
    assert [(s.name, s.parent) for s in spans] == [("outer", -1), ("fact", 0)]
    assert tracer.layers["fact"].calls == 1
    own = tracer.layers["outer"].self_s
    assert 0.0 <= own <= tracer.layers["outer"].total_s


def test_tracer_reproduces_the_calibration_counts():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        code, _ = execute(run.CALIBRATION_VERIFY)
    finally:
        tracer.uninstall()
    tracer.fold()
    assert code == 0
    by_name = {m.name: m for m in layertrace.LAYER_METRICS}
    for name, want in run.CALIBRATION_VERIFY_COUNTS.items():
        assert by_name[name].value(tracer, 1) == want
    # uninstall restored the originals
    from warpverify import geometry2d
    assert not hasattr(geometry2d.gauss_curvature, "__wrapped__")


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10) and pct == pytest.approx(200 / 3)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3), 2)


# -- checkers -----------------------------------------------------------------------


def test_verify_checker_rejects_corrupted_reports():
    op = run.CALIBRATION_VERIFY
    code, text = execute(op)
    assert checks.check("verify", op, code, text) is None
    report = json.loads(text)
    flipped = dict(report, verdict="fail")
    assert checks.check("verify", op, 0, json.dumps(flipped)) == "verdict 'fail'"
    wrong = json.loads(text)
    wrong["params"]["lambda"] *= 1.001
    assert "identity" in checks.check("verify", op, 0, json.dumps(wrong))
    assert checks.check("verify", op, 3, text) == "exit code 3, expected 0"


def test_expected_nonzero_exit_is_not_a_failure():
    op = Op(("verify", "--m", "1", "--beta", "1", "--quiet"), expect_code=2)
    code, text = execute(op)
    assert code == 2
    assert checks.check("verify", op, code, text) is None
    assert checks.check("verify", replace(op, expect_code=0), code, text) is not None


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("variant", ["published", "rederived"])
def test_sweep_checker_rejects_a_wrong_root(fmt, variant):
    op = Op(("relation", "sweep", "--m", "2..12", "--beta", "0.5,1.3,2.75",
             "--variant", variant, "--format", fmt, "--quiet"))
    code, text = execute(op)
    assert checks.check("sweep", op, code, text) is None
    if fmt == "json":
        payload = json.loads(text)
        row = next(r for r in payload["rows"] if r["exists"] == "true")
        row["admissible_root"] *= 1.0 + 1e-6
        corrupted = json.dumps(payload)
        truncated = json.dumps({"rows": payload["rows"][:-1]})
    else:
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.endswith(",true"))
        cells = lines[i].split(",")
        cells[8] = repr(float(cells[8]) * (1.0 + 1e-6))
        corrupted = "\n".join(lines[:i] + [",".join(cells)] + lines[i + 1:])
        truncated = "\n".join(lines[:-1])
    assert "does not solve" in checks.check("sweep", op, code, corrupted)
    assert "rows" in checks.check("sweep", op, code, truncated)


def test_pde_solve_checker_rejects_residual_and_maximum_principle(tmp_path):
    out = str(tmp_path / "grid.csv")
    op = Op(("pde", "solve", "--beta", "1", "--rmax", "0.8", "--h", "0.05",
             "--bc", "angular", "--out", out, "--quiet"), out)
    code, text = execute(op)
    assert checks.check("pde-solve", op, code, text) is None
    big = "".join(line if not line.startswith("max residual") else "max residual: 0.001\n"
                  for line in text.splitlines(keepends=True))
    assert "max residual" in checks.check("pde-solve", op, code, big)
    lines = Path(out).read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if ",interior," in line)
    lines[i] = lines[i].rsplit(",", 1)[0] + ",1.5"
    Path(out).write_text("\n".join(lines) + "\n")
    assert "maximum principle" in checks.check("pde-solve", op, code, text)


def test_pde_converge_checker_rejects_a_rate_of_one():
    op = Op(("pde", "converge", "--beta", "2.5", "--h", "0.04,0.02,0.01",
             "--format", "json", "--quiet"))
    code, text = execute(op)
    assert checks.check("pde-converge", op, code, text) is None
    payload = json.loads(text)
    payload["rows"][-1]["observed_rate"] = 1.0
    assert "observed rate" in checks.check("pde-converge", op, code, json.dumps(payload))
    payload = json.loads(text)
    payload["rows"][-1]["max_error"] = payload["rows"][-2]["max_error"]
    assert "decrease" in checks.check("pde-converge", op, code, json.dumps(payload))


# -- the benchmark definition --------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = {m.name: m.unit for m in layertrace.LAYER_METRICS}
    layers["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


@pytest.mark.xfail(raises=ArithmeticError, strict=True,
                   reason="known defect: solve_lambda rejects its own root near "
                          "beta = sqrt(2) for the published variant and the CLI "
                          "does not catch it; the sweep workload skips this band")
def test_published_sweep_inside_the_skipped_beta_band():
    lo, hi = workloads.SWEEP_BETA_GAP
    assert lo < 1.4292354702724506 < hi
    execute(Op(("relation", "sweep", "--m", "145..145", "--beta", "1.4292354702724506",
                "--variant", "published", "--quiet")))
