"""warpverify benchmark: the four CLI commands users wait on, end to end.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each operation is one in-process ``warpverify.cli.run(argv, out=buffer)``
call on a command line generated from the seed (see workloads.py).  The
loop is closed with a single client in a single process, and BLAS pools
are pinned to one thread.  Every output is checked independently
(checks.py); the check is not part of the operation's time.

The host shares its cores with other tenants and its speed drifts by up
to 2x over tens of seconds, so every reported time is normalized to the
host's nominal speed: the wall time divided by the slowdown a fixed
reference kernel shows just before and after it (hostspeed.py).  The raw
wall-time figures are printed in the context line.  ``setup_s`` is the
median set-up time of several fresh interpreters running this script,
from its first statement (before numpy, scipy or warpverify load) to the
point where the first timed operation would start.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
generated operation twice, once plain and once with the layer tracer
installed (layertrace.py), in alternating order, and reports the
per-layer metrics per traced operation (times normalized like the
end-to-end ones) plus the tracing overhead.  It
first replays fixed calibration commands whose trace counts are known
exactly and fails the run if they differ.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the run context (seed, commit, versions, sample counts).
"""

import time

# Set-up is timed from here: before numpy, scipy or warpverify load.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One client in one process: keep BLAS from starting a thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checks import check  # noqa: E402
from workloads import WORKLOADS, Op, op_stream, warmup_op  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Fresh interpreters whose set-up times give setup_s.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120
# The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

# Calibration commands whose trace counts are fixed by the algorithm.
CALIBRATION_VERIFY = Op(("verify", "--m", "3", "--beta", "1", "--quiet"))
CALIBRATION_VERIFY_COUNTS = {
    "profiles.evals": 99_570,
    "geometry2d.gauss_curvature.calls": 768,
    "geometry2d.laplace_beltrami.calls": 768,
    "compatibility.integrate_s.calls": 2,
}
CALIBRATION_LADDER = Op(("pde", "converge", "--beta", "2.5",
                         "--h", "0.01,0.005,0.0035", "--rmax", "0.8",
                         "--format", "json", "--quiet"))
CALIBRATION_LADDER_COUNTS = {"screened_pde.cg.iterations": 778}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_latency_p50_s": "s",
    "op_latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- running operations ----------------------------------------------------------


class Runner:
    """Runs and checks operations of one workload through the CLI."""

    def __init__(self, workload: str):
        self.workload = workload
        if not (SRC / "warpverify" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no warpverify sources under {SRC}")
        sys.path.insert(0, str(SRC))
        from warpverify import cli
        from hostspeed import HostSpeed
        self.cli = cli
        self.speed = HostSpeed()
        OUT_DIR.mkdir(exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: Op, kind: str | None = None) -> tuple[float, float]:
        """Run one operation and check it as an operation of workload `kind`
        (by default the runner's own).

        Returns its wall time and the host slowdown read just before and
        just after it (see hostspeed.py).
        """
        gc.collect()
        before = self.speed.slowdown()
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            code = self.cli.run(list(op.argv), out=buf)
        except Exception as exc:  # a traceback is a failed operation
            code = None
            buf.write(repr(exc))
        elapsed = time.perf_counter() - start
        slowdown = (before + self.speed.slowdown()) / 2.0
        self.attempted += 1
        reason = check(kind or self.workload, op, code, buf.getvalue())
        if reason is not None:
            self.failures.append(f"{' '.join(op.argv)}: {reason}")
        return elapsed, slowdown


def set_up(workload: str, seed: int):
    runner = Runner(workload)
    runner.run(warmup_op(workload, str(OUT_DIR)))
    return runner, op_stream(workload, seed, str(OUT_DIR))


def probe_setup(runner: Runner, workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter running this script, and the
    host slowdown around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    before = runner.speed.slowdown()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    slowdown = (before + runner.speed.slowdown()) / 2.0
    return float(done.stdout.strip().splitlines()[-1]), slowdown


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With TAIL_BEYOND or fewer
    samples no percentile qualifies, and the smallest sample stands in.
    """
    ordered = sorted(latencies)
    idx = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def timing_metrics(latencies: list[float]) -> dict:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_latency_p50_s": statistics.median(latencies),
        "op_latency_tail_s": tail(latencies)[0],
    }


# -- the two kinds of run --------------------------------------------------------


def measure(workload: str, seed: int, seconds: float):
    runner, ops = set_up(workload, seed)
    own_setup_s = time.perf_counter() - _T0
    probes = [probe_setup(runner, workload, seed) for _ in range(SETUP_PROBES)]

    raw, slowdowns = [], []
    deadline = time.perf_counter() + seconds
    while not raw or time.perf_counter() < deadline:
        elapsed, slowdown = runner.run(next(ops))
        raw.append(elapsed)
        slowdowns.append(slowdown)
    normalized = [t / s for t, s in zip(raw, slowdowns)]

    metrics = {"setup_s": statistics.median(t / s for t, s in probes)}
    metrics.update(timing_metrics(normalized))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, tail_pct, tail_beyond = tail(normalized)
    samples = {
        "setup_s": len(probes),
        "ops_per_s": len(raw),
        "op_latency_p50_s": len(raw),
        "op_latency_tail_s": {"samples": len(raw), "percentile": tail_pct,
                              "samples_beyond": tail_beyond},
        "host_slowdown_median": statistics.median(slowdowns),
        "raw_wall_time": dict(timing_metrics(raw), own_setup_s=own_setup_s,
                              probe_setup_s=[t for t, _ in probes]),
    }
    return runner, metrics, END_TO_END_UNITS, samples


def _calibrate(runner: Runner, kind: str, op: Op, expected: dict) -> None:
    import layertrace
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        runner.run(op, kind)
    finally:
        tracer.uninstall()
    tracer.fold()
    by_name = {m.name: m for m in layertrace.LAYER_METRICS}
    for name, want in expected.items():
        got = by_name[name].value(tracer, 1)
        if got != want:
            runner.failures.append(
                f"calibration {' '.join(op.argv)}: {name} = {got}, expected {want}")


def measure_traced(workload: str, seed: int, seconds: float):
    import layertrace
    runner, ops = set_up(workload, seed)
    _calibrate(runner, "verify", CALIBRATION_VERIFY, CALIBRATION_VERIFY_COUNTS)
    if workload == "pde-converge":
        _calibrate(runner, "pde-converge", CALIBRATION_LADDER, CALIBRATION_LADDER_COUNTS)

    tracer = layertrace.Tracer()
    plain, traced = [], []  # normalized wall times
    first_spans = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        op = next(ops)
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if not with_trace:
                elapsed, slowdown = runner.run(op)
                plain.append(elapsed / slowdown)
                continue
            tracer.install()
            try:
                elapsed, slowdown = runner.run(op)
            finally:
                tracer.uninstall()
            traced.append(elapsed / slowdown)
            spans = tracer.fold(scale=1.0 / slowdown)
            first_spans = first_spans if first_spans is not None else spans

    n = len(traced)
    metrics = {m.name: m.value(tracer, n) for m in layertrace.LAYER_METRICS}
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    units = {m.name: m.unit for m in layertrace.LAYER_METRICS}
    units["trace.overhead_ratio"] = "ratio"
    samples = {"traced_ops": n, "plain_ops": len(plain),
               "ops_per_s_plain": len(plain) / sum(plain),
               "ops_per_s_traced": n / sum(traced)}

    dump = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    dump.write_text(json.dumps({
        "workload": workload, "seed": seed, "traced_ops": n,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit, "moves": m.moves}
                    for m in layertrace.LAYER_METRICS},
        "layers_per_op": {name: {"calls": s.calls / n, "total_s": s.total_s / n,
                                 "self_s": s.self_s / n}
                          for name, s in sorted(tracer.layers.items())},
        "counts_per_op": {k: v / n for k, v in sorted(tracer.counts.items())},
        "first_op_spans": [[s.name, s.start, s.end, s.parent] for s in first_spans],
    }, indent=1) + "\n")
    samples["trace_file"] = str(dump.relative_to(ROOT))
    return runner, metrics, units, samples


# -- reporting -------------------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def context(args, runner: Runner, samples: dict) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "samples": samples,
        "failed_ratio": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:5],
    }


def report(metrics: dict, units: dict, ctx: dict, attempted: int, failures: list) -> dict:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {units[name]}")
    print(json.dumps({"context": ctx}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in a fresh interpreter."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {workload} exited {done.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    elif args.setup_probe:
        set_up(args.workload, args.seed)
        print(time.perf_counter() - _T0)
        return 0
    else:
        run = measure_traced if args.trace else measure
        runner, metrics, units, samples = run(args.workload, args.seed, args.seconds)
        ctx = context(args, runner, samples)
        result = report(metrics, units, ctx, runner.attempted, runner.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
