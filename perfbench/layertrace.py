"""Outside-in layer tracing for warpverify.

The tracer wraps the public functions of the toolkit's modules where they
are looked up, in every warpverify module namespace that holds them, and
records one span per call: name, start, end and the span that caused it.
A few boundaries inside the modules that carry the per-point work are
counted instead of spanned, because a span per lattice node or per
profile evaluation would cost more than the work it measures:

* ``ProfileFn.__call__``, ``d1`` and ``d2`` (``profiles.evals``);
* the callables returned by ``GridSpec.source_fn`` / ``boundary_fn``
  (``screened_pde.pointwise_callback_evals``);
* the iterations of the conjugate-gradient solve, through a callback the
  wrapped ``spla.cg`` passes on (``screened_pde.cg.iterations``).

Nothing in the program changes: ``install`` patches module attributes and
``uninstall`` puts the originals back.  Spans are kept in memory while an
operation runs; `fold` turns them into per-name call counts, total and
self times and clears them, and the caller writes the results out when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

MODULES = ("relation", "profiles", "compatibility", "geometry2d", "einstein",
           "screened_pde", "cli")

# Public functions evaluated once per lattice node; they are counted
# through GridSpec instead of spanned.
POINTWISE = {"screened_pde.coshdist_exact"}

SPAN_CG = "screened_pde.solve.cg"
SPAN_DIRECT = "screened_pde.solve.direct"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the causing span in the same list, -1 for none


def self_times(spans: Sequence[Span]) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans (overlapping children are counted once,
    children are clipped to the parent's interval)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        result.append(span.end - span.start - covered)
    return result


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span recorder plus counters; see the module docstring."""

    def __init__(self):
        self._open: list[list] = []  # [name, start, parent] of unfinished spans
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self._open.append([name, perf_counter(), parent])
        self._stack.append(len(self._open) - 1)
        return len(self._open) - 1

    def _exit(self, slot: int):
        self._open[slot].append(perf_counter())
        self._stack.pop()

    def spanned(self, fn, name: str):
        """`fn` wrapped so each call records a span; a direct recursive call
        stays inside the caller's span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._open[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            slot = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(slot)
        return wrapper

    def counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def fold(self, scale: float = 1.0) -> list[Span]:
        """Close the current batch of spans into `layers`, with their times
        multiplied by `scale`; returns the batch."""
        if self._stack:
            raise RuntimeError("fold() called while spans are open")
        spans = [Span(name, start, end, parent)
                 for name, start, parent, end in self._open]
        for span, own in zip(spans, self_times(spans)):
            stats = self.layers[span.name]
            stats.calls += 1
            stats.total_s += (span.end - span.start) * scale
            stats.self_s += own * scale
        self._open = []
        return spans

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr), replacement))

    def install(self):
        """Wrap the toolkit's module boundaries; idempotent until uninstall."""
        if not self._patches:
            self._plan()
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self):
        import warpverify
        from warpverify import profiles, screened_pde

        wrapped = {}
        for short in MODULES:
            mod = sys.modules[f"warpverify.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in POINTWISE
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = self.spanned(obj, name)
        wrapped[id(screened_pde.write_grid_csv)] = self._csv_writer(
            wrapped[id(screened_pde.write_grid_csv)])

        # Replace every reference, so calls between modules and inside one
        # module both pass through the wrappers.
        namespaces = [warpverify] + [sys.modules[f"warpverify.{m}"] for m in MODULES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(ns, attr, wrapped[id(obj)])

        fn_cls = profiles.ProfileFn
        for method in ("__call__", "d1", "d2"):
            self._patch(fn_cls, method,
                        self.counted(getattr(fn_cls, method), "profiles.evals"))
        spec_cls = screened_pde.GridSpec
        for method in ("source_fn", "boundary_fn"):
            self._patch(spec_cls, method, self._pointwise(getattr(spec_cls, method)))
        field_cls = screened_pde.GridField
        self._patch(field_cls, "max_error_against", self.spanned(
            field_cls.max_error_against, "screened_pde.GridField.max_error_against"))
        self._patch(screened_pde, "spla", _SolverProxy(screened_pde.spla, self))

    def _pointwise(self, method):
        key = "screened_pde.pointwise_callback_evals"
        counted = self.counted

        @functools.wraps(method)
        def wrapper(spec):
            return counted(method(spec), key)
        return wrapper

    def _csv_writer(self, write):
        @functools.wraps(write)
        def wrapper(field, dest):
            write(field, dest)
            if isinstance(dest, str):
                self.counts["screened_pde.csv_bytes"] += os.path.getsize(dest)
        return wrapper


class _SolverProxy:
    """Stands in for `scipy.sparse.linalg` inside `screened_pde`: every
    attribute passes through, and the two solvers are timed and counted."""

    def __init__(self, spla, tracer: Tracer):
        self._spla = spla
        self._tracer = tracer
        self.spsolve = tracer.spanned(self._sized(spla.spsolve), SPAN_DIRECT)
        self.cg = tracer.spanned(self._sized(self._counting_cg(spla.cg)), SPAN_CG)

    def __getattr__(self, attr):
        return getattr(self._spla, attr)

    def _sized(self, solve):
        counts = self._tracer.counts

        @functools.wraps(solve)
        def wrapper(A, b, *args, **kwargs):
            counts["screened_pde.unknowns"] += A.shape[0]
            counts["screened_pde.matrix_nnz"] += A.nnz
            return solve(A, b, *args, **kwargs)
        return wrapper

    def _counting_cg(self, cg):
        counts = self._tracer.counts

        @functools.wraps(cg)
        def wrapper(A, b, *args, callback=None, **kwargs):
            def step(xk):
                counts["screened_pde.cg.iterations"] += 1
                if callback is not None:
                    callback(xk)
            return cg(A, b, *args, callback=step, **kwargs)
        return wrapper


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: how it is read from the trace and which
    end-to-end metric, on which workload, it is expected to move."""

    name: str
    unit: str
    kind: str  # "calls", "self_s" or "count"
    sources: tuple[str, ...]
    moves: str

    def value(self, tracer: Tracer, ops: int) -> float:
        if self.kind == "count":
            total = sum(tracer.counts[s] for s in self.sources)
        else:
            total = sum(getattr(tracer.layers[s], self.kind)
                        for s in self.sources if s in tracer.layers)
        return total / ops


_VERIFY = "verify: ops_per_s, op_latency_p50_s; no change on the other workloads"
_SWEEP = "sweep: ops_per_s; negligible on verify"
_CONVERGE = "pde-converge: ops_per_s; must not grow on pde-solve"
_SOLVE = "pde-solve: ops_per_s, op_latency_p50_s; must not grow on pde-converge"
_BOTH_PDE = "pde-solve and pde-converge: ops_per_s, peak_rss_mb"
_SOLVE_ONLY = "pde-solve: ops_per_s, op_latency_p50_s; pde-converge bypasses it"
_CONVERGE_ONLY = "pde-converge: ops_per_s"

LAYER_METRICS = (
    LayerMetric("profiles.evals", "count", "count", ("profiles.evals",), _VERIFY),
    LayerMetric("geometry2d.gauss_curvature.calls", "count", "calls",
                ("geometry2d.gauss_curvature",), _VERIFY),
    LayerMetric("geometry2d.gauss_curvature.self_s", "s", "self_s",
                ("geometry2d.gauss_curvature",), _VERIFY),
    LayerMetric("geometry2d.laplace_beltrami.calls", "count", "calls",
                ("geometry2d.laplace_beltrami",), _VERIFY),
    LayerMetric("geometry2d.laplace_beltrami.self_s", "s", "self_s",
                ("geometry2d.laplace_beltrami",), _VERIFY),
    LayerMetric("geometry2d.hessian.self_s", "s", "self_s",
                ("geometry2d.hessian",), _VERIFY),
    LayerMetric("geometry2d.grad_norm_sq.self_s", "s", "self_s",
                ("geometry2d.grad_norm_sq",), _VERIFY),
    LayerMetric("compatibility.verify_pseudospherical.self_s", "s", "self_s",
                ("compatibility.verify_pseudospherical",), _VERIFY),
    LayerMetric("compatibility.integrate_s.calls", "count", "calls",
                ("compatibility.integrate_s",), _VERIFY),
    LayerMetric("einstein.residual_report.self_s", "s", "self_s",
                ("einstein.residual_report",), _VERIFY),
    LayerMetric("einstein.vertical_ricci_coeff.calls", "count", "calls",
                ("einstein.vertical_ricci_coeff",), _VERIFY),
    LayerMetric("relation.solve_lambda.calls", "count", "calls",
                ("relation.solve_lambda",), _SWEEP),
    LayerMetric("relation.solve_lambda.self_s", "s", "self_s",
                ("relation.solve_lambda",), _SWEEP),
    LayerMetric("relation.existence_sweep.self_s", "s", "self_s",
                ("relation.existence_sweep",), _SWEEP),
    LayerMetric("cli.emit.self_s", "s", "self_s",
                ("cli.to_json", "cli.sweep_json", "cli.sweep_csv_lines"), _SWEEP),
    LayerMetric("cli.run.self_s", "s", "self_s", ("cli.run", "cli.build_parser"), _SWEEP),
    LayerMetric("screened_pde.cg.iterations", "count", "count",
                ("screened_pde.cg.iterations",), _CONVERGE),
    LayerMetric("screened_pde.solve.cg_s", "s", "self_s", (SPAN_CG,), _CONVERGE),
    LayerMetric("screened_pde.solve.cg_calls", "count", "calls", (SPAN_CG,), _CONVERGE),
    LayerMetric("screened_pde.unknowns", "count", "count",
                ("screened_pde.unknowns",), _CONVERGE),
    LayerMetric("screened_pde.matrix_nnz", "count", "count",
                ("screened_pde.matrix_nnz",), _CONVERGE),
    LayerMetric("screened_pde.solve.direct_s", "s", "self_s", (SPAN_DIRECT,), _SOLVE),
    LayerMetric("screened_pde.solve.direct_calls", "count", "calls",
                (SPAN_DIRECT,), _SOLVE),
    LayerMetric("screened_pde.assemble.self_s", "s", "self_s",
                ("screened_pde.assemble_and_solve",), _BOTH_PDE),
    LayerMetric("screened_pde.pointwise_callback_evals", "count", "count",
                ("screened_pde.pointwise_callback_evals",), _BOTH_PDE),
    LayerMetric("screened_pde.write_grid_csv.self_s", "s", "self_s",
                ("screened_pde.write_grid_csv",), _SOLVE_ONLY),
    LayerMetric("screened_pde.csv_bytes", "bytes", "count",
                ("screened_pde.csv_bytes",), _SOLVE_ONLY),
    LayerMetric("screened_pde.residual_field.self_s", "s", "self_s",
                ("screened_pde.residual_field",), _SOLVE_ONLY),
    LayerMetric("screened_pde.max_error_against.self_s", "s", "self_s",
                ("screened_pde.GridField.max_error_against",), _CONVERGE_ONLY),
)
