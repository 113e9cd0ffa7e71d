"""Host-speed gauge: how much slower than nominal this host runs right now.

The benchmark host is a small virtual machine that shares its cores with
other tenants.  Its speed drifts by up to 2x in phases lasting tens of
seconds (measured with a fixed loop), which is longer than one benchmark
run, so raw wall times of identical work spread by 15-40 % from run to
run.  The gauge times a fixed reference kernel, independent of warpverify,
right before and after each timed operation; the benchmark divides the
operation's wall time by the mean slowdown the two readings report, which
expresses every time in seconds at the host's nominal speed.

The kernel has three parts, one per kind of work the workloads do:
integer arithmetic in the interpreter, calls through a tree of small
Python objects and closures, and a sparse direct solve.  The slowdown is
the mean over the parts of (time now / nominal time).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Uncontended durations of the three parts on the development host
# (2-vCPU Intel Xeon virtual machine, Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1), the 1st percentile of 2000 readings.  On other hardware the
# normalized times are off by a constant factor, which cancels when two
# commits are compared on the same host.
NOMINAL_S = (1.35e-3, 0.895e-3, 1.81e-3)

LOOP_COUNT = 25_000
TREE_DEPTH = 8
TREE_EVALS = 12
GRID = 30


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right

    def __call__(self, t):
        return self.op(self.left(t), self.right(t))


def _tree(depth: int):
    if depth == 0:
        return lambda t: 1.0001 * t + 0.5
    ops = (lambda x, y: x + y, lambda x, y: 0.999 * x * y,
           lambda x, y: (x - y) / (1.0 + abs(y)))
    return _Node(ops[depth % 3], _tree(depth - 1), _tree(depth - 1))


class HostSpeed:
    """The reference kernel, built once; `slowdown()` runs it."""

    def __init__(self):
        self._tree = _tree(TREE_DEPTH)
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        eye = sp.eye(GRID)
        self._matrix = (sp.kron(lap, eye) + sp.kron(eye, lap)
                        + 0.1 * sp.eye(GRID * GRID)).tocsc()
        self._rhs = np.ones(GRID * GRID)

    def part_times(self) -> tuple[float, float, float]:
        t0 = perf_counter()
        acc = 0
        for i in range(LOOP_COUNT):
            acc += i * i
        t1 = perf_counter()
        for i in range(TREE_EVALS):
            self._tree(0.1 * i)
        t2 = perf_counter()
        spla.spsolve(self._matrix, self._rhs)
        t3 = perf_counter()
        return t1 - t0, t2 - t1, t3 - t2

    def slowdown(self) -> float:
        parts = self.part_times()
        return sum(t / n for t, n in zip(parts, NOMINAL_S)) / len(parts)
