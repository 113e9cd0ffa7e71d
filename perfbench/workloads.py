"""Seeded command lines for the four benchmark workloads.

Every operation is one warpverify command line.  The stream of command
lines is a pure function of the workload name and the seed, so the
program under test only ever sees these generated inputs.

Input properties that change the cost of an operation (problem size,
chart radius, screening parameter) are drawn with stratified sampling:
within each cycle of ``STRATA`` operations of one class every stratum of
every such property occurs exactly once, always in the same combinations,
in a seeded order and with a seeded offset inside each stratum.  A short
run therefore sees the same mix of costs whatever the seed, which keeps
run-to-run spread small while the individual inputs still differ from
seed to seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

# The screened-PDE solver factorizes directly up to this many interior
# unknowns and switches to conjugate gradients beyond.  `pde-solve` stays
# below it and `pde-converge` puts exactly one level of each ladder above
# it, so each workload sits on one side of the split.
DIRECT_SOLVE_LIMIT = 100_000

STRATA = 4

BETA_RANGE = (0.25, 4.0)
VERIFY_M_RANGE = (2, 60)
SWEEP_M_HI_RANGE = (100, 300)
# A CSV row costs about 2.5x less to emit than a JSON row, so CSV
# operations sweep 2.5x more m values: both formats then take about the
# same time per operation, and operation costs form one continuous range
# instead of two clusters whose gap would make the median jump.
SWEEP_CSV_M_SCALE = 2.5
SWEEP_BETA_COUNT = 20
# Near beta = sqrt(2) the constant term of the published coefficients
# vanishes, and for m in the hundreds `solve_lambda` rejects its own root
# with an ArithmeticError that the CLI does not catch.  That is a known
# defect, not a cost property, so sweep betas skip this band and every
# sweep operation completes; test_perfbench.py keeps the defect in view.
SWEEP_BETA_GAP = (1.40, 1.46)
PDE_SOLVE_UNKNOWNS = (55_000, 95_000)
PDE_SOLVE_RMAX = (0.7, 0.95)
# Finest level of a convergence ladder, as a multiple of the limit.
PDE_CONVERGE_FINEST = (1.45, 1.75)
PDE_CONVERGE_RMAX = (0.7, 0.9)
BOUNDARY_CONDITIONS = ("angular", "coshdist", "one", "zero")


@dataclass(frozen=True)
class Op:
    """One command line, the CSV path it writes (if any) and the exit code
    it is expected to end with."""

    argv: tuple[str, ...]
    out_path: Optional[str] = None
    expect_code: int = 0


def num(x: float) -> str:
    """Shortest text that parses back to exactly the same float."""
    return repr(float(x))


class _Strata:
    """Stratified fractions in [0, 1) for a fixed number of dimensions.

    Cycle j of STRATA calls holds the same STRATA combinations every time:
    dimension d falls in stratum (i + d) mod STRATA for i = 0..STRATA-1.
    Only their order and the offsets inside the strata come from the seed,
    so every cycle costs about the same whatever the seed.
    """

    def __init__(self, rng: random.Random, dims: int):
        self._rng = rng
        self._dims = dims
        self._order: list[int] = []

    def fractions(self, k: int) -> list[float]:
        slot = k % STRATA
        if slot == 0 or not self._order:
            self._order = self._rng.sample(range(STRATA), STRATA)
        first = self._order[slot]
        return [((first + d) % STRATA + self._rng.random()) / STRATA
                for d in range(self._dims)]


def _between(lo: float, hi: float, frac: float) -> float:
    return lo + (hi - lo) * frac


def _log_between(lo: float, hi: float, frac: float) -> float:
    return math.exp(_between(math.log(lo), math.log(hi), frac))


def _spacing_for(unknowns: float, r_max: float) -> float:
    """Mesh width that puts about `unknowns` lattice nodes in the disk."""
    return r_max * math.sqrt(math.pi / unknowns)


def _verify(rng, fracs, k, out_dir) -> Op:
    f_m, f_beta = fracs
    lo, hi = VERIFY_M_RANGE
    m = lo + int(f_m * (hi - lo + 1))
    beta = _log_between(*BETA_RANGE, f_beta)
    return Op(("verify", "--m", str(m), "--beta", num(beta), "--quiet"))


def _sweep(rng, fracs, k, out_dir) -> Op:
    # CSV and JSON serialize the same records; alternating them (and the
    # two coefficient variants) makes a change that helps one emitter and
    # hurts the other show up in the same run.
    fmt = ("csv", "json")[k % 2]
    variant = ("rederived", "published")[(k // 2) % 2]
    (f_m,) = fracs
    m_hi = _between(*SWEEP_M_HI_RANGE, f_m)
    m_hi = int(m_hi * SWEEP_CSV_M_SCALE if fmt == "csv" else m_hi)
    betas = set()
    while len(betas) < SWEEP_BETA_COUNT:
        beta = _log_between(*BETA_RANGE, rng.random())
        if not SWEEP_BETA_GAP[0] <= beta <= SWEEP_BETA_GAP[1]:
            betas.add(beta)
    return Op(("relation", "sweep", "--m", f"2..{m_hi}",
               "--beta", ",".join(num(b) for b in sorted(betas)),
               "--variant", variant, "--format", fmt, "--quiet"))


def _pde_solve(rng, fracs, k, out_dir) -> Op:
    f_n, f_r, f_beta = fracs
    r_max = _between(*PDE_SOLVE_RMAX, f_r)
    h = _spacing_for(_between(*PDE_SOLVE_UNKNOWNS, f_n), r_max)
    beta = _log_between(*BETA_RANGE, f_beta)
    bc = rng.choice(BOUNDARY_CONDITIONS)
    out = os.path.join(out_dir, "pde-solve.csv")
    return Op(("pde", "solve", "--beta", num(beta), "--rmax", num(r_max),
               "--h", num(h), "--bc", bc, "--out", out, "--quiet"), out)


def _pde_converge(rng, fracs, k, out_dir) -> Op:
    f_n, f_r, f_beta = fracs
    r_max = _between(*PDE_CONVERGE_RMAX, f_r)
    finest = DIRECT_SOLVE_LIMIT * _between(*PDE_CONVERGE_FINEST, f_n)
    h = _spacing_for(finest, r_max)
    # Halving ladder: the coarser levels hold a quarter and a sixteenth of
    # the finest level's unknowns, all below the direct-solve limit.
    ladder = (4.0 * h, 2.0 * h, h)
    beta = _log_between(*BETA_RANGE, f_beta)
    return Op(("pde", "converge", "--beta", num(beta),
               "--h", ",".join(num(x) for x in ladder),
               "--rmax", num(r_max), "--format", "json", "--quiet"))


# name -> (generator, stratified dimensions, operation classes).  Operation
# k belongs to class k % classes, and each class has its own strata, so
# every sweep format/variant pair sees every size stratum.
_GENERATORS: dict[str, tuple[Callable, int, int]] = {
    "verify": (_verify, 2, 1),
    "sweep": (_sweep, 1, 4),
    "pde-solve": (_pde_solve, 3, 1),
    "pde-converge": (_pde_converge, 3, 1),
}

WORKLOADS = tuple(_GENERATORS)

# A small fixed operation per workload, run during set-up so lazy imports
# and first-call costs are paid before timing starts.
WARMUP = {
    "verify": ("verify", "--m", "3", "--beta", "1", "--quiet"),
    "sweep": ("relation", "sweep", "--m", "2..20", "--beta", "0.5,1,2",
              "--format", "json", "--quiet"),
    "pde-solve": ("pde", "solve", "--beta", "1", "--rmax", "0.8",
                  "--h", "0.05", "--bc", "coshdist", "--quiet"),
    "pde-converge": ("pde", "converge", "--beta", "2.5", "--h", "0.04,0.02",
                     "--format", "json", "--quiet"),
}


def warmup_op(workload: str, out_dir: str) -> Op:
    argv = WARMUP[workload]
    if workload == "pde-solve":
        out = os.path.join(out_dir, "warmup.csv")
        return Op(argv + ("--out", out), out)
    return Op(argv)


def op_stream(workload: str, seed: int, out_dir: str) -> Iterator[Op]:
    """Endless, reproducible stream of operations for one workload."""
    gen, dims, classes = _GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    strata = [_Strata(rng, dims) for _ in range(classes)]
    k = 0
    while True:
        fracs = strata[k % classes].fractions(k // classes)
        yield gen(rng, fracs, k, out_dir)
        k += 1
