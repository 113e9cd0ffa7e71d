"""Finite-difference solver for the screened Poisson equation on the disk.

Solves [lap_g - beta] f = -psi on the subdisk r <= r_max of the Poincare
disk chart, where lap_g = ((1 - r^2)^2 / 4) * (euclidean laplacian), with
Dirichlet data on the staircase boundary of a uniform Cartesian lattice.

The assembled operator is (beta I - lap_g), strictly diagonally dominant
for beta > 0, so the discrete problem is always solvable and obeys a
discrete maximum principle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, TextIO, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError, require_finite_positive

# Lattice node tags.
INTERIOR, BOUNDARY, EXTERIOR = 0, 1, 2
TAG_NAMES = {INTERIOR: "interior", BOUNDARY: "boundary", EXTERIOR: "exterior"}

# Direct sparse factorization up to this many unknowns, CG beyond.
DIRECT_SOLVE_LIMIT = 100_000
CG_MAX_ITER = 100_000
CG_RTOL = 1e-12

# Nested dissection stops splitting at lattice blocks of at most this many
# nodes (about 32-64 each) and numbers them row-major.
ND_LEAF_NODES = 64

# Largest lattice half-width n (the axis holds 2n + 1 points).  A 999^2
# lattice, about a million nodes, keeps each per-node float array near 8 MB.
MAX_HALF_WIDTH = 499

XYCallable = Callable[[np.ndarray, np.ndarray], Union[float, np.ndarray]]


@dataclass(frozen=True)
class GridSpec:
    """Problem statement for one Dirichlet solve.

    beta > 0 is the screening parameter, the lattice covers the subdisk
    r <= r_max < 1 with spacing h.  `source` is psi (None: homogeneous) and
    `boundary` the Dirichlet data, array callables that `_sample` calls once
    per node set with its row-major coordinates: `np.sin`, not `math.sin`.
    """

    beta: float
    r_max: float = 0.8
    h: float = 0.02
    source: Optional[XYCallable] = None
    boundary: Optional[XYCallable] = None

    def __post_init__(self):
        require_finite_positive("screening parameter beta", self.beta)
        if not 0.0 < self.r_max <= 1.0 - 1e-3:
            raise ValueError(f"need 0 < r_max <= 0.999, got {self.r_max}")
        require_finite_positive("mesh spacing h", self.h)
        if self.h >= self.r_max / 4.0:
            raise ValueError(
                f"mesh spacing h = {self.h} must satisfy 0 < h < r_max/4 = {self.r_max / 4.0}")
        n = _half_width(self.r_max, self.h)
        if n > MAX_HALF_WIDTH:
            raise ValueError(
                f"mesh spacing h = {self.h} gives a {2 * n + 1}^2 lattice, above "
                f"the {2 * MAX_HALF_WIDTH + 1}^2 cap; the smallest usable h at "
                f"r_max = {self.r_max} is {self.r_max / MAX_HALF_WIDTH:.6g}")

    def source_fn(self) -> XYCallable:
        return self.source or (lambda x, y: 0.0)

    def boundary_fn(self) -> XYCallable:
        return self.boundary or (lambda x, y: 0.0)


@dataclass(frozen=True)
class GridField:
    """Values on the masked lattice.

    `axis` holds the shared 1D lattice coordinates, `tags` the per-node
    classification, `values` the solution (NaN at exterior nodes).
    """

    axis: np.ndarray
    tags: np.ndarray
    values: np.ndarray
    h: float
    r_max: float

    @property
    def interior_mask(self) -> np.ndarray:
        return self.tags == INTERIOR

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.axis, self.axis, indexing="ij")

    def max_error_against(self, exact: XYCallable) -> float:
        """Max |f - exact| over non-exterior nodes."""
        X, Y = self.meshes()
        mask = self.tags != EXTERIOR
        ref = _sample(exact, X[mask], Y[mask], "exact solution")
        return float(np.max(np.abs(self.values[mask] - ref)))


def _sample(fn: XYCallable, X: np.ndarray, Y: np.ndarray, datum: str) -> np.ndarray:
    """The datum fn at the nodes (X[k], Y[k]): one call fn(X, Y), broadcast to
    X's shape.  ValueError names the datum if the result is not real, does
    not broadcast or is not finite (array arithmetic makes x/0 a silent inf)."""
    vals, out = fn(X, Y), np.empty(X.shape)
    try:
        np.copyto(out, vals, casting="same_kind")
    except (TypeError, ValueError):
        raise ValueError(f"{datum}: need real values for {X.size} nodes, got "
                         f"shape {np.shape(vals)}") from None
    if not np.isfinite(out).all():
        raise ValueError(f"{datum} is not finite at every node")
    return out


def _classify(X: np.ndarray, Y: np.ndarray, r_max: float) -> np.ndarray:
    """Tag every lattice node interior/boundary/exterior.

    Interior nodes have themselves and all four neighbors inside
    r <= r_max; inside nodes with an exterior (or off-lattice) neighbor
    are boundary nodes.
    """
    inside = X * X + Y * Y <= r_max * r_max + 1e-12
    interior = np.zeros_like(inside)
    interior[1:-1, 1:-1] = (
        inside[1:-1, 1:-1]
        & inside[:-2, 1:-1] & inside[2:, 1:-1]
        & inside[1:-1, :-2] & inside[1:-1, 2:]
    )
    tags = np.full(inside.shape, EXTERIOR, dtype=np.int8)
    tags[inside] = BOUNDARY
    tags[interior] = INTERIOR
    return tags


def _half_width(r_max: float, h: float) -> int:
    """Lattice half-width n: the axis runs over k h for |k| <= n."""
    return int(math.floor(r_max / h + 1e-12))


def _lattice(spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The spec's 1D axis, node tags and the two coordinate meshes."""
    n = _half_width(spec.r_max, spec.h)
    axis = np.arange(-n, n + 1, dtype=float) * spec.h
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    return axis, _classify(X, Y, spec.r_max), X, Y


def _conformal_weight(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r2 = x * x + y * y
    return (1.0 - r2) ** 2 / 4.0


def _dissect(shape: tuple[int, int]) -> list:
    """Nested dissection of a lattice of the given shape, as the list of
    its pieces in elimination order.

    A block of more than ND_LEAF_NODES nodes is cut through the middle
    lattice line of its longer side; its two halves come first, each
    dissected in turn, and the line last.  Five-point neighbours never lie
    on opposite sides of a lattice line, so the line separates the halves.
    Each piece is (rows, cols, split): `split` is the (rows, cols) block
    that a separator line cuts, None for a leaf block.
    """
    parts = []

    def dissect(rows: range, cols: range):
        if len(rows) * len(cols) <= ND_LEAF_NODES:
            parts.append((rows, cols, None))
        elif len(rows) >= len(cols):
            mid = len(rows) // 2
            dissect(rows[:mid], cols)
            dissect(rows[mid + 1:], cols)
            parts.append((rows[mid:mid + 1], cols, (rows, cols)))
        else:
            mid = len(cols) // 2
            dissect(rows, cols[:mid])
            dissect(rows, cols[mid + 1:])
            parts.append((rows, cols[mid:mid + 1], (rows, cols)))

    dissect(range(shape[0]), range(shape[1]))
    return parts


def _nested_dissection(interior: np.ndarray) -> np.ndarray:
    """Elimination order of the interior unknowns, numbered row-major over
    the `interior` mask: order[k] is the unknown eliminated k-th.

    Ranks every lattice node piece by piece along `_dissect` (row-major
    inside a piece) and sorts the interior nodes by rank.  For the
    five-point matrix this is the near-optimal fill order of a 2-D grid
    (George, SIAM J. Numer. Anal. 10, 1973).
    """
    rank = np.empty(interior.shape, dtype=np.int64)
    start = 0
    for rows, cols, _ in _dissect(interior.shape):
        size = len(rows) * len(cols)
        rank[rows.start:rows.stop, cols.start:cols.stop] = np.arange(
            start, start + size).reshape(len(rows), len(cols))
        start += size
    return np.argsort(rank[interior])


def assemble_and_solve(spec: GridSpec) -> GridField:
    """Discretize (beta I - lap_g) f = psi with Dirichlet data and solve.

    Five-point Euclidean stencil scaled by the conformal weight
    (1 - r^2)^2/4 at each interior node.  Direct sparse factorization up
    to 1e5 unknowns, eliminated in a nested-dissection order of the
    lattice (`_nested_dissection`); it agrees with the factorization
    under SuperLU's default COLAMD order up to rounding, about 1e-14
    relative.  Conjugate gradients on the symmetrized system beyond (the
    weight is positive, so dividing each row by it yields an SPD matrix).
    Raises SolverError on a degenerate grid or CG stall.
    """
    axis, tags, X, Y = _lattice(spec)
    interior = tags == INTERIOR
    boundary = tags == BOUNDARY

    n_int = int(interior.sum())
    if n_int == 0:
        raise SolverError("degenerate grid: no interior nodes")

    num = np.full(tags.shape, -1, dtype=np.int64)
    num[interior] = np.arange(n_int)

    h2 = spec.h * spec.h
    w = np.zeros(tags.shape)
    w[interior] = _conformal_weight(X[interior], Y[interior])

    bvals = np.zeros(tags.shape)
    bvals[boundary] = _sample(spec.boundary_fn(), X[boundary], Y[boundary], "boundary")
    rhs = _sample(spec.source_fn(), X[interior], Y[interior], "source")

    rows = [np.arange(n_int)]
    cols = [np.arange(n_int)]
    vals = [spec.beta + 4.0 * w[interior] / h2]
    ii, jj = np.nonzero(interior)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = ii + di, jj + dj
        coupled = interior[ni, nj]
        rows.append(num[ii[coupled], jj[coupled]])
        cols.append(num[ni[coupled], nj[coupled]])
        vals.append(-w[ii[coupled], jj[coupled]] / h2)
        # Dirichlet neighbors contribute to the right-hand side.
        fixed = ~coupled
        rhs[num[ii[fixed], jj[fixed]]] += (
            w[ii[fixed], jj[fixed]] / h2 * bvals[ni[fixed], nj[fixed]])

    M = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_int, n_int))

    if n_int <= DIRECT_SOLVE_LIMIT:
        order = _nested_dissection(interior)
        sol = np.empty(n_int)
        sol[order] = spla.spsolve(M[order][:, order], rhs[order],
                                  permc_spec="NATURAL")
    else:
        # Symmetrize: rows share the factor w; dividing by it makes
        # beta diag(1/w) + (five-point graph laplacian), which is SPD.
        d = 1.0 / w[interior]
        D = sp.diags(d)
        sol, info = spla.cg(D @ M, d * rhs, rtol=CG_RTOL, atol=0.0,
                            maxiter=CG_MAX_ITER)
        if info != 0:
            res = float(np.linalg.norm(M @ sol - rhs) / np.linalg.norm(rhs))
            raise SolverError(
                f"conjugate-gradient solve did not converge (info={info})",
                final_residual=res)

    values = np.full(tags.shape, np.nan)
    values[interior] = sol
    values[boundary] = bvals[boundary]
    return GridField(axis=axis, tags=tags, values=values, h=spec.h,
                     r_max=spec.r_max)


def residual_field(field: GridField, spec: GridSpec) -> float:
    """Max over interior nodes of |lap_g f - beta f + psi|.

    For a field returned by `assemble_and_solve` this is the linear-solve
    residual; for an exact solution sampled on the lattice it measures the
    truncation error of the five-point stencil.  It is absolute, so it has
    a rounding floor near eps * w * max|f| / h^2, w = (1 - r^2)^2/4.
    """
    axis, tags, X, Y = _lattice(spec)
    if not (np.array_equal(axis, field.axis) and np.array_equal(tags, field.tags)):
        raise ValueError("lattice mismatch between field and spec")

    f = field.values
    interior = tags == INTERIOR
    h2 = spec.h * spec.h
    lap5 = np.zeros_like(f)
    lap5[1:-1, 1:-1] = (f[:-2, 1:-1] + f[2:, 1:-1] + f[1:-1, :-2] + f[1:-1, 2:]
                        - 4.0 * f[1:-1, 1:-1]) / h2
    w = _conformal_weight(X[interior], Y[interior])
    psi = _sample(spec.source_fn(), X[interior], Y[interior], "source")
    res = w * lap5[interior] - spec.beta * f[interior] + psi
    return float(np.max(np.abs(res)))


def sample_exact(spec: GridSpec, exact: XYCallable) -> GridField:
    """Exact solution sampled on the spec's lattice (NaN at exterior)."""
    axis, tags, X, Y = _lattice(spec)
    values = np.full(tags.shape, np.nan)
    mask = tags != EXTERIOR
    values[mask] = _sample(exact, X[mask], Y[mask], "exact solution")
    return GridField(axis=axis, tags=tags, values=values, h=spec.h,
                     r_max=spec.r_max)


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    max_error: float
    observed_rate: Optional[float]


def convergence_study(spec: GridSpec, h_list: Sequence[float],
                      exact: XYCallable) -> list[ConvergenceRow]:
    """Solve at each mesh width, compare against the exact solution.

    Rates are log(err_i-1 / err_i) / log(h_i-1 / h_i) between consecutive
    rows; for halvings this is the usual log2 ratio, expected near 2 for
    the five-point stencil.
    """
    hs = mesh_widths(h_list)
    # Build every level first, so an invalid width fails before any solve.
    runs = [replace(spec, h=h) for h in hs]
    rows: list[ConvergenceRow] = []
    for h, run in zip(hs, runs):
        err = assemble_and_solve(run).max_error_against(exact)
        rate = None
        if rows and err > 0.0 and rows[-1].max_error > 0.0:
            rate = math.log(rows[-1].max_error / err) / math.log(rows[-1].h / h)
        rows.append(ConvergenceRow(h=h, max_error=err, observed_rate=rate))
    return rows


def mesh_widths(h_list: Sequence[float]) -> list[float]:
    """The widths of a convergence ladder: at least two, strictly decreasing."""
    hs = [float(h) for h in h_list]
    if len(hs) < 2:
        raise ValueError("need at least two mesh widths")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("mesh widths must be strictly decreasing")
    return hs


def write_grid_csv(field: GridField, dest: Union[str, TextIO]):
    """Emit the lattice as CSV: header x1,x2,tag,value, row-major order.

    Nodes valued NaN (the exterior ones) carry an empty value column.
    Floats are written with 17 significant digits so output is bit-stable
    across runs.  Each axis value is formatted once, and each lattice row
    goes out in one write, built from prebuilt ",x2,tag," cells.  A file
    named by `dest` is removed again when writing it fails.
    """
    if not isinstance(dest, str):
        _write_grid_rows(field, dest)
        return
    fh = open(dest, "w", encoding="ascii", newline="")
    try:
        with fh:
            _write_grid_rows(field, fh)
    except BaseException:
        if os.path.isfile(dest):  # a device such as /dev/full stays
            os.remove(dest)
        raise


def _write_grid_rows(field: GridField, fh: TextIO):
    coords = [format(x, ".17g") for x in field.axis.tolist()]
    n = len(coords)
    # cells[tag, j]: the middle of a line at column j, tag included.
    cells = np.array([[f",{x2},{TAG_NAMES[tag]}," for x2 in coords]
                      for tag in (INTERIOR, BOUNDARY, EXTERIOR)], dtype=object)
    columns = np.arange(n)
    fh.write("x1,x2,tag,value\n")
    for x1, tags, vals in zip(coords, field.tags, field.values):
        known = ~np.isnan(vals)
        svals = np.full(n, "", dtype=object)
        svals[known] = [format(v, ".17g") for v in vals[known].tolist()]
        lines = (cells[tags, columns] + svals).tolist()
        fh.write(x1 + ("\n" + x1).join(lines) + "\n")


def coshdist_exact(x, y):
    """(1 + r^2)/(1 - r^2), on floats or arrays: satisfies lap_g f = 2 f on
    the disk chart, so it solves the homogeneous problem at beta = 2 and,
    with the manufactured source (beta - 2) f, the problem at any beta."""
    r2 = x * x + y * y
    return (1.0 + r2) / (1.0 - r2)


def manufactured_spec(beta: float, r_max: float = 0.8, h: float = 0.02) -> GridSpec:
    """GridSpec whose exact solution is `coshdist_exact` for any beta."""
    return GridSpec(
        beta=beta, r_max=r_max, h=h,
        source=lambda x, y: (beta - 2.0) * coshdist_exact(x, y),
        boundary=coshdist_exact,
    )
