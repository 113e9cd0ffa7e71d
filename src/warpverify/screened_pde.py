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
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, TextIO, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError, require_finite_positive

# Lattice node tags.
INTERIOR, BOUNDARY, EXTERIOR = 0, 1, 2
TAG_NAMES = {INTERIOR: "interior", BOUNDARY: "boundary", EXTERIOR: "exterior"}

# Every symmetry class is factorized when the whole interior has at most
# this many unknowns, and solved by conjugate gradients when it has more.
DIRECT_SOLVE_LIMIT = 100_000
CG_MAX_ITER = 100_000
CG_RTOL = 1e-12

# Lattice rows per joined block of the grid CSV: about 3 MB of text on the
# widest lattice.
CSV_BLOCK_ROWS = 64

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
    `convergence_study` solves its levels on two threads, so both may be
    called from two threads at once.
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
        # Checked as a float, before _half_width floors it to an int: r_max/h
        # overflows to inf for a subnormal h.
        width = self.r_max / self.h + 1e-12
        if not width < MAX_HALF_WIDTH + 1:
            raise ValueError(
                f"mesh spacing h = {self.h} gives a lattice of {2 * np.floor(width) + 1:.6g}^2 "
                f"nodes, above the {2 * MAX_HALF_WIDTH + 1}^2 cap; the smallest "
                f"usable h at r_max = {self.r_max} is {self.r_max / MAX_HALF_WIDTH:.6g}")
        # the stencil divides by h**2, which must not underflow
        if self.h * self.h < sys.float_info.min:
            raise ValueError(f"mesh spacing h must have h**2 >= {sys.float_info.min!r} "
                             f"(the smallest normal double), got {self.h}")

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

    def max_error_against(self, exact: XYCallable) -> float:
        """Max |f - exact| over non-exterior nodes."""
        mask = self.tags != EXTERIOR
        ref = _sample(exact, *_nodes(self.axis, mask), "exact solution")
        return float(np.max(np.abs(self.values[mask] - ref)))


def _sample(fn: XYCallable, X: np.ndarray, Y: np.ndarray, datum: str) -> np.ndarray:
    """The datum fn at the nodes (X[k], Y[k]): one call fn(X, Y), broadcast to
    X's shape.  ValueError names the datum if the result is not real, does
    not broadcast or is not finite; array arithmetic makes x/0 a silent inf,
    so the call runs with numpy's floating-point warnings off."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals, out = fn(X, Y), np.empty(X.shape)
    try:
        np.copyto(out, vals, casting="same_kind")
    except (TypeError, ValueError):
        raise ValueError(f"{datum}: need real values for {X.size} nodes, got "
                         f"shape {np.shape(vals)}") from None
    if not np.isfinite(out).all():
        raise ValueError(f"{datum} is not finite at every node")
    return out


def _nodes(axis: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major coordinates (x, y) of the lattice nodes in mask."""
    return (np.broadcast_to(axis[:, None], mask.shape)[mask],
            np.broadcast_to(axis, mask.shape)[mask])


def _classify(axis: np.ndarray, r_max: float) -> np.ndarray:
    """Tag every node of the lattice over axis interior/boundary/exterior.

    Interior nodes have themselves and all four neighbors inside
    r <= r_max; inside nodes with an exterior (or off-lattice) neighbor
    are boundary nodes.
    """
    sq = axis * axis
    inside = sq[:, None] + sq[None, :] <= r_max * r_max + 1e-12
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


def _lattice(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The spec's 1D axis and node tags."""
    n = _half_width(spec.r_max, spec.h)
    axis = np.arange(-n, n + 1, dtype=float) * spec.h
    return axis, _classify(axis, spec.r_max)


def _conformal_weight(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r2 = x * x + y * y
    return (1.0 - r2) ** 2 / 4.0


def _assemble(spec: GridSpec):
    """The spec's lattice and the data of its interior system: (axis, tags,
    boundary values at the boundary nodes in row-major order, right-hand
    side split into its four parity classes by `_mirror_transform`, an
    all-zero class as the scalar 0.0), or ValueError if a class overflows.
    No lattice-sized weight, boundary or right-hand-side array outlives
    the call and no matrix is built: `_class_system` writes the stencil of
    each kept row."""
    axis, tags = _lattice(spec)
    interior = tags == INTERIOR
    boundary = tags == BOUNDARY
    if not interior.any():
        raise SolverError("degenerate grid: no interior nodes")

    bvals = _sample(spec.boundary_fn(), *_nodes(axis, boundary), "boundary")
    src = _sample(spec.source_fn(), *_nodes(axis, interior), "source")
    # A Dirichlet neighbour adds w/h^2 times its value to the right-hand
    # side of the ring of interior nodes next to the boundary.  Summed as
    # (E + W) + (N + S), the total is the same float under x -> -x, y -> -y
    # and x <-> y, so data with one of these symmetries give a rhs with it.
    ring = interior.copy()
    ring[1:-1, 1:-1] &= (boundary[2:, 1:-1] | boundary[:-2, 1:-1]
                         | boundary[1:-1, 2:] | boundary[1:-1, :-2])
    i, j = np.nonzero(ring)
    scaled = _conformal_weight(axis[i], axis[j]) / (spec.h * spec.h)
    rhs = np.zeros(tags.shape)
    rhs[boundary] = bvals
    with np.errstate(over="ignore", invalid="ignore"):
        east, west, north, south = (scaled * rhs[i + di, j + dj]
                                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))
        rhs[boundary] = 0.0
        rhs[ring] = (east + west) + (north + south)
        rhs[interior] += src
        classes = _mirror_transform(_quadrants(rhs))
    if not all(np.isfinite(c).all() for half in classes for c in half):
        raise ValueError("right-hand side overflows: source or boundary data too large")
    return axis, tags, bvals, [[c if c.any() else 0.0 for c in half] for half in classes]


def _quadrants(a: np.ndarray) -> list:
    """The four quadrants of a (2n+1)^2 lattice array as views indexed by
    the offsets (|k|, |l|) from the centre: q[s][t] lies on the + side of
    x for s = 0, the - side for s = 1, and likewise t for y."""
    n = a.shape[0] // 2
    return [[a[n:, n:], a[n:, n::-1]], [a[n::-1, n:], a[n::-1, n::-1]]]


def _mirror_transform(q: list) -> list:
    """out[a][b] = sum over s, t of (-1)^(a s + b t) q[s][t]; applied twice
    it gives 4 q.  The sums pair the quadrants that x <-> y swaps, so
    quadrants that are mirror images of each other cancel exactly (data
    even in x leave the classes odd in x at 0, and so on), and the (even,
    even) and (odd, odd) outputs of data symmetric under x <-> y are
    exactly symmetric under the transpose."""
    diagonal, cross = q[0][0] + q[1][1], q[0][1] + q[1][0]
    main, side = q[0][0] - q[1][1], q[1][0] - q[0][1]
    return [[diagonal + cross, main + side], [main - side, diagonal - cross]]


def _class_system(interior: np.ndarray, axis: np.ndarray, beta: float, h: float,
                  parity: tuple[int, int], swap: Optional[int] = None):
    """Unknowns and matrix of one mirror-symmetry class of the interior
    system M f = rhs, M = beta I - w/h^2 times the five-point Laplacian.

    parity (a, b) selects the solutions even (0) or odd (1) under x -> -x
    and under y -> -y.  Such a solution is fixed by its values on the
    quarter (k, l) >= 0 of the lattice, zero on the axis of an odd parity.
    For a = b, swap c additionally selects the solutions even (0) or odd
    (1) under x <-> y, fixed by their values on the octant l <= k of the
    quarter (l < k when odd: they vanish on the diagonal).  Returns the
    nodes (k, l) it keeps, row-major, the rows of M at them with each
    column folded onto its mirror image among them, and the orbit size of
    each kept node: the number of interior nodes folded onto it.  Only the
    stencils of the kept rows are written, -w/h^2 off the diagonal and
    beta + 4 w/h^2 on it with w the weight at the row's node.  They reach
    an axis or the diagonal on which the class is odd but never cross it,
    so no fold changes a sign.
    """
    n = interior.shape[0] // 2
    a, b = parity
    keep = interior[n:, n:].copy()
    keep[:a] = False        # an odd class is zero on its axis
    keep[:, :b] = False
    if swap is not None:
        keep &= np.tri(n + 1, dtype=bool, k=-swap)
    k, l = np.nonzero(keep)
    column = np.full(keep.shape, -1)
    column[k, l] = np.arange(k.size)

    # The stencil of (k, l) is (k - 1, l), (k, l - 1), (k, l), (k, l + 1),
    # (k + 1, l), less its Dirichlet nodes; the interior is mirror
    # invariant, so it is read at their images.
    i = np.abs(k[:, None] + np.array([-1, 0, 0, 0, 1]))
    j = np.abs(l[:, None] + np.array([0, -1, 0, 1, 0]))
    if swap is not None:
        i, j = np.maximum(i, j), np.minimum(i, j)
    coupled = interior[n + i, n + j]
    scaled = _conformal_weight(axis[n + k], axis[n + l]) / (h * h)
    values = np.repeat(-scaled[:, None], 5, axis=1)
    values[:, 2] = beta + 4.0 * scaled
    folded = column[i, j]
    kept = coupled & (folded >= 0)
    A = sp.csr_matrix((values[kept], folded[kept], np.append(0, np.cumsum(kept.sum(axis=1)))),
                      shape=(k.size, k.size))
    A.sum_duplicates()
    orbit = (1 + (k > 0)) * (1 + (l > 0)) * (1 + (swap is not None) * (k != l))
    return (k, l), A, orbit


def _class_cg(A, b: np.ndarray, root: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Conjugate gradients on one class system A x = b.

    root is the square root of the orbit size of each kept node (the
    number of lattice nodes folded onto it) and w the conformal weight at
    it.  Scaling class vectors by root maps them isometrically onto the
    lattice vectors of the class, so B = diag(root / w) A diag(1 / root)
    is the symmetric positive definite diag(1/w) M restricted to them and
    CG on B y = (root / w) b, x = y / root, runs the same iteration as CG
    on the whole lattice would (Hestenes & Stiefel, J. Res. NBS 49, 1952).
    The right-hand side is scaled by the power of two 2^-e that puts its
    max-abs in [1/2, 1), so the dot products cannot overflow, and y by 2^e
    back: exact short of subnormals, so the iterates and their count are
    those of the unscaled system.
    Raises SolverError with the class's relative residual on a stall.
    """
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    B = sp.csr_matrix(((root / w)[rows] * A.data * (1.0 / root)[A.indices], A.indices, A.indptr),
                      shape=A.shape)
    rhs = root / w * b
    _, e = np.frexp(np.max(np.abs(rhs)))
    y, info = spla.cg(B, np.ldexp(rhs, -e), rtol=CG_RTOL, atol=0.0, maxiter=CG_MAX_ITER)
    x = np.ldexp(y, e) / root
    if info != 0:
        res = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
        raise SolverError(f"conjugate-gradient solve did not converge (info={info})",
                          final_residual=res)
    return x


def _mirror_solve(r: list, interior: np.ndarray, axis: np.ndarray, beta: float, h: float,
                  cg: bool) -> np.ndarray:
    """Solve M f = rhs by its symmetry under the dihedral group of the square.

    r holds the four parity classes of rhs from `_assemble`, an all-zero
    one as the scalar 0.0, emptied before the returned lattice array of f
    (0 off the interior) is assembled.

    The lattice, its interior and the conformal weight are exactly
    invariant under x -> -x, y -> -y and x <-> y, so M commutes with
    them.  rhs splits into four parity classes under the two reflections
    (Bossavit, Comput. Methods Appl. Mech. Eng. 56, 1986), each posed on a
    quarter lattice.  The (even, even) and (odd, odd) classes split again
    by their parity under x <-> y and are solved on the octant l <= k of
    the quarter, about N/8 unknowns each (Fassler & Stiefel, Group
    Theoretical Methods and Their Applications, 1992, ch. 3); the quarter
    is rebuilt as (symmetric + antisymmetric)/2.  The (odd, even) matrix is
    the (even, odd) one transposed, so one quarter matrix serves both.  A
    class whose right-hand side is exactly zero has solution zero and is
    skipped: data symmetric under the whole group (`one`, `coshdist`, the
    manufactured problem) or odd in x and y and symmetric under x <-> y
    (`angular`) need one octant solve, data odd in one coordinate one
    quarter solve (two right-hand sides), and data with no symmetry four
    octant solves and one quarter solve.  A zero class is never
    materialized, it stays the scalar 0.0 through every sum, and a
    diagonal class equal to its transpose leaves its x <-> y odd octant
    class at 0.0 unbuilt; an octant right-hand side is built just before
    its solve, a solution quarter only for a solved class.  Each class is
    solved directly, SuperLU ordering it by minimum degree on A^T + A
    (`MMD_AT_PLUS_A`), or with `cg` by conjugate gradients (`_class_cg`),
    once per right-hand side.
    """
    n = interior.shape[0] // 2

    def solve(parity, swap, *given):
        """The quarter of each class solution, 0.0 where given is zero."""
        quarters = [0.0] * len(given)
        excited = [i for i, g in enumerate(given) if np.any(g)]
        if not excited:
            return quarters
        (k, l), A, orbit = _class_system(interior, axis, beta, h, parity, swap)
        b = np.column_stack([given[i][k, l] for i in excited])
        if cg:
            w = _conformal_weight(axis[n + k], axis[n + l])
            x = np.column_stack([_class_cg(A, col, np.sqrt(orbit), w) for col in b.T])
        else:
            x = spla.spsolve(A, b, permc_spec="MMD_AT_PLUS_A").reshape(k.size, -1)
        for i, col in zip(excited, x.T):
            quarters[i] = out = np.zeros((n + 1, n + 1))
            if swap is not None:
                out[l, k] = (1 - 2 * swap) * col    # the mirror image across the diagonal
            out[k, l] = col
        return quarters

    # The octant classes first, then the (even, odd) quarter class with the
    # (odd, even) one on transposed quarters.
    v = [[0.0, 0.0], [0.0, 0.0]]
    for a in (0, 1):
        q = r[a][a]
        symmetric = np.array_equal(q, np.transpose(q))
        even = solve((a, a), 0, q + np.transpose(q))[0]
        odd = solve((a, a), 1, 0.0 if symmetric else q - np.transpose(q))[0]
        v[a][a] = (even + odd) / 2.0
    v[0][1], odd_even = solve((0, 1), None, r[0][1], np.transpose(r[1][0]))
    v[1][0] = np.transpose(odd_even)
    r.clear()
    del q, even, odd
    f = np.empty(interior.shape)
    for dest, q in zip(_quadrants(f), _mirror_transform(v)):
        for d, part in zip(dest, q):
            d[...] = part / 4.0
    return f


def assemble_and_solve(spec: GridSpec) -> GridField:
    """Discretize (beta I - lap_g) f = psi with Dirichlet data and solve.

    Five-point Euclidean stencil scaled by the conformal weight
    (1 - r^2)^2/4 at each interior node, solved split by the symmetry of
    the square (`_mirror_solve`): one octant system (about N/8 unknowns)
    for data symmetric under x -> -x, y -> -y and x <-> y, or odd in x and
    y and symmetric under x <-> y; one quarter system (about N/4) for data
    odd in one coordinate; four octant and one quarter system for data
    with no symmetry; none for zero data.  No matrix of the whole
    interior is built: each class system is written from the stencil of
    its kept nodes (`_class_system`), and no lattice-sized array but the
    tags and the solution outlives assembly and the class solves.  When
    the whole interior has at most DIRECT_SOLVE_LIMIT (1e5) unknowns every
    class is factorized, SuperLU ordering it by minimum degree on A^T + A
    (`MMD_AT_PLUS_A`; Liu, ACM TOMS 11, 1985); this agrees with one
    unsplit factorization up to rounding, within 1e-12 * max|f|, and
    symmetric data give an exactly symmetric solution.  Beyond, each class
    runs conjugate gradients on its symmetrized system (`_class_cg`), the
    whole-lattice iteration restricted to the class: each class stops at
    ||r|| <= CG_RTOL ||b||, so the whole system meets that bound too.
    Raises SolverError on a degenerate grid or CG stall.
    """
    axis, tags, bvals, rhs = _assemble(spec)
    interior = tags == INTERIOR
    values = _mirror_solve(rhs, interior, axis, spec.beta, spec.h,
                           cg=np.count_nonzero(interior) > DIRECT_SOLVE_LIMIT)
    values[tags == BOUNDARY] = bvals
    values[tags == EXTERIOR] = np.nan
    return GridField(axis=axis, tags=tags, values=values, h=spec.h,
                     r_max=spec.r_max)


def residual_field(field: GridField, spec: GridSpec) -> float:
    """Max over interior nodes of |lap_g f - beta f + psi|.

    For a field returned by `assemble_and_solve` this is the linear-solve
    residual; for an exact solution sampled on the lattice it measures the
    truncation error of the five-point stencil.  It is absolute, so it has
    a rounding floor near eps * w * max|f| / h^2, w = (1 - r^2)^2/4.
    """
    axis, tags = _lattice(spec)
    if not (np.array_equal(axis, field.axis) and np.array_equal(tags, field.tags)):
        raise ValueError("lattice mismatch between field and spec")

    interior = tags == INTERIOR
    psi = _sample(spec.source_fn(), *_nodes(axis, interior), "source")
    w = _conformal_weight(*_nodes(axis, interior))
    # The five-point Laplacian at the interior nodes, from shifted views.
    f, inner = field.values, interior[1:-1, 1:-1]
    lap5 = (f[:-2, 1:-1][inner] + f[2:, 1:-1][inner] + f[1:-1, :-2][inner]
            + f[1:-1, 2:][inner] - 4.0 * f[1:-1, 1:-1][inner]) / (spec.h * spec.h)
    res = w * lap5 - spec.beta * f[interior] + psi
    return float(np.max(np.abs(res)))


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    max_error: float
    observed_rate: Optional[float]


# An error at most this times max|f| of its level's solved field is rounding,
# not discretization, and gives no observed rate: levels solved down to the
# rounding floor, directly or by CG to its CG_RTOL stop, showed up to 5.2e-12
# of max|f|, and the levels of benchmark ladders 1e-5 and more.
RATE_ERROR_FLOOR = 1e-8


def _measure_level(spec: GridSpec, exact: XYCallable) -> tuple[float, float]:
    """One ladder level: (max error against exact, max|f| of the solve)."""
    field = assemble_and_solve(spec)
    err = field.max_error_against(exact)
    return err, float(np.nanmax(np.abs(field.values)))


def _yield_to_caller():
    """Run the current thread, the helper of `convergence_study`, at the
    lowest priority.  Unless BLAS is pinned to one thread, the CG of the
    finest level keeps every core busy through BLAS threads, and a helper
    competing with them slowed the lattice-cap ladder by 23-27 % (0-8 % at
    nice 19, where it takes idle cores only).  Linux keeps a nice value per
    thread; elsewhere, or where it may not be changed, the priority stays."""
    if sys.platform.startswith("linux"):
        try:
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
        except OSError:
            pass


def convergence_study(spec: GridSpec, h_list: Sequence[float],
                      exact: XYCallable) -> list[ConvergenceRow]:
    """Solve at each mesh width, compare against the exact solution.

    Rates are log(err_i-1 / err_i) / log(h_i-1 / h_i) between consecutive
    rows; for halvings this is the usual log2 ratio, expected near 2 for
    the five-point stencil.  A rate is None when either error is at most
    RATE_ERROR_FLOOR times max|f| of its level's solved field: there the
    error is rounding, not discretization.

    Every level is built before any solve, so an invalid width fails
    first.  The calling thread then solves the finest level while one
    helper thread, at the lowest priority (`_yield_to_caller`), solves the
    coarser ones, coarsest first; the levels share nothing but the spec's
    data, so `source`, `boundary` and `exact` may be called from both
    threads at once.  The rows are those of solving the levels one by one,
    and so is the failure: the coarsest failing level's exception is
    raised, also when the finest fails too (the coarser levels then run to
    the end to find it).  A coarser level's failure or an interrupt on the
    calling thread cancels the levels not yet started, and the helper
    thread has ended when the call returns or raises.
    """
    hs = mesh_widths(h_list)
    runs = [replace(spec, h=h) for h in hs]
    helper = ThreadPoolExecutor(max_workers=1, initializer=_yield_to_caller)
    try:
        coarse = [helper.submit(_measure_level, run, exact) for run in runs[:-1]]
        try:
            finest = _measure_level(runs[-1], exact)
        except Exception:
            for level in coarse:    # a coarser level's failure is raised instead
                level.result()
            raise
        levels = [level.result() for level in coarse] + [finest]
    finally:
        helper.shutdown(cancel_futures=True)

    rows: list[ConvergenceRow] = []
    above = [err > RATE_ERROR_FLOOR * scale for err, scale in levels]
    for i, (h, (err, _)) in enumerate(zip(hs, levels)):
        rate = None
        if i and above[i - 1] and above[i]:
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
    across runs.  Each axis value and each distinct node value (told apart
    by its bits, so 0.0 and -0.0 stay apart) is formatted once, the values
    in one %-format pass: a solution of symmetric data has about N/8
    distinct values (N/4 when odd).  The body is joined from the prebuilt
    pieces (x1, ",x2,tag,", value) picked by index and written in blocks
    of CSV_BLOCK_ROWS lattice rows, byte for byte what one format per node
    gives.  A file named by `dest` is removed again when writing it fails.
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
    values = field.values.reshape(-1)
    known = ~np.isnan(values)
    bits, value_at = np.unique(values[known].view(np.int64), return_inverse=True)
    # The pieces of a line: x1 by row, ",x2,tag," by (tag, column), then
    # the value with its newline ("\n" alone when NaN).
    pieces = np.array(
        coords + [f",{x2},{TAG_NAMES[tag]}," for tag in sorted(TAG_NAMES) for x2 in coords]
        + ["\n"] + ("%.17g\n" * bits.size % tuple(bits.view(float).tolist())).splitlines(True),
        dtype=object)
    value = np.full(values.size, 4 * n)
    value[known] += 1 + value_at.reshape(-1)
    value = value.reshape(n, n)
    fh.write("x1,x2,tag,value\n")
    for start in range(0, n, CSV_BLOCK_ROWS):
        rows = np.arange(start, min(start + CSV_BLOCK_ROWS, n))
        pick = np.empty((rows.size, n, 3), dtype=np.intp)
        pick[..., 0] = rows[:, None]
        pick[..., 1] = n * (1 + field.tags[rows].astype(np.intp)) + np.arange(n)
        pick[..., 2] = value[rows]
        fh.write("".join(pieces[pick.reshape(-1)].tolist()))


def coshdist_exact(x, y):
    """(1 + r^2)/(1 - r^2), on floats or arrays: satisfies lap_g f = 2 f on
    the disk chart, so it solves the homogeneous problem at beta = 2 and,
    with the manufactured source (beta - 2) f, the problem at any beta."""
    # In place on arrays: two node-sized temporaries instead of three.
    f = x * x + y * y
    den = 1.0 - f
    f += 1.0
    f /= den
    return f


def manufactured_spec(beta: float, r_max: float = 0.8, h: float = 0.02) -> GridSpec:
    """GridSpec whose exact solution is `coshdist_exact` for any beta."""
    return GridSpec(
        beta=beta, r_max=r_max, h=h,
        source=lambda x, y: (beta - 2.0) * coshdist_exact(x, y),
        boundary=coshdist_exact,
    )
