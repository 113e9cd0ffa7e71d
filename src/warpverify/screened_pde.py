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
import stat
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse import _sparsetools

from .errors import SolverError, require_finite_positive

# Lattice node tags.
INTERIOR, BOUNDARY, EXTERIOR = 0, 1, 2
TAG_NAMES = {INTERIOR: "interior", BOUNDARY: "boundary", EXTERIOR: "exterior"}

# Every symmetry class is factorized when the whole interior has at most
# this many unknowns, and solved by conjugate gradients when it has more.
DIRECT_SOLVE_LIMIT = 100_000
CG_MAX_ITER = 100_000
CG_RTOL = 1e-12

# Rows per block of every per-node pass (`_row_blocks`): at most 256 KB per
# node-sized float temporary on the widest lattice.  At a benchmark
# `pde converge` level, the traced peak of a solve is that of `_assemble`'s
# lattice right-hand side, 3.96 MB above entry with 16- or 32-row blocks,
# and rises to 4.07 MB with 64 and 4.52 MB with 128; shorter blocks only
# add per-block overhead.
BLOCK_ROWS = 32

# Largest lattice half-width n (the axis holds 2n + 1 points).  A 999^2
# lattice, about a million nodes, keeps each per-node float array near 8 MB.
MAX_HALF_WIDTH = 499

XYCallable = Callable[[np.ndarray, np.ndarray], Union[float, np.ndarray]]


@dataclass(frozen=True)
class GridSpec:
    """Problem statement for one Dirichlet solve.

    beta > 0 is the screening parameter, the lattice covers the subdisk
    r <= r_max < 1 with spacing h.  `source` is psi (None: homogeneous) and
    `boundary` the Dirichlet data, array callables that `_sample` calls
    with row-major node coordinates: `np.sin`, not `math.sin`.  `boundary`
    is called once with every boundary node, `source` once per block of at
    most BLOCK_ROWS lattice rows that holds interior nodes
    (`_node_blocks`), so it must be pointwise: its value at a node may not
    depend on the other nodes of the call.
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
    """Values on the masked lattice of a problem.

    `axis` holds the shared 1D lattice coordinates, `tags` the per-node
    classification, `values` the solution (NaN at exterior nodes) and
    `spec` the problem it was solved or sampled from.
    """

    axis: np.ndarray
    tags: np.ndarray
    values: np.ndarray
    spec: GridSpec

    @property
    def interior_mask(self) -> np.ndarray:
        return self.tags == INTERIOR

    @property
    def max_abs(self) -> float:
        """max|f| over the nodes that carry a value (not NaN)."""
        return float(max(np.nanmax(self.values), -np.nanmin(self.values)))

    def max_error_against(self, exact: XYCallable) -> float:
        """Max |f - exact| over non-exterior nodes.  exact is called once
        per row block that holds such nodes (`_node_blocks`), so it must
        be pointwise; a max does not depend on the order of its terms, so
        the result is that of one whole-lattice pass, bit for bit."""
        maxima = []
        for rows, block, x, y in _node_blocks(self.axis, self.tags != EXTERIOR):
            error = self.values[rows][block]
            error -= _sample(exact, x, y, "exact solution")
            maxima.append(np.max(np.abs(error, out=error)))
        return float(np.max(maxima))


def _sample(fn: XYCallable, X: np.ndarray, Y: np.ndarray, datum: str) -> np.ndarray:
    """The datum fn at the nodes (X[k], Y[k]): one call fn(X, Y), broadcast to
    X's shape.  The nodes are all those of a set or, from `_node_blocks`,
    those of one row block of it.  ValueError names the datum if the
    result is not real, does not broadcast or is not finite; array
    arithmetic makes x/0 a silent inf, so the call runs with numpy's
    floating-point warnings off."""
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


def _nodes(axis: np.ndarray, mask: np.ndarray,
           rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Row-major coordinates (x, y) of the lattice nodes in mask, the
    lattice rows `rows` of a node mask (all of them by default)."""
    return (np.broadcast_to(axis[rows, None], mask.shape)[mask],
            np.broadcast_to(axis, mask.shape)[mask])


def _row_blocks(size: int) -> list[slice]:
    """range(size) in order as slices of at most BLOCK_ROWS rows: the
    blocks every per-node pass runs over, so that it holds node-sized
    temporaries of one block at a time."""
    return [slice(start, min(start + BLOCK_ROWS, size)) for start in range(0, size, BLOCK_ROWS)]


def _node_blocks(axis: np.ndarray, mask: np.ndarray):
    """(rows, mask[rows], x, y) for each row block of the lattice mask
    that holds a node, in order: x, y are the row-major coordinates of its
    nodes, so the blocks' coordinates joined are those of `_nodes`."""
    for rows in _row_blocks(mask.shape[0]):
        block = mask[rows]
        if block.any():
            yield (rows, block, *_nodes(axis, block, rows))


def _classify(axis: np.ndarray, r_max: float) -> np.ndarray:
    """Tag every node of the lattice over axis interior/boundary/exterior.

    Interior nodes have themselves and all four neighbors inside
    r <= r_max; inside nodes with an exterior (or off-lattice) neighbor
    are boundary nodes.
    """
    sq = axis * axis
    inside = np.empty((axis.size, axis.size), dtype=bool)
    for rows in _row_blocks(axis.size):
        np.less_equal(sq[rows, None] + sq, r_max * r_max + 1e-12, out=inside[rows])
    interior = np.zeros_like(inside)
    core = interior[1:-1, 1:-1]
    core[...] = inside[1:-1, 1:-1]
    for neighbours in (inside[:-2, 1:-1], inside[2:, 1:-1], inside[1:-1, :-2], inside[1:-1, 2:]):
        core &= neighbours
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
    boundary values at the boundary nodes in row-major order, 2^-E times
    the right-hand side split into its four parity classes by
    `_mirror_transform`, an all-zero class as the scalar 0.0, and E), or
    ValueError if the right-hand side overflows.  2^-E puts its max-abs in
    [1/2, 1), so the classes and their octant sums stay below 8.
    The boundary datum is sampled once, the source once per row block
    (`_node_blocks`), each block added into the right-hand side before
    the next is sampled.  No lattice-sized weight, boundary, source or
    right-hand-side array outlives the call and no matrix is built:
    `_class_system` writes the stencil of each kept row."""
    axis, tags = _lattice(spec)
    interior = tags == INTERIOR
    boundary = tags == BOUNDARY
    if not interior.any():
        raise SolverError("degenerate grid: no interior nodes")

    bvals = _sample(spec.boundary_fn(), *_nodes(axis, boundary), "boundary")
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
    source = spec.source_fn()
    with np.errstate(over="ignore", invalid="ignore"):
        east, west, north, south = (scaled * rhs[i + di, j + dj]
                                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))
        rhs[boundary] = 0.0
        rhs[ring] = (east + west) + (north + south)
        for rows, block, x, y in _node_blocks(axis, interior):
            rhs[rows][block] += _sample(source, x, y, "source")
    mantissa, E = np.frexp(max(rhs.max(), -rhs.min()))     # NaN if an inf - inf made one
    if not np.isfinite(mantissa):
        raise ValueError("right-hand side overflows: source or boundary data too large")
    quadrants = _quadrants(np.ldexp(rhs, -E, out=rhs))
    del rhs     # the views hold it until the transform has read them
    classes = _mirror_transform(quadrants)
    return axis, tags, bvals, [[c if c.any() else 0.0 for c in half] for half in classes], E


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
    exactly symmetric under the transpose.

    An entry of q may be the scalar 0.0, which stays a scalar through
    every sum of scalars.  No array of q is written; q is emptied once the
    sums and differences of its mirror pairs are formed, so quadrants held
    nowhere else are freed first.  The outputs reuse those four arrays
    (the sums in place, one difference in cross's array), so a q of
    arrays takes five new quarter-sized arrays for the four outputs, each
    the float the plain two-step sums give."""
    diagonal, cross = q[0][0] + q[1][1], q[0][1] + q[1][0]
    main, side = q[0][0] - q[1][1], q[1][0] - q[0][1]
    q.clear()
    odd_odd = diagonal - cross
    diagonal += cross
    if isinstance(cross, np.ndarray):
        odd_even = np.subtract(main, side, out=cross)
    else:
        odd_even = main - side
    main += side
    return [[diagonal, main], [odd_even, odd_odd]]


def _class_system(interior: np.ndarray, axis: np.ndarray, beta: float, h: float,
                  parity: tuple[int, int], swap: Optional[int] = None):
    """One mirror-symmetry class of the interior system M f = rhs,
    M = beta I - w/h^2 times the five-point Laplacian, in the symmetric
    form both class solvers run on.

    parity (a, b) selects the solutions even (0) or odd (1) under x -> -x
    and under y -> -y.  Such a solution is fixed by its values on the
    quarter (k, l) >= 0 of the lattice, zero on the axis of an odd parity.
    For a = b, swap c additionally selects the solutions even (0) or odd
    (1) under x <-> y, fixed by their values on the octant l <= k of the
    quarter (l < k when odd: they vanish on the diagonal).  A holds the
    rows of M at the kept nodes, each column folded onto its mirror image
    among them; only their stencils are written, a row block of the
    quarter at a time (`_row_blocks`), -w/h^2 off the diagonal and
    beta + 4 w/h^2 on it with w the weight at the row's node.  They
    reach an axis or the diagonal on which the class is odd but never
    cross it, so no fold changes a sign.  Scaling class vectors by root,
    the square root of each kept node's orbit size (the interior nodes
    folded onto it), maps them isometrically onto the lattice vectors of
    the class, so diag(s) A diag(1/root), s = root/w, is the symmetric
    positive definite diag(1/w) M restricted to them.

    Returns the kept nodes (k, l), row-major, B = 2^-e diag(s) A
    diag(1/root), s, root and e: A x = b is B y = 2^-e s b, x = y/root.
    2^-e puts A's largest diagonal, beta + 4 max(w)/h^2, in [1/2, 1), and
    each stencil entry is written already times 2^-e, so B is finite for
    any beta; an entry of B is 2^-e a, exact short of subnormals, times
    s[row] (1/root)[col], rounded once.
    """
    n = interior.shape[0] // 2
    a, b = parity
    keep = interior[n:, n:].copy()
    keep[:a] = False        # an odd class is zero on its axis
    keep[:, :b] = False
    if swap is not None:
        keep &= np.tri(n + 1, dtype=bool, k=-swap)
    k, l = np.nonzero(keep)
    column = np.full(keep.shape, -1, dtype=np.int32)
    column[k, l] = np.arange(k.size, dtype=np.int32)
    w = _conformal_weight(axis[n + k], axis[n + l])
    # A's largest diagonal, beta + 4 w/h^2 at the largest w, read off its
    # half, which is finite: rounding is monotone, so it is the largest of
    # the rounded diagonals
    e = np.frexp(0.5 * beta + 2.0 * (np.max(w) / (h * h)))[1] + 1

    # The rows are written a row block of the quarter at a time: their
    # nodes are the kept ones in those rows, a run of the row-major order.
    # The stencil of (k, l) is (k - 1, l), (k, l - 1), (k, l), (k, l + 1),
    # (k + 1, l), less its Dirichlet nodes; the interior is mirror
    # invariant, so it is read at their images.
    runs = np.searchsorted(k, [rows.start for rows in _row_blocks(n + 1)] + [n + 1])
    data = np.empty(5 * k.size)
    indices = np.empty(5 * k.size, dtype=np.int32)
    indptr = np.zeros(k.size + 1, dtype=np.int32)
    for lo, hi in zip(runs[:-1], runs[1:]):
        i = np.abs(k[lo:hi, None].astype(np.int32) + np.array([-1, 0, 0, 0, 1], dtype=np.int32))
        j = np.abs(l[lo:hi, None].astype(np.int32) + np.array([0, -1, 0, 1, 0], dtype=np.int32))
        if swap is not None:
            i, j = np.maximum(i, j), np.minimum(i, j)
        folded = column[i, j]
        kept = interior[n + i, n + j]
        kept &= folded >= 0
        scaled = np.ldexp(w[lo:hi] / (h * h), -e)
        values = np.repeat(-scaled[:, None], 5, axis=1)
        values[:, 2] = np.ldexp(beta, -e) + 4.0 * scaled
        np.cumsum(kept.sum(axis=1, dtype=np.int32), out=indptr[lo + 1:hi + 1])
        indptr[lo + 1:hi + 1] += indptr[lo]
        data[indptr[lo]:indptr[hi]] = values[kept]
        indices[indptr[lo]:indptr[hi]] = folded[kept]
    del i, j, folded, kept, scaled, values, column      # before the scaling's temporaries
    B = sp.csr_matrix((data[:indptr[-1]], indices[:indptr[-1]], indptr), shape=(k.size, k.size))
    B.sum_duplicates()
    root = np.sqrt((1 + (k > 0)) * (1 + (l > 0)) * (1 + (swap is not None) * (k != l)))
    s = root / w
    inverse_root = 1.0 / root
    for lo, hi in zip(runs[:-1], runs[1:]):
        entries = slice(B.indptr[lo], B.indptr[hi])
        factor = np.repeat(s[lo:hi], np.diff(B.indptr[lo:hi + 1]))
        factor *= inverse_root[B.indices[entries]]
        B.data[entries] *= factor
    return (k, l), B, s, root, e


class _ClassOperator(spla.LinearOperator):
    """The CSR matrix (indptr, indices, data) as the operator `spla.cg`
    multiplies by, with the matrix's `nnz`.  A product runs scipy's CSR
    kernel, the one `B @ p` runs, so its bits are those of the matrix
    product; it skips the sparse-matrix dispatch and `LinearOperator`'s
    shape checks, and writes into one reused class vector, valid until
    the next product."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        n = indptr.size - 1
        super().__init__(data.dtype, (n, n))
        self.indptr, self.indices, self.data = indptr, indices, data
        self.nnz = data.size
        self._product = np.empty(n, dtype=data.dtype)

    def _matvec(self, x):
        self._product.fill(0.0)
        _sparsetools.csr_matvec(*self.shape, self.indptr, self.indices, self.data, x,
                                self._product)
        return self._product

    matvec = _matvec


class _Identity(spla.LinearOperator):
    """The identity as the preconditioner `spla.cg` applies each
    iteration: the operator scipy puts in for none, whose product returns
    its argument, less the shape checks of `LinearOperator.matvec`."""

    def _matvec(self, x):
        return x

    matvec = _matvec


def _class_cg(B, c: np.ndarray) -> np.ndarray:
    """Conjugate gradients on one symmetric class system B y = c of
    `_class_system`: the iteration CG would run on the whole lattice,
    restricted to the class (Hestenes & Stiefel, J. Res. NBS 49, 1952).
    CG multiplies by B through a `_ClassOperator` and preconditions by
    `_Identity`, so it runs scipy's unpreconditioned iteration bit for
    bit.  On a stall raises SolverError whose message and
    `final_residual` give the class's relative residual ||B y - c|| / ||c||.
    """
    A = _ClassOperator(B.indptr, B.indices, B.data)
    y, info = spla.cg(A, c, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAX_ITER,
                      M=_Identity(A.dtype, A.shape))
    if info != 0:
        res = float(np.linalg.norm(B @ y - c) / np.linalg.norm(c))
        raise SolverError(f"conjugate-gradient solve did not converge (info={info}): "
                          f"relative residual {res:.6g}, target {CG_RTOL:g}",
                          final_residual=res)
    return y


def banded_cholesky_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve S y = rhs, one column of the 2-D rhs per right-hand side, for
    the symmetric positive definite S whose upper band is given in
    LAPACK's layout: band[u + i - j, j] = S[i, j] for i <= j <= i + u.  A
    Fortran-ordered float band is overwritten by its Cholesky factor
    (LAPACK DPBTRF, then DPBTRS; Anderson et al., LAPACK Users' Guide,
    1999), so the factor takes no memory of its own; any other band is
    copied first.  Raises SolverError when S is not positive definite."""
    band = np.require(band, float, ["F", "W"])
    _, info = lapack.dpbtrf(band, lower=0, overwrite_ab=1)
    if info:
        raise SolverError(f"banded Cholesky factorization failed: the leading minor of "
                          f"order {info} is not positive definite")
    y, _ = lapack.dpbtrs(band, np.array(rhs, dtype=float, order="F"), lower=0, overwrite_b=1)
    return y


def _red_black_solve(B, c: np.ndarray, nodes: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Solve the symmetric class system B y = c of `_class_system`, one
    column of c per right-hand side, by one step of odd-even reduction
    (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970) and a banded
    Cholesky factorization of what is left.

    nodes are the class's kept nodes (k, l).  Colour a node red where
    k + l is even, black where it is odd.  The five-point stencil joins
    each node only to nodes of the other colour, and the folds |k|, |l|
    and the swap (max, min) keep the parity of k + l, so every
    off-diagonal entry of B joins a red node to a black one: the red block
    is a diagonal D, and so is the black one.  The black unknowns solve
    the Schur complement S y_b = c_b - B_br D^-1 c_r,
    S = D_b - B_br D^-1 B_rb, symmetric positive definite as B is, with at
    most nine entries a row; then y_r = D^-1 (c_r - B_rb y_b).  Both come
    from selections of B: its black rows L = B[black], and its black
    columns B[:, black] with each red row divided by -D and the one entry
    of each black row, its diagonal, set to 1, which give the
    prolongation R, -D^-1 B_rb on red rows and I on black ones.  Then
    S = L R, and with v = D^-1 c on red nodes and 0 on black ones, the
    right-hand side is c_b - L v and y = v + R y_b.  A selection keeps
    each row's entries in B's order, so every sum runs in that order.
    `banded_cholesky_solve` factorizes S's upper band.
    The black nodes are taken by anti-diagonal k + l, then by k: S joins
    a node only to nodes on its own anti-diagonal and the two next to it,
    and every node on an odd anti-diagonal is black, so S's half-bandwidth
    is about the longest black anti-diagonal, about half the lattice
    half-width for an octant class (George & Liu, Computer Solution of
    Large Sparse Positive Definite Systems, 1981).
    """
    k, l = nodes
    red = (k + l) % 2 == 0
    d = B.diagonal()                # every row holds its diagonal entry
    v = np.where(red[:, None], c / d[:, None], 0.0)
    black = np.flatnonzero(~red)
    if not black.size:
        return v
    black = black[np.lexsort((k[black], k[black] + l[black]))]
    L, R = B[black], B[:, black]    # a black row of R holds only its diagonal
    counts = np.diff(R.indptr)
    R.data = np.where(np.repeat(red, counts), -R.data / np.repeat(d, counts), 1.0)
    rhs = c[black] - L @ v
    S = L @ R
    i = np.repeat(np.arange(black.size, dtype=S.indices.dtype), np.diff(S.indptr))
    upper = i <= S.indices
    i, j, values = i[upper], S.indices[upper], S.data[upper]
    del L, S, upper, counts     # the band is the largest array of the solve
    u = int(np.max(j - i))
    band = np.zeros((u + 1) * black.size)
    j *= u                          # S[i, j] sits at u + i - j + (u + 1) j in the
    j += u                          # Fortran-ordered band
    j += i
    band[j] = values
    del i, j, values
    y = banded_cholesky_solve(band.reshape((u + 1, black.size), order="F"), rhs)
    return v + R @ y


def _mirror_solve(r: list, E: int, interior: np.ndarray, axis: np.ndarray, beta: float,
                  h: float, cg: bool) -> np.ndarray:
    """Solve M f = rhs by its symmetry under the dihedral group of the square.

    r holds the four parity classes of 2^-E rhs from `_assemble`, an
    all-zero one as the scalar 0.0, emptied before the returned lattice
    array of f (0 off the interior) is assembled.

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
    its solve, a solution quarter only for a solved class.

    `_class_system` poses each solved class once, as the symmetric
    B y = 2^-e s b with x = y/root.  The octant sums of the classes stay
    below 8, so no s b overflows; each column of s b is scaled by the
    power of two 2^-g that puts its max-abs in [1/2, 1), giving c, so
    neither c nor the dot products of CG overflow or underflow even for a
    weak class; x = 2^(g + E - e) y/root, exact short of subnormals.
    ValueError if a class part x, and so f, leaves the double range.
    With `cg` each class runs conjugate gradients on B y = c
    (`_class_cg`), once per right-hand side.  Otherwise red-black
    reduction and a banded Cholesky factorization of the Schur complement
    on the black half solve it directly (`_red_black_solve`), with a
    half-bandwidth of about n/2 on an octant class (n the lattice
    half-width) and n on a quarter class.  The solution agrees with the
    unreduced class solve within 1e-12 * max|x|.
    """
    n = interior.shape[0] // 2

    def solve(parity, swap, *given):
        """The quarter of each class solution, 0.0 where given is zero."""
        quarters = [0.0] * len(given)
        excited = [i for i, g in enumerate(given) if np.any(g)]
        if not excited:
            return quarters
        (k, l), B, s, root, e = _class_system(interior, axis, beta, h, parity, swap)
        c = np.column_stack([given[i][k, l] for i in excited])
        c *= s[:, None]
        _, g = np.frexp(np.max(np.abs(c), axis=0))
        np.ldexp(c, -g, out=c)
        if cg:
            y = np.column_stack([_class_cg(B, col) for col in c.T])
        else:
            y = _red_black_solve(B, c, (k, l))
        with np.errstate(over="ignore"):      # the check on f below names it
            x = np.ldexp(y, g + E - e, out=y)
            x /= root[:, None]
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
        with np.errstate(over="ignore", invalid="ignore"):
            even += odd
            even /= 2.0
        v[a][a] = even
    v[0][1], odd_even = solve((0, 1), None, r[0][1], np.transpose(r[1][0]))
    v[1][0] = np.transpose(odd_even)
    r.clear()
    del q, even, odd, odd_even
    f = np.empty(interior.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for dest, q in zip(_quadrants(f), _mirror_transform(v)):
            for d, part in zip(dest, q):
                np.divide(part, 4.0, out=d)
    if not np.isfinite([f.min(), f.max()]).all():
        raise ValueError("solution overflows: a part of it by symmetry leaves the double range")
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
    tags and the solution outlives assembly and the class solves.  Both
    solvers run on the one symmetric form of each class system; powers of
    two keep it and the split right-hand side finite up to the largest
    double.  When the whole interior has at most DIRECT_SOLVE_LIMIT (1e5)
    unknowns every class is solved directly: the red-black colouring by
    the parity of k + l makes the block of its red nodes diagonal (the
    five-point stencil joins only nodes of opposite colour, and the
    mirror folds keep the colour), so they are eliminated first, and the
    Schur complement on the black half, about N/16 unknowns an octant, is
    factorized by banded Cholesky (LAPACK DPBTRF) in anti-diagonal order,
    which gives it a half-bandwidth of about half the lattice half-width.
    The result agrees with the unreduced class solve and with one unsplit
    factorization up to rounding, within 1e-12 * max|f|, and symmetric
    data give an exactly symmetric solution.  Beyond, each class runs
    conjugate gradients (`_class_cg`), the whole-lattice iteration
    restricted to the class: each class stops at ||r|| <= CG_RTOL ||b||,
    so the whole system meets that bound too.
    Raises SolverError on a degenerate grid, a failed factorization or a
    CG stall, and ValueError if the right-hand side or the solution
    overflows.
    """
    axis, tags, bvals, rhs, E = _assemble(spec)
    interior = tags == INTERIOR
    values = _mirror_solve(rhs, E, interior, axis, spec.beta, spec.h,
                           cg=np.count_nonzero(interior) > DIRECT_SOLVE_LIMIT)
    values[tags == BOUNDARY] = bvals
    values[tags == EXTERIOR] = np.nan
    return GridField(axis=axis, tags=tags, values=values, spec=spec)


def residual_field(field: GridField) -> tuple[float, float]:
    """(max residual, backward error) of the field in its spec's problem,
    from one pass over the interior nodes of the field's lattice.

    The residual r is lap_g f - beta f + psi: for a field returned by
    `assemble_and_solve` that of the linear solve, for an exact solution
    sampled on the lattice the five-point stencil's truncation error.
    Its max-abs has a rounding floor near eps * w * max|f| / h^2,
    w = (1 - r^2)^2/4.  The backward error, ||r|| / (||M|| ||f|| + ||psi||)
    in the max norm (Rigal & Gaches, J. ACM 14, 1967; Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, Thm. 7.1), is scale-free and
    0 when r is.  M, the interior rows acting on interior and boundary
    values, has ||M|| = beta + 8 max(w)/h^2 = beta + 2/h^2 (w peaks at 1/4
    at the origin, interior as h < r_max/4), formed as 2^e m, m in [1, 2),
    from its finite half; dividing by m and by 2^e gives the quotients by
    the rounded ||M|| wherever that is finite, short of subnormals.
    """
    spec = field.spec
    h2 = spec.h * spec.h
    # The five-point Laplacian at the interior nodes, from shifted views of
    # the lattice less its first and last rows and columns, which hold none.
    f, source, maxima = field.values, spec.source_fn(), []
    centre, up, down, left, right = f[1:-1, 1:-1], f[:-2, 1:-1], f[2:, 1:-1], f[1:-1, :-2], f[1:-1, 2:]
    for rows, inner, x, y in _node_blocks(field.axis[1:-1], field.tags[1:-1, 1:-1] == INTERIOR):
        f_inner = centre[rows][inner]
        lap5 = (up[rows][inner] + down[rows][inner] + left[rows][inner]
                + right[rows][inner] - 4.0 * f_inner) / h2
        res = _conformal_weight(x, y) * lap5 - spec.beta * f_inner
        psi = _sample(source, x, y, "source")
        res += psi
        maxima.append((np.max(np.abs(res, out=res)), np.max(np.abs(psi, out=psi))))
    residual, psi = np.max(maxima, axis=0).tolist()
    if residual == 0.0:
        return 0.0, 0.0
    f_max = field.max_abs
    if f_max == 0.0:
        # r is psi itself, so the quotient is 1 even where psi/||M|| underflows
        return residual, 1.0
    m, e = math.frexp(0.5 * spec.beta + 1.0 / h2)
    m *= 2.0
    return residual, math.ldexp(residual / m, -e) / (f_max + math.ldexp(psi / m, -e))


# An error at most this times max|f| of its level's solved field is rounding,
# not discretization, and gives no observed rate: levels solved down to the
# rounding floor, directly or by CG to its CG_RTOL stop, showed up to 5.2e-12
# of max|f|, and the levels of benchmark ladders 1e-5 and more.
RATE_ERROR_FLOOR = 1e-8


def convergence_study(spec: GridSpec, h_list: Sequence[float],
                      exact: XYCallable) -> dict:
    """Solve at each mesh width, compare against the exact solution, and
    return the report `pde converge` prints: `beta`, `r_max` and one row of
    `h`, `max_error` and `observed_rate` per width.

    Rates are log(err_i-1 / err_i) / log(h_i-1 / h_i) between consecutive
    rows; for halvings this is the usual log2 ratio, expected near 2 for
    the five-point stencil.  A rate is None when either error is at most
    RATE_ERROR_FLOOR times max|f| of its level's solved field: there the
    error is rounding, not discretization.

    Every level is built before any solve, so an invalid width fails
    first.  The levels are then solved one after another on the calling
    thread, coarsest first, each field freed before the next solve: a
    failing level's exception is raised as it comes, so it is the coarsest
    failing one, and no finer level is started after it.
    """
    runs = [replace(spec, h=h) for h in mesh_widths(h_list)]
    rows, above = [], False
    for run in runs:
        field = assemble_and_solve(run)
        err, rate, was_above = field.max_error_against(exact), None, above
        above = err > RATE_ERROR_FLOOR * field.max_abs
        del field
        if was_above and above:
            rate = math.log(rows[-1]["max_error"] / err) / math.log(rows[-1]["h"] / run.h)
        rows.append({"h": run.h, "max_error": err, "observed_rate": rate})
    return {"beta": spec.beta, "r_max": spec.r_max, "rows": rows}


def mesh_widths(h_list: Sequence[float]) -> list[float]:
    """The widths of a convergence ladder: at least two, strictly decreasing."""
    hs = [float(h) for h in h_list]
    if len(hs) < 2:
        raise ValueError("need at least two mesh widths")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("mesh widths must be strictly decreasing")
    return hs


def write_grid_csv(field: GridField, dest: str):
    """Write the lattice to the file dest as CSV: header x1,x2,tag,value,
    row-major order.

    Nodes valued NaN (the exterior ones) carry an empty value column.
    Floats are written with 17 significant digits so output is bit-stable
    across runs.  Each axis value and each distinct node value (told apart
    by its bits, so 0.0 and -0.0 stay apart) is formatted once, all of
    them by the vectorized `floattext.g17`: a solution of symmetric data
    has about N/8 distinct values (N/4 when odd).  The body is joined from
    the prebuilt pieces (x1, ",x2,tag,", value) picked by index and
    written a row block at a time (`_row_blocks`), byte for byte what one
    format per node gives; a block's value indices are the next run of
    the distinct values' inverse, which lists the known nodes row-major.

    The file is rewritten in place: it is opened without truncation (on
    ext4 a truncate right after the previous grid was written waits on
    that grid's write-back), and once every row is written a regular file
    is cut to the length written, so a longer predecessor leaves no tail.
    The inode, the mode and any symlink or hard link stay as a truncating
    open left them.  When writing fails, a regular file is first cut to
    length 0 through its descriptor and then `dest` is removed, so no
    partial rows survive under any name, a symlink's target included; a
    device such as /dev/full stays.  A run killed mid-write leaves the new
    rows followed by the old file's tail.
    """
    from .floattext import g17  # loaded on use: only this writer needs it
    coords = g17(field.axis)
    n = len(coords)
    known = ~np.isnan(field.values)
    bits, value_at = np.unique(field.values[known].view(np.int64), return_inverse=True)
    # The pieces of a line: x1 by row, ",x2,tag," by (tag, column), then
    # the value with its newline ("\n" alone when NaN).
    pieces = np.array(
        coords + [f",{x2},{TAG_NAMES[tag]}," for tag in sorted(TAG_NAMES) for x2 in coords]
        + ["\n"] + g17(bits.view(float), newline=True),
        dtype=object)
    fd = os.open(dest, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = False
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        with open(fd, "w", encoding="ascii", newline="", closefd=False) as fh:
            fh.write("x1,x2,tag,value\n")
            start = 0
            for rows in _row_blocks(n):
                pick = np.empty((rows.stop - rows.start, n, 3), dtype=np.intp)
                pick[..., 0] = np.arange(rows.start, rows.stop)[:, None]
                pick[..., 1] = n * (1 + field.tags[rows].astype(np.intp)) + np.arange(n)
                pick[..., 2] = 4 * n
                block = known[rows]
                stop = start + np.count_nonzero(block)
                pick[..., 2][block] += 1 + value_at[start:stop]
                start = stop
                fh.write("".join(pieces[pick.reshape(-1)].tolist()))
        if regular:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except BaseException:
        if regular:  # fh is closed, so no buffered row lands after the cut
            os.ftruncate(fd, 0)
            os.remove(dest)
        raise
    finally:
        os.close(fd)


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
