"""Helpers that only the tests use: constant and general polynomial
fields, a profile lifted through one callback per partial, the flat
metric, the cosh-distance field of the disk, the exactness of a relation
polynomial, the compatibility residual of a parameter triple, an exact
solution sampled on a lattice and a text comparison that fails fast."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from warpverify.compatibility import compat_residual, pq_from_params, strip_samples
from warpverify.errors import AdmissibilityError
from warpverify.geometry2d import Metric2D, ScalarField2D, radial_field
from warpverify.profiles import ProfileFn, poly_profile
from warpverify.relation import RelationPoly
from warpverify.screened_pde import (
    EXTERIOR, GridField, GridSpec, XYCallable, _lattice, _nodes, _sample,
)


def constant_field(c: float) -> ScalarField2D:
    c = float(c)
    z = lambda u, v: 0.0
    return ScalarField2D(lambda u, v: c, du=z, dv=z, duu=z, duv=z, dvv=z)


def callback_profile_field(profile: ProfileFn, axis: str = "u",
                           scale: Optional[float] = None) -> ScalarField2D:
    """A profile lifted to the u (or v) axis through one lambda per partial,
    optionally times `scale` by wrapping each of the six callbacks in
    `scale * cb(u, v)`.  The reference that `profile_field` and scaled
    fields, which answer through methods, must match bit for bit."""
    z = lambda u, v: 0.0
    if axis == "u":
        cbs = (lambda u, v: profile.__call__(u), lambda u, v: profile.d1(u), z,
               lambda u, v: profile.d2(u), z, z)
    else:
        cbs = (lambda u, v: profile.__call__(v), z, lambda u, v: profile.d1(v),
               z, z, lambda u, v: profile.d2(v))
    if scale is None:
        return ScalarField2D(*cbs)
    c = float(scale)

    def scaled(cb):
        return lambda u, v: c * cb(u, v)

    return ScalarField2D(*map(scaled, cbs))


def flat_metric() -> Metric2D:
    """The Euclidean plane, E = G = 1."""
    one = constant_field(1.0)
    return Metric2D(one, one, lambda u, v: True, kind="custom")


def poly_field(coeffs: dict[tuple[int, int], float]) -> ScalarField2D:
    """Bivariate polynomial sum_{(i,j)} c[i,j] u^i v^j with exact partials."""
    terms = {k: float(c) for k, c in coeffs.items() if c != 0.0}

    def diff(ts, axis):
        out = {}
        for (i, j), c in ts.items():
            k = (i, j)[axis]
            if k > 0:
                key = (i - 1, j) if axis == 0 else (i, j - 1)
                out[key] = out.get(key, 0.0) + k * c
        return out

    def evaluator(ts):
        items = sorted(ts.items())
        return lambda u, v: sum(c * u ** i * v ** j for (i, j), c in items)

    du_t, dv_t = diff(terms, 0), diff(terms, 1)
    return ScalarField2D(
        evaluator(terms),
        du=evaluator(du_t), dv=evaluator(dv_t),
        duu=evaluator(diff(du_t, 0)), duv=evaluator(diff(du_t, 1)),
        dvv=evaluator(diff(dv_t, 1)),
    )


def cosh_distance_field() -> ScalarField2D:
    """(1 + r^2)/(1 - r^2) on the unit disk.

    On the curvature -1 disk model this is cosh of the hyperbolic distance
    from the origin, hence satisfies Hess(f) = f g, has Laplacian 2 f and
    |grad f|^2 = f^2 - 1.
    """
    ratio = poly_profile([1.0, 1.0], domain=(-math.inf, 1.0)) / \
        poly_profile([1.0, -1.0], domain=(-math.inf, 1.0))
    return radial_field(ratio)


def is_exact(poly: RelationPoly) -> bool:
    """Whether every coefficient of the relation is a Fraction."""
    return all(isinstance(c, Fraction) for c in (poly.a2, poly.a1, poly.a0))


def max_compat_residual_for_params(
    m: int, beta: float, lam: float,
    samples: Optional[Sequence[float]] = None,
) -> tuple[float, Optional[str]]:
    """Max |compatibility residual| for the pair generated by (m, lam, beta).

    Returns (residual, failure_reason).  When no real positive pair exists
    the residual is +inf and the reason names the violated constraint;
    this is the honest failure certificate for roots of a wrong relation.
    """
    if samples is None:
        samples = strip_samples()
    try:
        pq = pq_from_params(m, lam, beta)
    except AdmissibilityError as exc:
        return math.inf, exc.reason
    return max(abs(compat_residual(pq, t)) for t in samples), None


def sample_exact(spec: GridSpec, exact: XYCallable) -> GridField:
    """Exact solution sampled on the spec's lattice (NaN at exterior)."""
    axis, tags = _lattice(spec)
    values = np.full(tags.shape, np.nan)
    mask = tags != EXTERIOR
    values[mask] = _sample(exact, *_nodes(axis, mask), "exact solution")
    return GridField(axis=axis, tags=tags, values=values, spec=spec)


def assert_same_text(got: str, want: str) -> None:
    """Assert got == want, naming the first line that differs.  A bare
    `assert got == want` on outputs of hundreds of kilobytes lets pytest's
    assertion rewriting diff the two texts, which can run for minutes."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for number, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            raise AssertionError(f"line {number} differs: {g!r} != {w!r}")
    raise AssertionError(f"{len(got_lines)} lines where {len(want_lines)} are expected, "
                         "the shorter text a prefix of the longer")
