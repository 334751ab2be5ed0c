"""GJK distance between convex pieces, with witness points.

Distance is computed on the Minkowski difference via support functions, so
only piece vertices are needed. An optional erosion radius per body shrinks
it by that amount (support offset along the query direction); eroded
queries are how callers test "overlap deeper than r" without EPA.

Hot callers pre-transform vertices once per configuration and use
`gjk_world` / `GjkResult` directly.

Exact-arithmetic contract. Settled poses, and through them every pinned
artifact byte, depend on each float this kernel computes, so a rewrite
must repeat the same IEEE operations on the same operands:

- Every dot product of two 3-vectors is the BLAS ddot on float64 arrays:
  `x.dot(y)` for one pair, or `np.vecdot`, which hands each row pair to
  ddot, for several. The ddot may fuse the multiply-adds into an FMA
  chain, and a plain `x0*y0 + x1*y1 + x2*y2` then differs in the last bit
  in about a third of cases. So dots may be batched through `np.vecdot`
  rows, never through `@`, `matmul` or `einsum`, which on several rows
  reach gemv or numpy's own loops and sum in another order.
  `tests/test_gjk.py::TestDotForms` checks that `.dot`, `@` and
  `np.vecdot` still give the same bytes.
- Every dot becomes a Python float where it is formed (`float(...)`,
  `tolist()`). A numpy scalar left in an expression, as in
  `-a.dot(ab) / ab.dot(ab)`, gave a NaN of the other sign than the frozen
  kernel in the iteration-cap test.
- The support step is `verts.dot(d)`, one BLAS gemv per body of more than
  one vertex. Gemv may sum in another order than the vector dot, so the
  two forms are never mixed for one quantity.
- A NaN's sign bit can depend on how a value is formed, not only on its
  operands. Three rewrites that are exact on finite values gave other
  NaN signs than the frozen kernel: witness sums as a Python `x + y`
  chain, witness sums as `sum(map(operator.mul, ...))`, and a tetrahedron
  step that reused the previous step's closest point and lambdas for its
  first face (this one only in a fresh process). So the witness keeps its
  generator `sum` and each step recomputes its faces. `TestBitIdentity`'s
  iteration-cap case checks NaN signs, also alone in a fresh process.
- Element-wise work (differences, scaling, cross products, witness sums)
  is correctly rounded either way and runs on Python floats, which costs
  less than numpy's per-call dispatch on 3-vectors. Each expression keeps
  numpy's evaluation order, e.g. `a + t * ab` rounds `t * ab` first.
- Warm starts and extra exits change the iteration path, and so the bits.
- `max_distance` only adds an exit: the iterations never read it, so a
  query that ends without taking that exit returns the same result under
  any larger bound and under none. `scene._contact_points` reuses the
  resting step's converged results on that ground, and
  `tests/test_gjk.py::TestMaxDistance` checks it. A rewrite that lets the
  bound steer the iterations must drop that reuse.
"""
from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np

from ..errors import ConvergenceWarning

_MAX_ITER = 128
_EPS_ZERO = 1e-9          # |v| below this counts as touching
_EPS_PROGRESS = 1e-12     # relative duality-gap termination


class GjkResult:
    """A query's `distance`, `converged` flag and witness points `point_a`
    and `point_b`, the closest points of each body (an early exit's support
    points). Most callers read only the distance, so the witnesses are
    summed from the final simplex when first read."""

    def __init__(self, distance: float, converged: bool, lam, simplex: list):
        self.distance, self.converged = distance, converged
        self._lam, self._simplex = lam, simplex

    @cached_property
    def point_a(self) -> np.ndarray:
        return _witness(self._lam, [p[2] for p in self._simplex])

    @cached_property
    def point_b(self) -> np.ndarray:
        return _witness(self._lam, [p[3] for p in self._simplex])


def _witness(lam, points: list[list[float]]) -> np.ndarray:
    """sum(l * p), summed in the order numpy's `sum` of arrays would; with
    lam None, the one point as it is."""
    if lam is None:
        return np.array(points[0])
    return np.array([sum(l * p[c] for l, p in zip(lam, points)) for c in range(3)])


def _along(p: list[float], t: float, e: list[float]) -> list[float]:
    """p + t * e, rounded as numpy rounds it."""
    return [p[0] + t * e[0], p[1] + t * e[1], p[2] + t * e[2]]


def _edge(p: list[float], q: list[float]) -> list[float]:
    """q - p."""
    return [q[0] - p[0], q[1] - p[1], q[2] - p[2]]


def _cross(u: list[float], v: list[float]) -> list[float]:
    """u x v, rounded as np.cross rounds it."""
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


# A support point is a tuple (w = sa - sb as an array, w, sa, sb as floats).
# The closest-point steps return (point as floats, lambdas, kept points).

def _closest_on_segment(pts: list):
    a, b = pts
    ab = b[0] - a[0]
    denom = float(ab.dot(ab))
    if denom < 1e-30:
        return a[1], (1.0,), [a]
    t = -float(a[0].dot(ab)) / denom
    if t <= 0.0:
        return a[1], (1.0,), [a]
    if t >= 1.0:
        return b[1], (1.0,), [b]
    return _along(a[1], t, ab.tolist()), (1.0 - t, t), pts


def _closest_on_triangle(a, b, c, dots: list[float], ab: list[float], ac: list[float]):
    """Ericson, Real-Time Collision Detection, 5.1.5 (query point = origin),
    given the negated vertex-edge dots -a.ab, -a.ac, -b.ab, -b.ac, -c.ab
    and -c.ac, and the edges."""
    d1, d2, d3, d4, d5, d6 = dots
    if d1 <= 0.0 and d2 <= 0.0:
        return a[1], (1.0,), [a]
    if d3 >= 0.0 and d4 <= d3:
        return b[1], (1.0,), [b]
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        t = d1 / (d1 - d3)
        return _along(a[1], t, ab), (1.0 - t, t), [a, b]
    if d6 >= 0.0 and d5 <= d6:
        return c[1], (1.0,), [c]
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        t = d2 / (d2 - d6)
        return _along(a[1], t, ac), (1.0 - t, t), [a, c]
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return _along(b[1], t, _edge(b[1], c[1])), (1.0 - t, t), [b, c]
    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    p = a[1]
    return ([p[0] + ab[0] * v + ac[0] * w, p[1] + ab[1] * v + ac[1] * w,
             p[2] + ab[2] * v + ac[2] * w], (1.0 - v - w, v, w), [a, b, c])


def _closest_on_tetrahedron(pts: list):
    a, b, c, d = pts
    al, bl, cl, dl = a[1], b[1], c[1], d[1]
    ab, ac, ad, bc, bd = _edge(al, bl), _edge(al, cl), _edge(al, dl), _edge(bl, cl), _edge(bl, dl)
    # Origin inside: on d's side of (a, b, c), b's of (a, c, d), c's of
    # (a, d, b) and a's of (b, d, c), each face's normal n dotted with its
    # first point and with the edge to the opposite point. n . -p would
    # differ from -(n . p) only in the sign of a zero, which the test ignores.
    side = np.vecdot(
        np.array([_cross(ab, ac), _cross(ac, ad), _cross(ad, ab), _cross(bd, bc)])[:, None],
        np.array([[al, ad], [al, ab], [al, ac], [bl, _edge(bl, al)]])).tolist()
    P = np.array([al, bl, cl, dl])
    if all(-s * t >= 0.0 for s, t in side):
        # Inside: distance zero. Recover lambdas for witness points.
        mat = np.vstack([P.T, np.ones(4)])
        rhs = np.array([0.0, 0.0, 0.0, 1.0])
        lam, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        lam = np.clip(lam, 0.0, None)
        total = lam.sum()
        lam = lam / total if total > 0 else np.full(4, 0.25)
        return [0.0, 0.0, 0.0], 0.0, lam, pts
    # each face's six vertex-edge dots, negated; a . bc and a . bd go unused
    (a1, a2, a3, _, _), (b1, b2, b3, b4, b5), (c1, c2, c3, c4, c5), (d1, d2, d3, d4, d5) = (
        -np.vecdot(P[:, None], np.array([ab, ac, ad, bc, bd]))).tolist()
    faces = (_closest_on_triangle(a, b, c, (a1, a2, b1, b2, c1, c2), ab, ac),
             _closest_on_triangle(a, b, d, (a1, a3, b1, b3, d1, d3), ab, ad),
             _closest_on_triangle(a, c, d, (a2, a3, c2, c3, d2, d3), ac, ad),
             _closest_on_triangle(b, c, d, (b4, b5, c4, c5, d4, d5), bc, bd))
    X = np.array([f[0] for f in faces])
    sq = np.vecdot(X, X).tolist()
    best = min(range(4), key=sq.__getitem__)    # the first face of least |p|^2
    p, lam, keep = faces[best]
    return p, sq[best], lam, keep


def _closest_on_simplex(pts: list):
    """Closest point of the simplex to the origin: (point as floats, its
    squared norm, lambdas, kept points in their order)."""
    k = len(pts)
    if k == 1:
        w = pts[0][0]
        return pts[0][1], float(w.dot(w)), (1.0,), pts
    if k == 2:
        p, lam, keep = _closest_on_segment(pts)
    elif k == 3:
        a, b, c = pts
        ab, ac = _edge(a[1], b[1]), _edge(a[1], c[1])
        D = (-np.vecdot(np.array([a[1], b[1], c[1]])[:, None], np.array([ab, ac]))).tolist()
        p, lam, keep = _closest_on_triangle(a, b, c, D[0] + D[1] + D[2], ab, ac)
    else:
        return _closest_on_tetrahedron(pts)
    x = np.array(p)
    return p, float(x.dot(x)), lam, keep


def gjk_world(
    verts_a: np.ndarray,
    verts_b: np.ndarray,
    erosion_a: float = 0.0,
    erosion_b: float = 0.0,
    max_distance: float | None = None,
) -> GjkResult:
    """Distance between conv(verts_a) and conv(verts_b), already in one frame.

    With max_distance set, returns early (converged, distance = proven lower
    bound) as soon as separation by more than max_distance is certain; use it
    for boolean "closer than r" queries.
    """
    va = np.asarray(verts_a, dtype=np.float64)
    vb = np.asarray(verts_b, dtype=np.float64)
    # the same floats as va.mean(axis=0) - vb.mean(axis=0)
    d = va.sum(axis=0) / len(va) - vb.sum(axis=0) / len(vb)
    n = math.sqrt(float(d.dot(d)))
    d = d / n if n > 1e-12 else np.array([1.0, 0.0, 0.0])
    rows_a = va.tolist()
    rows_b = vb.tolist()
    # the support vertex of a one-vertex body is its vertex, whatever d is
    many_a, many_b = len(rows_a) > 1, len(rows_b) > 1

    simplex: list[tuple] = []
    prev_norm = math.inf
    stalled = 0

    for _ in range(_MAX_ITER):
        dx, dy, dz = d.tolist()
        ax, ay, az = rows_a[va.dot(d).argmax() if many_a else 0]
        # argmin of vb . d is argmax of vb . -d: negation is exact
        bx, by, bz = rows_b[vb.dot(d).argmin() if many_b else 0]
        sa = [ax - erosion_a * dx, ay - erosion_a * dy, az - erosion_a * dz]
        sb = [bx + erosion_b * dx, by + erosion_b * dy, bz + erosion_b * dz]
        wl = [sa[0] - sb[0], sa[1] - sb[1], sa[2] - sb[2]]
        w = np.array(wl)

        if simplex:
            # current closest point (d was set to -v/|v|)
            v = np.array([-dx * v_norm, -dy * v_norm, -dz * v_norm])
            gap = v_norm * v_norm - float(v.dot(w))
            if gap <= max(_EPS_PROGRESS * v_norm, 1e-14):
                return GjkResult(v_norm, True, lam, simplex)
            if max_distance is not None:
                lower = -float(w.dot(d))
                if lower > max_distance:
                    return GjkResult(lower, True, None, [(w, wl, sa, sb)])
            for q in simplex:
                # a duplicate (|w - q| < 1e-12) has every component below
                # 2e-12, as a rounded sum of squares is no less than its
                # largest rounded square; other points skip the dot
                ql = q[1]
                if (abs(wl[0] - ql[0]) < 2e-12 and abs(wl[1] - ql[1]) < 2e-12
                        and abs(wl[2] - ql[2]) < 2e-12):
                    e = w - q[0]
                    if math.sqrt(float(e.dot(e))) < 1e-12:
                        return GjkResult(v_norm, True, lam, simplex)

        simplex.append((w, wl, sa, sb))
        (vx, vy, vz), vv, lam, simplex = _closest_on_simplex(simplex)

        v_norm = math.sqrt(vv)
        if v_norm < _EPS_ZERO:
            return GjkResult(0.0, True, lam, simplex)
        # No measurable progress twice in a row: at the numerical optimum.
        if prev_norm - v_norm <= 1e-13 * max(1.0, v_norm):
            stalled += 1
            if stalled >= 2:
                return GjkResult(v_norm, True, lam, simplex)
        else:
            stalled = 0
        prev_norm = v_norm
        d = np.array([-vx / v_norm, -vy / v_norm, -vz / v_norm])

    warnings.warn("GJK hit the iteration cap; distance is best-effort", ConvergenceWarning)
    return GjkResult(v_norm, False, lam, simplex)
