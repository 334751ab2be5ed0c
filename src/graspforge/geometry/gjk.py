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

- Every dot product of two 3-vectors is `x.dot(y)` on float64 arrays.
  numpy hands it to the BLAS ddot, as it does `x @ y`, at about half the
  dispatch cost; the ddot may fuse the multiply-adds into an FMA chain,
  and a plain `x0*y0 + x1*y1 + x2*y2` then differs in the last bit in
  about a third of cases. `tests/test_gjk.py::TestDotForms` checks that
  `.dot` and `@` still give the same bytes.
- Every dot is turned into a Python float with `float(...)` where it is
  formed. A numpy scalar left in an expression, as in
  `-a.dot(ab) / ab.dot(ab)`, gave a NaN of the other sign than the frozen
  kernel in the iteration-cap test.
- The support step is `verts.dot(d)`, one BLAS gemv per body. Gemv may
  sum in another order than the vector dot, so dots are never batched
  into a matrix product, and the two forms are never mixed for one
  quantity.
- Each edge vector and vertex-edge dot is formed at most once per query:
  they are kept by the serial numbers of their support points for the
  whole `gjk_world` call, so a tetrahedron step reads the dots its
  triangle step formed. Reusing a float is exact; only its cost changes.
- A NaN's sign bit can depend on how a value is formed, not only on its
  operands. Three rewrites that are exact on finite values gave other
  NaN signs than the frozen kernel: witness sums as a Python `x + y`
  chain, witness sums as `sum(map(operator.mul, ...))`, and a tetrahedron
  step that reused the previous step's closest point and lambdas for its
  first face (this one only in a fresh process). So the witness keeps its
  generator `sum` and each step recomputes its faces. `TestBitIdentity`'s
  iteration-cap case checks NaN signs, run alone or after the others.
- Element-wise work (differences, scaling, cross products, witness sums)
  is correctly rounded either way and runs on Python floats, which costs
  less than numpy's per-call dispatch on 3-vectors. Each expression keeps
  numpy's evaluation order, e.g. `a + t * ab` rounds `t * ab` first.
- Warm starts and extra exits change the iteration path, and so the bits.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceWarning

_MAX_ITER = 128
_EPS_ZERO = 1e-9          # |v| below this counts as touching
_EPS_PROGRESS = 1e-12     # relative duality-gap termination


@dataclass(frozen=True)
class GjkResult:
    distance: float
    point_a: np.ndarray
    point_b: np.ndarray
    converged: bool


class _Memo:
    """Edge vectors and negated vertex-edge dots of one query, each formed
    at most once. Support points are tuples (serial, w, w as floats, sa,
    sb); the serial names a point for the whole query, so a step reads the
    dots that earlier steps formed."""

    __slots__ = ("edges", "dots")

    def __init__(self):
        self.edges: dict = {}
        self.dots: dict = {}

    def edge(self, p, q):
        """q.w - p.w, as an array and as floats."""
        key = (p[0], q[0])
        e = self.edges.get(key)
        if e is None:
            arr = q[1] - p[1]
            e = self.edges[key] = (arr, arr.tolist())
        return e

    def ndot(self, r, p, q) -> float:
        """-(r.w . (q.w - p.w))."""
        key = (r[0], p[0], q[0])
        x = self.dots.get(key)
        if x is None:
            x = self.dots[key] = -float(r[1].dot(self.edge(p, q)[0]))
        return x


def _along(p: list[float], t: float, e: list[float]) -> np.ndarray:
    """p + t * e, rounded as numpy rounds it."""
    return np.array([p[0] + t * e[0], p[1] + t * e[1], p[2] + t * e[2]])


def _closest_on_segment(m: _Memo, pts: list):
    a, b = pts
    ab, abl = m.edge(a, b)
    denom = float(ab.dot(ab))
    if denom < 1e-30:
        return a[1], (1.0,), [a]
    t = m.ndot(a, a, b) / denom
    if t <= 0.0:
        return a[1], (1.0,), [a]
    if t >= 1.0:
        return b[1], (1.0,), [b]
    return _along(a[2], t, abl), (1.0 - t, t), pts


def _closest_on_triangle(m: _Memo, a, b, c):
    # Ericson, Real-Time Collision Detection, 5.1.5 (query point = origin)
    ndot = m.ndot
    d1 = ndot(a, a, b)
    d2 = ndot(a, a, c)
    if d1 <= 0.0 and d2 <= 0.0:
        return a[1], (1.0,), [a]
    d3 = ndot(b, a, b)
    d4 = ndot(b, a, c)
    if d3 >= 0.0 and d4 <= d3:
        return b[1], (1.0,), [b]
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        t = d1 / (d1 - d3)
        return _along(a[2], t, m.edge(a, b)[1]), (1.0 - t, t), [a, b]
    d5 = ndot(c, a, b)
    d6 = ndot(c, a, c)
    if d6 >= 0.0 and d5 <= d6:
        return c[1], (1.0,), [c]
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        t = d2 / (d2 - d6)
        return _along(a[2], t, m.edge(a, c)[1]), (1.0 - t, t), [a, c]
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return _along(b[2], t, m.edge(b, c)[1]), (1.0 - t, t), [b, c]
    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    p, ab, ac = a[2], m.edge(a, b)[1], m.edge(a, c)[1]
    return (np.array([p[0] + ab[0] * v + ac[0] * w, p[1] + ab[1] * v + ac[1] * w,
                      p[2] + ab[2] * v + ac[2] * w]),
            (1.0 - v - w, v, w), [a, b, c])


def _same_side(m: _Memo, a, b, c, d) -> bool:
    """True when the origin is not strictly on the other side of plane
    (a, b, c) from d."""
    u = m.edge(a, b)[1]
    v = m.edge(a, c)[1]
    n = np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                  u[0] * v[1] - u[1] * v[0]])
    # n . -a would differ only in the sign of a zero, which the test ignores
    return -float(n.dot(a[1])) * float(n.dot(m.edge(a, d)[0])) >= 0.0


def _closest_on_simplex(m: _Memo, pts: list):
    """Closest point of the simplex to the origin: (point, lambdas, kept
    points in their order)."""
    k = len(pts)
    if k == 1:
        return pts[0][1], (1.0,), pts
    if k == 2:
        return _closest_on_segment(m, pts)
    if k == 3:
        return _closest_on_triangle(m, *pts)
    a, b, c, d = pts
    if (_same_side(m, a, b, c, d) and _same_side(m, a, c, d, b)
            and _same_side(m, a, d, b, c) and _same_side(m, b, d, c, a)):
        # Inside: distance zero. Recover lambdas for witness points.
        mat = np.vstack([np.column_stack([p[1] for p in pts]), np.ones(4)])
        rhs = np.array([0.0, 0.0, 0.0, 1.0])
        lam, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        lam = np.clip(lam, 0.0, None)
        total = lam.sum()
        lam = lam / total if total > 0 else np.full(4, 0.25)
        return np.zeros(3), lam, pts
    best = None
    for f in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
        p, lam, keep = _closest_on_triangle(m, *f)
        d2 = float(p.dot(p))
        if best is None or d2 < best[0]:
            best = (d2, p, lam, keep)
    return best[1], best[2], best[3]


def _witness(lam, points: list[list[float]]) -> np.ndarray:
    """sum(l * p), summed in the order numpy's `sum` of arrays would."""
    return np.array([sum(l * p[c] for l, p in zip(lam, points)) for c in range(3)])


def _result(distance: float, lam, simplex: list, converged: bool) -> GjkResult:
    return GjkResult(distance, _witness(lam, [p[3] for p in simplex]),
                     _witness(lam, [p[4] for p in simplex]), converged)


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

    memo = _Memo()
    # support points: (serial, w = sa - sb as an array, w, sa, sb as floats)
    simplex: list[tuple] = []
    prev_norm = math.inf
    stalled = 0

    for serial in range(_MAX_ITER):
        dx, dy, dz = d.tolist()
        ax, ay, az = rows_a[va.dot(d).argmax()]
        # argmin of vb . d is argmax of vb . -d: negation is exact
        bx, by, bz = rows_b[vb.dot(d).argmin()]
        sa = [ax - erosion_a * dx, ay - erosion_a * dy, az - erosion_a * dz]
        sb = [bx + erosion_b * dx, by + erosion_b * dy, bz + erosion_b * dz]
        wl = [sa[0] - sb[0], sa[1] - sb[1], sa[2] - sb[2]]
        w = np.array(wl)

        if simplex:
            # current closest point (d was set to -v/|v|)
            v = np.array([-dx * v_norm, -dy * v_norm, -dz * v_norm])
            gap = v_norm * v_norm - float(v.dot(w))
            if gap <= max(_EPS_PROGRESS * v_norm, 1e-14):
                return _result(v_norm, lam, simplex, True)
            if max_distance is not None:
                lower = -float(w.dot(d))
                if lower > max_distance:
                    return GjkResult(lower, np.array(sa), np.array(sb), True)
            for q in simplex:
                # a duplicate (|w - q| < 1e-12) has every component below
                # 2e-12, as a rounded sum of squares is no less than its
                # largest rounded square; other points skip the dot
                ql = q[2]
                if (abs(wl[0] - ql[0]) < 2e-12 and abs(wl[1] - ql[1]) < 2e-12
                        and abs(wl[2] - ql[2]) < 2e-12):
                    e = w - q[1]
                    if math.sqrt(float(e.dot(e))) < 1e-12:
                        return _result(v_norm, lam, simplex, True)

        simplex.append((serial, w, wl, sa, sb))
        v, lam, simplex = _closest_on_simplex(memo, simplex)

        v_norm = math.sqrt(float(v.dot(v)))
        if v_norm < _EPS_ZERO:
            return _result(0.0, lam, simplex, True)
        # No measurable progress twice in a row: at the numerical optimum.
        if prev_norm - v_norm <= 1e-13 * max(1.0, v_norm):
            stalled += 1
            if stalled >= 2:
                return _result(v_norm, lam, simplex, True)
        else:
            stalled = 0
        prev_norm = v_norm
        vx, vy, vz = v.tolist()
        d = np.array([-vx / v_norm, -vy / v_norm, -vz / v_norm])

    warnings.warn("GJK hit the iteration cap; distance is best-effort", ConvergenceWarning)
    return _result(v_norm, lam, simplex, False)
