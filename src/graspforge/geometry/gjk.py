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

- Every dot product of two 3-vectors is a numpy `@` of float64 arrays.
  numpy hands it to the BLAS dot, which may fuse the multiply-adds into
  an FMA chain; a plain `x0*y0 + x1*y1 + x2*y2` then differs in the last
  bit in about a third of cases.
- The support step is `verts @ d`, one BLAS gemv per body. Gemv may sum
  in another order than the vector dot, so dots are never batched into a
  matrix product, and the two forms are never mixed for one quantity.
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
_TETRA_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


@dataclass(frozen=True)
class GjkResult:
    distance: float
    point_a: np.ndarray
    point_b: np.ndarray
    converged: bool


class _Simplex:
    """Simplex vertices as arrays (for dots) and as floats (for element-wise
    work), with each edge vector and negated vertex-edge dot computed at
    most once: the faces of a tetrahedron share them."""

    __slots__ = ("w", "wl", "_edges", "_dots")

    def __init__(self, w: list[np.ndarray], wl: list[list[float]]):
        self.w = w
        self.wl = wl
        self._edges: dict = {}
        self._dots: dict = {}

    def edge(self, i: int, j: int):
        """w[j] - w[i], as an array and as floats."""
        e = self._edges.get((i, j))
        if e is None:
            arr = self.w[j] - self.w[i]
            e = self._edges[i, j] = (arr, arr.tolist())
        return e

    def ndot(self, k: int, i: int, j: int) -> float:
        """-(w[k] @ (w[j] - w[i]))."""
        x = self._dots.get((k, i, j))
        if x is None:
            x = self._dots[k, i, j] = -float(self.w[k] @ self.edge(i, j)[0])
        return x


def _along(p: list[float], t: float, e: list[float]) -> np.ndarray:
    """p + t * e, rounded as numpy rounds it."""
    return np.array([p[0] + t * e[0], p[1] + t * e[1], p[2] + t * e[2]])


def _closest_on_segment(s: _Simplex):
    a, b = s.w
    ab, abl = s.edge(0, 1)
    denom = float(ab @ ab)
    if denom < 1e-30:
        return a, (1.0,), [0]
    t = -float(a @ ab) / denom
    if t <= 0.0:
        return a, (1.0,), [0]
    if t >= 1.0:
        return b, (1.0,), [1]
    return _along(s.wl[0], t, abl), (1.0 - t, t), [0, 1]


def _closest_on_triangle(s: _Simplex, i: int, j: int, k: int):
    # Ericson, Real-Time Collision Detection, 5.1.5 (query point = origin),
    # on triangle (a, b, c) = (w[i], w[j], w[k]).
    d1 = s.ndot(i, i, j)
    d2 = s.ndot(i, i, k)
    if d1 <= 0.0 and d2 <= 0.0:
        return s.w[i], (1.0,), [i]
    d3 = s.ndot(j, i, j)
    d4 = s.ndot(j, i, k)
    if d3 >= 0.0 and d4 <= d3:
        return s.w[j], (1.0,), [j]
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        t = d1 / (d1 - d3)
        return _along(s.wl[i], t, s.edge(i, j)[1]), (1.0 - t, t), [i, j]
    d5 = s.ndot(k, i, j)
    d6 = s.ndot(k, i, k)
    if d6 >= 0.0 and d5 <= d6:
        return s.w[k], (1.0,), [k]
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        t = d2 / (d2 - d6)
        return _along(s.wl[i], t, s.edge(i, k)[1]), (1.0 - t, t), [i, k]
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return _along(s.wl[j], t, s.edge(j, k)[1]), (1.0 - t, t), [j, k]
    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    a, ab, ac = s.wl[i], s.edge(i, j)[1], s.edge(i, k)[1]
    p = [a[0] + ab[0] * v + ac[0] * w, a[1] + ab[1] * v + ac[1] * w,
         a[2] + ab[2] * v + ac[2] * w]
    return np.array(p), (1.0 - v - w, v, w), [i, j, k]


def _same_side(s: _Simplex, i: int, j: int, k: int, m: int) -> bool:
    """True when the origin is not strictly on the other side of plane
    (w[i], w[j], w[k]) from w[m]."""
    u = s.edge(i, j)[1]
    v = s.edge(i, k)[1]
    n = np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                  u[0] * v[1] - u[1] * v[0]])
    # n @ -w[i] would differ only in the sign of a zero, which the test ignores
    return -float(n @ s.w[i]) * float(n @ s.edge(i, m)[0]) >= 0.0


def _origin_in_tetra(s: _Simplex) -> bool:
    return (_same_side(s, 0, 1, 2, 3) and _same_side(s, 0, 2, 3, 1)
            and _same_side(s, 0, 3, 1, 2) and _same_side(s, 1, 3, 2, 0))


def _closest_on_simplex(s: _Simplex):
    """Closest point of conv(w) to the origin: (point, lambdas, kept indices)."""
    k = len(s.w)
    if k == 1:
        return s.w[0], (1.0,), [0]
    if k == 2:
        return _closest_on_segment(s)
    if k == 3:
        return _closest_on_triangle(s, 0, 1, 2)
    if _origin_in_tetra(s):
        # Inside: distance zero. Recover lambdas for witness points.
        mat = np.vstack([np.column_stack(s.w), np.ones(4)])
        rhs = np.array([0.0, 0.0, 0.0, 1.0])
        lam, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        lam = np.clip(lam, 0.0, None)
        total = lam.sum()
        lam = lam / total if total > 0 else np.full(4, 0.25)
        return np.zeros(3), lam, [0, 1, 2, 3]
    best = None
    for f in _TETRA_FACES:
        p, lam, keep = _closest_on_triangle(s, *f)
        d2 = float(p @ p)
        if best is None or d2 < best[0]:
            best = (d2, p, lam, keep)
    return best[1], best[2], best[3]


def _witness(lam, points: list[list[float]]) -> np.ndarray:
    """sum(l * p), summed in the order numpy's `sum` of arrays would."""
    return np.array([sum(l * p[c] for l, p in zip(lam, points)) for c in range(3)])


def _result(distance: float, lam, simplex: list, converged: bool) -> GjkResult:
    return GjkResult(distance, _witness(lam, [p[2] for p in simplex]),
                     _witness(lam, [p[3] for p in simplex]), converged)


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
    n = math.sqrt(float(d @ d))
    d = d / n if n > 1e-12 else np.array([1.0, 0.0, 0.0])
    rows_a = va.tolist()
    rows_b = vb.tolist()

    # simplex points: (w = sa - sb as an array, w, sa, sb as floats)
    simplex: list[tuple] = []
    prev_norm = math.inf
    stalled = 0

    for _ in range(_MAX_ITER):
        dx, dy, dz = d.tolist()
        ax, ay, az = rows_a[(va @ d).argmax()]
        # argmin of vb @ d is argmax of vb @ -d: negation is exact
        bx, by, bz = rows_b[(vb @ d).argmin()]
        sa = [ax - erosion_a * dx, ay - erosion_a * dy, az - erosion_a * dz]
        sb = [bx + erosion_b * dx, by + erosion_b * dy, bz + erosion_b * dz]
        wl = [sa[0] - sb[0], sa[1] - sb[1], sa[2] - sb[2]]
        w = np.array(wl)

        if simplex:
            # current closest point (d was set to -v/|v|)
            v = np.array([-dx * v_norm, -dy * v_norm, -dz * v_norm])
            gap = v_norm * v_norm - float(v @ w)
            if gap <= max(_EPS_PROGRESS * v_norm, 1e-14):
                return _result(v_norm, lam, simplex, True)
            if max_distance is not None:
                lower = -float(w @ d)
                if lower > max_distance:
                    return GjkResult(lower, np.array(sa), np.array(sb), True)
            for q in simplex:
                # a duplicate (|w - q| < 1e-12) has every component below
                # 2e-12, as a rounded sum of squares is no less than its
                # largest rounded square; other points skip the dot
                ql = q[1]
                if (abs(wl[0] - ql[0]) < 2e-12 and abs(wl[1] - ql[1]) < 2e-12
                        and abs(wl[2] - ql[2]) < 2e-12):
                    e = w - q[0]
                    if math.sqrt(float(e @ e)) < 1e-12:
                        return _result(v_norm, lam, simplex, True)

        simplex.append((w, wl, sa, sb))
        v, lam, keep = _closest_on_simplex(
            _Simplex([p[0] for p in simplex], [p[1] for p in simplex]))
        simplex = [simplex[i] for i in keep]

        v_norm = math.sqrt(float(v @ v))
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
