"""Convex hulls backed by Qhull.

This is the only module that calls Qhull. scipy is imported inside the
functions that call it, on first use, so that commands which never build a
hull (`train`, `report`) never load it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateInput


@dataclass(frozen=True)
class ConvexPiece:
    """Convex solid given by its hull vertices.

    vertices: (n, 3) float64; every vertex is extreme (lies on the hull).
    equations: (k, 4) outward face planes; n . x + d <= 0 inside.
    """

    vertices: np.ndarray
    equations: np.ndarray = field(repr=False, compare=False, default=None)


def convex_hull(points) -> ConvexPiece:
    """Convex hull of >= 4 non-coplanar points.

    Returned vertices are the extreme input points (ascending input order);
    interior points are discarded.
    """
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=np.float64)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateInput(f"degenerate point set: {exc}") from exc
    idx = np.sort(hull.vertices)
    return ConvexPiece(
        vertices=np.ascontiguousarray(pts[idx]),
        equations=np.ascontiguousarray(hull.equations),
    )


def hull_2d(points) -> tuple[np.ndarray, np.ndarray] | None:
    """Qhull's 2-D hull of (n, 2) points as its `(equations, vertices)`
    arrays, unchanged: outward edge lines (nx, ny, c) with unit n and
    n . p + c <= 0 inside, and the hull's point indices in counterclockwise
    order. None when Qhull cannot hull the points, such as a collinear set."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
    except QhullError:
        return None
    return hull.equations, hull.vertices
