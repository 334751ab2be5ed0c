"""Solid voxelization by ray-parity voting.

A cell center is classified per axis by counting surface crossings along
the axis-parallel line through it (odd count below = inside), and the
three axis votes are combined by majority. Ray coordinates carry tiny
deterministic offsets so lines never pass exactly through mesh edges.
Vote disagreement above a small fraction of the candidate cells means
parity is unreliable, which is how holes in the surface show up.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateInput, OpenMesh
from .mesh import TriMesh

# Fraction of candidate cells allowed to have split axis votes.
_DISAGREE_LIMIT = 0.02
# Offsets of ray lines from cell centers, in cell units; distinct
# irrational-ish values per in-plane axis so lines never land exactly on
# mesh edges or face diagonals.
_RAY_SHIFT_U = (2.0 ** -21) * 1.2345678901
_RAY_SHIFT_V = (2.0 ** -21) * 2.7182818284


@dataclass(frozen=True)
class VoxelGrid:
    """Axis-aligned occupancy grid; origin is the minimum corner."""

    origin: np.ndarray        # (3,)
    cell_size: float
    occupancy: np.ndarray     # (nx, ny, nz) bool

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.occupancy.shape

    @property
    def count(self) -> int:
        return int(self.occupancy.sum())


def _axis_votes(tris: np.ndarray, origin: np.ndarray, cell: float,
                dims: np.ndarray, axis: int) -> np.ndarray:
    """Inside/outside vote for every cell center, casting along one axis."""
    u, v = (axis + 1) % 3, (axis + 2) % 3
    nu, nv, nw = int(dims[u]), int(dims[v]), int(dims[axis])

    p0, p1, p2 = tris[:, 0, :], tris[:, 1, :], tris[:, 2, :]
    normal = np.cross(p1 - p0, p2 - p0)
    ok = np.abs(normal[:, axis]) > 1e-12 * np.linalg.norm(normal, axis=1).clip(min=1e-300)

    cols: list[np.ndarray] = []
    zs: list[np.ndarray] = []
    shift_u = _RAY_SHIFT_U * cell
    shift_v = _RAY_SHIFT_V * cell
    for t in np.flatnonzero(ok):
        a, b, c = p0[t], p1[t], p2[t]
        lo_u = min(a[u], b[u], c[u]); hi_u = max(a[u], b[u], c[u])
        lo_v = min(a[v], b[v], c[v]); hi_v = max(a[v], b[v], c[v])
        i0 = max(0, int(np.floor((lo_u - origin[u]) / cell - 0.5)))
        i1 = min(nu - 1, int(np.ceil((hi_u - origin[u]) / cell - 0.5)))
        j0 = max(0, int(np.floor((lo_v - origin[v]) / cell - 0.5)))
        j1 = min(nv - 1, int(np.ceil((hi_v - origin[v]) / cell - 0.5)))
        if i1 < i0 or j1 < j0:
            continue
        qu = origin[u] + (np.arange(i0, i1 + 1) + 0.5) * cell + shift_u
        qv = origin[v] + (np.arange(j0, j1 + 1) + 0.5) * cell + shift_v
        gu, gv = np.meshgrid(qu, qv, indexing="ij")
        # Edge-function inclusion in the (u, v) projection.
        e0 = (b[u] - a[u]) * (gv - a[v]) - (b[v] - a[v]) * (gu - a[u])
        e1 = (c[u] - b[u]) * (gv - b[v]) - (c[v] - b[v]) * (gu - b[u])
        e2 = (a[u] - c[u]) * (gv - c[v]) - (a[v] - c[v]) * (gu - c[u])
        inside = ((e0 >= 0) & (e1 >= 0) & (e2 >= 0)) | ((e0 <= 0) & (e1 <= 0) & (e2 <= 0))
        if not inside.any():
            continue
        n = normal[t]
        d = -float(n @ a)
        zc = -(n[u] * gu[inside] + n[v] * gv[inside] + d) / n[axis]
        ii, jj = np.nonzero(inside)
        cols.append((ii + i0) * nv + (jj + j0))
        zs.append(zc)

    votes = np.zeros((nu, nv, nw), dtype=bool)
    if cols:
        col_arr = np.concatenate(cols)
        z_arr = np.concatenate(zs)
        order = np.lexsort((z_arr, col_arr))
        col_arr = col_arr[order]
        z_arr = z_arr[order]
        uniq, starts = np.unique(col_arr, return_index=True)
        ends = np.append(starts[1:], col_arr.size)
        centers_w = origin[axis] + (np.arange(nw) + 0.5) * cell
        for cidx, s, e in zip(uniq, starts, ends):
            below = np.searchsorted(z_arr[s:e], centers_w)
            inside_w = (below % 2) == 1
            if inside_w.any():
                votes[cidx // nv, cidx % nv, :] = inside_w
    # Reorder (u, v, axis) -> (x, y, z).
    return np.moveaxis(votes, (0, 1, 2), (u, v, axis))


def voxelize(mesh: TriMesh, cell_size: float) -> VoxelGrid:
    """Occupancy grid over the mesh AABB, centered so cells straddle it evenly.

    Raises OpenMesh when the three axis votes disagree on more than 2% of
    the cells any axis considers inside, and DegenerateInput for a cell size
    that is not a positive finite number.
    """
    if not (cell_size > 0 and np.isfinite(cell_size)):
        raise DegenerateInput(f"cell size must be positive and finite, got {cell_size!r}")
    lo, hi = mesh.aabb
    extent = hi - lo
    dims = np.maximum(1, np.ceil(extent / cell_size - 1e-9).astype(int))
    center = 0.5 * (lo + hi)
    origin = center - 0.5 * dims * cell_size

    tris = mesh.triangles()
    vote_sum = np.zeros(tuple(dims), dtype=np.int8)
    for axis in range(3):
        vote_sum += _axis_votes(tris, origin, cell_size, dims, axis)

    candidates = int((vote_sum > 0).sum())
    if candidates > 0:
        split = int(((vote_sum == 1) | (vote_sum == 2)).sum())
        if split / candidates > _DISAGREE_LIMIT:
            raise OpenMesh(
                f"axis votes disagree on {split}/{candidates} cells; "
                "the surface does not enclose a solid")
    return VoxelGrid(origin=origin, cell_size=cell_size, occupancy=vote_sum >= 2)

