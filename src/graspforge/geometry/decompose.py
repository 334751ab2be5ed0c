"""Approximate convex decomposition of a closed mesh.

Voxelize, then greedily split the worst partition by an axis-aligned plane
until every partition's concavity is within tolerance or the piece budget
is spent. Pieces are convex hulls of the partition cell corners.

The cell set is the solid occupancy plus a crust of cells touched by the
surface. Cell-center parity alone can miss up to half a cell of material
near curved surfaces; the crust makes the piece union cover the mesh, at
the cost of pieces overhanging it slightly (harmless for collision use).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ..errors import DegenerateInput, EmptyShape
from ..fileio import atomic_write
from .hull import ConvexPiece, convex_hull
from .mesh import TriMesh, save_obj
from .voxel import VoxelGrid, voxelize


@dataclass(frozen=True)
class DecompositionResult:
    pieces: list[ConvexPiece]
    concavities: list[float]
    cell_size: float
    concavity_tol: float
    budget_exceeded: bool

    @property
    def max_concavity(self) -> float:
        return max(self.concavities)


def _cell_corners(idx: np.ndarray, origin: np.ndarray, cell: float) -> np.ndarray:
    offs = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    corners = (idx[:, None, :] + offs[None, :, :]).reshape(-1, 3)
    return origin + np.unique(corners, axis=0) * cell


def concavity(cells: np.ndarray, origin: np.ndarray, cell_size: float) -> float:
    """(hull volume - occupied volume) / hull volume of (k, 3) integer cell
    indices on a grid: 0 for a box of cells, near 1 for sparse cells in a
    large hull. Raises EmptyShape for no cells."""
    if len(cells) == 0:
        raise EmptyShape("no occupied cells")
    occ = cells.shape[0] * cell_size ** 3
    try:
        hull_vol = float(ConvexHull(_cell_corners(cells, origin, cell_size)).volume)
    except QhullError as exc:
        raise DegenerateInput(f"degenerate cell partition: {exc}") from exc
    return max(0.0, (hull_vol - occ) / hull_vol)


def _surface_cells(mesh: TriMesh, grid: VoxelGrid) -> np.ndarray:
    """Indices of cells hit by surface points sampled at half-cell spacing."""
    cell = grid.cell_size
    dims = np.array(grid.dims)
    out = []
    for a, b, c in mesh.triangles():
        longest = max(np.linalg.norm(b - a), np.linalg.norm(c - a),
                      np.linalg.norm(c - b))
        n = max(1, int(np.ceil(longest / (0.5 * cell))))
        ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        keep = (ii + jj) <= n
        u = (ii[keep] / n)[:, None]
        v = (jj[keep] / n)[:, None]
        pts = a + u * (b - a) + v * (c - a)
        out.append(np.floor((pts - grid.origin) / cell).astype(int))
    idx = np.concatenate(out)
    idx = np.clip(idx, 0, dims - 1)
    return np.unique(idx, axis=0)


def decompose(mesh: TriMesh, cell_size: float = 2.0, concavity_tol: float = 0.05,
              max_pieces: int = 32) -> DecompositionResult:
    """Split mesh into at most max_pieces convex pieces covering it.

    Raises EmptyShape when voxelization finds no solid cells.
    """
    grid = voxelize(mesh, cell_size)
    if grid.count == 0:
        raise EmptyShape("mesh encloses no cells at this resolution")
    solid = np.argwhere(grid.occupancy)
    cells = np.unique(np.concatenate([solid, _surface_cells(mesh, grid)]), axis=0)

    parts: list[np.ndarray] = [cells]
    concs: list[float] = [concavity(cells, grid.origin, cell_size)]

    while len(parts) < max_pieces:
        worst = int(np.argmax(concs))
        if concs[worst] <= concavity_tol:
            break
        idx = parts[worst]
        centers = idx + 0.5
        axis = int(np.argmax(centers.var(axis=0)))
        thr = centers[:, axis].mean()
        left = centers[:, axis] < thr
        if not left.any() or left.all():
            # Centroid plane misses all cells; fall back to a median split.
            order = np.argsort(centers[:, axis], kind="stable")
            left = np.zeros(idx.shape[0], dtype=bool)
            left[order[: idx.shape[0] // 2]] = True
            if not left.any() or left.all():
                break
        part_a, part_b = idx[left], idx[~left]
        parts[worst] = part_a
        concs[worst] = concavity(part_a, grid.origin, cell_size)
        parts.append(part_b)
        concs.append(concavity(part_b, grid.origin, cell_size))

    pieces = [convex_hull(_cell_corners(p, grid.origin, cell_size)) for p in parts]
    return DecompositionResult(
        pieces=pieces,
        concavities=concs,
        cell_size=cell_size,
        concavity_tol=concavity_tol,
        budget_exceeded=any(c > concavity_tol for c in concs),
    )


def piece_to_mesh(piece: ConvexPiece) -> TriMesh:
    """Triangulated boundary of a convex piece, faces wound outward."""
    hull = ConvexHull(piece.vertices)
    verts = np.asarray(hull.points)
    faces = np.asarray(hull.simplices, dtype=np.int64)
    centroid = verts[np.unique(faces)].mean(axis=0)
    tris = verts[faces]
    normals = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    outward = np.einsum("ij,ij->i", normals, tris.mean(axis=1) - centroid) >= 0
    faces[~outward] = faces[~outward][:, ::-1]
    return TriMesh(vertices=verts, faces=faces)


def save_decomposition(result: DecompositionResult, out_dir: str, stem: str) -> str:
    """Write one OBJ per piece plus a JSON manifest; returns manifest path."""
    entries = []
    for i, (piece, conc) in enumerate(zip(result.pieces, result.concavities)):
        name = f"{stem}_piece{i:02d}.obj"
        save_obj(piece_to_mesh(piece), os.path.join(out_dir, name))
        entries.append({
            "file": name,
            "vertex_count": int(piece.vertices.shape[0]),
            "concavity": conc,
        })
    manifest = {
        "cell_size": result.cell_size,
        "concavity_tol": result.concavity_tol,
        "budget_exceeded": result.budget_exceeded,
        "pieces": entries,
    }
    path = os.path.join(out_dir, f"{stem}_decomposition.json")
    atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
