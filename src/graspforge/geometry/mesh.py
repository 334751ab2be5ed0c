"""Triangle meshes: validation, volume, OBJ import/export, primitive builders.

Coordinates are millimeters throughout. Meshes intended for voxelization or
scene use must be closed and consistently wound (outward normals).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import DegenerateInput
from ..fileio import atomic_write


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle mesh.

    vertices: (n, 3) float64, millimeters.
    faces: (m, 3) int64 vertex indices, outward winding.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise DegenerateInput("vertices must be (n, 3)")
        if f.ndim != 2 or f.shape[1] != 3:
            raise DegenerateInput("faces must be (m, 3)")
        if len(v) < 4 or len(f) < 4:
            raise DegenerateInput("closed solid needs at least 4 vertices and 4 faces")
        if not np.isfinite(v).all():
            raise DegenerateInput("non-finite vertex coordinate")
        if f.min() < 0 or f.max() >= len(v):
            raise DegenerateInput("face index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def triangles(self) -> np.ndarray:
        """(m, 3, 3) array of triangle corner coordinates."""
        return self.vertices[self.faces]

    def volume(self) -> float:
        """Signed volume by summing tetrahedra against the origin.

        Positive for outward-wound closed meshes.
        """
        a, b, c = (self.vertices[self.faces[:, k]] for k in range(3))
        return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)

    def centroid(self) -> np.ndarray:
        """Volume centroid (assumes closed, outward-wound mesh)."""
        a, b, c = (self.vertices[self.faces[:, k]] for k in range(3))
        det = np.einsum("ij,ij->i", a, np.cross(b, c))
        centers = (a + b + c) / 4.0
        vol = det.sum() / 6.0
        if abs(vol) < 1e-12:
            return self.vertices.mean(axis=0)
        return (centers * det[:, None]).sum(axis=0) / 6.0 / vol

    def transformed(self, rotation: np.ndarray, translation: np.ndarray) -> "TriMesh":
        return TriMesh(self.vertices @ np.asarray(rotation).T + np.asarray(translation), self.faces)


def load_obj(path: str | Path) -> TriMesh:
    """Read the v/f subset of ASCII OBJ (1-based indices, triangles only)."""
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if line.startswith("v "):
            parts = line.split()
            verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
        elif line.startswith("f "):
            idx = [int(tok.split("/")[0]) - 1 for tok in line.split()[1:]]
            if len(idx) != 3:
                raise DegenerateInput(f"non-triangle face in {path}")
            faces.append(idx)
    return TriMesh(np.array(verts), np.array(faces))


def save_obj(mesh: TriMesh, path: str | Path) -> None:
    """Write v/f ASCII OBJ with full-precision floats (exact reload)."""
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    atomic_write(path, "\n".join(lines) + "\n")


def box_mesh(center, half_extents) -> TriMesh:
    """Axis-aligned box, outward winding."""
    c = np.asarray(center, dtype=np.float64)
    h = np.asarray(half_extents, dtype=np.float64)
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=np.float64)
    verts = c + signs * h
    # index = sx*4 + sy*2 + sz with (-1 -> 0, 1 -> 1)
    faces = np.array([
        [0, 1, 3], [0, 3, 2],          # -x
        [4, 6, 7], [4, 7, 5],          # +x
        [0, 4, 5], [0, 5, 1],          # -y
        [2, 3, 7], [2, 7, 6],          # +y
        [0, 2, 6], [0, 6, 4],          # -z
        [1, 5, 7], [1, 7, 3],          # +z
    ])
    return TriMesh(verts, faces)


def _ear_clip(poly: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate a simple CCW polygon by ear clipping."""
    n = len(poly)
    idx = list(range(n))
    tris: list[tuple[int, int, int]] = []

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    guard = 0
    while len(idx) > 3 and guard < 10 * n:
        guard += 1
        for k in range(len(idx)):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % len(idx)]
            a, b, c = poly[i0], poly[i1], poly[i2]
            if cross(a, b, c) <= 1e-12:
                continue  # reflex or degenerate corner
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                p = poly[j]
                if cross(a, b, p) >= -1e-12 and cross(b, c, p) >= -1e-12 and cross(c, a, p) >= -1e-12:
                    ok = False
                    break
            if ok:
                tris.append((i0, i1, i2))
                idx.pop(k)
                break
        else:
            raise DegenerateInput("polygon is not simple; ear clipping failed")
    if len(idx) == 3:
        tris.append((idx[0], idx[1], idx[2]))
    return tris


def extrude_polygon(poly_xy, z0: float, z1: float) -> TriMesh:
    """Extrude a simple CCW polygon in the xy plane into a closed prism."""
    poly = np.asarray(poly_xy, dtype=np.float64)
    if poly.ndim != 2 or poly.shape[1] != 2 or len(poly) < 3:
        raise DegenerateInput("polygon must be (n, 2) with n >= 3")
    n = len(poly)
    bottom = np.column_stack([poly, np.full(n, float(z0))])
    top = np.column_stack([poly, np.full(n, float(z1))])
    verts = np.vstack([bottom, top])
    tris = _ear_clip(poly)
    faces: list[list[int]] = []
    for a, b, c in tris:
        faces.append([a, c, b])              # bottom faces down
        faces.append([n + a, n + b, n + c])  # top faces up
    for i in range(n):
        j = (i + 1) % n
        faces.append([i, j, n + j])
        faces.append([i, n + j, n + i])
    return TriMesh(verts, np.array(faces))


def uv_sphere(center, radius: float, n_theta: int = 24, n_phi: int = 48) -> TriMesh:
    """Latitude/longitude sphere; all vertices lie exactly on the sphere."""
    c = np.asarray(center, dtype=np.float64)
    verts = [c + [0.0, 0.0, radius]]
    for it in range(1, n_theta):
        t = np.pi * it / n_theta
        for ip in range(n_phi):
            p = 2 * np.pi * ip / n_phi
            verts.append(c + radius * np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)]))
    verts.append(c + [0.0, 0.0, -radius])
    south = len(verts) - 1

    def ring(it: int, ip: int) -> int:
        return 1 + (it - 1) * n_phi + (ip % n_phi)

    faces = []
    for ip in range(n_phi):
        faces.append([0, ring(1, ip), ring(1, ip + 1)])
        faces.append([south, ring(n_theta - 1, ip + 1), ring(n_theta - 1, ip)])
    for it in range(1, n_theta - 1):
        for ip in range(n_phi):
            a, b = ring(it, ip), ring(it, ip + 1)
            c2, d = ring(it + 1, ip), ring(it + 1, ip + 1)
            faces.append([a, c2, d])
            faces.append([a, d, b])
    return TriMesh(np.array(verts), np.array(faces))
