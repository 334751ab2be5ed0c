"""Triangle meshes: centroid, OBJ import/export, a box builder.

Coordinates are millimeters throughout. Scene meshes must be closed and
consistently wound (outward normals).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..fileio import atomic_write, read_input


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
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    def triangles(self) -> np.ndarray:
        """(m, 3, 3) array of triangle corner coordinates."""
        return self.vertices[self.faces]

    def centroid(self) -> np.ndarray:
        """Volume centroid (assumes closed, outward-wound mesh)."""
        a, b, c = (self.vertices[self.faces[:, k]] for k in range(3))
        det = np.einsum("ij,ij->i", a, np.cross(b, c))
        centers = (a + b + c) / 4.0
        vol = det.sum() / 6.0
        if abs(vol) < 1e-12:
            return self.vertices.mean(axis=0)
        return (centers * det[:, None]).sum(axis=0) / 6.0 / vol


def load_obj(path: str | Path) -> TriMesh:
    """Read the v/f subset of ASCII OBJ (1-based indices, triangles only)
    through `read_input`: a missing file raises DatasetNotFound, a line that
    does not parse DegenerateInput naming it. The mesh is not checked here:
    `scene.load_scene` holds a cable's mesh to its spec's tube.
    """
    return read_input(path, _parse_obj)


def _parse_obj(data: bytes) -> TriMesh:
    verts, faces = [], []
    for line in data.decode().splitlines():
        parts = line.split()
        if parts[:1] == ["v"]:
            x, y, z = map(float, parts[1:])
            verts.append((x, y, z))
        elif parts[:1] == ["f"]:
            a, b, c = (int(tok.split("/")[0]) - 1 for tok in parts[1:])
            faces.append((a, b, c))
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
