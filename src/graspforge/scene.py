"""Synthetic cable piles: procedural tube meshes, a rigid bin, sequential
quasi-static settling, and orthographic depth rendering.

Settling replaces dynamics with a deterministic drop: each cable falls
straight down by conservative advancement (each step moves by the current
minimum separation, which a 1-Lipschitz distance field cannot overshoot),
stops at contact, and is re-dropped elsewhere when its center of mass is
not supported by the contact footprint.

Every rest is certified. A step stops at least CONTACT_EPS/2 short of each
piece the cable can meet on its way down, pieces it cannot meet are more
than CONTACT_EPS apart in x and y, and a start already in contact is
retried, so no two pieces of a pile come closer than CONTACT_EPS/2. A rest
is never perturbed afterwards: the pose advancement found is the pose kept.
Which pieces a cable can meet is the flattened GJK query's answer. A 2-D
separating-axis test against each static piece's xy outline proves most
of these answers without the kernel, and only the pairs it cannot decide
with 1e-6 mm to spare still ask it (`_blocking_pairs`).

Settling does not ask the kernel twice: an advancement pass stops at the
first distance within CONTACT_EPS, and the contact points of a rest take
the pairs that its last pass measured from there (`_contact_points`).

Pieces enter the world frame only here: a settling cable carries its pose
down, and the grasp oracle reads the scene's posed pieces, `Scene.bodies`.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .depthproc import DepthImage
from .errors import DegenerateInput, Overfilled, SelfIntersecting
from .fileio import atomic_write, read_input
from .geometry import (ConvexPiece, Pose3, TriMesh, box_mesh, convex_hull, gjk_world, hull_2d,
                       load_obj, save_obj)

CONTACT_EPS = 0.05       # mm; resting contact tolerance
SUPPORT_TOL = 0.5        # mm; gap still counted as support during settling
MAX_CABLES = 30          # the most cables one pile may hold
_TUBE_TOL = 1e-6         # mm; a loaded tube's segment lengths and end radii
_CERT_TOL = 1e-6         # mm; margin of a certified blocking decision
_RENDER_CHUNK = 1 << 14  # pixels rasterised per pass
_SPAN_SIGMA = 3e-9       # barycentric slack of a row span (`_row_spans`)
_TOPPLE_MOVES = 64       # the most topple moves one rest may keep
_IDENTITY = Pose3((0.0, 0.0, 0.0))  # the bin's pose: its pieces are built in place


# ---------------------------------------------------------------------------
# Bin

@dataclass(frozen=True)
class BinSpec:
    """Open-top box; the floor's upper surface sits at z = 0, centered at
    the origin in x and y."""

    inner_x: float = 200.0
    inner_y: float = 150.0
    wall_height: float = 45.0
    thickness: float = 8.0

    def footprint(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([-self.inner_x / 2.0, -self.inner_y / 2.0])
        return lo, -lo


def _bin_boxes(spec: BinSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    hx, hy = spec.inner_x / 2.0, spec.inner_y / 2.0
    t, wh = spec.thickness, spec.wall_height
    return [
        # (center, half_extents)
        (np.array([0.0, 0.0, -t / 2.0]), np.array([hx + t, hy + t, t / 2.0])),
        (np.array([hx + t / 2.0, 0.0, wh / 2.0]), np.array([t / 2.0, hy + t, wh / 2.0])),
        (np.array([-hx - t / 2.0, 0.0, wh / 2.0]), np.array([t / 2.0, hy + t, wh / 2.0])),
        (np.array([0.0, hy + t / 2.0, wh / 2.0]), np.array([hx, t / 2.0, wh / 2.0])),
        (np.array([0.0, -hy - t / 2.0, wh / 2.0]), np.array([hx, t / 2.0, wh / 2.0])),
    ]


def bin_pieces(spec: BinSpec) -> list[ConvexPiece]:
    """Floor slab plus four wall slabs as convex collision pieces."""
    return [convex_hull(box_mesh(c, h).vertices) for c, h in _bin_boxes(spec)]


def bin_mesh(spec: BinSpec) -> TriMesh:
    """Render mesh for the bin (concatenated box shells)."""
    verts = []
    faces = []
    off = 0
    for c, h in _bin_boxes(spec):
        m = box_mesh(c, h)
        verts.append(m.vertices)
        faces.append(m.faces + off)
        off += len(m.vertices)
    return TriMesh(np.vstack(verts), np.vstack(faces))


# ---------------------------------------------------------------------------
# Cables

@dataclass(frozen=True)
class CableSpec:
    segment_count: int = 5
    segment_length: float = 22.0
    radius: float = 4.0
    bend_angle_range: tuple[float, float] = (0.0, 30.0)  # degrees
    tube_sides: int = 12

    def __post_init__(self):
        if self.radius <= 0:
            raise DegenerateInput("radius must be positive")
        if self.segment_count < 2:
            raise DegenerateInput("need at least 2 segments")
        if self.tube_sides < 6:
            raise DegenerateInput("need at least 6 tube sides")


def _rotate_about(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    return (v * math.cos(angle)
            + np.cross(axis, v) * math.sin(angle)
            + axis * (axis @ v) * (1.0 - math.cos(angle)))


def _polyline(spec: CableSpec, rng: np.random.Generator) -> np.ndarray:
    lo, hi = spec.bend_angle_range
    d = np.array([1.0, 0.0, 0.0])
    pts = [np.zeros(3)]
    for i in range(spec.segment_count):
        if i > 0:
            bend = math.radians(rng.uniform(lo, hi))
            azimuth = rng.uniform(0.0, 2.0 * math.pi)
            # perpendicular to d, rotated around d by the azimuth
            ref = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
            perp = np.cross(d, ref)
            perp /= np.linalg.norm(perp)
            perp = _rotate_about(perp, d, azimuth)
            d = _rotate_about(d, perp, bend)
        pts.append(pts[-1] + d * spec.segment_length)
    return np.array(pts)


def _self_intersects(pts: np.ndarray, radius: float) -> bool:
    # non-adjacent centerline segments closer than a tube diameter fold
    # the surface into itself
    n = len(pts) - 1
    for i in range(n):
        for j in range(i + 2, n):
            a, b = pts[i], pts[i + 1]
            c, d = pts[j], pts[j + 1]
            if _segment_distance(a, b, c, d) < 2.0 * radius:
                return True
    return False


def _segment_distance(p1, q1, p2, q2) -> float:
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = d1 @ d1
    e = d2 @ d2
    c = d1 @ r
    f = d2 @ r
    b = d1 @ d2
    den = a * e - b * b
    s = np.clip((b * f - c * e) / den, 0.0, 1.0) if den > 1e-24 else 0.0
    t = (b * s + f) / e if e > 1e-24 else 0.0
    if t < 0.0:
        t = 0.0
        s = np.clip(-c / a, 0.0, 1.0)
    elif t > 1.0:
        t = 1.0
        s = np.clip((b - c) / a, 0.0, 1.0)
    return float(np.linalg.norm(p1 + d1 * s - (p2 + d2 * t)))


def make_cable_mesh(spec: CableSpec, rng: np.random.Generator) -> TriMesh:
    """Watertight mitered tube along a random piecewise-linear centerline,
    recentered on its volume centroid. Deterministic per rng state."""
    for _ in range(100):
        pts = _polyline(spec, rng)
        if not _self_intersects(pts, spec.radius):
            break
    else:
        raise SelfIntersecting("could not draw a non-folding centerline in 100 tries")

    n_seg = len(pts) - 1
    dirs = np.diff(pts, axis=0)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]

    # parallel-transported frame along the centerline
    ref = np.array([0.0, 0.0, 1.0]) if abs(dirs[0][2]) < 0.9 else np.array([0.0, 1.0, 0.0])
    n1 = np.cross(dirs[0], ref)
    n1 /= np.linalg.norm(n1)
    frames = []
    d_prev = dirs[0]
    for k in range(n_seg):
        d = dirs[k]
        cross = np.cross(d_prev, d)
        s = np.linalg.norm(cross)
        if s > 1e-12:
            n1 = _rotate_about(n1, cross / s, math.asin(np.clip(s, -1, 1)))
        n1 = n1 - (n1 @ d) * d
        n1 /= np.linalg.norm(n1)
        frames.append((n1.copy(), np.cross(d, n1)))
        d_prev = d

    sides = spec.tube_sides
    ang = 2.0 * np.pi * np.arange(sides) / sides
    cos_a, sin_a = np.cos(ang), np.sin(ang)

    rings = []
    for k in range(len(pts)):
        if k == 0:
            axis = dirs[0]
            a1, a2 = frames[0]
        elif k == len(pts) - 1:
            axis = dirs[-1]
            a1, a2 = frames[-1]
        else:
            axis = dirs[k - 1] + dirs[k]
            axis /= np.linalg.norm(axis)
            a1, a2 = frames[k]  # frame of the outgoing segment
            a1 = a1 - (a1 @ axis) * axis
            a1 /= np.linalg.norm(a1)
            a2 = np.cross(axis, a1)
        # stretch the ring in the miter plane so the tube wall stays at
        # constant radius from the centerline
        if k in (0, len(pts) - 1):
            stretch = 1.0
        else:
            half = math.acos(np.clip(dirs[k - 1] @ dirs[k], -1.0, 1.0)) / 2.0
            stretch = 1.0 / max(math.cos(half), 1e-6)
        ring = (pts[k]
                + np.outer(cos_a * spec.radius * stretch, a1)
                + np.outer(sin_a * spec.radius, a2))
        rings.append(ring)

    # the two end-cap centers follow the rings
    verts = np.vstack(rings + [pts[[0]], pts[[-1]]])
    mesh = TriMesh(verts, _tube_faces(len(pts), sides))
    return TriMesh(mesh.vertices - mesh.centroid(), mesh.faces)


def _tube_faces(ring_count: int, sides: int) -> np.ndarray:
    """Faces of a make_cable_mesh tube, outward wound: two triangles per
    side between consecutive rings, then the end caps, fans around the
    center vertices that follow the rings. Closed for ring_count >= 2."""
    faces: list[list[int]] = []
    for k in range(ring_count - 1):
        base0, base1 = k * sides, (k + 1) * sides
        for s in range(sides):
            s2 = (s + 1) % sides
            faces.append([base0 + s, base0 + s2, base1 + s2])
            faces.append([base0 + s, base1 + s2, base1 + s])
    cap0, last = ring_count * sides, (ring_count - 1) * sides
    for s in range(sides):
        s2 = (s + 1) % sides
        faces.append([cap0, s2, s])
        faces.append([cap0 + 1, last + s, last + s2])
    return np.array(faces, dtype=np.int64)


def cable_decomposition(mesh: TriMesh, tube_sides: int) -> list[ConvexPiece]:
    """Exact convex cover of a tube from make_cable_mesh: one hull per
    centerline segment. A mitered tube segment is convex (a cylinder cut
    by two planes), so each piece has zero concavity and the union covers
    the whole solid while staying tight to the surface.

    Relies on the vertex layout of make_cable_mesh, which `load_scene`
    checks: ring k occupies indices [k*tube_sides, (k+1)*tube_sides),
    followed by the two cap center vertices.
    """
    n_rings = (len(mesh.vertices) - 2) // tube_sides
    return [convex_hull(mesh.vertices[k * tube_sides:(k + 2) * tube_sides])
            for k in range(n_rings - 1)]


def _check_tube(mesh: TriMesh, spec: CableSpec, path: str) -> None:
    """Raise DegenerateInput naming path unless mesh is a make_cable_mesh
    tube of spec: its vertex count and faces, consecutive ring centers
    segment_length apart and end-ring vertices at radius from their center,
    to _TUBE_TOL. Interior rings are not held to radius: the miter
    stretches them."""
    sides, rings = spec.tube_sides, spec.segment_count + 1
    if len(mesh.vertices) != rings * sides + 2 or not np.array_equal(
            mesh.faces, _tube_faces(rings, sides)):
        raise DegenerateInput(f"{path}: faces are not a closed cable tube")
    ring = mesh.vertices[:-2].reshape(rings, sides, 3)
    centers = ring.mean(axis=1)
    lengths = np.linalg.norm(np.diff(centers, axis=0), axis=1) - spec.segment_length
    radii = np.linalg.norm(ring[[0, -1]] - centers[[0, -1], None], axis=2) - spec.radius
    if max(np.abs(lengths).max(), np.abs(radii).max()) > _TUBE_TOL:
        raise DegenerateInput(f"{path}: vertices are not the cable spec's tube")


# ---------------------------------------------------------------------------
# Scene

@dataclass(frozen=True)
class PlacedCable:
    id: int
    spec: CableSpec
    mesh: TriMesh
    pieces: list[ConvexPiece]   # convex cover in the cable frame
    pose: Pose3


@dataclass(frozen=True)
class Scene:
    bin: BinSpec
    cables: list[PlacedCable]
    rng_seed: int

    @cached_property
    def bodies(self) -> list[tuple[int, _WorldBody]]:
        """The pile's collision model in the world frame, built once per
        scene: (owner, body) pairs, the bin under -1, then each cable under
        its id. The grasp oracle reads it."""
        return [(-1, _WorldBody(bin_pieces(self.bin), _IDENTITY))] + [
            (c.id, _WorldBody(c.pieces, c.pose)) for c in self.cables]


class _WorldBody:
    """Convex pieces posed into the world frame, for fast queries. Every
    piece's posed vertices sit in one (n, 3) array, `points`, with
    `verts[i]` the view of piece i's rows, and each piece's box in the rows
    of lo and hi. `measured` holds the kernel results of the advancement
    pass that last measured the body (`_pairs_min_distance`)."""

    def __init__(self, pieces: list[ConvexPiece], pose: Pose3):
        self.pieces, self.pose = pieces, pose
        counts = [len(p.vertices) for p in pieces]
        self._ends = np.cumsum(counts)
        self._starts = self._ends - counts
        # one product for all pieces: each row is posed as alone
        # (`tests/test_scene.py::TestWorldBody` checks the bytes)
        self._place(pose.apply(np.concatenate([p.vertices for p in pieces])))
        self.lo = np.minimum.reduceat(self.points, self._starts)
        self.hi = np.maximum.reduceat(self.points, self._starts)

    def _place(self, points: np.ndarray) -> None:
        self.points = points
        self.verts = [points[a:b] for a, b in zip(self._starts.tolist(),
                                                  self._ends.tolist())]
        self._flat: list[np.ndarray | None] = [None] * len(self.verts)
        self._outline: list[np.ndarray | None] = [None] * len(self.verts)
        self.measured: dict = {}

    def shifted(self, dz: float) -> "_WorldBody":
        """The body moved by dz along z, its pose with it. The vertices are
        shifted, not posed again: a rest keeps the bytes its steps made."""
        out = _WorldBody.__new__(_WorldBody)
        off = np.array([0.0, 0.0, dz])
        t = self.pose.translation.copy()
        t[2] += dz
        out.pieces, out.pose = self.pieces, Pose3(t, self.pose.rotation)
        out._starts, out._ends = self._starts, self._ends
        out._place(self.points + off)
        out.lo = self.lo + off
        out.hi = self.hi + off
        return out

    @property
    def aabb_lo(self) -> np.ndarray:
        return self.lo.min(axis=0)

    @property
    def aabb_hi(self) -> np.ndarray:
        return self.hi.max(axis=0)

    def near(self, lo: np.ndarray, hi: np.ndarray, pad: float) -> np.ndarray:
        """Indices of the pieces whose boxes come within pad of [lo, hi]."""
        return np.flatnonzero(((lo - pad) <= self.hi).all(axis=1)
                              & ((hi + pad) >= self.lo).all(axis=1))

    def equations(self, i: int) -> np.ndarray:
        """Piece i's outward face planes (n, d) in the world frame."""
        eq = self.pieces[i].equations
        normals = eq[:, :3] @ self.pose.matrix().T
        return np.column_stack([normals, eq[:, 3] - normals @ self.pose.translation])

    def flat(self, i: int) -> np.ndarray:
        """Piece i flattened onto z = 0, built on first use: a static body
        serves every drop that follows it."""
        f = self._flat[i]
        if f is None:
            v = self.verts[i]
            f = self._flat[i] = np.column_stack([v[:, :2], np.zeros(len(v))])
        return f

    def outline(self, i: int) -> np.ndarray:
        """Piece i's xy projection as its 2-D hull's outward edge lines
        (nx, ny, c), unit n, n . p + c <= 0 inside, built on first use like
        `flat`. A projection qhull cannot hull (a sliver) is one NaN line,
        which no gap test certifies."""
        o = self._outline[i]
        if o is None:
            hull = hull_2d(self.verts[i][:, :2])
            o = self._outline[i] = np.full((1, 3), np.nan) if hull is None else hull[0]
        return o


class _Pile:
    """The settled bodies, the bin first, and one table of all their
    pieces: row k of lo and hi is the box, and row k of lines the xy
    outline (`_WorldBody.outline`, padded with lines (0, 0, -inf) to the
    widest), of piece j of static st for the k-th (st, j) of `rows`,
    statics in order."""

    def __init__(self, body: _WorldBody):
        self.bodies: list[_WorldBody] = []
        self.rows: list[tuple[_WorldBody, int]] = []
        self.lo = self.hi = np.empty((0, 3))
        self.owner = np.empty(0, dtype=np.int64)
        self.lines = np.empty((0, 0, 3))
        self.line_counts = np.empty(0, dtype=np.int64)
        self.add(body)

    def add(self, body: _WorldBody) -> None:
        n, k = len(body.pieces), len(self.rows)
        outlines = [body.outline(j) for j in range(n)]
        counts = np.array([len(o) for o in outlines])
        lines = np.zeros((k + n, max(self.lines.shape[1], counts.max()), 3))
        lines[:, :, 2] = -np.inf
        lines[:k, :self.lines.shape[1]] = self.lines
        for row, o in enumerate(outlines, k):
            lines[row, :len(o)] = o
        self.lines, self.line_counts = lines, np.append(self.line_counts, counts)
        self.owner = np.append(self.owner, np.full(n, len(self.bodies)))
        self.bodies.append(body)
        self.rows += [(body, j) for j in range(n)]
        self.lo = np.concatenate([self.lo, body.lo])
        self.hi = np.concatenate([self.hi, body.hi])

    def pairs(self, body: _WorldBody, pad: float, axes: int):
        """The body's pieces against the pile's whose boxes come within pad
        on the first axes coordinates (`_aabb_pairs`): (st, i, j) triples,
        statics in order, then (i, j) row-major, and each one's table row."""
        ik = _aabb_pairs(body, self, pad, axes)
        ik = ik[np.argsort(self.owner[ik[:, 1]], kind="stable")].tolist()
        return [(self.rows[k][0], i, self.rows[k][1]) for i, k in ik], [k for _, k in ik]


def _aabb_pairs(body: _WorldBody, st, pad: float, axes: int) -> np.ndarray:
    """(i, j) index pairs, in row-major order, of body piece i and box j of
    st (a body or a pile) whose boxes come within pad of each other on the
    first axes coordinates (2: x and y, 3: x, y and z)."""
    apart = ((body.hi[:, None, :axes] < st.lo[None, :, :axes] - pad).any(axis=2)
             | (body.lo[:, None, :axes] > st.hi[None, :, :axes] + pad).any(axis=2))
    return np.argwhere(~apart)


def _xy_gaps(body: _WorldBody, statics: _Pile, cand, rows) -> tuple[np.ndarray, np.ndarray]:
    """Separating-axis tests of each candidate (static, i, j)'s xy
    projections against the static piece's outline, the candidate's pile
    row of `statics.lines` (Ericson, Real-Time Collision Detection, 2005,
    §5.2.1), all candidates in one pass.

    Returns (gap, depth). gap is the most that body piece i's vertices all
    lie beyond one outline edge: above 0 it is a lower bound on the xy
    distance. depth is how far the deepest of its vertices, or of their
    mean, lies beyond the outline: below 0 that point is inside it, so the
    projections overlap. Both are NaN where the outline is missing."""
    # padding: lines (0, 0, -inf) lie beyond no point, points repeat their
    # piece's last vertex
    edges = statics.lines[rows, :statics.line_counts[rows].max()]
    pieces = [i for _, i, _ in cand]
    counts = (body._ends - body._starts)[pieces]
    cols = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    verts = body.points[body._starts[pieces][:, None] + cols, :2]
    # a mean of a piece's vertices lies inside its outline
    verts = np.concatenate([verts, verts.mean(axis=1, keepdims=True)], axis=1)
    beyond = edges[:, :, :2] @ verts.transpose(0, 2, 1) + edges[:, :, 2:]
    return beyond.min(axis=2).max(axis=1), beyond.max(axis=1).min(axis=1)


def _blocking_pairs(body: _WorldBody, statics: _Pile):
    """Piece pairs that can obstruct straight-down motion of the body:
    (i, static, j), statics in order, then (i, j) row-major.

    A pair whose xy projections stay separated never collides under
    vertical translation, so only pairs whose projections come within
    CONTACT_EPS are kept. Posed vertices' xy do not depend on the pose's z,
    so for one rotation and xy the list is the same at every height: it
    holds for the whole drop, and the lifts that re-seat one topple
    candidate share it (`_seat`).

    Each decision is the flattened GJK query's, `distance <= CONTACT_EPS`,
    certified where `_xy_gaps` can: a gap above CONTACT_EPS + _CERT_TOL
    drops the pair, a depth below -_CERT_TOL keeps it, and only a pair in
    between, or one whose static outline is missing, asks the kernel.
    """
    cand, rows = statics.pairs(body, CONTACT_EPS, axes=2)
    if not cand:
        return []
    pairs = []
    for (st, i, j), gap, depth in zip(cand, *_xy_gaps(body, statics, cand, rows)):
        if depth < -_CERT_TOL or (
                not gap > CONTACT_EPS + _CERT_TOL
                and gjk_world(body.flat(i), st.flat(j),
                              max_distance=2.0 * CONTACT_EPS).distance <= CONTACT_EPS):
            pairs.append((i, st, j))
    return pairs


def _pairs_min_distance(body: _WorldBody, pairs, cap: float) -> float:
    """Min separation over the blocking pairs, early-exiting past cap and
    returning once it is within CONTACT_EPS (all that `_advance_down`
    tests). Each kernel result is kept in `body.measured` under (i, static,
    j), with the max_distance it ran under."""
    best = cap
    for i, st, j in pairs:
        if best <= CONTACT_EPS:
            break
        # vertical gap already exceeding the working bound
        if body.lo[i, 2] > st.hi[j, 2] + best or body.hi[i, 2] < st.lo[j, 2] - best:
            continue
        r = gjk_world(body.verts[i], st.verts[j], max_distance=best)
        body.measured[i, st, j] = (best, r)
        best = min(best, r.distance)
    return best


def _contact_points(body: _WorldBody, statics: _Pile, tol: float) -> list[np.ndarray]:
    """Contact points between the body and its supports.

    Besides the closest-point witness of each touching pair, body
    vertices lying within tol of the support are added, so a flat-on-flat
    rest reports the extremes of its true support region, not just one
    interior point (the toppling pivot must be the region's edge).

    A pair's kernel result is taken from `body.measured` when that query
    ran under a max_distance m of at most 4 * tol, converged, and returned
    at most m, so it did not take the early exit (which returns a bound
    above m). The kernel's iterations do not read max_distance, which only
    adds that exit, so asking again would return the same result. A vertex
    that adjacent body pieces share is tested against a static piece once
    per call, and added at each of its occurrences."""
    pts = []
    cand, rows = statics.pairs(body, 2 * tol, axes=3)
    lo = hi = None   # the pile's boxes padded by 2 * tol, formed once per call
    touches: dict[tuple[int, bytes], bool] = {}   # (pile row, vertex bytes)
    for (st, i, j), k in zip(cand, rows):
        m, r = body.measured.get((i, st, j), (np.inf, None))
        if not (m <= 4 * tol and r.converged and r.distance <= m):
            r = gjk_world(body.verts[i], st.verts[j], max_distance=4 * tol)
        if r.distance > tol:
            continue
        pts.append(0.5 * (r.point_a + r.point_b))
        if lo is None:
            lo, hi = statics.lo - 2 * tol, statics.hi + 2 * tol
        verts = body.verts[i]
        for v in verts[((verts >= lo[k]) & (verts <= hi[k])).all(axis=1)]:
            key = (k, v.tobytes())
            if key not in touches:
                touches[key] = gjk_world(v[None, :], st.verts[j],
                                         max_distance=2 * tol).distance <= tol
            if touches[key]:
                pts.append(v)
    return pts


def _support_analysis(com: np.ndarray, contacts: list[np.ndarray]):
    """Distance from the center of mass to the support polygon in the
    horizontal plane, plus the tipping element (the nearest boundary
    edge or vertex, as 3D contact points) when the mass sits outside.

    The nearest element is the first of least distance among the hull's
    vertices, then its vertex pairs (a, b), a < b, in row-major order. Each
    distance is the square root of one BLAS dot, as `np.linalg.norm` forms
    it, and each segment parameter is clipped from one dot quotient."""
    if len(contacts) == 0:
        return np.inf, []
    pts3 = np.array(contacts)
    com_xy = com[:2]
    xy = pts3[:, :2]
    hull = hull_2d(xy) if len(pts3) >= 3 else None
    if hull is None:
        idx, p = range(len(pts3)), xy
    else:
        eq, idx = hull
        if (eq[:, :2] @ com_xy + eq[:, 2] <= 1e-12).all():
            return 0.0, []
        p = xy[idx]
    a, b = np.triu_indices(len(p), 1)
    ab = p[b] - p[a]
    den = np.vecdot(ab, ab)
    # a segment shorter than 1e-12 is its first point
    t = np.clip(np.divide(np.vecdot(com_xy - p[a], ab), den, out=np.zeros(len(den)),
                          where=den >= 1e-24), 0.0, 1.0)
    gaps = np.concatenate([com_xy - p, com_xy - (p[a] + t[:, None] * ab)])
    d = np.sqrt(np.vecdot(gaps, gaps))
    k = int(d.argmin())
    if k < len(p):
        return float(d[k]), [pts3[idx[k]]]
    i, j, t = idx[a[k - len(p)]], idx[b[k - len(p)]], t[k - len(p)]
    return float(d[k]), [pts3[i], pts3[j]] if 0.0 < t < 1.0 else [pts3[i] if t <= 0 else pts3[j]]


def _tip_rotation(com: np.ndarray, tip: list[np.ndarray], angle: float) -> Pose3 | None:
    """Rigid rotation about the tipping element that lowers the center of
    mass, or None when the geometry is degenerate. A norm is the square
    root of one BLAS dot, as `np.linalg.norm` forms it, and the sense test
    is the z of np.cross(axis, com - p), rounded as np.cross rounds it."""
    p = tip[0]
    if len(tip) == 2:
        axis = tip[1] - tip[0]
        n = math.sqrt(axis.dot(axis))
        if n < 1e-9:
            return None
        axis = axis / n
    else:
        u = com - p
        if np.hypot(u[0], u[1]) < 1e-9:
            return None
        axis = np.array([-u[1], u[0], 0.0])
        axis /= math.sqrt(axis.dot(axis))
    # choose the rotation sense that moves the mass center downward
    (x, y, _), (wx, wy, _) = axis.tolist(), (com - p).tolist()
    vz = x * wy - y * wx
    if abs(vz) < 1e-12:
        return None
    rot = Pose3.from_axis_angle(axis, -math.copysign(angle, vz))
    # conjugate so the axis passes through the contact point p
    return Pose3(p - rot.apply(p[None])[0], (1.0, 0.0, 0.0, 0.0)).compose(rot)


def _advance_down(body: _WorldBody, pairs):
    """Conservative advancement straight down from the body; pairs are its
    `_blocking_pairs`. Each step moves by the current minimum separation,
    which vertical motion cannot overshoot, so the body never penetrates.
    Returns the body resting within CONTACT_EPS, or None when advancement
    starts in contact or fails to reach it."""
    for it in range(128):
        d = _pairs_min_distance(body, pairs, cap=body.aabb_lo[2])
        if d <= CONTACT_EPS:
            # a start already in contact cannot be certified overlap-free
            return body if it else None
        body = body.shifted(-(d - 0.5 * CONTACT_EPS))
    return None


def _seat(pieces: list[ConvexPiece], rotation: np.ndarray, x: float, y: float,
          heights, statics: _Pile) -> _WorldBody | None:
    """Pose the pieces at (x, y) and each height in turn and advance them
    down; returns the first body that comes to rest, or None. The heights
    share the blocking pairs found at the first: they differ only in z."""
    pairs = None
    for z in heights:
        start = _WorldBody(pieces, Pose3((x, y, z), rotation))
        if pairs is None:
            pairs = _blocking_pairs(start, statics)
        body = _advance_down(start, pairs)
        if body is not None:
            return body
    return None


def _inside_footprint(body: _WorldBody, lo_fp: np.ndarray, hi_fp: np.ndarray) -> bool:
    return bool((body.aabb_lo[:2] >= lo_fp - 1e-9).all()
                and (body.aabb_hi[:2] <= hi_fp + 1e-9).all())


def settle_scene(bin_spec: BinSpec, cable_specs: list[CableSpec],
                 seed: int) -> Scene:
    """Drop cables one at a time at random (x, y, yaw) until each rests in
    contact and supported; raises Overfilled after 50 failed attempts for
    any single cable. Same seed, same scene.

    After first contact the cable topples quasi-statically: it pivots
    about its support edge or point, re-drops, and keeps the move only
    when its center of mass strictly descends, until the support polygon
    brackets the mass center, no descent is possible or _TOPPLE_MOVES
    moves were kept.
    """
    if not 1 <= len(cable_specs) <= MAX_CABLES:
        raise DegenerateInput(f"cable count must be in [1, {MAX_CABLES}]")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    statics = _Pile(_WorldBody(bin_pieces(bin_spec), _IDENTITY))
    placed: list[PlacedCable] = []
    lo_fp, hi_fp = bin_spec.footprint()

    for cable_id, spec in enumerate(cable_specs):
        mesh = make_cable_mesh(spec, rng)
        pieces = cable_decomposition(mesh, spec.tube_sides)
        centroid = mesh.centroid()

        for _ in range(50):
            rotation = Pose3.from_yaw(rng.uniform(0.0, 2.0 * math.pi)).rotation
            yawed = _WorldBody(pieces, Pose3((0.0, 0.0, 0.0), rotation))
            half_x = (yawed.aabb_hi[0] - yawed.aabb_lo[0]) / 2.0
            half_y = (yawed.aabb_hi[1] - yawed.aabb_lo[1]) / 2.0
            if half_x * 2 > bin_spec.inner_x or half_y * 2 > bin_spec.inner_y:
                continue
            center_off = (yawed.aabb_hi[:2] + yawed.aabb_lo[:2]) / 2.0
            # leave room to topple without leaving the footprint
            mx = min(12.0, max(0.0, (bin_spec.inner_x / 2.0 - half_x) * 0.5))
            my = min(12.0, max(0.0, (bin_spec.inner_y / 2.0 - half_y) * 0.5))
            cx = rng.uniform(lo_fp[0] + half_x + mx, hi_fp[0] - half_x - mx) - center_off[0]
            cy = rng.uniform(lo_fp[1] + half_y + my, hi_fp[1] - half_y - my) - center_off[1]

            # start 5 mm above everything placed; the yawed body's lowest z
            # is the posed one's, as the two differ only in x and y
            z = statics.hi[:, 2].max() - yawed.aabb_lo[2] + 5.0
            body = _seat(pieces, rotation, cx, cy, (z,), statics)
            if body is None:
                continue

            # gravity-driven rolling to a supported rest: rotate about
            # the support edge or point, then re-seat with a small lift
            # and vertical advancement (absorbs the slight surface dip a
            # discrete pivot causes without losing the pivot locality);
            # only moves that strictly lower the mass center are kept. The
            # pass after the last move only measures the rest it reached.
            for moves in range(_TOPPLE_MOVES + 1):
                com = body.pose.apply(centroid)
                fd, tip = _support_analysis(com, _contact_points(body, statics, tol=SUPPORT_TOL))
                if not tip or moves == _TOPPLE_MOVES:
                    break  # mass center strictly inside the support, or the cap
                moved = False
                for angle_deg in (6.0, 3.0, 1.5, 0.5, 0.15):
                    tipped = _tip_rotation(com, tip, math.radians(angle_deg))
                    if tipped is None:
                        break
                    cand = tipped.compose(body.pose)
                    x, y, z = cand.translation
                    seated = _seat(pieces, cand.rotation, x, y,
                                   [z + lift for lift in (1.0, 4.0, 16.0)], statics)
                    if seated is None or not _inside_footprint(seated, lo_fp, hi_fp):
                        continue
                    if seated.pose.apply(centroid)[2] < com[2] - 1e-6:
                        body, moved = seated, True
                        break
                if not moved:
                    break

            # unused draws: later attempts and cables read the stream after them
            for _ in range(2):
                rng.normal(size=3)
                rng.uniform(0.0, 5.0)

            # reject rests poking above the rim: keeps piles physical and
            # rendered depth within its contract band. No contact at all
            # leaves fd infinite.
            rim = bin_spec.wall_height + 2.0 * spec.radius
            if fd <= spec.radius and body.aabb_hi[2] <= rim:
                break
        else:
            raise Overfilled(f"cable {cable_id} found no resting pose in 50 attempts")

        placed.append(PlacedCable(id=cable_id, spec=spec, mesh=mesh,
                                  pieces=pieces, pose=body.pose))
        statics.add(_WorldBody(pieces, body.pose))

    return Scene(bin=bin_spec, cables=placed, rng_seed=seed)


# ---------------------------------------------------------------------------
# Camera and rendering

@dataclass(frozen=True)
class Camera:
    """Downward orthographic camera centered over the bin: the image center
    sees the world origin, as render_depth's coverage check and the
    sampler's grasp frame assume."""

    height: float = 70.0
    pitch: float = 0.5
    width_px: int = 480
    height_px: int = 360

    def __post_init__(self):
        if self.pitch <= 0.0:
            raise DegenerateInput("camera pitch must be positive")
        if self.width_px < 1 or self.height_px < 1:
            raise DegenerateInput("camera must have at least one pixel")

    def footprint_half_extents(self) -> tuple[float, float]:
        return (self.width_px * self.pitch / 2.0, self.height_px * self.pitch / 2.0)

    def world_to_px(self, x: np.ndarray, y: np.ndarray):
        px = np.asarray(x) / self.pitch + (self.width_px - 1) / 2.0
        py = (self.height_px - 1) / 2.0 - np.asarray(y) / self.pitch
        return px, py


def render_depth(scene: Scene, cam: Camera) -> DepthImage:
    """Top-down z-buffer over all triangles; equivalent to a per-pixel
    downward raycast.

    Triangles are rasterised in bulk (Pineda, "A parallel algorithm for
    polygon rasterization", SIGGRAPH 1988): each pass takes whole
    triangles up to _RENDER_CHUNK pixels, computes every pixel's
    barycentric (u, v) and depth in array operations, and merges the
    covered ones into the buffer with a max: each pixel keeps the largest
    covering z, as when triangles were drawn one at a time. A pass's
    arrays take a few hundred bytes per pixel, so _RENDER_CHUNK sets the
    renderer's memory: 1 << 14 keeps an 8-cable pile at a few MiB traced.
    Passes only split the triangles, in order, and the max does not depend
    on the split, so the bytes do not either.

    Each row of a triangle's pixel box is tested only over its span
    (`_row_spans`): the pixels that can pass the inside test, padded by one
    pixel. Every pixel outside it fails the test, so the bytes are those of
    testing the whole box.

    Triangles wholly at or below the floor plane z = 0 are skipped: the
    inside test's 1e-9 slack lets a pixel's depth pass the highest vertex
    by at most about 3e-9 of the triangle's depth span, far below a step
    of the float32 depth."""
    half_x, half_y = cam.footprint_half_extents()
    if (half_x < scene.bin.inner_x / 2.0 - 1e-9
            or half_y < scene.bin.inner_y / 2.0 - 1e-9):
        raise DegenerateInput("camera frustum does not cover the bin interior")
    W, H = cam.width_px, cam.height_px
    zbuf = np.zeros(H * W, dtype=np.float64)   # floor plane z = 0

    tris = np.concatenate([bin_mesh(scene.bin).triangles()] + [
        c.pose.apply(c.mesh.triangles().reshape(-1, 3)).reshape(-1, 3, 3)
        for c in scene.cables])
    tris = tris[(tris[:, :, 2] > 0.0).any(axis=1)]
    px, py = cam.world_to_px(tris[:, :, 0], tris[:, :, 1])
    # pixel bounding boxes, clipped to the image
    x0 = np.maximum(np.ceil(px.min(axis=1)), 0.0)
    x1 = np.minimum(np.floor(px.max(axis=1)), W - 1.0)
    y0 = np.maximum(np.ceil(py.min(axis=1)), 0.0)
    y1 = np.minimum(np.floor(py.max(axis=1)), H - 1.0)
    # barycentric in pixel space, from vertex 0
    ax, ay = px[:, 0], py[:, 0]
    v0x, v0y = px[:, 1] - ax, py[:, 1] - ay
    v1x, v1y = px[:, 2] - ax, py[:, 2] - ay
    den = v0x * v1y - v0y * v1x
    keep = (x1 >= x0) & (y1 >= y0) & ~(np.abs(den) < 1e-12)
    z = tris[:, :, 2]
    # one column per triangle: vertex 0's pixel, the two edge vectors, den
    # and the depth terms
    tri = np.stack([ax, ay, v0x, v0y, v1x, v1y, den,
                    z[:, 0], z[:, 1] - z[:, 0], z[:, 2] - z[:, 0]])[:, keep]
    # one entry per box row: its triangle, y and first and last pixel
    rows = (y1 - y0 + 1.0)[keep].astype(np.int64)
    row_tri = np.arange(len(rows)).repeat(rows)
    gy_row = y0[keep][row_tri] + (np.arange(rows.sum()) - (np.cumsum(rows) - rows)[row_tri])
    xs, xe = _row_spans(tri[:7, row_tri], gy_row, x0[keep][row_tri], x1[keep][row_tri])
    width = np.maximum(xe - xs + 1.0, 0.0).astype(np.int64)
    ends = np.cumsum(np.bincount(row_tri, weights=width, minlength=len(rows)).astype(np.int64))
    row_ends = np.cumsum(rows)

    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _RENDER_CHUNK, side="right")))
        r = np.arange(row_ends[start - 1] if start else 0, row_ends[stop - 1])
        n = width[r]
        pix_row = r.repeat(n)
        gx = xs[pix_row] + (np.arange(n.sum()) - (np.cumsum(n) - n).repeat(n))
        gy = gy_row[pix_row]
        ax, ay, v0x, v0y, v1x, v1y, den = tri[:7, row_tri[pix_row]]
        qx = gx - ax
        qy = gy - ay
        u = (qx * v1y - qy * v1x) / den
        v = (qy * v0x - qx * v0y) / den
        inside = np.flatnonzero((u >= -1e-9) & (v >= -1e-9) & (u + v <= 1.0 + 1e-9))
        z0, dz1, dz2 = tri[7:, row_tri[pix_row[inside]]]
        z = z0 + u[inside] * dz1 + v[inside] * dz2
        np.fmax.at(zbuf, (gy[inside] * W + gx[inside]).astype(np.int64), z)
        start = stop

    depth = (cam.height - zbuf.reshape(H, W)).astype(np.float32)
    return DepthImage(data=depth, pitch=cam.pitch)


def _row_spans(tri: np.ndarray, gy: np.ndarray, x0: np.ndarray, x1: np.ndarray):
    """First and last pixel x of each triangle row that can pass
    `render_depth`'s inside test, within the row's box [x0, x1].

    tri holds each row's (ax, ay, v0x, v0y, v1x, v1y, den). With s the sign
    of den and D = |den|, a pixel at x, with q = (x - ax, gy - ay), has
    u D = s (qx v1y - qy v1x) and v D = s (qy v0x - qx v0y), both linear in
    x. The span is where u >= -_SPAN_SIGMA, v >= -_SPAN_SIGMA and
    u + v <= 1 + _SPAN_SIGMA, padded by one pixel.

    Why no pixel outside the span passes: let L bound |v0x|, |v0y|, |v1x|
    and |v1y|, so |qx|, |qy| <= L over the box. With unit roundoff
    e = 2**-53, the test's computed u differs from the exact one by at most
    about 6.03 e L^2 / D + e |u|, and v likewise. Where D >= 2e-6 L^2 that
    is at most 3.4e-10 near the triangle, so a pixel passes only where the
    exact u, v >= -1.34e-9 and u + v <= 1 + 1.68e-9. The rest of
    _SPAN_SIGMA = 3e-9, at least 2.6e-15 L^2 in units of u D, covers the
    rounding of the span's own terms (under 2e-15 L^2), and the pad covers
    the rounding of each crossing. A triangle with D < 2e-6 L^2, a
    near-degenerate sliver, keeps its whole box rows."""
    ax, ay, v0x, v0y, v1x, v1y, den = tri
    s = np.sign(den)
    mag = np.abs(den)
    qy = gy - ay
    # each constraint as a (x - ax) >= b: u, v, then u + v
    a = np.stack([s * v1y, -s * v0y, -s * (v1y - v0y)])
    b = np.stack([s * qy * v1x - _SPAN_SIGMA * mag, -s * qy * v0x - _SPAN_SIGMA * mag,
                  -s * qy * (v1x - v0x) - (1.0 + _SPAN_SIGMA) * mag])
    cross = ax + np.divide(b, a, out=np.zeros_like(b), where=a != 0.0)
    lo = np.where(a > 0.0, cross, np.where((a == 0.0) & (b > 0.0), np.inf, -np.inf)).max(axis=0)
    hi = np.where(a < 0.0, cross, np.inf).min(axis=0)
    box = mag < 2e-6 * np.abs(tri[2:6]).max(axis=0) ** 2
    xs = np.where(box, x0, np.maximum(x0, np.ceil(lo) - 1.0))
    xe = np.where(box, x1, np.minimum(x1, np.floor(hi) + 1.0))
    return xs, xe


# ---------------------------------------------------------------------------
# Persistence

def _fields(spec: BinSpec | CableSpec) -> dict:
    """A spec as its manifest entry: `save_scene` writes it and
    `load_scene` compares the stored one with it."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(spec).items()}


def save_scene(scene: Scene, out_dir: str) -> str:
    """Write a JSON manifest plus one OBJ per cable; returns manifest path."""
    cables = []
    for c in scene.cables:
        mesh_name = f"cable_{c.id:02d}.obj"
        save_obj(c.mesh, os.path.join(out_dir, mesh_name))
        cables.append({
            "id": c.id,
            "mesh": mesh_name,
            "pose": {
                "translation": [float(v) for v in c.pose.translation],
                "rotation": [float(v) for v in c.pose.rotation],
            },
            "spec": _fields(c.spec),
        })
    manifest = {"rng_seed": scene.rng_seed, "bin": _fields(scene.bin), "cables": cables}
    path = os.path.join(out_dir, "scene.json")
    atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_scene(manifest_path: str, bin_spec: BinSpec, cable_spec: CableSpec) -> Scene:
    """Reload a saved pile of cable_spec cables in a bin_spec bin, through
    `read_input`; decompositions are recomputed (deterministic). A manifest
    that is not JSON, lacks a key, holds a value the scene types reject,
    another bin or cable spec, a cable k whose id (the oracle's owner) is
    not k, or a cable mesh that is not the spec's tube (`_check_tube`:
    rendering draws its faces, collision hulls its vertices), raises
    DegenerateInput naming the file."""
    base = os.path.dirname(manifest_path)

    def parse(data: bytes) -> Scene:
        manifest = json.loads(data)
        if manifest["bin"] != _fields(bin_spec) or any(
                c["spec"] != _fields(cable_spec) for c in manifest["cables"]):
            raise DegenerateInput("scene manifest does not match the active configuration")
        cables = []
        for k, c in enumerate(manifest["cables"]):
            if type(c["id"]) is not int or c["id"] != k:
                raise DegenerateInput(f"cable {k} has id {c['id']!r}, not {k}")
            mesh_path = os.path.join(base, c["mesh"])
            mesh = load_obj(mesh_path)
            _check_tube(mesh, cable_spec, mesh_path)
            pose = Pose3(np.array(c["pose"]["translation"]),
                         np.array(c["pose"]["rotation"]))
            cables.append(PlacedCable(id=c["id"], spec=cable_spec, mesh=mesh,
                                      pieces=cable_decomposition(mesh, cable_spec.tube_sides),
                                      pose=pose))
        return Scene(bin=bin_spec, cables=cables, rng_seed=manifest["rng_seed"])

    return read_input(manifest_path, parse)
