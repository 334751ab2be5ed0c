"""Independent reference implementations used to check the library.

Everything here is deliberately written from different math than the code
under test: box distances come from separating axes plus brute-force
feature enumeration, inside tests from crossing parity of a single ray,
rendered depths from one Moller-Trumbore ray per pixel (`ray_triangles`,
`ray_mesh`). There are nine exceptions, same math on purpose, frozen copies
the library must match bit for bit: `gjk_world_reference`, the GJK kernel;
`forward_backward_reference` (with `forward_batch_reference` and
`backward_batch_reference`), the quality network's forward and backward
pass as they stood while the backward pass still formed conv1's input
gradient; `augment_reference`, training's flip augmentation as it stood
while it copied each sample into four new ones; `sample_grasps_reference`, the grasp sampler with its
bilateral filter, edge detector, normal fit, rotated crop and friction-cone
test as they stood while each was a Python loop over pixels, points and
pair trials, each trial a `ContactPair`; `settle_scene_reference`, pile settling as it stood while
every topple lift re-found its blocking pairs, run on the distance kernel
it is handed (by default `gjk_world_reference`) with its own copies of the
topple's support and tip-rotation math;
`execute_grasp_reference`, the grasp oracle as it stood while every call
posed the scene's pieces afresh; `render_depth_reference`, the depth
renderer as it stood while it drew one triangle at a time;
`render_depth_boxes_reference`, the bulk renderer as it stood while it
tested every pixel of each triangle's bounding box; and
`add_noise_reference`, the sensor noise as it stood while each step formed
a new image-sized array.

The fixtures section holds test inputs and measures the library has no use
for: sphere and prism meshes, mesh volume, point-in-piece, pixel-to-world,
an all-zero network, and a call's traced memory peak with the network's
conv stages split over a given number of cores.
"""
from __future__ import annotations

import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import map_coordinates
from scipy.spatial import cKDTree

from graspforge import model
from graspforge.depthproc import PEPPER_VALUE, DepthImage, Patch, downsample
from graspforge.errors import ConvergenceWarning, DegenerateInput, NoCandidates, Overfilled
from graspforge.geometry import ConvexPiece, Pose3, TriMesh, gjk_world, hull_2d
from graspforge.model import QualityNet, init_net
from graspforge.sampler import (
    BILATERAL_RANGE, BILATERAL_SPATIAL, DEPTH_PAIR_TOL, ENGAGE_DEPTH, GRAD_THRESHOLD,
    MAX_PAIR_TRIALS, MIN_PAIR_SEPARATION, NORMAL_RADIUS, W_MAX, GraspPose, SamplerConfig,
)
from graspforge.scene import (
    CONTACT_EPS, SUPPORT_TOL, BinSpec, Camera, CableSpec, PlacedCable, Scene,
    _inside_footprint, bin_mesh, bin_pieces, cable_decomposition, make_cable_mesh,
)
from graspforge.simlab import (
    _CLOSE_ITER_CAP, _TOUCH, CONTACT_TOL, ENTANGLE_EROSION, FINGER_LENGTH, OPEN_CLEARANCE,
    GraspOutcome, _face_normal, _grasp_axes, _jaw_verts,
)


def quat_from_rng(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def quat_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def box_corners(half: np.ndarray, rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], float)
    return (signs * half) @ rot.T + trans


_EDGE_PAIRS = [(a, b) for a in range(8) for b in range(a + 1, 8)
               if bin(a ^ b).count("1") == 1]


def sat_boxes_overlap(half_a, rot_a, trans_a, half_b, rot_b, trans_b) -> bool:
    """15-axis separating-axis test for two oriented boxes."""
    t = trans_b - trans_a
    axes = [rot_a[:, i] for i in range(3)] + [rot_b[:, i] for i in range(3)]
    for i in range(3):
        for j in range(3):
            c = np.cross(rot_a[:, i], rot_b[:, j])
            n = np.linalg.norm(c)
            if n > 1e-12:
                axes.append(c / n)
    for ax in axes:
        ra = np.abs(rot_a.T @ ax) @ half_a
        rb = np.abs(rot_b.T @ ax) @ half_b
        if abs(t @ ax) > ra + rb + 1e-12:
            return False
    return True


def point_to_box_distance(p, half, rot, trans) -> float:
    local = rot.T @ (p - trans)
    clamped = np.clip(local, -half, half)
    return float(np.linalg.norm(local - clamped))


def segment_segment_distance(p1, q1, p2, q2) -> float:
    """Closest distance between segments [p1,q1] and [p2,q2]."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = d1 @ d1
    e = d2 @ d2
    f = d2 @ r
    if a < 1e-24 and e < 1e-24:
        return float(np.linalg.norm(r))
    if a < 1e-24:
        t = np.clip(f / e, 0.0, 1.0)
        s = 0.0
    else:
        c = d1 @ r
        if e < 1e-24:
            t = 0.0
            s = np.clip(-c / a, 0.0, 1.0)
        else:
            b = d1 @ d2
            den = a * e - b * b
            s = np.clip((b * f - c * e) / den, 0.0, 1.0) if den > 1e-24 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t = 1.0
                s = np.clip((b - c) / a, 0.0, 1.0)
    return float(np.linalg.norm(p1 + d1 * s - (p2 + d2 * t)))


def sat_box_distance(half_a, rot_a, trans_a, half_b, rot_b, trans_b) -> float:
    """Exact distance between oriented boxes: 0 when SAT finds no gap,
    otherwise min over vertex-to-box and edge-to-edge features."""
    if sat_boxes_overlap(half_a, rot_a, trans_a, half_b, rot_b, trans_b):
        return 0.0
    ca = box_corners(half_a, rot_a, trans_a)
    cb = box_corners(half_b, rot_b, trans_b)
    best = np.inf
    for p in ca:
        best = min(best, point_to_box_distance(p, half_b, rot_b, trans_b))
    for p in cb:
        best = min(best, point_to_box_distance(p, half_a, rot_a, trans_a))
    for (i, j) in _EDGE_PAIRS:
        for (k, m) in _EDGE_PAIRS:
            best = min(best, segment_segment_distance(ca[i], ca[j], cb[k], cb[m]))
    return best


def count_ray_crossings(origin: np.ndarray, direction: np.ndarray,
                        tris: np.ndarray) -> int:
    """Number of triangle crossings with t > 0 (Moller-Trumbore, half-open)."""
    o = np.asarray(origin, float)
    d = np.asarray(direction, float)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    pvec = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = o - tris[:, 0]
    u = np.einsum("ij,ij->i", tvec, pvec) * inv
    qvec = np.cross(tvec, e1)
    v = (qvec @ d) * inv
    t = np.einsum("ij,ij->i", e2, qvec) * inv
    hit = ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-12)
    return int(hit.sum())


def points_inside_mesh(points: np.ndarray, tris: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Parity inside test with a random ray direction per call."""
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return np.array([count_ray_crossings(p, d, tris) % 2 == 1 for p in points])


def sample_interior_points(mesh_tris: np.ndarray, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample n points strictly inside a closed mesh."""
    flat = mesh_tris.reshape(-1, 3)
    lo = flat.min(axis=0)
    hi = flat.max(axis=0)
    out = []
    while sum(len(o) for o in out) < n:
        cand = rng.uniform(lo, hi, size=(4 * n, 3))
        mask = points_inside_mesh(cand, mesh_tris, rng)
        out.append(cand[mask])
    return np.concatenate(out)[:n]


# Render oracles: first hits of single rays against triangle meshes, to
# check the depth renderer pixel by pixel, and the frozen per-triangle
# renderer it must match byte for byte.

# Barycentric slack so rays through shared edges and vertices still hit.
_EDGE_TOL = 1e-9


def ray_triangles(origin: np.ndarray, direction: np.ndarray,
                  tris: np.ndarray) -> float | None:
    """Smallest nonnegative ray parameter hitting any of tris, else None.

    tris is (m, 3, 3). direction need not be unit length; the returned t is
    in units of its length.
    """
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    e1 = tris[:, 1, :] - tris[:, 0, :]
    e2 = tris[:, 2, :] - tris[:, 0, :]
    pvec = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > 1e-30
    if not ok.any():
        return None
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = o - tris[:, 0, :]
    u = np.einsum("ij,ij->i", tvec, pvec) * inv
    qvec = np.cross(tvec, e1)
    v = (qvec @ d) * inv
    t = np.einsum("ij,ij->i", e2, qvec) * inv
    hit = (ok & (u >= -_EDGE_TOL) & (v >= -_EDGE_TOL)
           & (u + v <= 1.0 + _EDGE_TOL) & (t >= -1e-12))
    if not hit.any():
        return None
    return float(np.min(t[hit]))


def ray_mesh(origin: np.ndarray, direction: np.ndarray, mesh: TriMesh,
             pose: Pose3 | None = None) -> float | None:
    """First-hit parameter against a (optionally posed) mesh, else None."""
    tris = mesh.triangles()
    if pose is not None:
        tris = pose.apply(tris.reshape(-1, 3)).reshape(tris.shape)
    return ray_triangles(origin, direction, tris)


def footprint_half_extents(cam: Camera) -> tuple[float, float]:
    """Half the x and y extents of the camera's frustum, in mm, as the
    frozen renderers' coverage checks below read them."""
    return (cam.width_px * cam.pitch / 2.0, cam.height_px * cam.pitch / 2.0)


def render_depth_reference(scene: Scene, cam: Camera) -> DepthImage:
    """Frozen renderer: `render_depth` as it stood while it rasterised one
    triangle at a time, writing each covered pixel where its depth beat
    the buffer. `scene.render_depth` must return the same bytes."""
    half_x, half_y = footprint_half_extents(cam)
    if (half_x < scene.bin.inner_x / 2.0 - 1e-9
            or half_y < scene.bin.inner_y / 2.0 - 1e-9):
        raise DegenerateInput("camera frustum does not cover the bin interior")
    W, H = cam.width_px, cam.height_px
    zbuf = np.zeros((H, W), dtype=np.float64)   # floor plane z = 0

    groups = [bin_mesh(scene.bin).triangles()]
    for c in scene.cables:
        tris = c.mesh.triangles().reshape(-1, 3)
        groups.append(c.pose.apply(tris).reshape(-1, 3, 3))

    for tris in groups:
        for tri in tris:
            px, py = cam.world_to_px(tri[:, 0], tri[:, 1])
            x0 = max(0, int(np.ceil(px.min())))
            x1 = min(W - 1, int(np.floor(px.max())))
            y0 = max(0, int(np.ceil(py.min())))
            y1 = min(H - 1, int(np.floor(py.max())))
            if x1 < x0 or y1 < y0:
                continue
            gx, gy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
            # barycentric in pixel space
            ax, ay = px[0], py[0]
            v0 = np.array([px[1] - ax, py[1] - ay])
            v1 = np.array([px[2] - ax, py[2] - ay])
            den = v0[0] * v1[1] - v0[1] * v1[0]
            if abs(den) < 1e-12:
                continue
            qx = gx - ax
            qy = gy - ay
            u = (qx * v1[1] - qy * v1[0]) / den
            v = (qy * v0[0] - qx * v0[1]) / den
            inside = (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1.0 + 1e-9)
            if not inside.any():
                continue
            z = tri[0, 2] + u * (tri[1, 2] - tri[0, 2]) + v * (tri[2, 2] - tri[0, 2])
            zb = zbuf[y0:y1 + 1, x0:x1 + 1]
            sel = inside & (z > zb)
            zb[sel] = z[sel]

    depth = (cam.height - zbuf).astype(np.float32)
    return DepthImage(data=depth, pitch=cam.pitch)


def render_depth_boxes_reference(scene: Scene, cam: Camera) -> DepthImage:
    """Frozen bulk renderer: `render_depth` as it stood while it tested
    every pixel of each triangle's bounding box, in passes of up to 1 << 14
    box pixels. `scene.render_depth` must return the same bytes."""
    half_x, half_y = footprint_half_extents(cam)
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
    tri = np.stack([x0, y0, x1 - x0 + 1.0, ax, ay, v0x, v0y, v1x, v1y, den,
                    z[:, 0], z[:, 1] - z[:, 0], z[:, 2] - z[:, 0]])[:, keep]
    count = (tri[2] * (y1 - y0 + 1.0)[keep]).astype(np.int64)
    ends = np.cumsum(count)

    start = 0
    while start < len(count):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + (1 << 14), side="right")))
        n = count[start:stop]
        x0, y0, w, ax, ay, v0x, v0y, v1x, v1y, den = tri[:10, start:stop].repeat(n, axis=1)
        first = ends[start:stop] - n - base
        k = (np.arange(n.sum()) - first.repeat(n)).astype(np.float64)
        row = np.floor(k / w)
        gx = x0 + (k - row * w)
        gy = y0 + row
        qx = gx - ax
        qy = gy - ay
        u = (qx * v1y - qy * v1x) / den
        v = (qy * v0x - qx * v0y) / den
        inside = np.flatnonzero((u >= -1e-9) & (v >= -1e-9) & (u + v <= 1.0 + 1e-9))
        z0, dz1, dz2 = tri[10:, np.arange(start, stop).repeat(n)[inside]]
        z = z0 + u[inside] * dz1 + v[inside] * dz2
        np.fmax.at(zbuf, (gy[inside] * W + gx[inside]).astype(np.int64), z)
        start = stop

    depth = (cam.height - zbuf.reshape(H, W)).astype(np.float32)
    return DepthImage(data=depth, pitch=cam.pitch)


def add_noise_reference(img: DepthImage, rng: np.random.Generator, gauss_sigma: float,
                        salt_pepper_frac: float) -> DepthImage:
    """Frozen sensor noise: `add_noise` as it stood while each step formed a
    new image-sized array. `depthproc.add_noise` must return the same bytes
    and leave the rng in the same state."""
    data = img.data.astype(np.float64)
    if gauss_sigma > 0:
        data = data + rng.normal(0.0, gauss_sigma, size=data.shape)
    if salt_pepper_frac > 0:
        mask = rng.random(data.shape) < salt_pepper_frac
        fill = np.where(rng.random(data.shape) < 0.5, 0.0, PEPPER_VALUE)
        data = np.where(mask, fill, data)
    return DepthImage(data=np.clip(data, 0.0, None).astype(np.float32), pitch=img.pitch)



# ---------------------------------------------------------------------------
# Test fixtures: shapes, measures and inverses the library itself never needs.

def mesh_volume(mesh: TriMesh) -> float:
    """Signed volume by summing tetrahedra against the origin.

    Positive for outward-wound closed meshes.
    """
    a, b, c = (mesh.vertices[mesh.faces[:, k]] for k in range(3))
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def piece_contains(piece: ConvexPiece, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Half-space membership test for one point or an (n, 3) batch."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = pts @ piece.equations[:, :3].T + piece.equations[:, 3]
    return (d <= tol).all(axis=1)


def px_to_world(cam: Camera, px: np.ndarray, py: np.ndarray):
    """World (x, y) of pixel coordinates; the inverse of Camera.world_to_px."""
    x = (np.asarray(px) - (cam.width_px - 1) / 2.0) * cam.pitch
    y = ((cam.height_px - 1) / 2.0 - np.asarray(py)) * cam.pitch
    return x, y


def zeros_net(size: int) -> QualityNet:
    """A network whose every parameter is zero: it scores each patch 0.5."""
    shapes = init_net(size, np.random.default_rng(0)).params
    return QualityNet(size, [np.zeros_like(p) for p in shapes])


@contextmanager
def conv_cores(k: int):
    """The conv stages split as on a host with k usable cores: `_CORES` is k
    and the pool has k - 1 threads (one, unused, when k is 1)."""
    pool = ThreadPoolExecutor(max_workers=max(k - 1, 1))
    saved = model._CORES, model._POOL
    model._CORES, model._POOL = k, pool
    try:
        yield
    finally:
        model._CORES, model._POOL = saved
        pool.shutdown(wait=True)


def traced_peak_mib(call, cores: int) -> float:
    """Peak traced allocation of call(), in MiB, with the conv stages split
    over `cores` cores: each further core adds one chunk's temporaries."""
    with conv_cores(cores):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak / 2**20


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


# Frozen GJK kernel: keep its arithmetic exactly as is.
_REF_MAX_ITER = 128
_REF_EPS_ZERO = 1e-9          # |v| below this counts as touching
_REF_EPS_PROGRESS = 1e-12     # relative duality-gap termination


@dataclass(frozen=True)
class GjkResultReference:
    """The frozen kernel's answer, with its witness points formed eagerly."""
    distance: float
    point_a: np.ndarray
    point_b: np.ndarray
    converged: bool


def _ref_closest_on_segment(a: np.ndarray, b: np.ndarray):
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-30:
        return a, np.array([1.0]), [0]
    t = float(-(a @ ab) / denom)
    if t <= 0.0:
        return a, np.array([1.0]), [0]
    if t >= 1.0:
        return b, np.array([1.0]), [1]
    return a + t * ab, np.array([1.0 - t, t]), [0, 1]


def _ref_closest_on_triangle(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    # Ericson, Real-Time Collision Detection, 5.1.5 (query point = origin).
    ab = b - a
    ac = c - a
    d1 = float(-(a @ ab))
    d2 = float(-(a @ ac))
    if d1 <= 0.0 and d2 <= 0.0:
        return a, np.array([1.0]), [0]
    d3 = float(-(b @ ab))
    d4 = float(-(b @ ac))
    if d3 >= 0.0 and d4 <= d3:
        return b, np.array([1.0]), [1]
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        t = d1 / (d1 - d3)
        return a + t * ab, np.array([1.0 - t, t]), [0, 1]
    d5 = float(-(c @ ab))
    d6 = float(-(c @ ac))
    if d6 >= 0.0 and d5 <= d6:
        return c, np.array([1.0]), [2]
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        t = d2 / (d2 - d6)
        return a + t * ac, np.array([1.0 - t, t]), [0, 2]
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return b + t * (c - b), np.array([1.0 - t, t]), [1, 2]
    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    return a + ab * v + ac * w, np.array([1.0 - v - w, v, w]), [0, 1, 2]


def _ref_origin_in_tetra(a, b, c, d) -> bool:
    def same_side(p0, p1, p2, p3) -> bool:
        n = np.cross(p1 - p0, p2 - p0)
        return float(n @ (-p0)) * float(n @ (p3 - p0)) >= 0.0

    return (same_side(a, b, c, d) and same_side(a, c, d, b)
            and same_side(a, d, b, c) and same_side(b, d, c, a))


def _ref_closest_on_simplex(w: list[np.ndarray]):
    """Closest point of conv(w) to the origin: (point, lambdas, kept indices)."""
    k = len(w)
    if k == 1:
        return w[0], np.array([1.0]), [0]
    if k == 2:
        return _ref_closest_on_segment(w[0], w[1])
    if k == 3:
        return _ref_closest_on_triangle(w[0], w[1], w[2])
    if _ref_origin_in_tetra(w[0], w[1], w[2], w[3]):
        # Inside: distance zero. Recover lambdas for witness points.
        mat = np.vstack([np.column_stack(w), np.ones(4)])
        rhs = np.array([0.0, 0.0, 0.0, 1.0])
        lam, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        lam = np.clip(lam, 0.0, None)
        s = lam.sum()
        lam = lam / s if s > 0 else np.full(4, 0.25)
        return np.zeros(3), lam, [0, 1, 2, 3]
    faces = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    best = None
    for f in faces:
        p, lam, keep = _ref_closest_on_triangle(w[f[0]], w[f[1]], w[f[2]])
        d2 = float(p @ p)
        if best is None or d2 < best[0]:
            best = (d2, p, lam, [f[i] for i in keep])
    return best[1], best[2], best[3]


def gjk_world_reference(
    verts_a: np.ndarray,
    verts_b: np.ndarray,
    erosion_a: float = 0.0,
    erosion_b: float = 0.0,
    max_distance: float | None = None,
) -> GjkResultReference:
    """The GJK kernel in its plain numpy form; `gjk_world` must return
    the same bytes. Distance between conv(verts_a) and conv(verts_b),
    already in one frame.

    With max_distance set, returns early (converged, distance = proven lower
    bound) as soon as separation by more than max_distance is certain; use it
    for boolean "closer than r" queries.
    """
    va = np.asarray(verts_a, dtype=np.float64)
    vb = np.asarray(verts_b, dtype=np.float64)
    d = va.mean(axis=0) - vb.mean(axis=0)
    n = float(np.linalg.norm(d))
    d = d / n if n > 1e-12 else np.array([1.0, 0.0, 0.0])

    w_list: list[np.ndarray] = []
    pa_list: list[np.ndarray] = []
    pb_list: list[np.ndarray] = []
    prev_norm = np.inf
    stalled = 0

    for it in range(_REF_MAX_ITER):
        sa = va[int(np.argmax(va @ d))] - erosion_a * d
        sb = vb[int(np.argmax(vb @ (-d)))] + erosion_b * d
        w = sa - sb

        if w_list:
            v = -d * v_norm  # current closest point (d was set to -v/|v|)
            gap = v_norm * v_norm - float(v @ w)
            if gap <= max(_REF_EPS_PROGRESS * v_norm, 1e-14):
                lam_pa = sum(l * p for l, p in zip(lam, pa_list))
                lam_pb = sum(l * p for l, p in zip(lam, pb_list))
                return GjkResultReference(v_norm, lam_pa, lam_pb, True)
            lower = -float(w @ d)
            if max_distance is not None and lower > max_distance:
                return GjkResultReference(lower, sa, sb, True)
            if any(float(np.linalg.norm(w - q)) < 1e-12 for q in w_list):
                lam_pa = sum(l * p for l, p in zip(lam, pa_list))
                lam_pb = sum(l * p for l, p in zip(lam, pb_list))
                return GjkResultReference(v_norm, lam_pa, lam_pb, True)

        w_list.append(w)
        pa_list.append(sa)
        pb_list.append(sb)

        v, lam, keep = _ref_closest_on_simplex(w_list)
        w_list = [w_list[i] for i in keep]
        pa_list = [pa_list[i] for i in keep]
        pb_list = [pb_list[i] for i in keep]

        v_norm = float(np.linalg.norm(v))
        if v_norm < _REF_EPS_ZERO:
            pa = sum(l * p for l, p in zip(lam, pa_list))
            pb = sum(l * p for l, p in zip(lam, pb_list))
            return GjkResultReference(0.0, pa, pb, True)
        # No measurable progress twice in a row: at the numerical optimum.
        if prev_norm - v_norm <= 1e-13 * max(1.0, v_norm):
            stalled += 1
            if stalled >= 2:
                pa = sum(l * p for l, p in zip(lam, pa_list))
                pb = sum(l * p for l, p in zip(lam, pb_list))
                return GjkResultReference(v_norm, pa, pb, True)
        else:
            stalled = 0
        prev_norm = v_norm
        d = -v / v_norm

    warnings.warn("GJK hit the iteration cap; distance is best-effort", ConvergenceWarning)
    pa = sum(l * p for l, p in zip(lam, pa_list))
    pb = sum(l * p for l, p in zip(lam, pb_list))
    return GjkResultReference(v_norm, pa, pb, False)


# ---------------------------------------------------------------------------
# Frozen quality-network pass: the forward and backward pass as they stood
# before conv1's input gradient was dropped. `model._forward_batch` and
# `model._backward_batch` must return the same bytes.

def _ref_conv_cols(x: np.ndarray) -> np.ndarray:
    """im2col for 3x3 stride-1 same-padding: (N,C,H,W) -> (N, C*9, H*W)."""
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(padded, (3, 3), axis=(2, 3))   # (N,C,H,W,3,3)
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * 9, h * w)
    return np.ascontiguousarray(cols)


def _ref_conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    n, _, h, wd = x.shape
    co = w.shape[0]
    cols = _ref_conv_cols(x)
    out = np.matmul(w.reshape(co, -1), cols)
    out = out.reshape(n, co, h, wd) + b[None, :, None, None]
    return out, cols


def _ref_conv_backward(dy: np.ndarray, cols: np.ndarray, w: np.ndarray):
    n, co, h, wd = dy.shape
    ci = w.shape[1]
    dyf = dy.reshape(n, co, h * wd)
    dw = np.matmul(dyf, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    db = dy.sum(axis=(0, 2, 3))
    # dX of a same-padded correlation is a same-padded correlation with the
    # spatially flipped, channel-transposed kernel
    w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    dx, _ = _ref_conv_forward(dy, np.ascontiguousarray(w_flip), np.zeros(ci))
    return dx, dw, db


def _ref_depthwise_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(padded, (3, 3), axis=(2, 3))
    out = np.einsum("nchwij,cij->nchw", win, w, optimize=True) + b[None, :, None, None]
    return out, win


def _ref_depthwise_backward(dy: np.ndarray, win: np.ndarray, x_shape, w: np.ndarray):
    dw = np.einsum("nchwij,nchw->cij", win, dy, optimize=True)
    db = dy.sum(axis=(0, 2, 3))
    dx, _ = _ref_depthwise_forward(dy, w[:, ::-1, ::-1], np.zeros(w.shape[0]))
    return dx, dw, db


_REF_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _ref_pool_forward(x: np.ndarray):
    """2x2 stride-2 max pool; the memo records the winning quadrant.

    Ties break toward the lowest quadrant index so exactly one input cell
    receives the gradient.
    """
    quads = [x[:, :, dy::2, dx::2] for dy, dx in _REF_QUADRANTS]
    out = quads[0].copy()
    arg = np.zeros(out.shape, dtype=np.int8)
    for k in (1, 2, 3):
        better = quads[k] > out
        np.copyto(out, quads[k], where=better)
        arg[better] = k
    return out, (arg, x.shape)


def _ref_pool_backward(dy: np.ndarray, memo):
    arg, shape = memo
    dx = np.zeros(shape)
    for k, (qy, qx) in enumerate(_REF_QUADRANTS):
        dx[:, :, qy::2, qx::2] = np.where(arg == k, dy, 0.0)
    return dx


def forward_batch_reference(net: QualityNet, x: np.ndarray):
    """Logits plus the cache needed for one backward pass; x is (N, S, S)."""
    p = [a.astype(np.float64) for a in net.params]
    cache = {"acts": [], "p": p}
    h = x.astype(np.float64)[:, None, :, :]
    for i in range(3):
        w, b = p[2 * i], p[2 * i + 1]
        z, cols = _ref_conv_forward(h, w, b)
        mask = z > 0
        h, pool_memo = _ref_pool_forward(z * mask)
        cache["acts"].append((cols, mask, pool_memo))
    z, win = _ref_depthwise_forward(h, p[6], p[7])
    dw_mask = z > 0
    hd = z * dw_mask
    zp = np.einsum("nchw,kc->nkhw", hd, p[8], optimize=True) + p[9][None, :, None, None]
    pw_mask = zp > 0
    hp = zp * pw_mask
    pooled = hp.mean(axis=(2, 3))
    logits = pooled @ p[10] + p[11][0]
    cache.update(h_in=h, win=win, dw_mask=dw_mask, hd=hd, pw_mask=pw_mask,
                 hp_shape=hp.shape, pooled=pooled)
    return logits, cache


def backward_batch_reference(dlogits: np.ndarray, cache):
    p = cache["p"]
    grads = [None] * len(p)
    pooled = cache["pooled"]
    grads[10] = pooled.T @ dlogits
    grads[11] = np.array([dlogits.sum()])
    dpooled = dlogits[:, None] * p[10][None, :]
    n, c, hh, ww = cache["hp_shape"]
    dhp = np.broadcast_to(dpooled[:, :, None, None], (n, c, hh, ww)) / (hh * ww)
    dzp = dhp * cache["pw_mask"]
    grads[8] = np.einsum("nkhw,nchw->kc", dzp, cache["hd"], optimize=True)
    grads[9] = dzp.sum(axis=(0, 2, 3))
    dhd = np.einsum("nkhw,kc->nchw", dzp, p[8], optimize=True)
    dz = dhd * cache["dw_mask"]
    dh, grads[6], grads[7] = _ref_depthwise_backward(dz, cache["win"],
                                                     cache["h_in"].shape, p[6])
    for i in reversed(range(3)):
        cols, mask, pool_memo = cache["acts"][i]
        dz = _ref_pool_backward(dh, pool_memo) * mask
        dh, grads[2 * i], grads[2 * i + 1] = _ref_conv_backward(dz, cols, p[2 * i])
    return grads


def forward_backward_reference(net: QualityNet, x: np.ndarray, dlogits_of):
    """Logits of the batch x and the 12 parameter gradients for the logit
    gradient `dlogits_of(logits)`, by the frozen pass."""
    logits, cache = forward_batch_reference(net, x)
    return logits, backward_batch_reference(dlogits_of(logits), cache)


# ---------------------------------------------------------------------------
# Frozen flip augmentation: one (patch, label) sample in, four out, each
# flip a new Patch. `model.augment` on the stacked training block must give
# the same bytes in the same order.

def _ref_flip_patch(patch: Patch, horizontal: bool, vertical: bool) -> Patch:
    data = patch.data
    if horizontal:
        data = data[:, ::-1]
    if vertical:
        data = data[::-1, :]
    return Patch(data=np.ascontiguousarray(data), pitch=patch.pitch)


def augment_reference(sample: tuple[Patch, int]) -> list[tuple[Patch, int]]:
    """Original plus horizontal, vertical, and double flip."""
    patch, label = sample
    return [sample] + [(_ref_flip_patch(patch, h, v), label)
                       for h, v in ((True, False), (False, True), (True, True))]


# ---------------------------------------------------------------------------
# Frozen grasp sampler: `sample_grasps` with its filter, edge, normal, crop
# and friction-cone steps as they stood while each ran as a Python loop over
# offsets, pixels, points and trials. `sampler.sample_grasps` must return the
# same bytes and leave the rng in the same state.

@dataclass(frozen=True)
class _RefEdgePoint:
    x: int
    y: int
    depth: float
    grad: np.ndarray
    normal: np.ndarray | None = None


def _ref_bilateral_filter(img: DepthImage, spatial_sigma: float, range_sigma: float) -> DepthImage:
    if spatial_sigma <= 0 or range_sigma <= 0:
        raise DegenerateInput("sigmas must be positive")
    r = int(np.ceil(3.0 * spatial_sigma))
    src = img.data.astype(np.float64)
    padded = np.pad(src, r, mode="edge")
    acc = np.zeros_like(src)
    wsum = np.zeros_like(src)
    h, w = src.shape
    inv_2ss = 1.0 / (2.0 * spatial_sigma ** 2)
    inv_2rs = 1.0 / (2.0 * range_sigma ** 2)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            shifted = padded[r + dy:r + dy + h, r + dx:r + dx + w]
            wgt = np.exp(-(dx * dx + dy * dy) * inv_2ss
                         - (shifted - src) ** 2 * inv_2rs)
            acc += wgt * shifted
            wsum += wgt
    return DepthImage(data=(acc / wsum).astype(np.float32), pitch=img.pitch)


def _ref_detect_edges(img: DepthImage, grad_threshold: float) -> list[_RefEdgePoint]:
    if grad_threshold <= 0:
        raise DegenerateInput("threshold must be positive")
    d = img.data.astype(np.float64)
    gx = np.zeros_like(d)
    gy = np.zeros_like(d)
    gx[:, 1:-1] = (d[:, 2:] - d[:, :-2]) * 0.5
    gy[1:-1, :] = (d[2:, :] - d[:-2, :]) * 0.5
    mag = np.hypot(gx, gy)
    ys, xs = np.nonzero(mag >= grad_threshold)
    h, w = d.shape
    out: list[_RefEdgePoint] = []
    for y, x in zip(ys, xs):
        if x == 0 or x == w - 1 or y == 0 or y == h - 1:
            continue
        # Step along the dominant gradient axis, toward larger depth.
        if abs(gx[y, x]) >= abs(gy[y, x]):
            dx, dy = (1, 0) if gx[y, x] > 0 else (-1, 0)
        else:
            dx, dy = (0, 1) if gy[y, x] > 0 else (0, -1)
        forward = d[y + dy, x + dx] - d[y, x]
        backward = d[y, x] - d[y - dy, x - dx]
        # Near side faces the jump: most of the discontinuity ahead of us.
        if forward >= backward:
            out.append(_RefEdgePoint(x=int(x), y=int(y), depth=float(d[y, x]),
                                     grad=np.array([gx[y, x], gy[y, x]])))
    return out


def _ref_estimate_normals(edges: list[_RefEdgePoint], radius: float = 5.0) -> list[_RefEdgePoint]:
    if radius < 2:
        raise DegenerateInput("radius must be >= 2 px")
    if not edges:
        return []
    pts = np.array([[e.x, e.y] for e in edges], dtype=np.float64)
    tree = cKDTree(pts)
    neighbor_lists = tree.query_ball_point(pts, r=radius)
    out: list[_RefEdgePoint] = []
    for i, e in enumerate(edges):
        nbrs = neighbor_lists[i]
        if len(nbrs) - 1 < 3:
            continue
        local = pts[nbrs] - pts[nbrs].mean(axis=0)
        cov = local.T @ local
        evals, evecs = np.linalg.eigh(cov)
        tangent = evecs[:, int(np.argmax(evals))]
        normal = np.array([-tangent[1], tangent[0]])
        if normal @ e.grad < 0:
            normal = -normal
        n = np.linalg.norm(normal)
        if n < 1e-12:
            continue
        out.append(_RefEdgePoint(x=e.x, y=e.y, depth=e.depth, grad=e.grad,
                                 normal=normal / n))
    return out


def _ref_crop_rotated(img: DepthImage, center: tuple[float, float], theta: float,
                      out_size: int) -> Patch:
    cx, cy = center
    if not (0 <= cx < img.width and 0 <= cy < img.height):
        raise DegenerateInput("center outside image")
    half = (out_size - 1) / 2.0
    u = np.arange(out_size) - half          # along grasp axis
    v = np.arange(out_size) - half
    uu, vv = np.meshgrid(u, v, indexing="xy")
    ct, st = np.cos(theta), np.sin(theta)
    src_x = cx + uu * ct - vv * st
    src_y = cy + uu * st + vv * ct
    floor = float(img.data.max())
    sampled = map_coordinates(img.data.astype(np.float64),
                              np.stack([src_y.ravel(), src_x.ravel()]),
                              order=1, mode="constant", cval=floor)
    sampled = sampled.reshape(out_size, out_size)
    center_depth = map_coordinates(img.data.astype(np.float64),
                                   np.array([[cy], [cx]]), order=1,
                                   mode="constant", cval=floor)[0]
    return Patch(data=(sampled - center_depth).astype(np.float32), pitch=img.pitch)


@dataclass(frozen=True)
class ContactPair:
    """Opposing contact candidates in the image plane.

    c1/c2 are pixel coordinates, d1/d2 their depths; n1/n2 unit in-plane
    surface normals pointing off the near surface; g1 the unit closing
    direction from c1 toward c2 and g2 its negation.
    """

    c1: np.ndarray
    c2: np.ndarray
    d1: float
    d2: float
    n1: np.ndarray
    n2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


def force_closure_check_reference(pair: ContactPair, f: float) -> bool:
    """The friction-cone test for one pair, with its `math.acos`."""
    if f <= 0.0:
        raise DegenerateInput("friction must be positive")
    limit = math.atan(f)
    for n, g in ((pair.n1, pair.g1), (pair.n2, pair.g2)):
        cos_a = float(np.clip(-(n @ g), -1.0, 1.0))
        if math.acos(cos_a) >= limit:
            return False
    return True


def _ref_estimate_grasp_width(pair: ContactPair, pitch: float) -> float:
    d = float(np.linalg.norm(np.asarray(pair.c2, float) - np.asarray(pair.c1, float)))
    if d == 0.0:
        raise DegenerateInput("coincident contacts")
    return d * pitch


def _ref_grasp_from_pair(pair: ContactPair, img: DepthImage, cfg: SamplerConfig) -> GraspPose:
    c1 = np.asarray(pair.c1, float)
    c2 = np.asarray(pair.c2, float)
    mid = (c1 + c2) / 2.0
    x = (mid[0] - (img.width - 1) / 2.0) * img.pitch
    y = ((img.height - 1) / 2.0 - mid[1]) * img.pitch
    surface = cfg.camera_height - min(pair.d1, pair.d2)
    z = max(surface - ENGAGE_DEPTH, 0.0)
    v = c2 - c1
    # canonical half-plane so c1/c2 swap folds to the identical angle
    if v[1] > 0.0 or (v[1] == 0.0 and v[0] < 0.0):
        v = -v
    theta = math.atan2(-v[1], v[0])             # image y runs downward
    return GraspPose(x=x, y=y, z=z, theta=theta,
                     w=_ref_estimate_grasp_width(pair, img.pitch))


def _ref_crop_for(pair: ContactPair, pose: GraspPose, img: DepthImage,
                  cfg: SamplerConfig) -> Patch:
    mid = (np.asarray(pair.c1, float) + np.asarray(pair.c2, float)) / 2.0
    # crop angle is in pixel axes; world theta flips the y sense
    return _ref_crop_rotated(img, (mid[0], mid[1]), -pose.theta, cfg.patch_size)


def sample_grasps_reference(img: DepthImage, cfg: SamplerConfig,
                            rng: np.random.Generator) -> list[tuple[GraspPose, Patch]]:
    """The grasp sampler in its per-item loop form, one `ContactPair` per
    trial; `sample_grasps` must return the same (pose, patch) candidates and
    draw the same numbers from rng."""
    proc = downsample(img, cfg.downsample_factor)
    proc = _ref_bilateral_filter(proc, BILATERAL_SPATIAL, BILATERAL_RANGE)
    edges = _ref_estimate_normals(_ref_detect_edges(proc, GRAD_THRESHOLD), NORMAL_RADIUS)
    if len(edges) < 2:
        raise NoCandidates("fewer than two edge points")

    pts = np.array([[e.x, e.y] for e in edges], dtype=np.float64)
    depths = np.array([e.depth for e in edges])
    normals = np.array([e.normal for e in edges])

    out: list[tuple[GraspPose, Patch]] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(MAX_PAIR_TRIALS):
        if len(out) >= cfg.n:
            break
        i, j = (int(k) for k in rng.integers(0, len(edges), size=2))
        if i == j:
            continue
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            continue
        seen.add((i, j))
        v = pts[j] - pts[i]
        width = float(np.linalg.norm(v)) * proc.pitch
        if width > W_MAX or width < MIN_PAIR_SEPARATION:
            continue
        if abs(depths[i] - depths[j]) > DEPTH_PAIR_TOL:
            continue
        g1 = v / np.linalg.norm(v)
        pair = ContactPair(c1=pts[i].copy(), c2=pts[j].copy(),
                           d1=float(depths[i]), d2=float(depths[j]),
                           n1=normals[i].copy(), n2=normals[j].copy(),
                           g1=g1, g2=-g1)
        if not force_closure_check_reference(pair, cfg.f):
            continue
        pose = _ref_grasp_from_pair(pair, proc, cfg)
        out.append((pose, _ref_crop_for(pair, pose, proc, cfg)))

    if not out:
        raise NoCandidates("no force-closure pair found")
    out.sort(key=lambda t: (t[0].z, t[0].x, t[0].y))
    return out


# ---------------------------------------------------------------------------
# Frozen settling: `settle_scene` with its drop, advancement, blocking-pair,
# contact and penetration steps as they stood while each lift of a topple
# re-found its blocking pairs and each query flattened its pieces afresh.
# Every kernel query goes to `distance`, a callable with `gjk_world`'s
# signature and result that `settle_scene_reference` hands down to each step
# (by default the frozen kernel), so a kernel change passes another
# `distance` instead of re-freezing the scheduler. On the default,
# `scene.settle_scene` must place every cable at the same pose bytes. It has
# no penetration pass: the pass moves a rest only at a penetration above 0,
# which conservative advancement never leaves.

OVERLAP_TOL = 2.0        # mm; scene invariant on pairwise penetration


class _RefWorldBody:
    """Pre-transformed piece vertex arrays with AABBs, for fast queries."""

    def __init__(self, pieces: list[ConvexPiece], pose: Pose3 | None = None):
        if pose is None:
            self.verts = [p.vertices for p in pieces]
        else:
            self.verts = [pose.apply(p.vertices) for p in pieces]
        self.lo = np.array([v.min(axis=0) for v in self.verts])
        self.hi = np.array([v.max(axis=0) for v in self.verts])

    def shifted(self, dz: float) -> "_RefWorldBody":
        out = _RefWorldBody.__new__(_RefWorldBody)
        off = np.array([0.0, 0.0, dz])
        out.verts = [v + off for v in self.verts]
        out.lo = self.lo + off
        out.hi = self.hi + off
        return out

    @property
    def aabb_lo(self) -> np.ndarray:
        return self.lo.min(axis=0)

    @property
    def aabb_hi(self) -> np.ndarray:
        return self.hi.max(axis=0)


def _ref_xy_distance(va: np.ndarray, vb: np.ndarray, distance) -> float:
    """Separation of the xy projections (shapes flattened onto z = 0)."""
    fa = np.column_stack([va[:, :2], np.zeros(len(va))])
    fb = np.column_stack([vb[:, :2], np.zeros(len(vb))])
    return distance(fa, fb, max_distance=2.0 * CONTACT_EPS).distance


def _ref_blocking_pairs(body: _RefWorldBody, statics: list[_RefWorldBody], distance):
    """Piece pairs that can obstruct straight-down motion of the body.

    A pair whose xy projections stay separated never collides under
    vertical translation, so only projection-overlapping pairs are kept.
    The body's xy extent does not change while it falls, so the list is
    valid for the whole drop.
    """
    pairs = []
    for st in statics:
        overlap = ~((body.hi[:, None, :2] < st.lo[None, :, :2] - CONTACT_EPS).any(axis=2)
                    | (body.lo[:, None, :2] > st.hi[None, :, :2] + CONTACT_EPS).any(axis=2))
        for i, j in np.argwhere(overlap):
            if _ref_xy_distance(body.verts[i], st.verts[j], distance) <= CONTACT_EPS:
                pairs.append((int(i), st, int(j)))
    return pairs


def _ref_pairs_min_distance(body: _RefWorldBody, pairs, cap: float, distance) -> float:
    """Min separation over the blocking pairs, early-exiting past cap."""
    best = cap
    for i, st, j in pairs:
        # vertical gap already exceeding the working bound
        if body.lo[i, 2] > st.hi[j, 2] + best or body.hi[i, 2] < st.lo[j, 2] - best:
            continue
        r = distance(body.verts[i], st.verts[j], max_distance=best)
        if r.distance < best:
            best = r.distance
        if best <= 0.0:
            return 0.0
    return best


def _ref_contact_points(body: _RefWorldBody, statics: list[_RefWorldBody],
                    tol: float, distance=gjk_world_reference) -> list[np.ndarray]:
    """Contact points between the body and its supports.

    Besides the closest-point witness of each touching pair, body
    vertices lying within tol of the support are added, so a flat-on-flat
    rest reports the extremes of its true support region, not just one
    interior point (the toppling pivot must be the region's edge)."""
    pts = []
    for st in statics:
        for i in range(len(body.verts)):
            for j in range(len(st.verts)):
                if (body.lo[i] > st.hi[j] + 2 * tol).any() or (body.hi[i] < st.lo[j] - 2 * tol).any():
                    continue
                r = distance(body.verts[i], st.verts[j], max_distance=4 * tol)
                if r.distance > tol:
                    continue
                pts.append(0.5 * (r.point_a + r.point_b))
                near = ((body.verts[i] >= st.lo[j] - 2 * tol)
                        & (body.verts[i] <= st.hi[j] + 2 * tol)).all(axis=1)
                for v in body.verts[i][near]:
                    if distance(v[None, :], st.verts[j], max_distance=2 * tol).distance <= tol:
                        pts.append(v)
    return pts


def _ref_support_analysis(com: np.ndarray, contacts: list[np.ndarray]):
    """Distance from the center of mass to the support polygon in the
    horizontal plane, plus the tipping element (the nearest boundary
    edge or vertex, as 3D contact points) when the mass sits outside."""
    if len(contacts) == 0:
        return np.inf, []
    pts3 = np.array(contacts)
    com_xy = com[:2]
    xy = pts3[:, :2]
    pts_idx = list(range(len(pts3)))
    hull = hull_2d(xy) if len(pts3) >= 3 else None
    if hull is not None:
        eq, vertices = hull
        if (eq[:, :2] @ com_xy + eq[:, 2] <= 1e-12).all():
            return 0.0, []
        pts_idx = [int(v) for v in vertices]
    best = np.inf
    tip: list[np.ndarray] = []
    for i in pts_idx:
        d = float(np.linalg.norm(com_xy - xy[i]))
        if d < best:
            best, tip = d, [pts3[i]]
    for a in range(len(pts_idx)):
        for b in range(a + 1, len(pts_idx)):
            i, j = pts_idx[a], pts_idx[b]
            d, t = _ref_point_segment_closest(com_xy, xy[i], xy[j])
            if d < best:
                best = d
                tip = [pts3[i], pts3[j]] if 0.0 < t < 1.0 else [pts3[i] if t <= 0 else pts3[j]]
    return best, tip


def _ref_point_segment_closest(p, a, b) -> tuple[float, float]:
    ab = b - a
    den = float(ab @ ab)
    if den < 1e-24:
        return float(np.linalg.norm(p - a)), 0.0
    t = float(np.clip(float((p - a) @ ab) / den, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab))), t


def _ref_tip_rotation(com: np.ndarray, tip: list[np.ndarray], angle: float) -> Pose3 | None:
    """Rigid rotation about the tipping element that lowers the center of
    mass, or None when the geometry is degenerate."""
    p = tip[0]
    if len(tip) == 2:
        axis = tip[1] - tip[0]
        n = np.linalg.norm(axis)
        if n < 1e-9:
            return None
        axis = axis / n
    else:
        u = com - p
        if np.hypot(u[0], u[1]) < 1e-9:
            return None
        axis = np.array([-u[1], u[0], 0.0])
        axis /= np.linalg.norm(axis)
    # choose the rotation sense that moves the mass center downward
    vz = float(np.cross(axis, com - p)[2])
    if abs(vz) < 1e-12:
        return None
    rot = Pose3.from_axis_angle(axis, -math.copysign(angle, vz))
    # conjugate so the axis passes through the contact point p
    return Pose3(p - rot.apply(p[None])[0], (1.0, 0.0, 0.0, 0.0)).compose(rot)


def _ref_advance_down(pieces: list[ConvexPiece], rotation: np.ndarray,
                  cx: float, cy: float, z: float, statics: list[_RefWorldBody], distance):
    """Conservative advancement straight down from z: each step moves by
    the current minimum separation, which vertical motion cannot
    overshoot, so the body never penetrates. Returns (body, pose) resting
    within CONTACT_EPS, or None when advancement fails to reach contact."""
    body = _RefWorldBody(pieces, Pose3((cx, cy, z), rotation))
    pairs = _ref_blocking_pairs(body, statics, distance)
    d = np.inf
    for it in range(128):
        d = _ref_pairs_min_distance(body, pairs, body.aabb_lo[2], distance)
        if d <= CONTACT_EPS:
            # a start already in contact cannot be certified overlap-free
            if it == 0:
                return None
            break
        step = d - 0.5 * CONTACT_EPS
        body = body.shifted(-step)
        z -= step
    if d > CONTACT_EPS:
        return None
    return body, Pose3(np.array([cx, cy, z]), rotation)


def _ref_drop(pieces: list[ConvexPiece], rotation: np.ndarray, cx: float, cy: float,
          statics: list[_RefWorldBody], distance):
    """Advancement drop starting above everything already placed."""
    base = _RefWorldBody(pieces, Pose3((cx, cy, 0.0), rotation))
    top = max(s.aabb_hi[2] for s in statics)
    return _ref_advance_down(pieces, rotation, cx, cy,
                         top - base.aabb_lo[2] + 5.0, statics, distance)


def settle_scene_reference(bin_spec: BinSpec, cable_specs: list[CableSpec],
                 seed: int, moves: int = 64, distance=gjk_world_reference) -> Scene:
    """Drop cables one at a time at random (x, y, yaw) until each rests in
    contact and supported; raises Overfilled after 50 failed attempts for
    any single cable. Same seed, same scene. Every kernel query goes to
    `distance`. `settle_scene` must return the same bytes, at a topple cap
    of `moves` on both sides.

    After first contact the cable topples quasi-statically: it pivots
    about its support edge or point, re-drops, and keeps the move only
    when its center of mass strictly descends, until the support polygon
    brackets the mass center, no descent is possible or `moves` moves
    were kept.
    """
    if not 1 <= len(cable_specs) <= 30:
        raise DegenerateInput("cable count must be in [1, 30]")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    statics = [_RefWorldBody(bin_pieces(bin_spec))]
    placed: list[PlacedCable] = []
    lo_fp, hi_fp = bin_spec.footprint()

    for cable_id, spec in enumerate(cable_specs):
        mesh = make_cable_mesh(spec, rng)
        pieces = cable_decomposition(mesh, spec.tube_sides)
        centroid = mesh.centroid()

        pose = None
        for _ in range(50):
            yaw = rng.uniform(0.0, 2.0 * math.pi)
            yawed = _RefWorldBody(pieces, Pose3.from_yaw(yaw))
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

            dropped = _ref_drop(pieces, Pose3.from_yaw(yaw).rotation, cx, cy, statics, distance)
            if dropped is None:
                continue
            body, cur = dropped

            # gravity-driven rolling to a supported rest: rotate about
            # the support edge or point, then re-seat with a small lift
            # and vertical advancement (absorbs the slight surface dip a
            # discrete pivot causes without losing the pivot locality);
            # only moves that strictly lower the mass center are kept
            for _ in range(moves):
                contacts = _ref_contact_points(body, statics, SUPPORT_TOL, distance)
                com = cur.apply(centroid)
                fd, tip = _ref_support_analysis(com, contacts)
                if not tip:
                    break  # mass center strictly inside the support
                moved = False
                for angle_deg in (6.0, 3.0, 1.5, 0.5, 0.15):
                    tipped = _ref_tip_rotation(com, tip, math.radians(angle_deg))
                    if tipped is None:
                        break
                    cand = tipped.compose(cur)
                    seated = None
                    for lift in (1.0, 4.0, 16.0):
                        seated = _ref_advance_down(pieces, cand.rotation,
                                               cand.translation[0], cand.translation[1],
                                               cand.translation[2] + lift, statics, distance)
                        if seated is not None:
                            break
                    if seated is None:
                        continue
                    cand_body, cand_pose = seated
                    if not _inside_footprint(cand_body, lo_fp, hi_fp):
                        continue
                    if cand_pose.apply(centroid)[2] < com[2] - 1e-6:
                        body, cur, moved = cand_body, cand_pose, True
                        break
                if not moved:
                    break

            # two perturbation passes: a random tilt is kept only when it
            # strictly reduces the deepest penetration, so a contact-only
            # rest (zero penetration) consumes the draws and keeps its pose
            pen0 = _ref_penetration(body, statics, distance)
            for _ in range(2):
                axis = rng.normal(size=3)
                angle = math.radians(rng.uniform(0.0, 5.0))
                if pen0 <= 0.0:
                    continue
                tilt = Pose3.from_axis_angle(axis, angle)
                cand = Pose3(cur.translation,
                             tilt.compose(Pose3((0, 0, 0), cur.rotation)).rotation)
                cand_body = _RefWorldBody(pieces, cand)
                if not _inside_footprint(cand_body, lo_fp, hi_fp):
                    continue
                pen = _ref_penetration(cand_body, statics, distance)
                if pen < pen0:
                    cur, body, pen0 = cand, cand_body, pen

            contacts = _ref_contact_points(body, statics, SUPPORT_TOL, distance)
            com = cur.apply(centroid)
            fd, _ = _ref_support_analysis(com, contacts)
            # reject rests poking above the rim: keeps piles physical and
            # rendered depth within its contract band
            rim = bin_spec.wall_height + 2.0 * spec.radius
            if contacts and fd <= spec.radius and body.aabb_hi[2] <= rim:
                pose = cur
                break
        if pose is None:
            raise Overfilled(f"cable {cable_id} found no resting pose in 50 attempts")

        placed.append(PlacedCable(id=cable_id, spec=spec, mesh=mesh,
                                  pieces=pieces, pose=pose))
        statics.append(_RefWorldBody(pieces, pose))

    return Scene(bin=bin_spec, cables=placed, rng_seed=seed)


def _ref_penetration(body: _RefWorldBody, statics: list[_RefWorldBody],
                     distance=gjk_world_reference) -> float:
    """Deepest pairwise penetration, by bisecting the erosion radius that
    separates the pair (0 when nothing is in contact)."""
    worst = 0.0
    for st in statics:
        for i in range(len(body.verts)):
            for j in range(len(st.verts)):
                if (body.lo[i] > st.hi[j]).any() or (body.hi[i] < st.lo[j]).any():
                    continue
                if distance(body.verts[i], st.verts[j]).distance > 0.0:
                    continue
                lo, hi = 0.0, OVERLAP_TOL * 2.0
                for _ in range(6):
                    mid = 0.5 * (lo + hi)
                    if distance(body.verts[i], st.verts[j],
                                erosion_a=mid / 2, erosion_b=mid / 2).distance > 0.0:
                        hi = mid
                    else:
                        lo = mid
                worst = max(worst, hi)
    return worst


# Frozen grasp oracle: `execute_grasp` as it stood while each call posed the
# bin and every cable piece into the world frame afresh (`_RefBody`), on the
# live GJK kernel, jaw boxes and face-normal pick. `simlab.execute_grasp`
# reads `Scene.bodies` instead and must give the same label, reason and
# contacted ids.

class _RefBody:
    """One world-frame convex piece with its owner (-1 = bin)."""

    __slots__ = ("owner", "verts", "equations", "lo", "hi")

    def __init__(self, owner: int, verts: np.ndarray, equations: np.ndarray):
        self.owner = owner
        self.verts = verts
        self.equations = equations
        self.lo = verts.min(axis=0)
        self.hi = verts.max(axis=0)


def _ref_scene_bodies(scene: Scene) -> list[_RefBody]:
    bodies = [_RefBody(-1, p.vertices, p.equations) for p in bin_pieces(scene.bin)]
    for cable in scene.cables:
        rot = cable.pose.matrix()
        t = cable.pose.translation
        for piece in cable.pieces:
            verts = cable.pose.apply(piece.vertices)
            normals = piece.equations[:, :3] @ rot.T
            offsets = piece.equations[:, 3] - normals @ t
            bodies.append(_RefBody(cable.id, verts, np.column_stack([normals, offsets])))
    return bodies


def _ref_overlaps(lo_a, hi_a, body: _RefBody, pad: float = 0.0) -> bool:
    return bool(((lo_a - pad) <= body.hi).all() and ((hi_a + pad) >= body.lo).all())


def _ref_close_jaw(g: GraspPose, side: float, a_start: float, bodies: list[_RefBody]):
    first = _jaw_verts(g, side, a_start)
    last = _jaw_verts(g, side, 0.0)
    lo = np.minimum(first.min(axis=0), last.min(axis=0))
    hi = np.maximum(first.max(axis=0), last.max(axis=0))
    near = [b for b in bodies if _ref_overlaps(lo, hi, b, pad=CONTACT_TOL)]
    if not near:
        return []

    def probe(a: float):
        jaw = _jaw_verts(g, side, a)
        return [(b, gjk_world(jaw, b.verts, max_distance=a_start + 1.0)) for b in near]

    a = a_start
    results = probe(a)
    for _ in range(_CLOSE_ITER_CAP):
        dmin = min(r.distance for _, r in results)
        if dmin <= CONTACT_TOL:
            return [(b, r) for b, r in results if r.distance <= CONTACT_TOL]
        step = dmin - CONTACT_TOL / 2.0
        if a - step <= 0.0:
            results = probe(0.0)
            return [(b, r) for b, r in results if r.distance <= CONTACT_TOL]
        a -= step
        results = probe(a)
    dmin = min(r.distance for _, r in results)
    return [(b, r) for b, r in results if r.distance <= dmin + CONTACT_TOL]


def execute_grasp_reference(scene: Scene, g: GraspPose, f: float) -> GraspOutcome:
    if f <= 0.0:
        raise DegenerateInput("friction coefficient must be positive")
    bodies = _ref_scene_bodies(scene)
    u, _ = _grasp_axes(g.theta)
    w_open = g.w + OPEN_CLEARANCE
    top_z = max(b.hi[2] for b in bodies) + 1.0

    for side in (1.0, -1.0):
        sweep = _jaw_verts(g, side, w_open / 2.0, z_top=top_z + FINGER_LENGTH)
        lo, hi = sweep.min(axis=0), sweep.max(axis=0)
        for b in bodies:
            if not _ref_overlaps(lo, hi, b):
                continue
            if gjk_world(sweep, b.verts, max_distance=1.0).distance <= _TOUCH:
                return GraspOutcome(0, "approach_collision", frozenset())

    contacts = {side: _ref_close_jaw(g, side, w_open / 2.0, bodies)
                for side in (1.0, -1.0)}
    ids = {b.owner for side in contacts for b, _ in contacts[side] if b.owner >= 0}
    if not ids:
        return GraspOutcome(0, "empty_close", frozenset())
    if len(ids) >= 2:
        return GraspOutcome(0, "multi_object", frozenset(ids))
    cid = next(iter(ids))

    limit = math.atan(f)
    for side in (1.0, -1.0):
        on_cable = [(b, r) for b, r in contacts[side] if b.owner == cid]
        if not on_cable:
            return GraspOutcome(0, "no_force_closure", frozenset(ids))
        body, res = min(on_cable, key=lambda t: t[1].distance)
        normal = _face_normal(body.equations, res.point_b, side * u)
        cos_a = float(np.clip(normal @ (side * u), -1.0, 1.0))
        if math.acos(cos_a) >= limit:
            return GraspOutcome(0, "no_force_closure", frozenset(ids))

    lift = top_z + FINGER_LENGTH
    shift = np.array([0.0, 0.0, lift])
    for held in (b for b in bodies if b.owner == cid):
        swept = np.vstack([held.verts, held.verts + shift])
        lo = held.lo
        hi = held.hi + shift
        for other in bodies:
            if other.owner < 0 or other.owner == cid:
                continue
            if not _ref_overlaps(lo, hi, other):
                continue
            res = gjk_world(swept, other.verts, erosion_a=ENTANGLE_EROSION,
                            erosion_b=ENTANGLE_EROSION, max_distance=1.0)
            if res.distance <= _TOUCH:
                return GraspOutcome(0, "multi_object", frozenset({cid, other.owner}))

    return GraspOutcome(1, "none", frozenset(ids))
