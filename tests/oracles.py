"""Independent reference implementations used to check the library.

Everything here is deliberately written from different math than the code
under test: box distances come from separating axes plus brute-force
feature enumeration, inside tests from crossing parity of a single ray,
rendered depths from one Moller-Trumbore ray per pixel (`ray_triangles`,
`ray_mesh`). There are three exceptions, same math on purpose, frozen copies
the library must match bit for bit: `gjk_world_reference`, the GJK kernel;
`forward_backward_reference` (with `forward_batch_reference` and
`backward_batch_reference`), the quality network's forward and backward
pass as they stood while the backward pass still formed conv1's input
gradient; and `sample_grasps_reference`, the grasp sampler with its
bilateral filter, edge detector, normal fit, rotated crop and friction-cone
test as they stood while each was a Python loop over pixels, points and
pair trials.

The fixtures section holds test inputs and measures the library has no use
for: sphere and prism meshes, mesh volume, point-in-piece, pixel-to-world
and an all-zero network.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import map_coordinates
from scipy.spatial import cKDTree

from graspforge.depthproc import DepthImage, Patch, downsample
from graspforge.errors import ConvergenceWarning, DegenerateInput, NoCandidates
from graspforge.geometry import ConvexPiece, GjkResult, Pose3, TriMesh
from graspforge.model import QualityNet, init_net
from graspforge.sampler import (
    BILATERAL_RANGE, BILATERAL_SPATIAL, DEPTH_PAIR_TOL, ENGAGE_DEPTH, GRAD_THRESHOLD,
    MAX_PAIR_TRIALS, MIN_PAIR_SEPARATION, NORMAL_RADIUS, W_MAX, ContactPair, GraspPose,
    SamplerConfig,
)
from graspforge.scene import Camera


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


# Render oracle: first hits of single rays against triangle meshes, to
# check the scanline depth renderer pixel by pixel.

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
    x = cam.center_xy[0] + (np.asarray(px) - (cam.width_px - 1) / 2.0) * cam.pitch
    y = cam.center_xy[1] + ((cam.height_px - 1) / 2.0 - np.asarray(py)) * cam.pitch
    return x, y


def zeros_net(size: int) -> QualityNet:
    """A network whose every parameter is zero: it scores each patch 0.5."""
    shapes = init_net(size, np.random.default_rng(0)).params
    return QualityNet(size, [np.zeros_like(p) for p in shapes])


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
) -> GjkResult:
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
                return GjkResult(v_norm, lam_pa, lam_pb, True)
            lower = -float(w @ d)
            if max_distance is not None and lower > max_distance:
                return GjkResult(lower, sa, sb, True)
            if any(float(np.linalg.norm(w - q)) < 1e-12 for q in w_list):
                lam_pa = sum(l * p for l, p in zip(lam, pa_list))
                lam_pb = sum(l * p for l, p in zip(lam, pb_list))
                return GjkResult(v_norm, lam_pa, lam_pb, True)

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
            return GjkResult(0.0, pa, pb, True)
        # No measurable progress twice in a row: at the numerical optimum.
        if prev_norm - v_norm <= 1e-13 * max(1.0, v_norm):
            stalled += 1
            if stalled >= 2:
                pa = sum(l * p for l, p in zip(lam, pa_list))
                pb = sum(l * p for l, p in zip(lam, pb_list))
                return GjkResult(v_norm, pa, pb, True)
        else:
            stalled = 0
        prev_norm = v_norm
        d = -v / v_norm

    warnings.warn("GJK hit the iteration cap; distance is best-effort", ConvergenceWarning)
    pa = sum(l * p for l, p in zip(lam, pa_list))
    pb = sum(l * p for l, p in zip(lam, pb_list))
    return GjkResult(v_norm, pa, pb, False)


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
                            rng: np.random.Generator) -> list[tuple[GraspPose, ContactPair, Patch]]:
    """The grasp sampler in its per-item loop form; `sample_grasps` must
    return the same candidates and draw the same numbers from rng."""
    proc = downsample(img, cfg.downsample_factor)
    proc = _ref_bilateral_filter(proc, BILATERAL_SPATIAL, BILATERAL_RANGE)
    edges = _ref_estimate_normals(_ref_detect_edges(proc, GRAD_THRESHOLD), NORMAL_RADIUS)
    if len(edges) < 2:
        raise NoCandidates("fewer than two edge points")

    pts = np.array([[e.x, e.y] for e in edges], dtype=np.float64)
    depths = np.array([e.depth for e in edges])
    normals = np.array([e.normal for e in edges])

    out: list[tuple[GraspPose, ContactPair, Patch]] = []
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
        out.append((pose, pair, _ref_crop_for(pair, pose, proc, cfg)))

    if not out:
        raise NoCandidates("no force-closure pair found")
    out.sort(key=lambda t: (t[0].z, t[0].x, t[0].y))
    return out
