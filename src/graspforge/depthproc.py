"""Depth-image processing: bilateral smoothing, depth-gradient edges with
in-plane normals, rotated patch extraction, and sensor-style noise.

Images are stored as (height, width) float32 millimeter depths plus a
pixel pitch in mm/px. Pixel coordinates are (x, y) = (column, row).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates
from scipy.spatial import cKDTree

from .errors import DegenerateInput, ShapeMismatch

_MAGIC = b"GFD1"


@dataclass(frozen=True)
class DepthImage:
    """Dense depth map; values in mm, finite and >= 0."""

    data: np.ndarray      # (h, w) float32
    pitch: float          # mm per pixel

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise ShapeMismatch("depth data must be 2-D")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise DegenerateInput("depths must be finite and non-negative")
        if self.pitch <= 0:
            raise DegenerateInput("pitch must be positive")
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class Patch:
    """Square depth crop; 0 at the grasp point, grasp axis along +x."""

    data: np.ndarray      # (s, s) float32
    pitch: float

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeMismatch("patch must be square")
        if not np.isfinite(arr).all():
            raise DegenerateInput("patch values must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def size(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class EdgePoint:
    """Depth-discontinuity pixel on the near (upper) surface.

    grad points toward increasing depth; normal is the fitted in-plane
    unit perpendicular, oriented the same way (near side toward far side).
    """

    x: int
    y: int
    depth: float
    grad: np.ndarray                 # (2,) raw depth gradient, mm/px
    normal: np.ndarray | None = None # (2,) unit, set by estimate_normals


def record_bytes(img: DepthImage | Patch) -> bytes:
    """One self-delimiting depth record: magic, width, height, pitch,
    then row-major little-endian f32 samples. Records can be concatenated
    into a blob and re-read by byte offset."""
    h, w = img.data.shape
    payload = _MAGIC + struct.pack("<IIf", w, h, float(img.pitch))
    return payload + img.data.astype("<f4").tobytes()


def patch_from_record(buf: bytes, offset: int = 0) -> Patch:
    """Parse the record starting at `offset` inside a blob. An offset
    outside the blob, a bad magic, or a header or payload that runs past
    the blob's end raises DegenerateInput."""
    if type(offset) is not int or not 0 <= offset <= len(buf) - 16:
        raise DegenerateInput(f"record at offset {offset!r}: no 16-byte header in "
                              f"a blob of {len(buf)} bytes")
    if buf[offset:offset + 4] != _MAGIC:
        raise DegenerateInput(f"record at offset {offset}: bad magic")
    w, h, pitch = struct.unpack("<IIf", buf[offset + 4:offset + 16])
    start = offset + 16
    if start + 4 * w * h > len(buf):
        raise DegenerateInput(f"record at offset {offset}: {w}x{h} samples run past "
                              f"the blob's end at byte {len(buf)}")
    data = np.frombuffer(buf[start:start + 4 * w * h], dtype="<f4").reshape(h, w)
    return Patch(data=data.copy(), pitch=float(pitch))


def downsample(img: DepthImage, factor: int = 1) -> DepthImage:
    """Integer-stride decimation; pitch scales by the factor."""
    if factor < 1:
        raise DegenerateInput("factor must be >= 1")
    if factor == 1:
        return img
    return DepthImage(data=img.data[::factor, ::factor], pitch=img.pitch * factor)


def bilateral_filter(img: DepthImage, spatial_sigma: float, range_sigma: float) -> DepthImage:
    """Edge-preserving smoothing over a (2*ceil(3*sigma_s)+1)^2 window."""
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


def detect_edges(img: DepthImage, grad_threshold: float) -> list[EdgePoint]:
    """Pixels whose central-difference depth gradient is at or above the
    threshold (in mm/px), kept only on the near side of the jump."""
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
    out: list[EdgePoint] = []
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
            out.append(EdgePoint(x=int(x), y=int(y), depth=float(d[y, x]),
                                 grad=np.array([gx[y, x], gy[y, x]])))
    return out


def estimate_normals(edges: list[EdgePoint], radius: float = 5.0) -> list[EdgePoint]:
    """Fit a line through each edge point's neighbors; the normal is the
    in-plane perpendicular oriented from near side to far side (along the
    stored depth gradient). Points with fewer than 3 neighbors are dropped."""
    if radius < 2:
        raise DegenerateInput("radius must be >= 2 px")
    if not edges:
        return []
    pts = np.array([[e.x, e.y] for e in edges], dtype=np.float64)
    tree = cKDTree(pts)
    neighbor_lists = tree.query_ball_point(pts, r=radius)
    out: list[EdgePoint] = []
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
        out.append(EdgePoint(x=e.x, y=e.y, depth=e.depth, grad=e.grad,
                             normal=normal / n))
    return out


def crop_rotated(img: DepthImage, center: tuple[float, float], theta: float,
                 out_size: int) -> Patch:
    """Bilinear crop with the theta direction mapped to patch +x and the
    sampled center depth shifted to 0. Out-of-window samples take the
    image's maximum depth (the floor of a rendered scene)."""
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


def add_noise(img: DepthImage, rng: np.random.Generator, gauss_sigma: float = 0.0,
              salt_pepper_frac: float = 0.0, pepper_value: float = 120.0) -> DepthImage:
    """Gaussian depth noise plus salt-and-pepper dropouts.

    Affected pixels are replaced by 0 or pepper_value with equal odds.
    Results are clamped to stay non-negative.
    """
    if not 0.0 <= salt_pepper_frac <= 0.1:
        raise DegenerateInput("salt_pepper_frac must be in [0, 0.1]")
    data = img.data.astype(np.float64)
    if gauss_sigma > 0:
        data = data + rng.normal(0.0, gauss_sigma, size=data.shape)
    if salt_pepper_frac > 0:
        mask = rng.random(data.shape) < salt_pepper_frac
        fill = np.where(rng.random(data.shape) < 0.5, 0.0, pepper_value)
        data = np.where(mask, fill, data)
    return DepthImage(data=np.clip(data, 0.0, None).astype(np.float32),
                      pitch=img.pitch)
