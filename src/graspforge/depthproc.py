"""Depth-image processing: bilateral smoothing, depth-gradient edges with
in-plane normals, rotated patch extraction, and sensor-style noise.

Images are stored as (height, width) float32 millimeter depths plus a
pixel pitch in mm/px. Pixel coordinates are (x, y) = (column, row).

Exact-arithmetic contract. Edge points, normals and patches become the
sampler's candidates and through them pinned dataset bytes, so a rewrite
must repeat the same IEEE operations on the same operands. The per-item
loop form is frozen in `tests/oracles.sample_grasps_reference`.

- The bilateral filter evaluates each window offset's expression in the
  same order, with in-place ufuncs into preallocated buffers, one band of
  rows at a time. Element-wise ops round alike on any shape, and each
  pixel still adds up its offsets in the same order. Each band sums into
  band-sized accumulators and writes its quotient straight into the
  float32 output (the same float64 divide, then the same cast), and takes
  its center values from the padded copy, so no image-sized float64 array
  is kept besides that copy.
- Edge detection gathers at the `np.nonzero` pixels what the loop read one
  pixel at a time, after dropping the border pixels.
- Normal fits are batched by neighbor count. A stack of k-point
  neighborhoods takes the same `.mean(axis=1)`, `transpose @` and
  `np.linalg.eigh` per matrix as a single neighborhood did. The sign test
  and the length use `np.vecdot`, which calls the same BLAS dot as the
  2-vector `@`; `einsum` and `x0*y0 + x1*y1` differ from it in the last
  bit on about one row in seven. Only points with at least 3 neighbors are
  computed, so no 0/0 is ever formed.
- A crop reads the image's float64 copy and maximum depth, cached on the
  image (`DepthImage.depth64`, `DepthImage.max_depth`), so both are made
  once per image rather than once per crop.

scipy (`cKDTree`, `map_coordinates`) is imported inside the two functions
that call it, on first use, so that `train` and `report`, which read
patches but never filter an image, never load it.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DegenerateInput, ShapeMismatch

_MAGIC = b"GFD1"
# Image rows per band of the bilateral filter: a band's working arrays stay
# in a core's L2 cache while all window offsets pass over it.
_FILTER_ROWS = 32
PEPPER_VALUE = 120.0     # mm; the far dropout depth of add_noise (the near one is 0)


def _check_pitch(pitch) -> None:
    if not (math.isfinite(pitch) and pitch > 0):
        raise DegenerateInput(f"pitch must be finite and positive, got {pitch!r}")


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
        _check_pitch(self.pitch)
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @cached_property
    def depth64(self) -> np.ndarray:
        """Read-only float64 copy of data, made once per image."""
        arr = self.data.astype(np.float64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def max_depth(self) -> float:
        """Largest depth: the floor of a rendered scene."""
        return float(self.data.max())


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
        _check_pitch(self.pitch)
        object.__setattr__(self, "data", arr)

    @property
    def size(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class EdgePoints:
    """Depth-discontinuity pixels on the near (upper) surface, one row each.

    grad points toward increasing depth; normal is the fitted in-plane
    unit perpendicular, oriented the same way (near side toward far side).
    """

    xy: np.ndarray                   # (m, 2) float64 pixel (x, y), integral
    depth: np.ndarray                # (m,) float64, mm
    grad: np.ndarray                 # (m, 2) raw depth gradient, mm/px
    normal: np.ndarray | None = None # (m, 2) unit, set by estimate_normals

    def __len__(self) -> int:
        return len(self.depth)


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
    r = int(np.ceil(3.0 * spatial_sigma))
    padded = np.pad(img.data, r, mode="edge").astype(np.float64)
    h, w = img.data.shape
    out = np.empty((h, w), dtype=np.float32)
    bands = [np.empty((_FILTER_ROWS, w)) for _ in range(6)]
    inv_2ss = 1.0 / (2.0 * spatial_sigma ** 2)
    inv_2rs = 1.0 / (2.0 * range_sigma ** 2)
    for y0 in range(0, h, _FILTER_ROWS):
        y1 = min(y0 + _FILTER_ROWS, h)
        # each window is copied into a band buffer first, so the arithmetic
        # reads its operands from the band's own buffers, wherever the
        # padded image landed
        acc, wsum, wgt, term, center, shifted = (a[:y1 - y0] for a in bands)
        np.copyto(center, padded[r + y0:r + y1, r:r + w])
        acc.fill(0.0)
        wsum.fill(0.0)
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                np.copyto(shifted, padded[r + dy + y0:r + dy + y1, r + dx:r + dx + w])
                # wgt = exp(-(dx*dx + dy*dy) * inv_2ss - (shifted - center)**2 * inv_2rs)
                np.subtract(shifted, center, out=wgt)
                np.square(wgt, out=wgt)
                np.multiply(wgt, inv_2rs, out=wgt)
                np.subtract(-(dx * dx + dy * dy) * inv_2ss, wgt, out=wgt)
                np.exp(wgt, out=wgt)
                acc += np.multiply(wgt, shifted, out=term)
                wsum += wgt
        np.divide(acc, wsum, out=out[y0:y1])
    return DepthImage(data=out, pitch=img.pitch)


def detect_edges(img: DepthImage, grad_threshold: float) -> EdgePoints:
    """Pixels whose central-difference depth gradient is at or above the
    threshold (in mm/px), kept only on the near side of the jump, in
    row-major order."""
    d = img.depth64
    gx = np.zeros_like(d)
    gy = np.zeros_like(d)
    gx[:, 1:-1] = (d[:, 2:] - d[:, :-2]) * 0.5
    gy[1:-1, :] = (d[2:, :] - d[:-2, :]) * 0.5
    mag = np.hypot(gx, gy)
    ys, xs = np.nonzero(mag >= grad_threshold)
    h, w = d.shape
    inside = (xs > 0) & (xs < w - 1) & (ys > 0) & (ys < h - 1)
    ys, xs = ys[inside], xs[inside]
    grad = np.stack([gx[ys, xs], gy[ys, xs]], axis=1)
    # Step along the dominant gradient axis, toward larger depth.
    along_x = np.abs(grad[:, 0]) >= np.abs(grad[:, 1])
    toward = np.where(grad > 0, 1, -1)
    sx = np.where(along_x, toward[:, 0], 0)
    sy = np.where(along_x, 0, toward[:, 1])
    here = d[ys, xs]
    forward = d[ys + sy, xs + sx] - here
    backward = here - d[ys - sy, xs - sx]
    # Near side faces the jump: most of the discontinuity ahead of us.
    keep = forward >= backward
    return EdgePoints(xy=np.stack([xs[keep], ys[keep]], axis=1).astype(np.float64),
                      depth=here[keep], grad=grad[keep])


def estimate_normals(edges: EdgePoints, radius: float) -> EdgePoints:
    """Fit a line through each edge point's neighbors; the normal is the
    in-plane perpendicular oriented from near side to far side (along the
    stored depth gradient). Points with fewer than 3 neighbors are dropped."""
    from scipy.spatial import cKDTree

    pts = edges.xy
    normal = np.zeros_like(pts)
    # Sorted neighbor lists (the point itself included), flattened.
    lists = cKDTree(pts).query_ball_point(pts, r=radius)
    counts = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    flat = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=int(counts.sum()))
    starts = np.cumsum(counts) - counts
    fitted = np.flatnonzero(counts - 1 >= 3)
    # One batch per neighbor count, so each point's fit sees only its own
    # neighbors, in the same order.
    for k in np.unique(counts[fitted]).tolist():
        rows = np.flatnonzero(counts == k)
        nbrs = pts[flat[starts[rows, None] + np.arange(k)]]      # (g, k, 2)
        local = nbrs - nbrs.mean(axis=1, keepdims=True)
        evals, evecs = np.linalg.eigh(local.transpose(0, 2, 1) @ local)
        tangent = evecs[np.arange(len(rows)), :, np.argmax(evals, axis=1)]
        normal[rows, 0] = -tangent[:, 1]
        normal[rows, 1] = tangent[:, 0]
    normal = normal[fitted]
    flip = np.vecdot(normal, edges.grad[fitted]) < 0
    normal[flip] = -normal[flip]
    n = np.sqrt(np.vecdot(normal, normal))
    unit = n >= 1e-12
    keep = fitted[unit]
    return EdgePoints(xy=pts[keep], depth=edges.depth[keep], grad=edges.grad[keep],
                      normal=normal[unit] / n[unit, None])


def crop_rotated(img: DepthImage, center: tuple[float, float], theta: float,
                 out_size: int) -> Patch:
    """Bilinear crop about a center inside the image, with the theta
    direction mapped to patch +x and the sampled center depth shifted to 0.
    Out-of-window samples take the image's maximum depth (the floor of a
    rendered scene)."""
    from scipy.ndimage import map_coordinates

    cx, cy = center
    half = (out_size - 1) / 2.0
    u = np.arange(out_size) - half          # along grasp axis
    v = np.arange(out_size) - half
    uu, vv = np.meshgrid(u, v, indexing="xy")
    ct, st = np.cos(theta), np.sin(theta)
    src_x = cx + uu * ct - vv * st
    src_y = cy + uu * st + vv * ct
    sampled = map_coordinates(img.depth64, np.stack([src_y.ravel(), src_x.ravel()]),
                              order=1, mode="constant", cval=img.max_depth)
    sampled = sampled.reshape(out_size, out_size)
    center_depth = map_coordinates(img.depth64, np.array([[cy], [cx]]), order=1,
                                   mode="constant", cval=img.max_depth)[0]
    return Patch(data=(sampled - center_depth).astype(np.float32), pitch=img.pitch)


def add_noise(img: DepthImage, rng: np.random.Generator, gauss_sigma: float = 0.0,
              salt_pepper_frac: float = 0.0) -> DepthImage:
    """Gaussian depth noise plus salt-and-pepper dropouts.

    Affected pixels are replaced by 0 or PEPPER_VALUE with equal odds.
    Results are clamped to stay non-negative.
    """
    data = img.data.astype(np.float64)
    if gauss_sigma > 0:
        data += rng.normal(0.0, gauss_sigma, size=data.shape)
    if salt_pepper_frac > 0:
        mask = rng.random(data.shape) < salt_pepper_frac
        far = rng.random(data.shape) >= 0.5
        data[mask] = 0.0
        data[mask & far] = PEPPER_VALUE
    np.clip(data, 0.0, None, out=data)
    return DepthImage(data=data.astype(np.float32), pitch=img.pitch)
