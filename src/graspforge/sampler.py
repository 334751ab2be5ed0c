"""Antipodal grasp sampling on depth images.

Smooths the image, finds depth-discontinuity edges with in-plane normals,
proposes random contact pairs, and keeps the pairs whose contacts lie inside
both friction cones. Each surviving pair becomes a grasp pose plus an
axis-aligned depth patch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depthproc import (
    DepthImage, Patch, bilateral_filter, crop_rotated, detect_edges, downsample,
    estimate_normals,
)
from .errors import DegenerateInput, NoCandidates

# Trial budget per image; bounds sampling latency on edge-dense images.
MAX_PAIR_TRIALS = 20_000
W_MAX = 30.0                 # mm; widest graspable pair
DEPTH_PAIR_TOL = 6.0         # mm; max contact depth difference
MIN_PAIR_SEPARATION = 2.0    # mm; reject near-coincident pairs
GRAD_THRESHOLD = 1.5         # mm/px edge response
NORMAL_RADIUS = 5.0          # px neighborhood for normal fits
BILATERAL_SPATIAL = 1.5      # px
BILATERAL_RANGE = 2.0        # mm
ENGAGE_DEPTH = 5.0           # mm the fingers reach below the surface


@dataclass(frozen=True)
class SamplerConfig:
    n: int = 100                     # max candidates to emit
    f: float = 0.4                   # friction coefficient
    patch_size: int = 64             # px
    downsample_factor: int = 1
    camera_height: float = 70.0      # mm; converts depth to world height

    def __post_init__(self):
        if self.n < 1:
            raise DegenerateInput("need n >= 1")
        if self.f <= 0.0:
            raise DegenerateInput("friction must be positive")
        if self.patch_size < 2:
            raise DegenerateInput("patch size too small")


@dataclass(frozen=True)
class GraspPose:
    """Two-jaw grasp: world center (x, y, z) mm, axis angle, jaw width."""

    x: float
    y: float
    z: float
    theta: float   # radians in [0, pi); jaw symmetry folds the axis
    w: float       # mm

    def __post_init__(self):
        if self.w <= 0.0:
            raise DegenerateInput("grasp width must be positive")
        if not (0.0 <= self.theta < math.pi):
            raise DegenerateInput("theta must lie in [0, pi)")


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


def force_closure_check(pair: ContactPair, f: float) -> bool:
    """Both contacts must see the closing line inside their friction cone:
    angle(n, -g) < arctan(f) at each side, strictly."""
    if f <= 0.0:
        raise DegenerateInput("friction must be positive")
    limit = math.atan(f)
    for n, g in ((pair.n1, pair.g1), (pair.n2, pair.g2)):
        cos_a = float(np.clip(-(n @ g), -1.0, 1.0))
        if math.acos(cos_a) >= limit:
            return False
    return True


def estimate_grasp_width(pair: ContactPair, pitch: float) -> float:
    """Contact separation in mm: pixel distance scaled by pitch."""
    d = float(np.linalg.norm(np.asarray(pair.c2, float) - np.asarray(pair.c1, float)))
    if d == 0.0:
        raise DegenerateInput("coincident contacts")
    return d * pitch


def grasp_from_pair(pair: ContactPair, img: DepthImage, cfg: SamplerConfig) -> GraspPose:
    """Pose from a contact pair; symmetric under c1/c2 swap.

    World frame: origin under the image center, x right, y up, z off the
    floor. z engages ENGAGE_DEPTH below the shallower contact surface.
    """
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
                     w=estimate_grasp_width(pair, img.pitch))


def _crop_for(pair: ContactPair, pose: GraspPose, img: DepthImage,
              cfg: SamplerConfig) -> Patch:
    mid = (np.asarray(pair.c1, float) + np.asarray(pair.c2, float)) / 2.0
    # crop angle is in pixel axes; world theta flips the y sense
    return crop_rotated(img, (mid[0], mid[1]), -pose.theta, cfg.patch_size)


def sample_grasps(img: DepthImage, cfg: SamplerConfig,
                  rng: np.random.Generator) -> list[tuple[GraspPose, ContactPair, Patch]]:
    """Draw up to cfg.n force-closure candidates from one depth image.

    Deterministic per rng state. Raises NoCandidates when nothing survives;
    callers typically retry with a fresh noise draw or a softer friction.
    """
    proc = downsample(img, cfg.downsample_factor)
    proc = bilateral_filter(proc, BILATERAL_SPATIAL, BILATERAL_RANGE)
    edges = estimate_normals(detect_edges(proc, GRAD_THRESHOLD), NORMAL_RADIUS)
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
        if not force_closure_check(pair, cfg.f):
            continue
        pose = grasp_from_pair(pair, proc, cfg)
        out.append((pose, pair, _crop_for(pair, pose, proc, cfg)))

    if not out:
        raise NoCandidates("no force-closure pair found")
    out.sort(key=lambda t: (t[0].z, t[0].x, t[0].y))
    return out
