"""Antipodal grasp sampling on depth images.

Smooths the image, finds depth-discontinuity edges with in-plane normals,
proposes random contact pairs, and keeps the pairs whose contacts lie inside
both friction cones. Each surviving pair becomes a grasp pose plus an
axis-aligned depth patch.

Exact-arithmetic contract. The candidates, their patches and the rng state
a call leaves behind are pinned through every dataset, so the pair search,
which runs on whole arrays, repeats the draws and float operations of a
loop over trials (frozen in `tests/oracles.sample_grasps_reference`):

- All MAX_PAIR_TRIALS trials come from one `rng.integers(0, m, size=(T, 2))`
  call. It yields the numbers and the end state of T calls with size=2,
  because PCG64 keeps the unused half of a 64-bit draw in the generator's
  state, not in the call (checked in `tests/test_sampler.py`). When cfg.n
  pairs are found early, the state saved before the draw is restored and
  only the trials up to the n-th hit are drawn again, as the loop stopped
  there.
- Each unordered pair is judged at its first draw only, kept or not
  (`np.unique` with `return_index`); i == j is no pair.
- Distances are `sqrt(np.vecdot(v, v))`: the BLAS dot and square root that
  `np.linalg.norm` of a 2-vector computes. The friction-cone dots are
  `np.vecdot` as well, the same BLAS dot as a 2-vector `@`.
- The cone test keeps `math.acos`: `np.arccos` differs from it in the last
  bit on about one input in eleven, which flips pairs at the cone's edge.
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
    direction from c1 toward c2 and g2 its negation. The fields may also
    hold stacks of m pairs, (m, 2) and (m,) arrays.
    """

    c1: np.ndarray
    c2: np.ndarray
    d1: float
    d2: float
    n1: np.ndarray
    n2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


def force_closure_check(pair: ContactPair, f: float) -> bool | np.ndarray:
    """Both contacts must see the closing line inside their friction cone:
    angle(n, -g) < arctan(f) at each side, strictly. A pair of stacks gets
    a bool array, one answer per row."""
    if f <= 0.0:
        raise DegenerateInput("friction must be positive")
    limit = math.atan(f)
    cos1 = np.clip(-np.vecdot(pair.n1, pair.g1), -1.0, 1.0)
    cos2 = np.clip(-np.vecdot(pair.n2, pair.g2), -1.0, 1.0)
    inside = [math.acos(a) < limit and math.acos(b) < limit
              for a, b in zip(np.ravel(cos1).tolist(), np.ravel(cos2).tolist())]
    return np.array(inside, dtype=bool) if np.ndim(cos1) else inside[0]


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
    m = len(edges)
    if m < 2:
        raise NoCandidates("fewer than two edge points")

    # All trials at once; trial t draws row t. Each unordered pair is tried
    # at its first draw only, and i == j is no pair.
    state = rng.bit_generator.state
    draws = rng.integers(0, m, size=(MAX_PAIR_TRIALS, 2))
    i, j = draws.min(axis=1), draws.max(axis=1)
    trials = np.flatnonzero(i != j)
    _, first = np.unique(i[trials] * m + j[trials], return_index=True)
    trials = np.sort(trials[first])
    i, j = i[trials], j[trials]
    v = edges.xy[j] - edges.xy[i]
    dist = np.sqrt(np.vecdot(v, v))
    width = dist * proc.pitch
    near = ((width <= W_MAX) & (width >= MIN_PAIR_SEPARATION)
            & (np.abs(edges.depth[i] - edges.depth[j]) <= DEPTH_PAIR_TOL))
    trials, i, j = trials[near], i[near], j[near]
    g1 = v[near] / dist[near, None]
    closed = force_closure_check(
        ContactPair(c1=edges.xy[i], c2=edges.xy[j], d1=edges.depth[i], d2=edges.depth[j],
                    n1=edges.normal[i], n2=edges.normal[j], g1=g1, g2=-g1), cfg.f)
    hits = np.flatnonzero(closed)[:cfg.n].tolist()
    if len(hits) == cfg.n:
        # The search stops after the n-th hit: draw only the trials up to it.
        rng.bit_generator.state = state
        rng.integers(0, m, size=(int(trials[hits[-1]]) + 1, 2))

    out: list[tuple[GraspPose, ContactPair, Patch]] = []
    for k in hits:
        a, b = i[k], j[k]
        pair = ContactPair(c1=edges.xy[a].copy(), c2=edges.xy[b].copy(),
                           d1=float(edges.depth[a]), d2=float(edges.depth[b]),
                           n1=edges.normal[a].copy(), n2=edges.normal[b].copy(),
                           g1=g1[k].copy(), g2=-g1[k])
        pose = grasp_from_pair(pair, proc, cfg)
        out.append((pose, pair, _crop_for(pair, pose, proc, cfg)))

    if not out:
        raise NoCandidates("no force-closure pair found")
    out.sort(key=lambda t: (t[0].z, t[0].x, t[0].y))
    return out
