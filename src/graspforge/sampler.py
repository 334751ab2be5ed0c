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
  `np.linalg.norm` of a 2-vector computes. A pose's width is the search's
  `dist * pitch`, the bytes of the loop's `np.linalg.norm(v) * pitch`. The
  friction-cone dots are `np.vecdot` as well, the same BLAS dot as a
  2-vector `@`.
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


@dataclass(frozen=True)
class GraspPose:
    """Two-jaw grasp: world center (x, y, z) mm, axis angle, jaw width."""

    x: float
    y: float
    z: float
    theta: float   # radians in [0, pi); jaw symmetry folds the axis
    w: float       # mm

    def __post_init__(self):
        for name, value in vars(self).items():
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise DegenerateInput(f"pose field {name} is {value!r}, not a finite number")
        if self.w <= 0.0:
            raise DegenerateInput("grasp width must be positive")
        if not (0.0 <= self.theta < math.pi):
            raise DegenerateInput("theta must lie in [0, pi)")


def _inside_cones(n1: np.ndarray, n2: np.ndarray, g1: np.ndarray, f: float) -> np.ndarray:
    """Row k: both contacts see the closing line inside their friction cone,
    angle(n, -g) < arctan(f) at each side, strictly. n1, n2 are the unit
    in-plane normals of the two contacts, g1 the unit closing direction
    from the first toward the second, and -g1 the second's."""
    limit = math.atan(f)
    cos1 = np.clip(-np.vecdot(n1, g1), -1.0, 1.0).tolist()
    cos2 = np.clip(-np.vecdot(n2, -g1), -1.0, 1.0).tolist()
    return np.array([math.acos(a) < limit and math.acos(b) < limit
                     for a, b in zip(cos1, cos2)], dtype=bool)


def _candidate(c1: np.ndarray, c2: np.ndarray, d1: float, d2: float, w: float,
               img: DepthImage, cfg: SamplerConfig) -> tuple[GraspPose, Patch]:
    """Pose and patch of the contacts at pixels c1, c2 with depths d1, d2,
    w mm apart; symmetric under a c1/c2 swap.

    World frame: origin under the image center, x right, y up, z off the
    floor. z engages ENGAGE_DEPTH below the shallower contact surface.
    """
    mid = (c1 + c2) / 2.0
    x = (mid[0] - (img.width - 1) / 2.0) * img.pitch
    y = ((img.height - 1) / 2.0 - mid[1]) * img.pitch
    z = max(cfg.camera_height - min(d1, d2) - ENGAGE_DEPTH, 0.0)
    v = c2 - c1
    # canonical half-plane so c1/c2 swap folds to the identical angle
    if v[1] > 0.0 or (v[1] == 0.0 and v[0] < 0.0):
        v = -v
    theta = math.atan2(-v[1], v[0])             # image y runs downward
    # crop angle is in pixel axes; world theta flips the y sense
    return (GraspPose(x=x, y=y, z=z, theta=theta, w=w),
            crop_rotated(img, (mid[0], mid[1]), -theta, cfg.patch_size))


def sample_grasps(img: DepthImage, cfg: SamplerConfig,
                  rng: np.random.Generator) -> list[tuple[GraspPose, Patch]]:
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
    trials, i, j, width = trials[near], i[near], j[near], width[near]
    g1 = v[near] / dist[near, None]
    hits = np.flatnonzero(_inside_cones(edges.normal[i], edges.normal[j], g1, cfg.f))[:cfg.n]
    if len(hits) == cfg.n:
        # The search stops after the n-th hit: draw only the trials up to it.
        rng.bit_generator.state = state
        rng.integers(0, m, size=(int(trials[hits[-1]]) + 1, 2))

    depth = edges.depth.tolist()
    out = [_candidate(edges.xy[a], edges.xy[b], depth[a], depth[b], w, proc, cfg)
           for a, b, w in zip(i[hits].tolist(), j[hits].tolist(), width[hits].tolist())]
    if not out:
        raise NoCandidates("no force-closure pair found")
    out.sort(key=lambda t: (t[0].z, t[0].x, t[0].y))
    return out
