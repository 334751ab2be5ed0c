"""Grasp execution oracle and automatic dataset labeling.

Instead of simulating dynamics, a grasp attempt is judged by four staged
geometric checks against the decomposed scene, each built on exact convex
distance queries:

  1. approach  - the open jaws descend straight down; touching anything on
                 the way is a collision.
  2. close     - the jaws shrink toward the grasp center until each rests
                 against something; the cable ids they touch decide between
                 an empty close, a multi-cable pinch, and a clean hold.
  3. hold      - antipodal friction-cone test at the two closing contacts,
                 using the 3D face normals of the contacted pieces.
  4. lift      - the held cable sweeps straight up; any other cable that
                 overlaps the swept volume by more than the entanglement
                 threshold would be dragged along.

Every failure is a labeled outcome rather than an error, so the oracle can
auto-label sampled candidates at scale.

The scene stages below are the one implementation that `generate_dataset`,
the command-line stages and the policy evaluation all call: `scene_plan`
(per-scene draws and random stream), `settle_plan`, then `candidate_rows`
and `label_row`. Every scene walk composes two generators, the only code
that catches a skip: `settled_scenes` plans and settles a config's scenes,
and `sampled_scenes` renders, noises and samples any (index, scene, plan)
stream; each counts the scenes it skips. Patches are stored in one format,
a blob of depth records plus a JSON-lines index (`write_records`,
`read_records`).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .depthproc import add_noise, patch_from_record, record_bytes
from .errors import DegenerateInput, NoCandidates, Overfilled
from .fileio import atomic_write, read_input, require_keys
from .geometry import gjk_world
from .model import check_patch_size
from .sampler import GraspPose, SamplerConfig, sample_grasps
from .scene import (MAX_CABLES, BinSpec, CableSpec, Camera, Scene, render_depth,
                    settle_scene)

FAILURE_REASONS = ("none", "approach_collision", "multi_object",
                   "no_force_closure", "empty_close")
POSE_KEYS = ("x", "y", "z", "theta", "w")
CANDIDATE_KEYS = ("scene_index", "candidate_index") + POSE_KEYS

_TOUCH = 1e-9            # overlap test threshold for sweep collisions
CONTACT_TOL = 1e-3       # mm; a closing jaw stops within this gap
ENTANGLE_EROSION = 2.5   # mm per body; 5 mm combined overlap means entangled
_CLOSE_ITER_CAP = 200

# The one two-jaw parallel gripper, approaching straight down. Each jaw is a
# box: JAW_THICKNESS along the closing axis, JAW_HEIGHT across it,
# FINGER_LENGTH vertically (mm). Fingertips hover TIP_CLEARANCE above the
# nominal grasp depth so resting on the floor plane is not counted as a
# collision. Before closing, the jaws open OPEN_CLEARANCE wider than the
# estimated grasp width.
JAW_THICKNESS = 4.0
JAW_HEIGHT = 12.0
FINGER_LENGTH = 30.0
OPEN_CLEARANCE = 10.0
TIP_CLEARANCE = 0.2


@dataclass(frozen=True)
class GraspOutcome:
    label: int
    failure_reason: str
    contacted_ids: frozenset[int]

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DegenerateInput("label must be 0 or 1")
        if self.failure_reason not in FAILURE_REASONS:
            raise DegenerateInput(f"unknown failure reason {self.failure_reason!r}")
        if (self.label == 1) != (self.failure_reason == "none"):
            raise DegenerateInput("label 1 and reason 'none' must coincide")
        if self.label == 1 and len(self.contacted_ids) != 1:
            raise DegenerateInput("a successful grasp holds exactly one cable")


def _grasp_axes(theta: float) -> tuple[np.ndarray, np.ndarray]:
    u = np.array([math.cos(theta), math.sin(theta), 0.0])
    v = np.array([-math.sin(theta), math.cos(theta), 0.0])
    return u, v


def _jaw_verts(g: GraspPose, side: float, offset: float,
               z_top: float | None = None) -> np.ndarray:
    """Corner vertices of one jaw box. `offset` is the distance from the
    grasp center to the jaw's inner face along `side` times the closing
    axis; extending z_top past the finger length turns the box into the
    exact swept volume of a straight-down descent."""
    u, v = _grasp_axes(g.theta)
    z0 = g.z + TIP_CLEARANCE
    z1 = z0 + FINGER_LENGTH if z_top is None else z_top
    center = np.array([g.x, g.y, 0.0])
    corners = []
    for du in (offset, offset + JAW_THICKNESS):
        for dv in (-JAW_HEIGHT / 2.0, JAW_HEIGHT / 2.0):
            for z in (z0, z1):
                corners.append(center + side * du * u + dv * v + np.array([0.0, 0.0, z]))
    return np.array(corners)


def _face_normal(equations: np.ndarray, point: np.ndarray, hint: np.ndarray) -> np.ndarray:
    """Outward unit normal of the face supporting `point`; ties at an edge
    or vertex resolve toward the face best aligned with `hint`."""
    residual = equations[:, :3] @ point + equations[:, 3]
    active = np.flatnonzero(residual >= residual.max() - 1e-6)
    best = active[int(np.argmax(equations[active, :3] @ hint))]
    return equations[best, :3]


def _close_jaw(g: GraspPose, side: float, a_start: float, bodies):
    """Advance one jaw from separation a_start toward the grasp center until
    it touches something or its inner face reaches the center. Returns the
    ((owner, body, piece index), GJK result) of each piece resting against
    the final jaw position."""
    first = _jaw_verts(g, side, a_start)
    last = _jaw_verts(g, side, 0.0)
    lo = np.minimum(first.min(axis=0), last.min(axis=0))
    hi = np.maximum(first.max(axis=0), last.max(axis=0))
    near = [(owner, body, i) for owner, body in bodies
            for i in body.near(lo, hi, CONTACT_TOL)]
    if not near:
        return []

    def probe(a: float):
        jaw = _jaw_verts(g, side, a)
        return [((owner, body, i), gjk_world(jaw, body.verts[i], max_distance=a_start + 1.0))
                for owner, body, i in near]

    a = a_start
    results = probe(a)
    for _ in range(_CLOSE_ITER_CAP):
        dmin = min(r.distance for _, r in results)
        if dmin <= CONTACT_TOL:
            return [(p, r) for p, r in results if r.distance <= CONTACT_TOL]
        step = dmin - CONTACT_TOL / 2.0
        if a - step <= 0.0:
            results = probe(0.0)
            return [(p, r) for p, r in results if r.distance <= CONTACT_TOL]
        a -= step
        results = probe(a)
    # conservative steps cannot tunnel, so landing here means a grazing
    # trajectory; accept the nearest pieces as the contact set
    dmin = min(r.distance for _, r in results)
    return [(p, r) for p, r in results if r.distance <= dmin + CONTACT_TOL]


def execute_grasp(scene: Scene, g: GraspPose, f: float) -> GraspOutcome:
    """Label one grasp against `scene.bodies`: approach, close, hold, lift.
    Every failure mode maps to a labeled outcome; only a grasp that passes
    all four stages holding exactly one cable gets label 1."""
    if f <= 0.0:
        raise DegenerateInput("friction coefficient must be positive")
    bodies = scene.bodies
    u, _ = _grasp_axes(g.theta)
    w_open = g.w + OPEN_CLEARANCE
    top_z = max(body.aabb_hi[2] for _, body in bodies) + 1.0

    # stage 1: straight-down approach of both open jaws. The swept volume of
    # a box translating along -z is itself a box, so one exact query per jaw
    # covers the entire descent.
    for side in (1.0, -1.0):
        sweep = _jaw_verts(g, side, w_open / 2.0, z_top=top_z + FINGER_LENGTH)
        lo, hi = sweep.min(axis=0), sweep.max(axis=0)
        for _, body in bodies:
            for i in body.near(lo, hi, 0.0):
                if gjk_world(sweep, body.verts[i], max_distance=1.0).distance <= _TOUCH:
                    return GraspOutcome(0, "approach_collision", frozenset())

    # stage 2: close both jaws independently; each stops at first touch
    contacts = {side: _close_jaw(g, side, w_open / 2.0, bodies)
                for side in (1.0, -1.0)}
    ids = {owner for side in contacts for (owner, _, _), _ in contacts[side] if owner >= 0}
    if not ids:
        return GraspOutcome(0, "empty_close", frozenset())
    if len(ids) >= 2:
        return GraspOutcome(0, "multi_object", frozenset(ids))
    cid = next(iter(ids))

    # stage 3: antipodal friction-cone test at the two closing contacts
    limit = math.atan(f)
    for side in (1.0, -1.0):
        on_cable = [(p, r) for p, r in contacts[side] if p[0] == cid]
        if not on_cable:
            # pinched from one side only (other jaw on the bin or nothing)
            return GraspOutcome(0, "no_force_closure", frozenset(ids))
        (_, body, i), res = min(on_cable, key=lambda t: t[1].distance)
        normal = _face_normal(body.equations(i), res.point_b, side * u)
        cos_a = float(np.clip(normal @ (side * u), -1.0, 1.0))
        if math.acos(cos_a) >= limit:
            return GraspOutcome(0, "no_force_closure", frozenset(ids))

    # stage 4: lift the held cable straight up; another cable overlapping the
    # swept volume deeply enough would be dragged along
    shift = np.array([0.0, 0.0, top_z + FINGER_LENGTH])
    for held in (body for owner, body in bodies if owner == cid):
        for verts, lo, hi in zip(held.verts, held.lo, held.hi + shift):
            swept = np.vstack([verts, verts + shift])
            for owner, other in bodies:
                if owner < 0 or owner == cid:
                    continue
                for j in other.near(lo, hi, 0.0):
                    res = gjk_world(swept, other.verts[j], erosion_a=ENTANGLE_EROSION,
                                    erosion_b=ENTANGLE_EROSION, max_distance=1.0)
                    if res.distance <= _TOUCH:
                        return GraspOutcome(0, "multi_object", frozenset({cid, owner}))

    return GraspOutcome(1, "none", frozenset(ids))


@dataclass(frozen=True)
class DatasetConfig:
    """Domain randomization ranges plus the fixed scene setup."""

    scene_count: int = 80
    cable_count_range: tuple[int, int] = (4, 10)
    grasps_per_scene: int = 25
    friction_range: tuple[float, float] = (0.1, 0.5)
    gauss_sigma: float = 0.6
    salt_pepper_frac: float = 0.002
    patch_size: int = 64
    resample_attempts: int = 10
    bin: BinSpec = BinSpec()
    cable: CableSpec = CableSpec()
    camera: Camera = Camera()

    def __post_init__(self):
        if self.scene_count < 1:
            raise DegenerateInput("scene_count must be at least 1")
        lo, hi = self.cable_count_range
        if not 1 <= lo <= hi <= MAX_CABLES:
            raise DegenerateInput(f"cable_count_range must be 1 <= lo <= hi <= {MAX_CABLES}")
        if self.grasps_per_scene < 1:
            raise DegenerateInput("grasps_per_scene must be at least 1")
        f_lo, f_hi = self.friction_range
        if not 0.0 < f_lo <= f_hi < math.inf:
            raise DegenerateInput("friction_range must satisfy 0 < lo <= hi < inf")
        if self.resample_attempts < 1:
            raise DegenerateInput("resample_attempts must be at least 1")
        if not 0.0 <= self.gauss_sigma < math.inf:
            raise DegenerateInput("gauss_sigma must be finite and non-negative")
        if not 0.0 <= self.salt_pepper_frac <= 0.1:
            raise DegenerateInput("salt_pepper_frac must be in [0, 0.1]")
        check_patch_size(self.patch_size)


def _scene_rng(master_seed: int, index: int) -> np.random.Generator:
    # per-scene stream derived from the master seed and the scene index, so
    # scenes are independent work units regardless of generation order
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def scene_plan(cfg: DatasetConfig, master_seed: int, index: int) -> dict:
    """Per-scene draws (seed, cable count, friction) plus the live stream.

    The returned "rng" continues the same per-scene stream, so noise and
    sampling draws line up whether a stage runs fused or standalone.
    """
    rng = _scene_rng(master_seed, index)
    scene_seed = int(rng.integers(0, 2**31 - 1))
    count = int(rng.integers(cfg.cable_count_range[0], cfg.cable_count_range[1] + 1))
    f = float(rng.uniform(*cfg.friction_range))
    return {"scene_seed": scene_seed, "cable_count": count, "f": f, "rng": rng}


def settle_plan(cfg: DatasetConfig, plan: dict) -> Scene:
    """Settle the pile a plan (or a stored row with the same keys) names;
    raises Overfilled when the bin cannot take it."""
    return settle_scene(cfg.bin, [cfg.cable] * int(plan["cable_count"]),
                        int(plan["scene_seed"]))


def settled_scenes(cfg: DatasetConfig, master_seed: int, skips: Counter):
    """Plan and settle scenes 0 .. cfg.scene_count - 1 in order, yielding
    (index, scene, plan) for each. A scene that raises Overfilled is not
    yielded; it is counted in `skips["overfilled"]`. Each scene draws only
    from its own stream, so a skip moves no other draw."""
    for index in range(cfg.scene_count):
        plan = scene_plan(cfg, master_seed, index)
        try:
            scene = settle_plan(cfg, plan)
        except Overfilled:
            skips["overfilled"] += 1
            continue
        yield index, scene, plan


def sampled_scenes(cfg: DatasetConfig, scenes, skips: Counter):
    """Render each (index, scene, plan) of `scenes`, then add noise and
    sample grasps from plan["rng"], with fresh noise after each empty try,
    yielding (index, scene, candidates, plan). A scene whose
    cfg.resample_attempts tries all come back empty is not yielded; it is
    counted in `skips["no_candidates"]`."""
    for index, scene, plan in scenes:
        img = render_depth(scene, cfg.camera)
        scfg = SamplerConfig(n=cfg.grasps_per_scene, f=plan["f"], patch_size=cfg.patch_size,
                             camera_height=cfg.camera.height)
        for _ in range(cfg.resample_attempts):
            noisy = add_noise(img, plan["rng"], cfg.gauss_sigma, cfg.salt_pepper_frac)
            try:
                candidates = sample_grasps(noisy, scfg, plan["rng"])
            except NoCandidates:
                continue
            break
        else:
            skips["no_candidates"] += 1
            continue
        yield index, scene, candidates, plan


def candidate_rows(index: int, candidates) -> list[dict]:
    """One row per sampled candidate of scene `index`, as the `sample`
    command stores it: the indices, the pose fields and the patch."""
    return [{"scene_index": index, "candidate_index": j, "x": pose.x, "y": pose.y,
             "z": pose.z, "theta": pose.theta, "w": pose.w, "patch": patch}
            for j, (pose, patch) in enumerate(candidates)]


def label_row(scene: Scene, plan: dict, cand: dict) -> dict:
    """Run the oracle on one candidate row; returns the dataset row that
    `write_dataset` stores, with the plan's draws for replay."""
    pose = {k: cand[k] for k in POSE_KEYS}
    out = execute_grasp(scene, GraspPose(**pose), plan["f"])
    return {"scene_index": cand["scene_index"], "candidate_index": cand["candidate_index"],
            "patch": cand["patch"], "label": out.label, "reason": out.failure_reason,
            "contacted_ids": sorted(out.contacted_ids), "scene_seed": plan["scene_seed"],
            "cable_count": plan["cable_count"], "f": plan["f"], "pose": pose}


def generate_dataset(cfg: DatasetConfig, master_seed: int, out_dir: str | Path) -> Path:
    """Generate, label, and store a dataset; returns the index path.

    Writes three sibling files under out_dir: `dataset.blob` (concatenated
    patch records), `dataset.idx` (JSON lines, one sample per line), and
    `dataset.summary.json`. The scenes come from `settled_scenes` through
    `sampled_scenes`, so those that overfill the bin or yield no
    candidates are skipped and counted, as the evaluation skips them.
    Output depends only on the master seed and config.
    """
    rows = []
    skips = Counter(overfilled=0, no_candidates=0)
    scenes = settled_scenes(cfg, master_seed, skips)
    for i, scene, cands, plan in sampled_scenes(cfg, scenes, skips):
        rows += [label_row(scene, plan, c) for c in candidate_rows(i, cands)]
    return write_dataset(rows, skips, cfg.scene_count, master_seed, out_dir)


def write_records(rows: list[dict], out_dir: str | Path, stem: str) -> Path:
    """Store rows as a blob+index pair; returns the index path.

    `<stem>.blob` holds each row's "patch" as a depth record, and
    `<stem>.idx` holds the rest of each row as one JSON line, in row order,
    with the record's "patch_offset" and "patch_size_px" in its place.
    """
    out = Path(out_dir)
    blob = bytearray()
    lines = []
    for row in rows:
        row = dict(row)
        patch = row.pop("patch")
        row["patch_offset"] = len(blob)
        row["patch_size_px"] = patch.size
        blob += record_bytes(patch)
        lines.append(json.dumps(row, sort_keys=True) + "\n")
    atomic_write(out / f"{stem}.blob", bytes(blob))
    index_path = out / f"{stem}.idx"
    atomic_write(index_path, "".join(lines))
    return index_path


def read_records(index_path: str | Path, keys) -> list[dict]:
    """Rows of a `write_records` pair, each with its "patch" back in place
    of the offset and size. Reads both files through `read_input`: a
    missing index or blob raises DatasetNotFound; a row that is not a JSON
    object holding `keys`, or a record that does not fit the blob, raises
    DegenerateInput naming the file, as does a row whose "patch_size_px"
    is not its record's side (naming the index and the row, from 0)."""
    path = Path(index_path)

    def parse_index(data: bytes) -> list[dict]:
        rows = []
        for n, line in enumerate(filter(str.strip, data.decode().splitlines())):
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise DegenerateInput(f"row {n}: not JSON ({exc})") from None
            require_keys(row, (*keys, "patch_offset", "patch_size_px"), f"row {n}")
            rows.append(row)
        return rows

    def parse_blob(blob: bytes) -> None:
        for row in rows:
            row["patch"] = patch_from_record(blob, row.pop("patch_offset"))

    rows = read_input(path, parse_index)
    read_input(path.with_suffix(".blob"), parse_blob)
    for n, row in enumerate(rows):
        side = row.pop("patch_size_px")
        if type(side) is not int or side != row["patch"].size:
            raise DegenerateInput(f"{path}: row {n}: patch_size_px {side!r} is not "
                                  f"its record's side {row['patch'].size}")
    return rows


def write_dataset(rows: list, skips: dict, scene_count: int, master_seed: int,
                  out_dir: str | Path, stem: str = "dataset") -> Path:
    """Serialize labeled rows as the blob/index/summary file triple.

    Each row needs the keys `label_row` produces: scene_index,
    candidate_index, patch, label, reason, contacted_ids, scene_seed,
    cable_count, f, pose. Rows may arrive in any order.

    `reason` may be None for a row with no recorded outcome, as
    `load_dataset` accepts; such rows are stored as `"reason": null` and
    counted under the `"null"` key of the summary's reasons. Other reason
    strings are stored as given and are not checked against FAILURE_REASONS.
    """
    # stable global order even if scenes were produced out of order
    all_rows = sorted(rows, key=lambda r: (r["scene_index"], r["candidate_index"]))
    index_path = write_records(all_rows, out_dir, stem)
    positives = sum(r["label"] for r in all_rows)
    summary = {
        "samples": len(all_rows),
        "positives": positives,
        "negatives": len(all_rows) - positives,
        "reasons": dict(sorted(Counter(
            "null" if r["reason"] is None else r["reason"] for r in all_rows).items())),
        "skipped": dict(skips),
        "scene_count": scene_count,
        "master_seed": master_seed,
    }
    atomic_write(index_path.with_suffix(".summary.json"),
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return index_path


def load_dataset(index_path: str | Path) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """An index and its sibling blob as (x, labels, rows): the (N, S, S)
    float32 patch block, the N 0/1 labels and each row's other fields (an
    index with no rows gives N = S = 0). A row whose label is not the
    integer 0 or 1, or whose reason, if not null, disagrees with it, or
    whose patch size is not row 0's raises DegenerateInput naming the index
    and the row (from 0)."""
    rows = read_records(index_path, ("label",))
    size = rows[0]["patch"].size if rows else 0
    x = np.empty((len(rows), size, size), dtype=np.float32)
    labels = np.empty(len(rows), dtype=int)
    for n, row in enumerate(rows):
        patch, label = row.pop("patch"), row.pop("label")
        reason = row.get("reason")
        try:
            if type(label) is not int or label not in (0, 1):
                raise DegenerateInput(f"label {label!r} is not 0 or 1")
            if reason is not None and (label == 1) != (reason == "none"):
                raise DegenerateInput("label does not match stored outcome")
            if patch.size != size:
                raise DegenerateInput(f"patch size {patch.size} is not row 0's")
        except DegenerateInput as exc:
            raise DegenerateInput(f"{index_path}: row {n}: {exc}") from None
        x[n], labels[n] = patch.data, label
    return x, labels, rows


def replay_sample(meta: dict, cfg: DatasetConfig) -> GraspOutcome:
    """Rebuild a stored row's scene from its seed and re-run the oracle on
    its pose; `meta` is the row's fields as `load_dataset` returns them.
    Must reproduce the stored label for any dataset of the same config."""
    return execute_grasp(settle_plan(cfg, meta), GraspPose(**meta["pose"]), float(meta["f"]))
