"""Tests for the grasp-execution oracle and dataset generation."""

import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from graspforge import sampler as sampler_mod
from graspforge import scene as scene_mod
from graspforge.cli import dispatch
from graspforge.config import RunConfig
from graspforge.depthproc import Patch
from graspforge.errors import DatasetNotFound, DegenerateInput, SingleClass
from graspforge.geometry import Pose3, convex_hull, gjk_world
from graspforge.model import class_weights
from graspforge.sampler import GraspPose
from graspforge.scene import (MAX_CABLES, BinSpec, CableSpec, Camera, PlacedCable, Scene,
                              cable_decomposition, make_cable_mesh, settle_scene)
from graspforge.simlab import (FAILURE_REASONS, DatasetConfig,
                               GraspOutcome, _jaw_verts, execute_grasp, generate_dataset, load_dataset,
                               replay_sample, sampled_scenes, scene_plan, settle_plan,
                               settled_scenes, write_dataset)

import oracles


def straight_cable(cid, pose):
    spec = CableSpec(bend_angle_range=(0.0, 0.0))
    mesh = make_cable_mesh(spec, np.random.default_rng(0))
    return PlacedCable(cid, spec, mesh, cable_decomposition(mesh, spec.tube_sides), pose)


def lone_cable_scene():
    # one straight cable along x, resting on the floor at the bin center
    return Scene(BinSpec(), [straight_cable(0, Pose3(np.array([0.0, 0.0, 4.0])))], 0)


# perpendicular, centered, engaged 5 mm below the 8 mm cable top
PERP = GraspPose(x=0.0, y=0.0, z=3.0, theta=math.pi / 2, w=8.0)
# closing axis tilted 25 degrees off the cable's normal plane
SKEWED = GraspPose(x=0.0, y=0.0, z=3.0, theta=math.pi / 2 - math.radians(25.0), w=9.0)
# open jaw box [105, 109] x the wall slab starting at x = 100
WALL_SWEEP = GraspPose(x=96.0, y=0.0, z=3.0, theta=0.0, w=8.0)
FREE_SPACE = GraspPose(x=-60.0, y=40.0, z=3.0, theta=0.0, w=8.0)
# jaws straddle the wall and clamp it
WALL_TOP = GraspPose(x=104.0, y=0.0, z=25.0, theta=0.0, w=8.0)
# between two side-by-side cables, closing across both
BETWEEN = GraspPose(x=0.0, y=4.1, z=0.0, theta=math.pi / 2, w=16.0)
# diagonal over a crossing
DIAGONAL = GraspPose(x=0.0, y=0.0, z=0.0, theta=math.pi / 4, w=16.0)
# on the held cable, 30 mm from where the rider crosses it
OFF_CROSSING = GraspPose(x=-30.0, y=0.0, z=3.0, theta=math.pi / 2, w=8.0)


def side_by_side_scene():
    return Scene(BinSpec(), [straight_cable(0, Pose3(np.array([0.0, 0.0, 4.0]))),
                             straight_cable(1, Pose3(np.array([0.0, 8.2, 4.0])))], 0)


def crossing_scene():
    # second cable rests across the first
    return Scene(BinSpec(), [straight_cable(0, Pose3(np.array([0.0, 0.0, 4.0]))),
                             straight_cable(1, Pose3.from_yaw(math.pi / 2, (0.0, 0.0, 12.0)))], 0)


def rider_scene(rider=True):
    # a second cable rests across the first at x = 30
    cables = [straight_cable(0, Pose3(np.array([0.0, 0.0, 4.0])))]
    if rider:
        cables.append(straight_cable(1, Pose3.from_yaw(math.pi / 2, (30.0, 0.0, 12.0))))
    return Scene(BinSpec(), cables, 0)


# every hand-built (scene, grasp, friction) case of TestExecuteGrasp
HAND_BUILT = [
    (lone_cable_scene, PERP, 0.2), (lone_cable_scene, PERP, 0.3),
    (lone_cable_scene, PERP, 0.4), (lone_cable_scene, SKEWED, 0.3),
    (lone_cable_scene, WALL_SWEEP, 0.4), (lone_cable_scene, FREE_SPACE, 0.4),
    (lone_cable_scene, WALL_TOP, 0.4), (side_by_side_scene, BETWEEN, 0.4),
    (crossing_scene, DIAGONAL, 0.4), (rider_scene, OFF_CROSSING, 0.4),
    (lambda: rider_scene(rider=False), OFF_CROSSING, 0.4),
]


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    cfg = DatasetConfig(scene_count=3, cable_count_range=(3, 6), grasps_per_scene=12)
    idx = generate_dataset(cfg, 42, tmp_path_factory.mktemp("ds"))
    return cfg, idx


def jaw_boxes(g, width):
    """Hulls of both jaws with their inner faces `width` apart."""
    return (convex_hull(_jaw_verts(g, 1.0, width / 2.0)),
            convex_hull(_jaw_verts(g, -1.0, width / 2.0)))


class TestGripperModel:
    def test_jaw_gap_equals_width(self):
        for w in (0.5, 6.0, 30.0):
            a, b = jaw_boxes(PERP, w)
            d = gjk_world(a.vertices, b.vertices).distance
            assert abs(d - w) < 1e-9

    def test_jaw_boxes_disjoint_at_any_width(self):
        for w in (1e-3, 0.1, 2.0):
            a, b = jaw_boxes(PERP, w)
            assert gjk_world(a.vertices, b.vertices).distance > 0.0

    def test_jaw_box_extents(self):
        g = GraspPose(x=0.0, y=0.0, z=5.0, theta=0.0, w=10.0)
        a, _ = jaw_boxes(g, 10.0)
        lo, hi = a.vertices.min(axis=0), a.vertices.max(axis=0)
        assert np.allclose(lo, [5.0, -6.0, 5.2])
        assert np.allclose(hi, [9.0, 6.0, 35.2])


class TestOutcomeTypes:
    def test_valid_outcomes(self):
        ok = GraspOutcome(1, "none", frozenset({3}))
        assert ok.label == 1
        bad = GraspOutcome(0, "empty_close", frozenset())
        assert bad.contacted_ids == frozenset()

    def test_pipeline_pile_outcomes_are_consistent(self):
        """Only `execute_grasp` builds an outcome. Over the candidates
        sampled on the `pipeline` benchmark's two piles (master seed 40),
        each reason is one of FAILURE_REASONS, the label is 1 exactly when
        the reason is "none", and the contacted cable ids are as many as
        the reason says: one for a hold or a one-cable pinch without force
        closure, two or more for a multi-cable pinch, none for a collision
        on the way down or an empty close."""
        ids_by_reason = {"none": 1, "no_force_closure": 1, "multi_object": 2,
                         "approach_collision": 0, "empty_close": 0}
        seen = Counter()
        for cfg in (RunConfig().dataset_config(), RunConfig().eval_config()):
            plan = scene_plan(cfg, 40, 0)
            scene = settle_plan(cfg, plan)
            [(_, _, cands, _)] = sampled_scenes(cfg, [(0, scene, plan)], Counter())
            for pose, _ in cands:
                out = execute_grasp(scene, pose, plan["f"])
                assert out.failure_reason in FAILURE_REASONS
                assert (out.label == 1) == (out.failure_reason == "none")
                assert min(len(out.contacted_ids), 2) == ids_by_reason[out.failure_reason]
                seen[out.failure_reason] += 1
        assert seen["none"] > 0 and len(seen) >= 3, seen

    def test_sample_validation(self, tmp_path):
        # a stored patch's finiteness is checked as its record is read, and
        # a stored label and reason by load_dataset
        rows = [{"scene_index": i, "candidate_index": 0,
                 "patch": Patch(data=np.full((8, 8), fill, dtype=np.float32), pitch=0.5),
                 "label": i, "reason": None, "contacted_ids": [0], "scene_seed": i,
                 "cable_count": 1, "f": 0.3,
                 "pose": {"x": 0.0, "y": 0.0, "z": 1.0, "theta": 0.0, "w": 8.0}}
                for i, fill in enumerate((0.0, np.inf))]
        idx = write_dataset(rows, {"overfilled": 0, "no_candidates": 0}, 2, 0, tmp_path)
        with pytest.raises(DegenerateInput, match="finite") as err:
            load_dataset(idx)
        assert str(idx.with_suffix(".blob")) in str(err.value)


class TestExecuteGrasp:
    def test_perpendicular_grasp_succeeds(self):
        out = execute_grasp(lone_cable_scene(), PERP, 0.4)
        assert out.label == 1
        assert out.failure_reason == "none"
        assert out.contacted_ids == frozenset({0})

    def test_hold_needs_enough_friction(self):
        # the flat jaw lands on a ridge of the 12-sided tube, so the contact
        # face normal sits 15 degrees off the closing axis: atan(0.2) < 15
        # degrees < atan(0.3) flips the hold test
        scene = lone_cable_scene()
        out = execute_grasp(scene, PERP, 0.2)
        assert out.label == 0
        assert out.failure_reason == "no_force_closure"
        assert execute_grasp(scene, PERP, 0.3).label == 1

    def test_skewed_closing_axis_fails_hold(self):
        # tube surface normals are perpendicular to the cable axis, so a
        # closing axis tilted 25 degrees cannot fall inside atan(0.3)
        out = execute_grasp(lone_cable_scene(), SKEWED, 0.3)
        assert out.failure_reason == "no_force_closure"

    def test_wall_sweep_collides(self):
        out = execute_grasp(lone_cable_scene(), WALL_SWEEP, 0.4)
        assert out.failure_reason == "approach_collision"
        assert out.contacted_ids == frozenset()

    def test_free_space_empty_close(self):
        out = execute_grasp(lone_cable_scene(), FREE_SPACE, 0.4)
        assert out.failure_reason == "empty_close"

    def test_wall_top_grasp_is_empty_close(self):
        # contact, but no cable
        out = execute_grasp(lone_cable_scene(), WALL_TOP, 0.4)
        assert out.failure_reason == "empty_close"

    def test_side_by_side_multi_object(self):
        out = execute_grasp(side_by_side_scene(), BETWEEN, 0.4)
        assert out.failure_reason == "multi_object"
        assert out.contacted_ids == frozenset({0, 1})

    def test_crossing_multi_object(self):
        # the diagonal grasp touches both at the same separation
        out = execute_grasp(crossing_scene(), DIAGONAL, 0.4)
        assert out.failure_reason == "multi_object"
        assert out.contacted_ids == frozenset({0, 1})

    def test_lift_entanglement(self):
        # grasp far from a crossing: approach, close, and hold all pass, but
        # lifting would drag the cable resting on top
        out = execute_grasp(rider_scene(), OFF_CROSSING, 0.4)
        assert out.failure_reason == "multi_object"
        assert out.contacted_ids == frozenset({0, 1})
        # removing the rider turns the same grasp into a success
        alone = execute_grasp(rider_scene(rider=False), OFF_CROSSING, 0.4)
        assert alone.label == 1

    def test_friction_must_be_positive(self):
        with pytest.raises(DegenerateInput):
            execute_grasp(lone_cable_scene(), PERP, 0.0)


def outcome(out):
    return out.label, out.failure_reason, out.contacted_ids


class TestOracleReference:
    """execute_grasp reads the scene's cached world-frame bodies; it must
    label every grasp as the frozen per-call rebuild does."""

    @pytest.mark.parametrize("case", range(len(HAND_BUILT)))
    def test_hand_built_scenes(self, case):
        make_scene, g, f = HAND_BUILT[case]
        scene = make_scene()
        assert outcome(execute_grasp(scene, g, f)) == outcome(
            oracles.execute_grasp_reference(scene, g, f))

    def test_grasps_reuse_the_scene_bodies(self, monkeypatch):
        # once built, the posed pieces serve every grasp on the scene
        scene = lone_cable_scene()
        bodies = scene.bodies

        def rebuilt(*args, **kwargs):
            raise AssertionError("a grasp posed pieces or built a hull")

        monkeypatch.setattr(Pose3, "apply", rebuilt)
        monkeypatch.setattr(scene_mod, "convex_hull", rebuilt)
        assert execute_grasp(scene, PERP, 0.4).label == 1
        assert scene.bodies is bodies

    def test_sampled_candidates_of_seeded_piles(self):
        # (master seed, scene index) of three default piles of 6 to 10
        # cables whose 71 candidates meet every failure reason
        cfg = DatasetConfig()
        reasons = set()
        for seed, index in ((0, 0), (1, 1), (2, 2)):
            plan = scene_plan(cfg, seed, index)
            scene = settle_plan(cfg, plan)
            [(_, _, cands, _)] = sampled_scenes(cfg, [(index, scene, plan)], Counter())
            for pose, _ in cands:
                got = outcome(execute_grasp(scene, pose, plan["f"]))
                assert got == outcome(oracles.execute_grasp_reference(scene, pose, plan["f"]))
                reasons.add(got[1])
        assert reasons == set(FAILURE_REASONS)


class TestClassWeights:
    def test_balanced(self):
        w = class_weights([0] * 100 + [1] * 100)
        assert w == (1.0, 1.0)

    def test_inverse_frequency(self):
        w = class_weights([0] * 300 + [1] * 100)
        assert abs(w[0] - 0.5) < 1e-12
        assert abs(w[1] - 1.5) < 1e-12

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            class_weights([1] * 50)
        with pytest.raises(SingleClass):
            class_weights([0] * 10)

    def test_bad_labels_raise(self):
        with pytest.raises(DegenerateInput):
            class_weights([0, 1, 2])

    def test_accepts_float_label_array(self):
        # train passes its float64 label array
        assert class_weights(np.array([0.0, 1.0, 1.0, 0.0])) == (1.0, 1.0)
        with pytest.raises(DegenerateInput):
            class_weights(np.array([0.0, 0.5, 1.0]))


class TestSampledScenes:
    """The policies take a yielded candidate list unchecked: a sample that
    finds no force-closure pair raises NoCandidates and is drawn again or
    skipped, so no yielded list is empty."""

    def test_yielded_candidate_lists_are_nonempty(self, monkeypatch):
        cfg = DatasetConfig(scene_count=3, cable_count_range=(1, 3), grasps_per_scene=5,
                            resample_attempts=2)
        skips = Counter()
        scenes = list(settled_scenes(cfg, 7, skips))
        walked = list(sampled_scenes(cfg, scenes, skips))
        assert walked and all(len(cands) >= 1 for _, _, cands, _ in walked)
        assert len(walked) + sum(skips.values()) == cfg.scene_count

        # a cone test that admits no pair leaves every scene empty: none is
        # yielded, and each is counted as a skip
        monkeypatch.setattr(sampler_mod, "_inside_cones",
                            lambda n1, n2, g1, f: np.zeros(len(g1), dtype=bool))
        empty = Counter()
        assert list(sampled_scenes(cfg, scenes, empty)) == []
        assert empty == {"no_candidates": len(scenes)}


class TestGenerateDataset:
    def test_single_cable_scene_yield(self, tmp_path):
        cfg = DatasetConfig(scene_count=1, cable_count_range=(1, 1),
                            grasps_per_scene=10)
        idx = generate_dataset(cfg, 5, tmp_path)
        summary = json.loads(idx.with_suffix(".summary.json").read_text())
        assert 1 <= summary["samples"] <= 10
        assert summary["positives"] >= 1

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = DatasetConfig(scene_count=1, cable_count_range=(1, 1),
                            grasps_per_scene=6)
        generate_dataset(cfg, 5, tmp_path / "a")
        generate_dataset(cfg, 5, tmp_path / "b")
        for name in ("dataset.blob", "dataset.idx", "dataset.summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_roundtrip_and_ordering(self, small_dataset):
        cfg, idx = small_dataset
        x, labels, rows = load_dataset(idx)
        summary = json.loads(idx.with_suffix(".summary.json").read_text())
        assert len(rows) == len(labels) == summary["samples"] > 0
        keys = [(r["scene_index"], r["candidate_index"]) for r in rows]
        assert keys == sorted(keys)
        assert x.shape == (len(rows), cfg.patch_size, cfg.patch_size)
        assert x.dtype == np.float32 and np.isfinite(x).all()
        assert labels.sum() == summary["positives"]

    def test_blob_offsets(self, small_dataset):
        _, idx = small_dataset
        rows = [json.loads(line) for line in idx.read_text().splitlines()]
        offsets = [r["patch_offset"] for r in rows]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)
        record = 16 + 4 * rows[0]["patch_size_px"] ** 2
        assert idx.with_suffix(".blob").stat().st_size == record * len(rows)

    def test_summary_consistency(self, small_dataset):
        _, idx = small_dataset
        summary = json.loads(idx.with_suffix(".summary.json").read_text())
        assert summary["positives"] + summary["negatives"] == summary["samples"]
        assert sum(summary["reasons"].values()) == summary["samples"]
        assert summary["reasons"].get("none", 0) == summary["positives"]

    def test_multi_cable_rule(self, small_dataset):
        _, idx = small_dataset
        rows = [json.loads(line) for line in idx.read_text().splitlines()]
        multi = [r for r in rows if len(r["contacted_ids"]) >= 2]
        assert multi, "fixture should contain at least one multi-cable contact"
        assert all(r["label"] == 0 for r in multi)

    def test_label_soundness_on_replay(self, small_dataset):
        cfg, idx = small_dataset
        _, labels, rows = load_dataset(idx)
        positives = [(meta, label) for meta, label in zip(rows, labels) if label == 1]
        negatives = [(meta, label) for meta, label in zip(rows, labels) if label == 0][:3]
        assert positives
        for meta, label in positives + negatives:
            out = replay_sample(meta, cfg)
            assert out.label == label
            assert out.failure_reason == meta["reason"]

    def test_positives_monotone_under_simplification(self, small_dataset):
        # dropping non-target cables or widening the bin only removes
        # collision geometry, so a success must stay a success
        cfg, idx = small_dataset
        _, labels, rows = load_dataset(idx)
        positives = [meta for meta, label in zip(rows, labels) if label == 1]
        assert positives
        scenes = {}
        for meta in positives:
            seed = meta["scene_seed"]
            if seed not in scenes:
                scenes[seed] = settle_scene(cfg.bin, [cfg.cable] * meta["cable_count"], seed)
            scene = scenes[seed]
            p = meta["pose"]
            pose = GraspPose(x=p["x"], y=p["y"], z=p["z"], theta=p["theta"], w=p["w"])
            target = meta["contacted_ids"][0]
            kept = [c for c in scene.cables if c.id == target]
            reduced = Scene(scene.bin, kept, scene.rng_seed)
            assert execute_grasp(reduced, pose, meta["f"]).label == 1
            wide = BinSpec(inner_x=scene.bin.inner_x + 60.0,
                           inner_y=scene.bin.inner_y + 60.0,
                           wall_height=scene.bin.wall_height,
                           thickness=scene.bin.thickness)
            widened = Scene(wide, scene.cables, scene.rng_seed)
            assert execute_grasp(widened, pose, meta["f"]).label == 1

    def test_overfilled_scenes_skipped(self, tmp_path, capsys):
        cfg = DatasetConfig(scene_count=1, cable_count_range=(1, 1),
                            grasps_per_scene=5, bin=BinSpec(inner_x=60.0, inner_y=50.0))
        idx = generate_dataset(cfg, 3, tmp_path)
        summary = json.loads(idx.with_suffix(".summary.json").read_text())
        assert summary["skipped"]["overfilled"] == 1
        assert summary["samples"] == 0
        assert idx.read_text() == ""
        # an index with no rows loads as zero rows, and training on it fails
        # as a named error
        x, labels, rows = load_dataset(idx)
        assert x.shape == (0, 0, 0) and len(labels) == len(rows) == 0
        assert dispatch(["train", "--dataset", str(idx), "--out", str(tmp_path / "ck")]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "DegenerateInput"

    def test_no_candidate_scenes_skipped(self, tmp_path):
        # near-zero friction cone plus heavy noise: nothing passes the
        # antipodal filter on a wall-free image
        cfg = DatasetConfig(scene_count=1, cable_count_range=(1, 1),
                            grasps_per_scene=5, friction_range=(0.02, 0.02),
                            gauss_sigma=2.0, salt_pepper_frac=0.05,
                            camera=Camera(width_px=400, height_px=300))
        idx = generate_dataset(cfg, 9, tmp_path)
        summary = json.loads(idx.with_suffix(".summary.json").read_text())
        assert summary["skipped"]["no_candidates"] == 1
        assert summary["samples"] == 0

    def test_positive_rate_monotone_in_friction(self, tmp_path):
        rates = {}
        for f in (0.1, 0.5):
            cfg = DatasetConfig(scene_count=50, cable_count_range=(1, 2),
                                grasps_per_scene=8, friction_range=(f, f))
            idx = generate_dataset(cfg, 77, tmp_path / f"f{int(f * 10)}")
            summary = json.loads(idx.with_suffix(".summary.json").read_text())
            assert summary["samples"] > 0
            rates[f] = summary["positives"] / summary["samples"]
        assert rates[0.5] >= rates[0.1]
        assert rates[0.5] > 0.0

    def test_missing_dataset_raises(self, tmp_path):
        with pytest.raises(DatasetNotFound):
            load_dataset(tmp_path / "absent.idx")
        orphan = tmp_path / "orphan.idx"
        orphan.write_text("")
        with pytest.raises(DatasetNotFound):
            load_dataset(orphan)

    def test_bad_pitch_names_blob(self, tmp_path):
        """A record whose pitch is not finite and positive fails the load,
        naming the blob, rather than loading a patch that nothing can scale."""
        rows = [{
            "scene_index": i, "candidate_index": 0,
            "patch": Patch(data=np.zeros((8, 8), np.float32), pitch=1.0),
            "label": i % 2, "reason": None,
            "contacted_ids": [0], "scene_seed": i, "cable_count": 1, "f": 0.3,
            "pose": {"x": 0.0, "y": 0.0, "z": 1.0, "theta": 0.0, "w": 8.0},
        } for i in range(2)]
        idx = write_dataset(rows, {"overfilled": 0, "no_candidates": 0}, 2, 0, tmp_path)
        blob = idx.with_suffix(".blob")
        good = blob.read_bytes()
        assert load_dataset(idx)[0].shape == (2, 8, 8)
        # the first record's header: magic, width, height, then the f32 pitch
        for bad in (math.nan, math.inf, 0.0, -0.5):
            blob.write_bytes(good[:12] + struct.pack("<f", bad) + good[16:])
            with pytest.raises(DegenerateInput, match="pitch") as err:
                load_dataset(idx)
            assert str(blob) in str(err.value)

    def test_write_dataset_counts_missing_reasons(self, tmp_path):
        reasons = [None, None, "none", "multi_object", "slip"]
        labels = [1, 0, 1, 0, 0]
        rows = [{
            "scene_index": i, "candidate_index": 0,
            "patch": Patch(data=np.zeros((8, 8), np.float32), pitch=1.0),
            "label": label, "reason": reason,
            "contacted_ids": [0], "scene_seed": i, "cable_count": 1, "f": 0.3,
            "pose": {"x": 0.0, "y": 0.0, "z": 1.0, "theta": 0.0, "w": 8.0},
        } for i, (label, reason) in enumerate(zip(labels, reasons))]
        idx = write_dataset(rows, {"overfilled": 0, "no_candidates": 0},
                            len(rows), 0, tmp_path)
        summary = json.loads(idx.with_suffix(".summary.json").read_text())
        assert all(isinstance(k, str) for k in summary["reasons"])
        assert sum(summary["reasons"].values()) == summary["samples"] == len(rows)
        assert summary["reasons"]["null"] == 2
        assert summary["reasons"]["none"] == 1
        x, stored, rows = load_dataset(idx)
        assert [r["reason"] for r in rows] == reasons
        assert stored.tolist() == labels and x.shape == (len(rows), 8, 8)

    def test_label_contradicting_reason_names_row(self, tmp_path):
        """A stored label that its stored reason contradicts fails the load,
        naming the index and the row."""
        rows = [{
            "scene_index": i, "candidate_index": 0,
            "patch": Patch(data=np.zeros((8, 8), np.float32), pitch=1.0),
            "label": label, "reason": reason,
            "contacted_ids": [0], "scene_seed": i, "cable_count": 1, "f": 0.3,
            "pose": {"x": 0.0, "y": 0.0, "z": 1.0, "theta": 0.0, "w": 8.0},
        } for i, (label, reason) in enumerate([(1, "empty_close"), (0, "empty_close")])]
        idx = write_dataset(rows, {"overfilled": 0, "no_candidates": 0}, 2, 0, tmp_path)
        with pytest.raises(DegenerateInput, match="row 0: label does not match") as err:
            load_dataset(idx)
        assert str(idx) in str(err.value)

    @pytest.mark.parametrize("label", [True, False, 1.0])
    def test_label_not_an_integer_names_row(self, tmp_path, label):
        """A stored label of JSON true, false or 1.0 fails the load, naming
        the index and the row, rather than loading as 1, 0 or 1."""
        rows = [{
            "scene_index": i, "candidate_index": 0,
            "patch": Patch(data=np.zeros((8, 8), np.float32), pitch=1.0),
            "label": stored, "reason": None,
            "contacted_ids": [0], "scene_seed": i, "cable_count": 1, "f": 0.3,
            "pose": {"x": 0.0, "y": 0.0, "z": 1.0, "theta": 0.0, "w": 8.0},
        } for i, stored in enumerate([0, label])]
        idx = write_dataset(rows, {"overfilled": 0, "no_candidates": 0}, 2, 0, tmp_path)
        with pytest.raises(DegenerateInput, match=f"row 1: label {label!r} is not 0 or 1") as err:
            load_dataset(idx)
        assert str(idx) in str(err.value)

    def test_config_validation(self):
        with pytest.raises(DegenerateInput):
            DatasetConfig(scene_count=0)
        with pytest.raises(DegenerateInput):
            DatasetConfig(cable_count_range=(0, 3))
        with pytest.raises(DegenerateInput, match="cable_count_range"):
            DatasetConfig(cable_count_range=(4, MAX_CABLES + 1))
        DatasetConfig(cable_count_range=(MAX_CABLES, MAX_CABLES))
        with pytest.raises(DegenerateInput):
            DatasetConfig(friction_range=(0.0, 0.5))
        with pytest.raises(DegenerateInput):
            DatasetConfig(friction_range=(0.5, 0.1))
        with pytest.raises(DegenerateInput):
            DatasetConfig(grasps_per_scene=0)
        for sigma in (-1.0, -1e-9, math.nan, math.inf):
            with pytest.raises(DegenerateInput):
                DatasetConfig(gauss_sigma=sigma)
        DatasetConfig(gauss_sigma=0.0)
