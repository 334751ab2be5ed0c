"""Selection policies, scoring, Wilson intervals, and the eval harness."""

import json
import math

import numpy as np
import pytest

import graspforge.policy as policy_mod
from graspforge.depthproc import Patch
from graspforge.errors import DegenerateInput, ShapeMismatch
from graspforge.policy import (PolicyConfig, evaluate_policy, score_candidates,
                               select_cgcnn, select_random, wilson_interval)
from graspforge.sampler import GraspPose
from graspforge.scene import BinSpec, CableSpec, Camera, settle_scene
from graspforge.simlab import DatasetConfig, execute_grasp, generate_dataset

from oracles import zeros_net


def make_candidate(x=0.0, y=0.0, z=5.0, patch_fill=0.0, size=16):
    pose = GraspPose(x=x, y=y, z=z, theta=0.0, w=8.0)
    data = np.full((size, size), patch_fill, dtype=np.float32)
    return (pose, Patch(data=data, pitch=0.5))


def passthrough_net(size=16):
    """Constant input c maps to exactly sigmoid(1.3 c - 0.2)."""
    net = zeros_net(size)
    for pi in (0, 2, 4):
        net.params[pi][0, 0, 1, 1] = 1.0
    net.params[6][0, 1, 1] = 1.0
    net.params[8][0, 0] = 1.0
    net.params[10][0] = 1.3
    net.params[11][0] = -0.2
    return net


def fill_for_quality(q):
    # invert the passthrough map; valid for targets above sigmoid(-0.2)
    return (math.log(q / (1.0 - q)) + 0.2) / 1.3


class TestPolicyConfig:
    def test_defaults(self):
        cfg = PolicyConfig()
        assert cfg.kind == "cgcnn" and cfg.lam == 0.2

    def test_validation(self):
        with pytest.raises(DegenerateInput):
            PolicyConfig(kind="greedy")
        with pytest.raises(DegenerateInput):
            PolicyConfig(lam=-0.1)
        with pytest.raises(DegenerateInput):
            PolicyConfig(lam=float("inf"))


class TestSelectRandom:
    def test_single_candidate(self):
        c = make_candidate(x=3.0)
        assert select_random([c], np.random.default_rng(0)) is c[0]

    def test_uniform_frequencies(self):
        cands = [make_candidate(x=float(i)) for i in range(10)]
        rng = np.random.default_rng(123)
        counts = np.zeros(10)
        for _ in range(10_000):
            counts[int(select_random(cands, rng).x)] += 1
        freqs = counts / 10_000
        assert freqs.min() >= 0.08 and freqs.max() <= 0.12

    def test_same_seed_same_pick(self):
        cands = [make_candidate(x=float(i)) for i in range(7)]
        a = select_random(cands, np.random.default_rng(42))
        b = select_random(cands, np.random.default_rng(42))
        assert a is b


class TestSelectCgcnn:
    def test_pure_quality_argmax(self, monkeypatch):
        monkeypatch.setattr(policy_mod, "forward_many",
                            lambda net, patches: np.array([0.9, 0.7, 0.2]))
        cands = [make_candidate(x=float(i), z=5.0 + i) for i in range(3)]
        pose = select_cgcnn(cands, zeros_net(16), 0.0)
        assert pose is cands[0][0]

    def test_height_bonus_breaks_equal_quality(self):
        # equal q = 0.5 from the zero net; bonus 0.5*(1 - 0/2) vs 0.5*(1 - 1/2)
        cands = [make_candidate(x=0.0, z=40.0), make_candidate(x=9.0, z=10.0)]
        pose = select_cgcnn(cands, zeros_net(16), 0.5)
        assert pose is cands[0][0]
        assert score_candidates(cands, zeros_net(16), 0.5) == [1.0, 0.75]

    def test_single_candidate_any_lambda(self):
        c = make_candidate()
        for lam in (0.0, 0.2, 3.0):
            assert select_cgcnn([c], zeros_net(16), lam) is c[0]

    def test_integration_with_real_forward(self):
        # constant-fill patches through the passthrough net give known q
        net = passthrough_net()
        fills = [fill_for_quality(q) for q in (0.9, 0.7, 0.55)]
        cands = [make_candidate(x=float(i), z=5.0, patch_fill=fills[i])
                 for i in range(3)]
        assert select_cgcnn(cands, net, 0.0) is cands[0][0]
        # at lam = 0 each score is the quality alone
        scores = score_candidates(cands, net, 0.0)
        assert np.allclose(scores, [0.9, 0.7, 0.55], atol=1e-5)

    def test_tie_break_low_z_then_x_then_y(self):
        net = zeros_net(16)
        cands = [make_candidate(x=1.0, y=0.0, z=5.0),
                 make_candidate(x=0.0, y=5.0, z=3.0),
                 make_candidate(x=0.0, y=2.0, z=3.0)]
        # all scores tie at lam = 0; lowest z wins, then x, then y
        assert select_cgcnn(cands, net, 0.0) is cands[2][0]


class TestScoreInvariants:
    def test_ranks_are_permutation(self):
        rng = np.random.default_rng(3)
        cands = [make_candidate(x=float(i), z=float(rng.uniform(0, 30)))
                 for i in range(9)]
        # the zero net's quality is 0.5 for every patch, so each score is
        # 0.5 + 0.2 * (1 - r/9) and gives back its rank r
        scores = score_candidates(cands, zeros_net(16), 0.2)
        ranks = [round(9 * (1.0 - (s - 0.5) / 0.2)) for s in scores]
        assert sorted(ranks) == list(range(9))
        top = max(range(9), key=lambda i: cands[i][0].z)
        assert ranks[top] == 0

    def test_constant_quality_shift_keeps_argmax(self, monkeypatch):
        rng = np.random.default_rng(4)
        base = rng.random(6)
        cands = [make_candidate(x=float(i), z=float(rng.uniform(0, 30)))
                 for i in range(6)]
        picks = []
        for shift in (0.0, -0.3, 0.25):
            monkeypatch.setattr(policy_mod, "forward_many",
                                lambda net, patches, s=shift: base + s)
            picks.append(select_cgcnn(cands, zeros_net(16), 0.2).x)
        assert picks[0] == picks[1] == picks[2]

    def test_lambda_zero_is_quality_argmax(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(20):
            qs = rng.random(8)
            cands = [make_candidate(x=float(i), z=float(rng.uniform(0, 30)))
                     for i in range(8)]
            monkeypatch.setattr(policy_mod, "forward_many",
                                lambda net, patches, q=qs: q)
            pose = select_cgcnn(cands, zeros_net(16), 0.0)
            assert pose is cands[int(np.argmax(qs))][0]

    def test_input_order_invariance(self):
        # quality tied to patch content, so it travels with the candidate
        net = passthrough_net()
        rng = np.random.default_rng(6)
        fills = [fill_for_quality(q) for q in (0.88, 0.72, 0.61, 0.57)]
        cands = [make_candidate(x=float(i), z=float(5 + i), patch_fill=fills[i])
                 for i in range(4)]
        want = select_cgcnn(cands, net, 0.3)
        for _ in range(5):
            perm = list(rng.permutation(4))
            shuffled = [cands[i] for i in perm]
            assert select_cgcnn(shuffled, net, 0.3) is want


class TestWilsonInterval:
    def test_reference_values(self):
        low, high = wilson_interval(8, 100)
        assert low == pytest.approx(0.0411, abs=2e-4)
        assert high == pytest.approx(0.1500, abs=2e-4)

    def test_boundary_cases(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0
        assert high == pytest.approx(0.2775, abs=2e-4)
        low, high = wilson_interval(10, 10)
        assert high == pytest.approx(1.0, abs=1e-12)
        assert low == pytest.approx(0.7225, abs=2e-4)

    def test_interval_contains_rate(self):
        for s, n in ((1, 7), (5, 9), (50, 200)):
            low, high = wilson_interval(s, n)
            assert low < s / n < high


def dataset_skips(cfg, master_seed, out_dir):
    """The skipped counts of the dataset `generate_dataset` writes on the
    same config and master seed."""
    idx = generate_dataset(cfg, master_seed, out_dir)
    return json.loads(idx.with_suffix(".summary.json").read_text())["skipped"]


def skip_reasons(report):
    """An evaluation's skip counts, in the dataset summary's form."""
    return {k: report["failures_by_reason"].get(k, 0) for k in ("overfilled", "no_candidates")}


class TestEvaluatePolicy:
    def test_deterministic_and_structured(self):
        cfg = DatasetConfig(scene_count=2, cable_count_range=(2, 2),
                            grasps_per_scene=6)
        rep1 = evaluate_policy(PolicyConfig(kind="random"), None, cfg, 11)
        rep2 = evaluate_policy(PolicyConfig(kind="random"), None, cfg, 11)
        assert rep1 == rep2
        assert rep1["trials"] == 2
        assert rep1["successes"] + sum(rep1["failures_by_reason"].values()) == 2
        assert 0.0 <= rep1["wilson_low"] <= rep1["rate"] <= rep1["wilson_high"] <= 1.0
        counted = sum(v["trials"] for v in rep1["by_cable_count"].values())
        skipped = sum(rep1["failures_by_reason"].get(k, 0)
                      for k in ("overfilled", "no_candidates"))
        assert counted == 2 - skipped

    def test_no_candidates_counted_as_failures(self, tmp_path):
        # hostile settings: heavy noise, tiny friction cone, coarse camera
        cfg = DatasetConfig(scene_count=2, cable_count_range=(2, 2),
                            grasps_per_scene=6, friction_range=(0.02, 0.02),
                            gauss_sigma=2.0, salt_pepper_frac=0.05,
                            camera=Camera(width_px=400, height_px=300),
                            resample_attempts=2)
        rep = evaluate_policy(PolicyConfig(kind="random"), None, cfg, 9)
        assert rep["failures_by_reason"].get("no_candidates", 0) == 2
        assert rep["successes"] == 0
        assert dataset_skips(cfg, 9, tmp_path) == skip_reasons(rep)

    def test_overfilled_counted_apart_from_no_candidates(self, tmp_path):
        # a bin too small for the cable: the trial's scene never settles
        cfg = DatasetConfig(scene_count=1, cable_count_range=(1, 1),
                            bin=BinSpec(inner_x=60.0, inner_y=50.0))
        rep = evaluate_policy(PolicyConfig(kind="random"), None, cfg, 3)
        assert rep["failures_by_reason"] == {"overfilled": 1}
        assert rep["successes"] == 0 and rep["by_cable_count"] == {}
        assert dataset_skips(cfg, 3, tmp_path) == skip_reasons(rep)

    def test_cgcnn_requires_net(self):
        cfg = DatasetConfig(scene_count=1)
        with pytest.raises(DegenerateInput):
            evaluate_policy(PolicyConfig(kind="cgcnn"), None, cfg, 0)

    def test_cgcnn_net_size_checked_before_trials(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(policy_mod, "settled_scenes", no_trial)
        cfg = DatasetConfig(scene_count=1)
        with pytest.raises(ShapeMismatch, match="32 != patch size 64"):
            evaluate_policy(PolicyConfig(kind="cgcnn"), zeros_net(32), cfg, 40)
        # a random pick ignores the net
        with pytest.raises(AssertionError, match="a trial ran"):
            evaluate_policy(PolicyConfig(kind="random"), zeros_net(32), cfg, 40)

    def test_rigged_scenes_perfect_rate(self):
        """Isolated cable, candidate list rigged so the height bonus ranks
        the good perpendicular grasp first: every pick must lift cleanly."""
        bin_spec = BinSpec()
        cable = CableSpec(bend_angle_range=(0.0, 0.0))
        net = zeros_net(64)
        successes = 0
        for k in range(5):
            scene = settle_scene(bin_spec, [cable], 100 + k)
            pose = scene.cables[0].pose
            cx, cy = float(pose.translation[0]), float(pose.translation[1])
            axis = pose.apply(np.array([[1.0, 0, 0], [0.0, 0, 0]]))
            u = axis[0] - axis[1]
            yaw = math.atan2(u[1], u[0])
            theta = (yaw + math.pi / 2) % math.pi
            good = (GraspPose(x=cx, y=cy, z=3.0, theta=theta, w=8.0),
                    Patch(data=np.zeros((64, 64), dtype=np.float32), pitch=0.5))
            decoy = (GraspPose(x=cx + 60.0, y=cy, z=0.5, theta=0.0, w=8.0),
                     Patch(data=np.zeros((64, 64), dtype=np.float32), pitch=0.5))
            picked = select_cgcnn([decoy, good], net, 0.2)
            assert picked is good[0]
            out = execute_grasp(scene, picked, 0.4)
            successes += out.label
        assert successes == 5
