import math

import numpy as np
import pytest

from graspforge.depthproc import DepthImage, add_noise
from graspforge.errors import DegenerateInput, NoCandidates
from graspforge.sampler import (
    ENGAGE_DEPTH, MAX_PAIR_TRIALS, W_MAX, ContactPair, GraspPose, SamplerConfig,
    estimate_grasp_width, force_closure_check, grasp_from_pair, sample_grasps,
)
from graspforge.scene import BinSpec, CableSpec, Camera, render_depth, settle_scene
from graspforge.simlab import DatasetConfig, scene_plan, settle_plan

import oracles


def make_pair(c1, c2, n1, n2, d1=60.0, d2=60.0):
    c1 = np.asarray(c1, float)
    c2 = np.asarray(c2, float)
    g1 = (c2 - c1) / np.linalg.norm(c2 - c1)
    return ContactPair(c1=c1, c2=c2, d1=d1, d2=d2,
                       n1=np.asarray(n1, float), n2=np.asarray(n2, float),
                       g1=g1, g2=-g1)


def rot2(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def cylinder_image(angle_deg, w=240, h=240, pitch=0.5, floor=70.0, r=4.0,
                   offset=0.0):
    """Cylinder of radius r resting on the floor, axis through the center
    shifted by `offset` mm perpendicular to direction `angle_deg`."""
    ys, xs = np.mgrid[0:h, 0:w]
    X = (xs - (w - 1) / 2.0) * pitch
    Y = ((h - 1) / 2.0 - ys) * pitch
    a = math.radians(angle_deg)
    d = X * (-math.sin(a)) + Y * math.cos(a) - offset
    inside = np.abs(d) <= r
    hgt = np.where(inside, r + np.sqrt(np.clip(r * r - d * d, 0.0, None)), 0.0)
    return DepthImage(data=(floor - hgt).astype(np.float32), pitch=pitch)


def flat_image(depth=70.0, size=100):
    return DepthImage(data=np.full((size, size), depth, np.float32), pitch=0.5)


def theta_dev(theta, perp):
    d = abs(theta - perp) % math.pi
    return min(d, math.pi - d)


class TestForceClosure:
    def test_perfectly_antipodal(self):
        pair = make_pair((0, 0), (16, 0), n1=(-1, 0), n2=(1, 0))
        assert force_closure_check(pair, 0.5)

    def test_tangential_contact_fails(self):
        pair = make_pair((0, 0), (16, 0), n1=(0, 1), n2=(1, 0))
        assert not force_closure_check(pair, 10.0)

    def test_20_degree_misalignment_threshold(self):
        # arctan(0.5) = 26.57 deg admits 20 deg; arctan(0.1) = 5.71 does not
        n1 = rot2(20.0) @ np.array([-1.0, 0.0])
        n2 = rot2(20.0) @ np.array([1.0, 0.0])
        pair = make_pair((0, 0), (16, 0), n1=n1, n2=n2)
        assert force_closure_check(pair, 0.5)
        assert not force_closure_check(pair, 0.1)

    def test_boundary_is_strict(self):
        f = 0.5
        exact = math.atan(f)
        n1 = rot2(math.degrees(exact)) @ np.array([-1.0, 0.0])
        pair = make_pair((0, 0), (16, 0), n1=n1, n2=(1, 0))
        assert not force_closure_check(pair, f)

    def test_stack_matches_reference_at_the_cone_edge(self):
        # cosines within a few ulps of cos(arctan f), where math.acos and
        # np.arccos can round to opposite sides of the limit
        for f in np.linspace(0.05, 1.0, 400).tolist():
            c0 = math.cos(math.atan(f))
            cos = c0 + np.arange(-6, 7) * np.spacing(c0)
            n1 = np.stack([-cos, np.sqrt(1.0 - cos * cos)], axis=1)
            g1 = np.tile([1.0, 0.0], (len(cos), 1))
            pairs = [make_pair((0, 0), (16, 0), n1=n, n2=-n) for n in n1]
            stack = ContactPair(c1=np.zeros_like(g1), c2=16.0 * g1, d1=np.full(len(cos), 60.0),
                                d2=np.full(len(cos), 60.0), n1=n1, n2=-n1, g1=g1, g2=-g1)
            want = [oracles.force_closure_check_reference(p, f) for p in pairs]
            assert force_closure_check(stack, f).tolist() == want
            assert [force_closure_check(p, f) for p in pairs] == want

    def test_invalid_friction(self):
        pair = make_pair((0, 0), (16, 0), n1=(-1, 0), n2=(1, 0))
        with pytest.raises(DegenerateInput):
            force_closure_check(pair, 0.0)


class TestGraspWidth:
    def test_horizontal_pair(self):
        pair = make_pair((0, 0), (20, 0), n1=(-1, 0), n2=(1, 0))
        assert estimate_grasp_width(pair, 0.5) == pytest.approx(10.0)

    def test_three_four_five(self):
        pair = make_pair((0, 0), (3, 4), n1=(-1, 0), n2=(1, 0))
        assert estimate_grasp_width(pair, 1.0) == pytest.approx(5.0)

    def test_matches_recomputation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c1 = rng.uniform(0, 100, 2)
            c2 = rng.uniform(0, 100, 2)
            if np.allclose(c1, c2):
                continue
            pitch = rng.uniform(0.1, 2.0)
            pair = make_pair(c1, c2, n1=(-1, 0), n2=(1, 0))
            want = math.hypot(*(c2 - c1)) * pitch
            assert estimate_grasp_width(pair, pitch) == pytest.approx(want, rel=1e-12)

    def test_coincident_rejected(self):
        pair = make_pair((5, 5), (6, 6), n1=(-1, 0), n2=(1, 0))
        bad = ContactPair(c1=pair.c1, c2=pair.c1, d1=60.0, d2=60.0,
                          n1=pair.n1, n2=pair.n2, g1=pair.g1, g2=pair.g2)
        with pytest.raises(DegenerateInput):
            estimate_grasp_width(bad, 0.5)


class TestPoseFromPair:
    def test_swap_gives_same_pose(self):
        img = flat_image()
        cfg = SamplerConfig()
        a = make_pair((30, 40), (50, 61), n1=(-1, 0), n2=(1, 0), d1=62.0, d2=64.0)
        b = make_pair((50, 61), (30, 40), n1=(1, 0), n2=(-1, 0), d1=64.0, d2=62.0)
        pa = grasp_from_pair(a, img, cfg)
        pb = grasp_from_pair(b, img, cfg)
        assert (pa.x, pa.y, pa.z, pa.theta, pa.w) == (pb.x, pb.y, pb.z, pb.theta, pb.w)

    def test_z_engages_below_shallower_contact(self):
        img = flat_image()
        cfg = SamplerConfig()
        pair = make_pair((30, 40), (50, 40), n1=(-1, 0), n2=(1, 0), d1=58.0, d2=60.0)
        pose = grasp_from_pair(pair, img, cfg)
        # shallower contact depth 58 -> surface at 12; engage 5 below
        assert pose.z == pytest.approx(12.0 - ENGAGE_DEPTH)

    def test_z_never_below_floor(self):
        img = flat_image()
        pair = make_pair((30, 40), (50, 40), n1=(-1, 0), n2=(1, 0),
                         d1=69.0, d2=69.0)
        pose = grasp_from_pair(pair, img, SamplerConfig())
        assert pose.z == 0.0

    def test_theta_in_range(self):
        img = flat_image()
        cfg = SamplerConfig()
        rng = np.random.default_rng(3)
        for _ in range(100):
            c1 = rng.uniform(5, 90, 2)
            c2 = rng.uniform(5, 90, 2)
            if np.allclose(c1, c2):
                continue
            pose = grasp_from_pair(make_pair(c1, c2, (-1, 0), (1, 0)), img, cfg)
            assert 0.0 <= pose.theta < math.pi

    def test_grasp_pose_validation(self):
        with pytest.raises(DegenerateInput):
            GraspPose(x=0, y=0, z=0, theta=0.0, w=0.0)
        with pytest.raises(DegenerateInput):
            GraspPose(x=0, y=0, z=0, theta=math.pi, w=5.0)


class TestSampleGrasps:
    def test_single_cylinder_geometry(self):
        # resting 8 mm cylinder: widths track the diameter and every grasp
        # axis lies inside the friction cone around the perpendicular
        img = cylinder_image(30.0)
        cands = sample_grasps(img, SamplerConfig(n=300, f=0.5),
                              np.random.default_rng(2))
        assert len(cands) > 50
        perp = math.radians(120.0) % math.pi
        bound = math.atan(0.5) + math.radians(3.0)  # slack for normal fits
        for pose, pair, _ in cands:
            assert 7.0 <= pose.w <= 10.0
            assert theta_dev(pose.theta, perp) < bound

    def test_rendered_cable_matches_silhouette(self):
        scene = settle_scene(BinSpec(), [CableSpec(bend_angle_range=(0.0, 0.0))],
                             seed=12)
        img, _ = render_depth(scene, Camera(width_px=400, height_px=300))
        cands = sample_grasps(img, SamplerConfig(n=200, f=0.5),
                              np.random.default_rng(5))
        v = scene.cables[0].pose.apply(scene.cables[0].mesh.vertices)
        axis = np.linalg.svd(v[:, :2] - v[:, :2].mean(0))[2][0]
        perp = (math.atan2(axis[1], axis[0]) + math.pi / 2.0) % math.pi
        bound = math.atan(0.5) + math.radians(3.0)
        for pose, _, _ in cands:
            assert 7.0 <= pose.w <= 10.0
            assert theta_dev(pose.theta, perp) < bound

    def test_flat_scene_no_candidates(self):
        with pytest.raises(NoCandidates):
            sample_grasps(flat_image(), SamplerConfig(), np.random.default_rng(0))

    def test_far_cylinders_never_spanned(self):
        a = cylinder_image(0.0, offset=25.0)
        b = cylinder_image(0.0, offset=-25.0)
        img = DepthImage(data=np.minimum(a.data, b.data), pitch=0.5)
        cands = sample_grasps(img, SamplerConfig(n=500, f=0.5),
                              np.random.default_rng(3))
        H = img.height
        for _, pair, _ in cands:
            y1 = ((H - 1) / 2.0 - pair.c1[1]) * img.pitch
            y2 = ((H - 1) / 2.0 - pair.c2[1]) * img.pitch
            assert (y1 > 0) == (y2 > 0)

    def test_emitted_candidates_repass_closure(self):
        img = cylinder_image(75.0)
        cfg = SamplerConfig(n=200, f=0.3)
        cands = sample_grasps(img, cfg, np.random.default_rng(8))
        for _, pair, _ in cands:
            assert force_closure_check(pair, cfg.f)
            assert np.linalg.norm(pair.n1) == pytest.approx(1.0)
            assert np.linalg.norm(pair.g1 + pair.g2) == 0.0

    def test_widths_capped_and_sorted(self):
        img = cylinder_image(10.0)
        cfg = SamplerConfig(n=150, f=0.5)
        cands = sample_grasps(img, cfg, np.random.default_rng(4))
        keys = [(p.z, p.x, p.y) for p, _, _ in cands]
        assert keys == sorted(keys)
        assert all(p.w <= W_MAX for p, _, _ in cands)

    def test_friction_shrinks_candidates(self):
        img = cylinder_image(30.0)
        sets = {}
        for f in (0.1, 0.3, 0.5):
            cands = sample_grasps(img, SamplerConfig(n=20000, f=f),
                                  np.random.default_rng(7))
            sets[f] = {(tuple(pr.c1), tuple(pr.c2)) for _, pr, _ in cands}
        assert sets[0.1] <= sets[0.3] <= sets[0.5]
        assert len(sets[0.1]) < len(sets[0.5])

    def test_patch_aligned_with_grasp_axis(self):
        # contacts land at +-w/2 along the patch horizontal; just beyond
        # them the floor appears, and the center sits on the cable top
        img = cylinder_image(30.0)
        cands = sample_grasps(img, SamplerConfig(n=120, f=0.5),
                              np.random.default_rng(2))
        for pose, _, patch in cands:
            d = patch.data
            mid = d.shape[0] // 2
            probe = int(round(pose.w / 2.0 / patch.pitch + 3))
            assert abs(d[mid, mid]) <= 0.5
            assert d[mid, mid + probe] >= 6.0
            assert d[mid, mid - probe] >= 6.0

    def test_deterministic_per_seed(self):
        img = cylinder_image(55.0)
        cfg = SamplerConfig(n=50, f=0.4)
        a = sample_grasps(img, cfg, np.random.default_rng(42))
        b = sample_grasps(img, cfg, np.random.default_rng(42))
        assert len(a) == len(b)
        for (pa, ra, ta), (pb, rb, tb) in zip(a, b):
            assert pa == pb
            assert ra.c1.tobytes() == rb.c1.tobytes()
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_candidate_cap(self):
        img = cylinder_image(0.0)
        cands = sample_grasps(img, SamplerConfig(n=5, f=0.5),
                              np.random.default_rng(1))
        assert len(cands) <= 5

    def test_config_validation(self):
        with pytest.raises(DegenerateInput):
            SamplerConfig(n=0)
        with pytest.raises(DegenerateInput):
            SamplerConfig(f=-0.1)


@pytest.fixture(scope="module")
def noisy_piles():
    """One rendered, noised pile of 3 to 5 cables per master seed."""
    cfg = DatasetConfig(cable_count_range=(3, 5))
    piles = []
    for master_seed in (0, 1, 2):
        plan = scene_plan(cfg, master_seed, 0)
        img, _ = render_depth(settle_plan(cfg, plan), cfg.camera)
        piles.append(add_noise(img, plan["rng"], cfg.gauss_sigma, cfg.salt_pepper_frac))
    return piles


def sampler_run(sample, img, cfg, seed):
    """Everything a sampler call yields, as comparable values: candidate
    poses and bytes (or the exception) and the rng state afterwards."""
    rng = np.random.default_rng(seed)
    try:
        out = [(pose, [a.tobytes() for a in (pr.c1, pr.c2, pr.n1, pr.n2, pr.g1, pr.g2)],
                pr.d1, pr.d2, patch.data.tobytes(), patch.pitch)
               for pose, pr, patch in sample(img, cfg, rng)]
    except NoCandidates as exc:
        out = (type(exc), str(exc))
    return out, rng.bit_generator.state


class TestBitIdentity:
    """The sampler returns the frozen loop form's bytes and leaves the rng
    where the loop form leaves it."""

    @pytest.mark.parametrize("pile", [0, 1, 2])
    def test_early_stop_matches_reference(self, noisy_piles, pile):
        cfg = SamplerConfig(n=5, f=0.4)
        got = sampler_run(sample_grasps, noisy_piles[pile], cfg, 10 + pile)
        assert len(got[0]) == cfg.n
        assert got == sampler_run(oracles.sample_grasps_reference, noisy_piles[pile],
                                  cfg, 10 + pile)

    @pytest.mark.parametrize("pile", [0, 1, 2])
    def test_all_trials_match_reference(self, noisy_piles, pile):
        cfg = SamplerConfig(f=0.3)
        got = sampler_run(sample_grasps, noisy_piles[pile], cfg, 20 + pile)
        assert 0 < len(got[0]) < cfg.n  # never filled: every trial ran
        assert got == sampler_run(oracles.sample_grasps_reference, noisy_piles[pile],
                                  cfg, 20 + pile)

    def test_no_force_closure_pair_matches_reference(self):
        # one straight step: every normal points the same way, so no pair
        # closes, and all trials run before NoCandidates
        data = np.full((120, 160), 70.0, np.float32)
        data[:, :80] = 50.0
        img = add_noise(DepthImage(data=data, pitch=0.5), np.random.default_rng(5), 0.3)
        cfg = SamplerConfig(f=0.4)
        got = sampler_run(sample_grasps, img, cfg, 30)
        assert got[0] == (NoCandidates, "no force-closure pair found")
        assert got == sampler_run(oracles.sample_grasps_reference, img, cfg, 30)

    def test_repeated_pairs_match_reference(self):
        # a small disk has about 30 edge points, so most trials repeat a pair
        yy, xx = np.mgrid[0:40, 0:40]
        data = np.where(np.hypot(xx - 19.5, yy - 19.5) < 6, 50.0, 70.0)
        img = DepthImage(data=data.astype(np.float32), pitch=0.5)
        for n, stops_early in ((30, True), (10_000, False)):
            cfg = SamplerConfig(n=n, f=0.4)
            got = sampler_run(sample_grasps, img, cfg, 50)
            assert (len(got[0]) == n) == stops_early
            assert got == sampler_run(oracles.sample_grasps_reference, img, cfg, 50)

    def test_flat_image_matches_reference(self):
        got = sampler_run(sample_grasps, flat_image(), SamplerConfig(), 40)
        assert got[0] == (NoCandidates, "fewer than two edge points")
        assert got == sampler_run(oracles.sample_grasps_reference, flat_image(),
                                  SamplerConfig(), 40)


@pytest.mark.parametrize("trials", [MAX_PAIR_TRIALS, 777])
@pytest.mark.parametrize("bound", [2, 5281, 6377, 2**31 - 1, 2**31 + 1])
def test_batched_draws_equal_per_trial_draws(trials, bound):
    """sample_grasps draws all pair trials in one call and, when it stops
    early, redraws the trials it used from the saved state. Both rely on
    one integers(size=(T, 2)) call giving the numbers and the end state of
    T integers(size=2) calls, rejections included: for a bound just above
    2**31 about half of the 32-bit draws are rejected."""
    batched = np.random.default_rng(99)
    single = np.random.default_rng(99)
    drawn = batched.integers(0, bound, size=(trials, 2))
    one_by_one = [single.integers(0, bound, size=2) for _ in range(trials)]
    assert np.array_equal(drawn, np.array(one_by_one))
    assert batched.bit_generator.state == single.bit_generator.state
