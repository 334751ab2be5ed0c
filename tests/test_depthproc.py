import json
import math

import numpy as np
import pytest

from graspforge.config import RunConfig
from graspforge.depthproc import (
    PEPPER_VALUE, DepthImage, EdgePoints, Patch, add_noise, bilateral_filter, crop_rotated, detect_edges,
    downsample, estimate_normals, patch_from_record, record_bytes,
)
from graspforge.errors import DegenerateInput, ShapeMismatch
from graspforge.sampler import BILATERAL_RANGE, BILATERAL_SPATIAL
from graspforge.scene import Camera, load_scene, render_depth, save_scene
from graspforge.simlab import scene_plan, settle_plan

import oracles


def flat(depth=70.0, h=40, w=50, pitch=0.5):
    return DepthImage(data=np.full((h, w), depth, np.float32), pitch=pitch)


def step_image(near=50.0, far=70.0, split=25, h=40, w=50):
    data = np.full((h, w), far, np.float32)
    data[:, :split] = near
    return DepthImage(data=data, pitch=0.5)


@pytest.fixture(scope="module")
def pipeline_scene():
    """The `pipeline` benchmark's 8-cable evaluation pile (master seed 40),
    its evaluation config and its plan."""
    cfg = RunConfig().eval_config()
    plan = scene_plan(cfg, 40, 0)
    return settle_plan(cfg, plan), cfg, plan


@pytest.fixture(scope="module")
def pipeline_pile(pipeline_scene):
    """That pile rendered by the default camera, its config and its plan."""
    scene, cfg, plan = pipeline_scene
    return render_depth(scene, cfg.camera), cfg, plan


class TestBilateral:
    def test_matches_reference_bytes(self, pipeline_pile):
        # the noised pile (360 rows: the last band is short), a cut whose
        # height is not a multiple of a band, and a wider window
        img, cfg, plan = pipeline_pile
        noisy = add_noise(img, plan["rng"], cfg.gauss_sigma, cfg.salt_pepper_frac)
        cut = DepthImage(data=noisy.data[:77, :91], pitch=noisy.pitch)
        for src, sigma_s in ((noisy, BILATERAL_SPATIAL), (cut, BILATERAL_SPATIAL), (cut, 3.0)):
            got = bilateral_filter(src, sigma_s, BILATERAL_RANGE).data
            ref = oracles._ref_bilateral_filter(src, sigma_s, BILATERAL_RANGE).data
            assert got.tobytes() == ref.tobytes()

    def test_peak_memory_bounded(self, pipeline_pile):
        # the noised 8-cable pile at the sampler's sigmas: about 2.7 MiB with
        # one band's accumulators written straight into the float32 output,
        # 7.6 MiB with two image-sized float64 accumulators and a float64
        # copy of the image
        img, cfg, plan = pipeline_pile
        noisy = add_noise(img, plan["rng"], cfg.gauss_sigma, cfg.salt_pepper_frac)
        peak = oracles.traced_peak_mib(
            lambda: bilateral_filter(noisy, BILATERAL_SPATIAL, BILATERAL_RANGE), 1)
        assert peak < 4.0, peak

    def test_constant_unchanged(self):
        img = flat()
        out = bilateral_filter(img, 2.0, 2.0)
        assert np.abs(out.data - img.data).max() < 1e-6

    def test_step_preserved_noise_reduced(self):
        rng = np.random.default_rng(0)
        img = step_image()
        noisy = DepthImage(data=(img.data + rng.normal(0, 0.5, img.data.shape)).astype(np.float32),
                           pitch=img.pitch)
        out = bilateral_filter(noisy, 2.0, 2.0)
        # contrast across the step survives
        left = out.data[:, :20].mean()
        right = out.data[:, 30:].mean()
        assert (right - left) >= 0.95 * 20.0
        # flat-region noise drops by at least half
        resid_before = (noisy.data[:, 30:] - 70.0).std()
        resid_after = (out.data[:, 30:] - 70.0).std()
        assert resid_after <= 0.5 * resid_before

    def test_impulse_suppressed_in_smoothing_regime(self):
        # with range_sigma well above the spike the filter acts as a
        # Gaussian blur, so the spike spreads over ~2 pi sigma^2 pixels
        img = flat(70.0)
        data = img.data.copy()
        data[20, 25] = 90.0
        out = bilateral_filter(DepthImage(data=data, pitch=0.5), 2.0, 100.0)
        assert abs(out.data[20, 25] - 70.0) <= (90.0 - 70.0) / 10.0

    def test_impulse_survives_edge_preserving_regime(self):
        # a jump much larger than range_sigma is treated as structure
        img = flat(70.0)
        data = img.data.copy()
        data[20, 25] = 90.0
        out = bilateral_filter(DepthImage(data=data, pitch=0.5), 2.0, 2.0)
        assert out.data[20, 25] > 85.0


class TestDetectEdges:
    def test_flat_no_edges(self):
        assert len(detect_edges(flat(), 1.5)) == 0

    def test_vertical_step_single_near_column(self):
        img = step_image(near=50.0, far=70.0, split=25)
        edges = detect_edges(img, 1.5)
        xs = sorted(set(edges.xy[:, 0].tolist()))
        assert xs == [24]  # last near-side column
        assert edges.depth == pytest.approx(50.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        base = np.full((40, 60), 70.0)
        for _ in range(6):
            cx, cy = rng.integers(15, 40), rng.integers(12, 25)
            base[cy - 4:cy + 4, cx - 4:cx + 4] = 55.0
        img1 = DepthImage(data=base.astype(np.float32), pitch=0.5)
        shifted = np.roll(base, (0, 3), axis=(0, 1)).astype(np.float32)
        img2 = DepthImage(data=shifted, pitch=0.5)
        e1 = {(x + 3, y) for x, y in detect_edges(img1, 1.5).xy.tolist() if 5 < x < 50}
        e2 = {(x, y) for x, y in detect_edges(img2, 1.5).xy.tolist() if 8 < x < 53}
        assert e1 == e2

    def test_no_border_pixel_where_a_step_meets_the_image_edge(self):
        # crop_rotated takes the midpoint of two edge points unchecked; it
        # lies inside the image because no edge point is a border pixel,
        # even where the depth step runs into the image's edge
        corner = np.full((40, 50), 70.0, np.float32)
        corner[:6, :6] = 50.0
        for data in (step_image().data, corner):
            for view in (data, data.T, data[::-1, ::-1], data.T[::-1, ::-1]):
                img = DepthImage(data=np.ascontiguousarray(view), pitch=0.5)
                x, y = detect_edges(img, 1.5).xy.T
                assert len(x) > 0
                assert 1 <= x.min() and x.max() <= img.width - 2
                assert 1 <= y.min() and y.max() <= img.height - 2


class TestNormals:
    def test_vertical_edge_normals_horizontal(self):
        img = step_image(near=50.0, far=70.0, split=25)
        edges = estimate_normals(detect_edges(img, 1.5), radius=5.0)
        assert len(edges) > 10
        for normal in edges.normal:
            assert abs(np.linalg.norm(normal) - 1.0) < 1e-6
            # oriented toward the far (deeper) side, which is +x here
            assert normal[0] == pytest.approx(1.0, abs=1e-6)

    def test_circle_normals_radial(self):
        # disk of raised (nearer) depth: edge ring with outward-facing normals
        h = w = 80
        c = h / 2 - 0.5  # grid-symmetric center keeps the ring unbiased
        yy, xx = np.mgrid[0:h, 0:w]
        rad = np.hypot(xx - c, yy - c)
        data = np.where(rad < 20, 50.0, 70.0).astype(np.float32)
        img = DepthImage(data=data, pitch=0.5)
        edges = estimate_normals(detect_edges(img, 1.5), radius=5.0)
        assert len(edges) > 40
        for xy, normal in zip(edges.xy, edges.normal):
            radial = xy - c
            radial /= np.linalg.norm(radial)
            angle = np.degrees(np.arccos(np.clip(normal @ radial, -1, 1)))
            assert angle <= 5.0

    def test_isolated_points_dropped(self):
        # two edge points far apart: neither has a neighbor
        spaced = EdgePoints(xy=np.array([[1.0, 1.0], [50.0, 30.0]]),
                            depth=np.array([50.0, 50.0]),
                            grad=np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert len(estimate_normals(spaced, radius=5.0)) == 0

    def test_flip_x_negates_normal_x(self):
        img = step_image(near=50.0, far=70.0, split=25)
        flipped = DepthImage(data=img.data[:, ::-1].copy(), pitch=img.pitch)
        n1 = estimate_normals(detect_edges(img, 1.5), 5.0)
        n2 = estimate_normals(detect_edges(flipped, 1.5), 5.0)
        m1 = np.mean(n1.normal[:, 0])
        m2 = np.mean(n2.normal[:, 0])
        assert m1 == pytest.approx(-m2, abs=1e-6)


class TestCropRotated:
    def test_constant_image_gives_zero_patch(self):
        img = flat(70.0)
        p = crop_rotated(img, (25.0, 20.0), 0.0, 16)
        assert p.size == 16
        assert np.abs(p.data).max() < 1e-6

    def test_quarter_turn_turns_stripe(self):
        data = np.full((60, 60), 70.0, np.float32)
        data[28:32, :] = 50.0   # horizontal stripe
        img = DepthImage(data=data, pitch=0.5)
        p0 = crop_rotated(img, (30.0, 30.0), 0.0, 20)
        p90 = crop_rotated(img, (30.0, 30.0), np.pi / 2, 20)
        # stripe is horizontal (constant along x) at theta 0, vertical after
        assert np.abs(p0.data[10, :] - p0.data[10, 0]).max() < 1e-4
        assert np.abs(p90.data[:, 10] - p90.data[0, 10]).max() < 1e-4

    def test_theta_pi_equals_double_flip(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(40, 90, size=(64, 64)).astype(np.float32)
        img = DepthImage(data=data, pitch=0.5)
        a = crop_rotated(img, (31.7, 30.2), 0.3, 24)
        b = crop_rotated(img, (31.7, 30.2), 0.3 + np.pi, 24)
        assert np.abs(a.data - b.data[::-1, ::-1]).max() < 1e-4


class TestNoise:
    def test_identity_when_disabled(self):
        img = flat()
        out = add_noise(img, np.random.default_rng(0), 0.0, 0.0)
        assert (out.data == img.data).all()

    def test_salt_pepper_count_binomial(self):
        img = flat(70.0, h=100, w=100)
        out = add_noise(img, np.random.default_rng(1), 0.0, 0.02)
        changed = int((out.data != 70.0).sum())
        assert 170 <= changed <= 230
        vals = set(np.unique(out.data[out.data != 70.0]).tolist())
        assert vals <= {0.0, PEPPER_VALUE}

    def test_gaussian_std(self):
        img = flat(70.0, h=1000, w=1000)
        out = add_noise(img, np.random.default_rng(2), 1.0, 0.0)
        resid = out.data.astype(np.float64) - 70.0
        assert 0.95 <= resid.std() <= 1.05

    def test_never_negative(self):
        img = flat(0.5, h=50, w=50)
        out = add_noise(img, np.random.default_rng(3), 5.0, 0.05)
        assert (out.data >= 0).all()

    def test_deterministic_per_seed(self):
        img = flat()
        a = add_noise(img, np.random.default_rng(7), 1.0, 0.02)
        b = add_noise(img, np.random.default_rng(7), 1.0, 0.02)
        assert (a.data == b.data).all()

    def test_matches_reference_bytes_and_draws(self, pipeline_pile):
        # negative depths are clipped, dropouts land on both values, and
        # the rng ends where the reference leaves it
        img = pipeline_pile[0]
        for seed, sigma, frac in ((0, 0.6, 0.002), (1, 40.0, 0.3), (2, 0.0, 0.5),
                                  (3, 2.0, 0.0), (4, 0.0, 0.0)):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = add_noise(img, rng, sigma, frac).data
            ref = oracles.add_noise_reference(img, ref_rng, sigma, frac).data
            assert got.tobytes() == ref.tobytes(), seed
            assert rng.bit_generator.state == ref_rng.bit_generator.state, seed

    def test_peak_memory_bounded(self, pipeline_pile):
        # the 8-cable pile at the dataset's noise: about 3.0 MiB in one
        # float64 array, 4.8 MiB when each step formed a new one
        img, cfg, _ = pipeline_pile
        rng = np.random.default_rng(0)
        peak = oracles.traced_peak_mib(
            lambda: add_noise(img, rng, cfg.gauss_sigma, cfg.salt_pepper_frac), 1)
        assert peak < 4.0, peak


class TestIO:
    def test_patch_roundtrip(self):
        img = step_image()
        patch = crop_rotated(img, (25.0, 20.0), 0.4, 32)
        assert patch.data.min() < 0  # recentered depths go negative
        blob = b"pad" + record_bytes(patch)
        back = patch_from_record(blob, 3)
        assert back.data.shape == (32, 32)
        assert back.pitch == patch.pitch
        assert (back.data == patch.data).all()
        # a header or payload cut short, or an offset off the blob
        for buf, offset in ((blob[:10], 3), (blob[:-1], 3), (blob, -1),
                            (blob, len(blob)), (blob, "3")):
            with pytest.raises(DegenerateInput):
                patch_from_record(buf, offset)

    def test_bad_pitch_is_rejected(self):
        for bad in (math.nan, math.inf, -math.inf, 0.0, -0.5):
            record = record_bytes(Patch(data=np.zeros((4, 4), np.float32), pitch=bad))
            with pytest.raises(DegenerateInput, match="pitch"):
                patch_from_record(record)

    def test_non_square_or_non_finite_record_is_rejected(self):
        wide = record_bytes(DepthImage(data=np.zeros((4, 6), np.float32), pitch=0.5))
        with pytest.raises(ShapeMismatch, match="not square"):
            patch_from_record(wide)
        for bad in (math.nan, math.inf, -math.inf):
            data = np.zeros((4, 4), np.float32)
            data[2, 3] = bad
            with pytest.raises(DegenerateInput, match="finite"):
                patch_from_record(record_bytes(Patch(data=data, pitch=0.5)))

    def test_downsample(self):
        img = flat(70.0, h=40, w=60, pitch=0.5)
        out = downsample(img, 4)
        assert out.data.shape == (10, 15)
        assert out.pitch == pytest.approx(2.0)


class TestDepthBand:
    def test_rendered_depths_stay_in_band(self, pipeline_scene, tmp_path):
        """A depth image is only rendered from a pile that `settle_scene`
        settled or `load_scene` accepted, with the default camera: its
        depths are finite, from the camera height less the rim bound (the
        wall top plus a cable diameter) to the camera height. The loaded
        case includes a cable lifted to touch the bound."""
        scene, cfg, _ = pipeline_scene
        manifest = save_scene(scene, str(tmp_path))
        doc = json.loads(open(manifest, encoding="utf-8").read())
        rim = cfg.bin.wall_height + 2.0 * cfg.cable.radius
        cable = scene.cables[0]
        doc["cables"][0]["pose"]["translation"][2] += (
            rim - cable.pose.apply(cable.mesh.vertices)[:, 2].max())
        lifted = tmp_path / "lifted.json"
        lifted.write_text(json.dumps(doc))
        cam = Camera()
        for pile in (scene, load_scene(manifest, cfg.bin, cfg.cable),
                     load_scene(str(lifted), cfg.bin, cfg.cable)):
            depth = render_depth(pile, cam).data
            assert np.isfinite(depth).all()
            assert cam.height - rim - 1e-5 <= depth.min() and depth.max() <= cam.height
        # the lifted cable's top, seen at the pixel centres nearest to it
        assert depth.min() < cam.height - rim + 0.1
