import numpy as np
import pytest

from graspforge.depthproc import (
    DepthImage, EdgePoints, Patch, add_noise, bilateral_filter, crop_rotated, detect_edges,
    downsample, estimate_normals, patch_from_record, record_bytes,
)
from graspforge.errors import DegenerateInput


def flat(depth=70.0, h=40, w=50, pitch=0.5):
    return DepthImage(data=np.full((h, w), depth, np.float32), pitch=pitch)


def step_image(near=50.0, far=70.0, split=25, h=40, w=50):
    data = np.full((h, w), far, np.float32)
    data[:, :split] = near
    return DepthImage(data=data, pitch=0.5)


class TestBilateral:
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

    def test_center_outside_raises(self):
        with pytest.raises(DegenerateInput):
            crop_rotated(flat(), (200.0, 10.0), 0.0, 16)


class TestNoise:
    def test_identity_when_disabled(self):
        img = flat()
        out = add_noise(img, np.random.default_rng(0), 0.0, 0.0)
        assert (out.data == img.data).all()

    def test_salt_pepper_count_binomial(self):
        img = flat(70.0, h=100, w=100)
        out = add_noise(img, np.random.default_rng(1), 0.0, 0.02, pepper_value=120.0)
        changed = int((out.data != 70.0).sum())
        assert 170 <= changed <= 230
        vals = set(np.unique(out.data[out.data != 70.0]).tolist())
        assert vals <= {0.0, 120.0}

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

    def test_downsample(self):
        img = flat(70.0, h=40, w=60, pitch=0.5)
        out = downsample(img, 4)
        assert out.data.shape == (10, 15)
        assert out.pitch == pytest.approx(2.0)
