import numpy as np
import pytest

from graspforge.errors import DegenerateInput
from graspforge.geometry import Pose3, TriMesh, box_mesh, convex_hull, load_obj, save_obj
from oracles import extrude_polygon, mesh_volume, piece_contains, ray_mesh, uv_sphere


class TestTriMesh:
    def test_validation_rejects_bad_faces(self):
        v = np.zeros((4, 3))
        with pytest.raises(DegenerateInput):
            TriMesh(v, np.array([[0, 1, 9], [0, 1, 2], [0, 2, 3], [1, 2, 3]]))

    def test_validation_rejects_nonfinite(self):
        v = np.zeros((4, 3))
        v[0, 0] = np.nan
        with pytest.raises(DegenerateInput):
            TriMesh(v, np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]))

    def test_box_volume_and_aabb(self):
        m = box_mesh((1.0, 2.0, 3.0), (0.5, 1.0, 1.5))
        assert mesh_volume(m) == pytest.approx(1.0 * 2.0 * 3.0)
        lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
        assert np.allclose(lo, [0.5, 1.0, 1.5])
        assert np.allclose(hi, [1.5, 3.0, 4.5])

    def test_box_centroid(self):
        m = box_mesh((1.0, -2.0, 0.5), (0.5, 0.5, 0.5))
        assert np.allclose(m.centroid(), [1.0, -2.0, 0.5])

    def test_sphere_volume_analytic(self):
        # inscribed polyhedron volume converges to 4/3 pi r^3 from below
        r = 5.0
        m = uv_sphere(np.zeros(3), r, n_theta=48, n_phi=96)
        exact = 4.0 / 3.0 * np.pi * r ** 3
        assert mesh_volume(m) < exact
        assert mesh_volume(m) == pytest.approx(exact, rel=5e-3)

    def test_extrude_volume_matches_area_times_height(self):
        poly = np.array([[0, 0], [4, 0], [4, 1], [1, 1], [1, 3], [0, 3]], float)
        area = 4.0 * 1.0 + 1.0 * 2.0
        m = extrude_polygon(poly, -1.0, 2.0)
        assert mesh_volume(m) == pytest.approx(area * 3.0)


class TestObjRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        m = box_mesh(rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.1)
        p = tmp_path / "box.obj"
        save_obj(m, p)
        m2 = load_obj(p)
        assert (m.vertices == m2.vertices).all()
        assert (m.faces == m2.faces).all()

    def test_save_is_deterministic(self, tmp_path):
        m = uv_sphere((0.3, -0.7, 1.1), 2.5)
        p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
        save_obj(m, p1)
        save_obj(m, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRaycast:
    def test_cube_hit_from_above(self):
        m = box_mesh(np.zeros(3), (0.5, 0.5, 0.5))
        t = ray_mesh(np.array([0.0, 0.0, 10.0]), np.array([0.0, 0.0, -1.0]), m)
        assert t == pytest.approx(9.5)

    def test_miss_returns_none(self):
        m = box_mesh(np.zeros(3), (0.5, 0.5, 0.5))
        assert ray_mesh(np.array([5.0, 0.0, 10.0]), np.array([0.0, 0.0, -1.0]), m) is None

    def test_posed_cube(self):
        m = box_mesh(np.zeros(3), (0.5, 0.5, 0.5))
        pose = Pose3(np.array([0.0, 0.0, -2.0]))
        t = ray_mesh(np.array([0.0, 0.0, 10.0]), np.array([0.0, 0.0, -1.0]), m, pose)
        assert t == pytest.approx(11.5)

    def test_rays_through_sphere_vertices_are_exact(self):
        # every mesh vertex lies exactly on the sphere, so a vertical ray
        # aimed at an upper vertex must hit at its analytic height even
        # though it lands on triangle corners/edges
        r = 5.0
        m = uv_sphere(np.zeros(3), r)
        hits = 0
        for v in m.vertices:
            if v[2] < 0.5 * r:
                continue
            t = ray_mesh(np.array([v[0], v[1], 10.0]), np.array([0.0, 0.0, -1.0]), m)
            assert t is not None
            assert abs(t - (10.0 - v[2])) < 1e-9
            hits += 1
        assert hits > 100


class TestConvexHullOp:
    def test_cube_corners(self):
        m = box_mesh(np.zeros(3), (0.5, 0.5, 0.5))
        piece = convex_hull(m.vertices)
        assert piece.vertices.shape == (8, 3)

    def test_interior_point_discarded(self):
        m = box_mesh(np.zeros(3), (0.5, 0.5, 0.5))
        pts = np.vstack([m.vertices, np.zeros(3)])
        piece = convex_hull(pts)
        assert piece.vertices.shape == (8, 3)

    def test_containment_of_inputs(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(100, 3))
        pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1))[:, None]
        piece = convex_hull(pts)
        assert piece_contains(piece, pts, tol=1e-6).all()

    def test_coplanar_rejected(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
        with pytest.raises(DegenerateInput):
            convex_hull(pts)


class TestPose3:
    def test_identity(self):
        p = Pose3(np.zeros(3))
        pts = np.random.default_rng(0).normal(size=(5, 3))
        assert np.allclose(p.apply(pts), pts)

    def test_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = Pose3.from_axis_angle(rng.normal(size=3), rng.uniform(-3, 3), rng.normal(size=3))
            b = Pose3.from_axis_angle(rng.normal(size=3), rng.uniform(-3, 3), rng.normal(size=3))
            pts = rng.normal(size=(4, 3))
            assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)), atol=1e-9)

    def test_rotation_preserves_lengths(self):
        p = Pose3.from_axis_angle((1.0, 2.0, -0.5), 1.234)
        pts = np.random.default_rng(1).normal(size=(10, 3))
        d_before = np.linalg.norm(pts[1:] - pts[0], axis=1)
        out = p.apply(pts)
        d_after = np.linalg.norm(out[1:] - out[0], axis=1)
        assert np.allclose(d_before, d_after)

    def test_matrix_built_once_and_read_only(self):
        p = Pose3.from_axis_angle((1.0, 2.0, -0.5), 1.234, (3.0, 0.0, 1.0))
        m = p.matrix()
        assert p.matrix() is m and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        w, x, y, z = p.rotation
        fresh = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                          [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                          [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
        assert m.tobytes() == fresh.tobytes()

    def test_nonunit_quaternion_rejected(self):
        with pytest.raises(DegenerateInput):
            Pose3(np.zeros(3), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_non_finite_pose_rejected(self):
        # a NaN pose would pass a norm test and pose a cable nowhere
        with pytest.raises(DegenerateInput):
            Pose3(np.array([0.0, np.nan, 0.0]))
        with pytest.raises(DegenerateInput):
            Pose3(np.zeros(3), np.array([np.nan, 0.0, 0.0, 0.0]))
