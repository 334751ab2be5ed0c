import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from graspforge import scene as scene_mod
from graspforge.config import RunConfig
from graspforge.errors import DegenerateInput, Overfilled, SelfIntersecting
from graspforge.geometry import ConvexPiece, Pose3, TriMesh, box_mesh, convex_hull, gjk_world
from graspforge.scene import (
    CONTACT_EPS, BinSpec, CableSpec, Camera, PlacedCable, Scene, bin_mesh,
    cable_decomposition, load_scene, make_cable_mesh, render_depth, save_scene,
    settle_scene,
)
from graspforge.simlab import scene_plan, settle_plan

import oracles
from oracles import mesh_volume, px_to_world, uv_sphere


def rng_for(seed):
    return np.random.default_rng(seed)


def straight_spec(sides=12):
    return CableSpec(bend_angle_range=(0.0, 0.0), tube_sides=sides)


def world_vertices(cable):
    return cable.pose.apply(cable.mesh.vertices)


def pairwise_min_distance(ca, cb, erosion=0.0):
    best = np.inf
    for pa in ca.pieces:
        va = ca.pose.apply(pa.vertices)
        for pb in cb.pieces:
            vb = cb.pose.apply(pb.vertices)
            r = gjk_world(va, vb, erosion_a=erosion, erosion_b=erosion,
                          max_distance=best)
            best = min(best, r.distance)
    return best


def scene_triangles(scene):
    """All world-space triangles: bin first, then each cable."""
    groups = [bin_mesh(scene.bin).triangles()]
    for c in scene.cables:
        tris = c.mesh.vertices[c.mesh.faces].reshape(-1, 3)
        groups.append(c.pose.apply(tris).reshape(-1, 3, 3))
    return np.concatenate(groups, axis=0)


def box_scene(half_extents, center, bin_spec=None):
    """Scene holding one static convex box, for render checks."""
    mesh = box_mesh(np.asarray(center, float), half_extents)
    placed = PlacedCable(id=0, spec=CableSpec(), mesh=mesh,
                         pieces=[convex_hull(mesh.vertices)], pose=Pose3(np.zeros(3)))
    return Scene(bin=bin_spec or BinSpec(), cables=[placed], rng_seed=0)


# (master seed, scene index, evaluation pile): the `pipeline` benchmark's
# 6-cable dataset pile and 8-cable evaluation pile, then default dataset
# scenes 0-2
SEEDED_PILES = ((40, 0, False), (40, 0, True), (0, 0, False), (0, 1, False), (0, 2, False))


def settle_seeded(seed, index, evaluation):
    rc = RunConfig()
    cfg = rc.eval_config() if evaluation else rc.dataset_config()
    return settle_plan(cfg, scene_plan(cfg, seed, index))


@pytest.fixture(scope="module")
def pipeline_piles():
    return [settle_seeded(*pile) for pile in SEEDED_PILES[:2]]


class TestCableMesh:
    def test_straight_volume_matches_cylinder(self):
        # straight tube at 24 sides: prism over the inscribed 24-gon
        spec = straight_spec(sides=24)
        mesh = make_cable_mesh(spec, rng_for(3))
        length = spec.segment_count * spec.segment_length
        expected = math.pi * spec.radius ** 2 * length
        assert abs(mesh_volume(mesh) - expected) <= 0.03 * expected

    def test_same_seed_byte_identical(self):
        spec = CableSpec()
        a = make_cable_mesh(spec, rng_for(9))
        b = make_cable_mesh(spec, rng_for(9))
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.faces.tobytes() == b.faces.tobytes()

    def test_different_seeds_differ(self):
        spec = CableSpec()
        a = make_cable_mesh(spec, rng_for(1))
        b = make_cable_mesh(spec, rng_for(2))
        assert a.vertices.tobytes() != b.vertices.tobytes()

    def test_bent_mesh_is_watertight(self):
        # each directed edge once and its reverse once: every edge joins
        # exactly two faces that wind it opposite ways, so the surface is
        # closed and consistently oriented
        spec = CableSpec(segment_count=6, bend_angle_range=(0.0, 40.0))
        for seed in (0, 4, 9, 17):
            f = make_cable_mesh(spec, rng_for(seed)).faces
            edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]).tolist()
            directed = set(map(tuple, edges))
            assert len(directed) == len(edges), seed
            assert directed == {(b, a) for a, b in directed}, seed

    def test_centered_on_volume_centroid(self):
        mesh = make_cable_mesh(CableSpec(), rng_for(4))
        assert np.abs(mesh.centroid()).max() < 1e-6

    def test_invalid_specs_rejected(self):
        with pytest.raises(DegenerateInput):
            CableSpec(radius=0.0)
        with pytest.raises(DegenerateInput):
            CableSpec(segment_count=1)
        with pytest.raises(DegenerateInput):
            CableSpec(tube_sides=5)

    def test_folded_polyline_raises(self):
        spec = CableSpec(segment_count=4, bend_angle_range=(170.0, 179.0))
        with pytest.raises(SelfIntersecting):
            make_cable_mesh(spec, rng_for(0))


class TestCableDecomposition:
    def test_exact_cover_of_interior(self):
        spec = CableSpec()
        mesh = make_cable_mesh(spec, rng_for(21))
        pieces = cable_decomposition(mesh, spec.tube_sides)
        pts = oracles.sample_interior_points(mesh.triangles(), 400, rng_for(5))
        covered = np.zeros(len(pts), bool)
        for piece in pieces:
            covered |= oracles.piece_contains(piece, pts, tol=1e-9)
        assert covered.all()

    def test_one_convex_piece_per_segment(self):
        spec = CableSpec()
        mesh = make_cable_mesh(spec, rng_for(21))
        assert len(cable_decomposition(mesh, spec.tube_sides)) == spec.segment_count

    def test_pieces_stay_inside_mesh_bounds(self):
        spec = CableSpec()
        mesh = make_cable_mesh(spec, rng_for(8))
        lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        for piece in cable_decomposition(mesh, spec.tube_sides):
            assert (piece.vertices >= lo - 1e-9).all()
            assert (piece.vertices <= hi + 1e-9).all()


class TestSettle:
    def test_single_straight_cable_rests_on_floor(self):
        scene = settle_scene(BinSpec(), [straight_spec()], seed=12)
        v = world_vertices(scene.cables[0])
        assert abs(v[:, 2].min()) <= 0.1

    def test_crossed_pair_rests_without_deep_overlap(self):
        scene = settle_scene(BinSpec(), [straight_spec(), straight_spec()], seed=1)
        lower, upper = sorted(scene.cables, key=lambda c: world_vertices(c)[:, 2].mean())
        # the upper cable lies over the lower one and touches it
        assert world_vertices(upper)[:, 2].max() > 2.0 * upper.spec.radius
        assert pairwise_min_distance(lower, upper) < 0.5
        # shrinking both hulls by 1 mm leaves a gap: overlap is under 2 mm
        assert pairwise_min_distance(lower, upper, erosion=1.0) > 0.0

    def test_same_seed_identical_scene(self):
        specs = [CableSpec() for _ in range(4)]
        a = settle_scene(BinSpec(), specs, seed=23)
        b = settle_scene(BinSpec(), specs, seed=23)
        assert a.rng_seed == b.rng_seed
        for ca, cb in zip(a.cables, b.cables):
            assert ca.mesh.vertices.tobytes() == cb.mesh.vertices.tobytes()
            assert ca.pose.translation.tobytes() == cb.pose.translation.tobytes()
            assert ca.pose.rotation.tobytes() == cb.pose.rotation.tobytes()

    def test_pile_respects_scene_invariants(self):
        bin_spec = BinSpec()
        scene = settle_scene(bin_spec, [CableSpec() for _ in range(8)], seed=41)
        lo_fp, hi_fp = bin_spec.footprint()
        for c in scene.cables:
            v = world_vertices(c)
            assert (v[:, :2].min(axis=0) >= lo_fp - 1e-6).all()
            assert (v[:, :2].max(axis=0) <= hi_fp + 1e-6).all()
            assert v[:, 2].min() >= -1e-6
        for i, ca in enumerate(scene.cables):
            for cb in scene.cables[i + 1:]:
                assert pairwise_min_distance(ca, cb, erosion=1.0) > 0.0

    def test_every_cable_is_supported(self):
        scene = settle_scene(BinSpec(), [CableSpec() for _ in range(5)], seed=23)
        floor = convex_hull(box_mesh(np.array([0.0, 0.0, -4.0]),
                                     (110.0, 85.0, 4.0)).vertices)
        for c in scene.cables:
            best = np.inf
            for piece in c.pieces:
                v = c.pose.apply(piece.vertices)
                best = min(best, gjk_world(v, floor.vertices, max_distance=best).distance)
            for other in scene.cables:
                if other.id == c.id:
                    continue
                best = min(best, pairwise_min_distance(c, other))
            # resting contact with the floor or another cable
            assert best <= 0.5

    def test_cable_count_bounds(self):
        with pytest.raises(DegenerateInput):
            settle_scene(BinSpec(), [], seed=0)
        with pytest.raises(DegenerateInput):
            settle_scene(BinSpec(), [CableSpec() for _ in range(31)], seed=0)

    def test_cable_too_long_for_bin_overfills(self):
        tiny = BinSpec(inner_x=60.0, inner_y=50.0)
        with pytest.raises(Overfilled):
            settle_scene(tiny, [straight_spec()], seed=5)


class TestSettleBitIdentity:
    """settle_scene must place every cable at the frozen reference's pose
    bytes: pinned artifacts depend on every bit of a settled pose."""

    # (seed, cables); each pile retries a topple at a higher lift and
    # keeps a rest whose contact set the final check reuses
    PILES = ((0, 3), (1, 4), (4, 4))

    @pytest.mark.parametrize("seed, count", PILES)
    def test_matches_reference_settle(self, monkeypatch, seed, count):
        specs = [CableSpec() for _ in range(count)]
        lifts, contact_calls = [], []
        advance_down, contact_points = scene_mod._advance_down, scene_mod._contact_points

        def spy_advance_down(body, pairs, *args):
            lifts.append(pairs)
            return advance_down(body, pairs, *args)

        def spy_contact_points(*args, **kwargs):
            contact_calls.append(None)
            return contact_points(*args, **kwargs)

        monkeypatch.setattr(scene_mod, "_advance_down", spy_advance_down)
        monkeypatch.setattr(scene_mod, "_contact_points", spy_contact_points)
        got = settle_scene(BinSpec(), specs, seed)
        monkeypatch.undo()

        ref_contact_calls = []
        ref_contact_points = oracles._ref_contact_points

        def spy_ref_contact_points(*args, **kwargs):
            ref_contact_calls.append(None)
            return ref_contact_points(*args, **kwargs)

        monkeypatch.setattr(oracles, "_ref_contact_points", spy_ref_contact_points)
        want = oracles.settle_scene_reference(BinSpec(), specs, seed)

        assert len(got.cables) == len(want.cables) == count
        for a, b in zip(got.cables, want.cables):
            assert a.pose.translation.tobytes() == b.pose.translation.tobytes()
            assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
        # a lift retry passes the same pair list again
        assert any(a is b for a, b in zip(lifts, lifts[1:]))
        # each reused contact set saves one of the reference's calls
        assert len(contact_calls) < len(ref_contact_calls)


class TestContactPoints:
    def test_shared_vertices_queried_once(self, monkeypatch):
        # adjacent body pieces share their joint vertices: the memoised call
        # gives the unmemoised loop's contact list, byte for byte, with fewer
        # kernel calls
        calls = {"got": 0, "want": 0}
        phase = [None]

        def counted(kernel):
            def call(*args, **kwargs):
                if phase[0] is not None:
                    calls[phase[0]] += 1
                return kernel(*args, **kwargs)
            return call

        contact_points = scene_mod._contact_points

        def spy_contact_points(body, statics, tol):
            phase[0] = "got"
            got = contact_points(body, statics, tol)
            phase[0] = "want"
            want = oracles._ref_contact_points(body, statics, tol)
            phase[0] = None
            assert len(got) == len(want)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            return got

        monkeypatch.setattr(scene_mod, "gjk_world", counted(scene_mod.gjk_world))
        monkeypatch.setattr(oracles, "gjk_world_reference",
                            counted(oracles.gjk_world_reference))
        monkeypatch.setattr(scene_mod, "_contact_points", spy_contact_points)
        settle_seeded(*SEEDED_PILES[0])
        assert 0 < calls["got"] < calls["want"]


class TestBlockingPairs:
    """`_blocking_pairs` certifies most keep-or-drop decisions with 2-D
    separating-axis tests; every one must be the flattened kernel query's."""

    @staticmethod
    def kernel_keeps(body, st, i, j):
        r = gjk_world(body.flat(i), st.flat(j), max_distance=2.0 * CONTACT_EPS)
        return r.distance <= CONTACT_EPS

    def test_certified_decisions_match_kernel(self, monkeypatch):
        tol = scene_mod._CERT_TOL
        seen = {"keep": 0, "drop": 0, "band": 0}
        blocking = scene_mod._blocking_pairs

        def spy_blocking_pairs(body, statics):
            cand = [(st, i, j) for st in statics
                    for i, j in scene_mod._aabb_pairs(body, st, CONTACT_EPS, axes=2).tolist()]
            want = []
            if cand:
                for (st, i, j), gap, depth in zip(cand, *scene_mod._xy_gaps(body, cand)):
                    keeps = self.kernel_keeps(body, st, i, j)
                    if depth < -tol:
                        assert keeps
                        seen["keep"] += 1
                    elif gap > CONTACT_EPS + tol:
                        assert not keeps
                        seen["drop"] += 1
                    else:
                        seen["band"] += 1
                    if keeps:
                        want.append((i, st, j))
            got = blocking(body, statics)
            assert got == want
            return got

        monkeypatch.setattr(scene_mod, "_blocking_pairs", spy_blocking_pairs)
        for pile in SEEDED_PILES:
            settle_seeded(*pile)
        assert seen["keep"] > 0 and seen["drop"] > 0
        # the kernel still decides the band
        assert seen["band"] > 0

    def test_sliver_outline_falls_back_to_kernel(self, monkeypatch):
        # a vertical plate over the diagonal y = x: its xy projection is a
        # segment, which qhull cannot hull
        a, b = np.array([0.0, 0.0]), np.array([40.0, 40.0])
        plate = np.array([[*p, z] for p in (a, b) for z in (0.0, 10.0)])
        st = scene_mod._WorldBody([ConvexPiece(vertices=plate)])
        assert np.isnan(st.outline(0)).all()
        calls = []

        def spy_gjk_world(*args, **kwargs):
            calls.append(None)
            return gjk_world(*args, **kwargs)

        monkeypatch.setattr(scene_mod, "gjk_world", spy_gjk_world)
        box = convex_hull(box_mesh(np.zeros(3), (1.0, 1.0, 1.0)).vertices)
        # box centers: across the plate, 0.03 mm from it and 1 mm from it,
        # all inside its box in x and y
        off = np.array([1.0, -1.0]) / math.sqrt(2.0)
        for gap, keep in ((-1.0, True), (0.03, True), (1.0, False)):
            center = np.array([20.0, 20.0]) + (math.sqrt(2.0) + gap) * off
            body = scene_mod._WorldBody([box], Pose3((*center, 5.0)))
            pairs = scene_mod._blocking_pairs(body, [st])
            assert pairs == ([(0, st, 0)] if keep else [])
            assert self.kernel_keeps(body, st, 0, 0) == keep
        assert len(calls) == 3


class TestRenderDepth:
    def interior_camera(self):
        # frustum exactly over the bin interior: no wall pixels
        return Camera(width_px=400, height_px=300)

    def test_empty_bin_constant_height(self):
        scene = Scene(bin=BinSpec(), cables=[], rng_seed=0)
        cam = self.interior_camera()
        img = render_depth(scene, cam)
        assert np.abs(img.data - cam.height).max() < 1e-9

    def test_box_reads_height_minus_h(self):
        h = 18.0
        scene = box_scene((15.0, 10.0, h / 2.0), (0.0, 0.0, h / 2.0))
        cam = self.interior_camera()
        img = render_depth(scene, cam)
        cx, cy = cam.world_to_px(0.0, 0.0)
        px, py = int(round(cx)), int(round(cy))
        d = img.data.reshape(img.height, img.width)
        assert abs(d[py, px] - (cam.height - h)) < 1e-9
        # 5 mm past the box's +x face the floor shows again
        ox, _ = cam.world_to_px(20.0, 0.0)
        assert abs(d[py, int(round(ox))] - cam.height) < 1e-9
        assert abs(d[0, 0] - cam.height) < 1e-9

    def test_sphere_center_pixel_analytic(self):
        radius, cz = 15.0, 20.0
        mesh = uv_sphere(np.array([0.0, 0.0, cz]), radius)
        scene = Scene(bin=BinSpec(),
                      cables=[PlacedCable(id=0, spec=CableSpec(), mesh=mesh,
                                          pieces=[convex_hull(mesh.vertices)],
                                          pose=Pose3(np.zeros(3)))],
                      rng_seed=0)
        # odd pixel counts center a pixel exactly on the sphere apex
        cam = Camera(width_px=481, height_px=361)
        img = render_depth(scene, cam)
        d = img.data.reshape(361, 481)
        assert abs(d[180, 240] - (cam.height - (cz + radius))) < 1e-9

    def test_depth_band_and_cable_pixels(self):
        scene = settle_scene(BinSpec(), [CableSpec() for _ in range(8)], seed=41)
        cam = Camera()
        img = render_depth(scene, cam)
        diameter = 2.0 * max(c.spec.radius for c in scene.cables)
        lo = cam.height - scene.bin.wall_height - diameter
        assert img.data.min() >= lo - 1e-6
        assert img.data.max() <= cam.height + 1e-6
        # inside the walls, anything above the floor is cable
        x, y = px_to_world(cam, *np.meshgrid(np.arange(cam.width_px), np.arange(cam.height_px)))
        interior = (np.abs(x) < scene.bin.inner_x / 2.0) & (np.abs(y) < scene.bin.inner_y / 2.0)
        assert (img.data[interior] < cam.height - 1e-6).sum() > 1000

    def test_adding_cable_never_raises_depth(self):
        full = settle_scene(BinSpec(), [CableSpec() for _ in range(6)], seed=200)
        fewer = Scene(bin=full.bin, cables=full.cables[:-1], rng_seed=full.rng_seed)
        cam = Camera()
        d_full = render_depth(full, cam).data
        d_fewer = render_depth(fewer, cam).data
        assert (d_full <= d_fewer + 1e-9).all()

    def test_matches_direct_raycast(self):
        scene = settle_scene(BinSpec(), [CableSpec() for _ in range(5)], seed=23)
        cam = Camera()
        img = render_depth(scene, cam)
        d = img.data.reshape(cam.height_px, cam.width_px)
        tris = scene_triangles(scene)
        rng = rng_for(0)
        down = np.array([0.0, 0.0, -1.0])
        for _ in range(60):
            py = int(rng.integers(0, cam.height_px))
            px = int(rng.integers(0, cam.width_px))
            x, y = px_to_world(cam, px, py)
            t = oracles.ray_triangles(np.array([x, y, cam.height]), down, tris)
            expected = t if t is not None else cam.height
            assert abs(d[py, px] - expected) < 1e-6

    def test_matches_reference_bytes(self, pipeline_piles):
        # the default camera, one whose frame cuts the wall triangles at
        # the image border, and one with odd pixel counts and pitch
        cams = (Camera(), self.interior_camera(),
                Camera(width_px=433, height_px=321, pitch=0.47))
        for scene in pipeline_piles:
            for cam in cams:
                got = render_depth(scene, cam).data
                assert got.tobytes() == oracles.render_depth_reference(scene, cam).data.tobytes()

    def test_matches_reference_on_vertical_and_sunken_faces(self):
        # open vertical plates along y = 20 whose top edge leans by 0 to
        # 1e-6 mm: den is 0, then falls on both sides of the
        # degenerate-triangle cut-off (for the odd-sized camera, about 6e-13
        # and 1.1e-12 px^2 at one and two ulps of py). Then boxes wholly
        # below the floor, through it, just above it, and one whose top
        # face's edges run through that camera's pixel centers.
        def placed(k, verts, faces):
            return PlacedCable(id=k, spec=CableSpec(), mesh=TriMesh(verts, faces),
                               pieces=[], pose=Pose3(np.zeros(3)))

        cables = []
        quad = np.array([[0, 1, 2], [0, 2, 3], [0, 2, 1], [0, 3, 2]])
        for k, lean in enumerate((0.0, 1.5e-14, 3e-14, 6e-14, 1e-12, 1e-9, 1e-6)):
            x0 = -90.0 + 25.0 * k
            verts = [[x0, 20.0, 2.0], [x0 + 10.0, 20.0, 2.0],
                     [x0 + 10.0, 20.0 + lean, 12.0], [x0, 20.0 + lean, 12.0]]
            cables.append(placed(k, verts, quad))
        for center, half in (((-50.0, -40.0, -6.0), (20.0, 10.0, 5.0)),
                             ((0.0, -40.0, 0.5), (20.0, 10.0, 5.0)),
                             ((50.0, -40.0, 0.3), (10.0, 10.0, 0.5)),
                             ((50.0, 50.0, 3.0), (10.0, 10.0, 3.0))):
            box = box_mesh(np.array(center), half)
            cables.append(placed(len(cables), box.vertices, box.faces))
        scene = Scene(bin=BinSpec(), cables=cables, rng_seed=0)
        for cam in (Camera(), self.interior_camera(), Camera(width_px=481, height_px=361)):
            got = render_depth(scene, cam).data
            assert got.tobytes() == oracles.render_depth_reference(scene, cam).data.tobytes()

    def test_peak_memory_bounded(self, pipeline_piles):
        # the 8-cable pile: about 17 MiB in passes of 64k box pixels, about
        # 100 MiB when every triangle's box is rasterised in one pass
        scene, cam = pipeline_piles[1], Camera()
        tracemalloc.start()
        try:
            render_depth(scene, cam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < 24.0

    def test_pixel_mapping_roundtrip(self):
        cam = Camera()
        for px, py in [(0, 0), (479, 359), (240, 180), (17, 311)]:
            x, y = px_to_world(cam, px, py)
            qx, qy = cam.world_to_px(x, y)
            assert abs(qx - px) < 1e-12 and abs(qy - py) < 1e-12

    def test_invalid_camera_rejected(self):
        with pytest.raises(DegenerateInput):
            Camera(pitch=0.0)
        scene = Scene(bin=BinSpec(), cables=[], rng_seed=0)
        with pytest.raises(DegenerateInput):
            # frustum narrower than the bin interior
            render_depth(scene, Camera(width_px=100, height_px=100))


class TestScenePersistence:
    def test_roundtrip_preserves_scene(self, tmp_path):
        scene = settle_scene(BinSpec(), [CableSpec() for _ in range(3)], seed=77)
        manifest = save_scene(scene, str(tmp_path / "scene"))
        loaded = load_scene(manifest, BinSpec(), CableSpec())
        assert loaded.rng_seed == scene.rng_seed
        assert loaded.bin == scene.bin
        assert len(loaded.cables) == len(scene.cables)
        for ca, cb in zip(scene.cables, loaded.cables):
            assert ca.spec == cb.spec
            assert ca.mesh.vertices.tobytes() == cb.mesh.vertices.tobytes()
            np.testing.assert_array_equal(ca.pose.translation, cb.pose.translation)
            np.testing.assert_array_equal(ca.pose.rotation, cb.pose.rotation)

    def test_roundtrip_renders_identically(self, tmp_path):
        scene = settle_scene(BinSpec(), [CableSpec(), CableSpec()], seed=31)
        manifest = save_scene(scene, str(tmp_path / "scene"))
        loaded = load_scene(manifest, BinSpec(), CableSpec())
        cam = Camera()
        a = render_depth(scene, cam)
        b = render_depth(loaded, cam)
        assert a.data.tobytes() == b.data.tobytes()

    def test_manifest_lists_mesh_files(self, tmp_path):
        scene = settle_scene(BinSpec(), [CableSpec()], seed=2)
        manifest = save_scene(scene, str(tmp_path / "scene"))
        with open(manifest, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["rng_seed"] == 2
        assert doc["bin"]["inner_x"] == 200.0
        entry = doc["cables"][0]
        assert os.path.exists(os.path.join(os.path.dirname(manifest), entry["mesh"]))
        assert len(entry["pose"]["rotation"]) == 4
