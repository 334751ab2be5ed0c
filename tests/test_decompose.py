import numpy as np
import pytest

from graspforge.errors import EmptyShape
from graspforge.geometry import box_mesh, decompose, load_obj, piece_to_mesh, save_decomposition

import oracles
from oracles import extrude_polygon, mesh_volume

L_OUTLINE = np.array([[0, 0], [40, 0], [40, 20], [20, 20], [20, 60], [0, 60]], float)
U_OUTLINE = np.array([[0, 0], [60, 0], [60, 50], [40, 50], [40, 20], [20, 20], [20, 50], [0, 50]], float)


def coverage_fraction(mesh, pieces, n=10_000, seed=0):
    rng = np.random.default_rng(seed)
    pts = oracles.sample_interior_points(mesh.triangles(), n, rng)
    covered = np.zeros(n, dtype=bool)
    for piece in pieces:
        covered |= oracles.piece_contains(piece, pts, tol=1e-7)
    return covered.mean()


class TestDecompose:
    def test_convex_box_single_piece(self):
        m = box_mesh(np.zeros(3), (10.0, 6.0, 4.0))
        r = decompose(m, cell_size=2.0, concavity_tol=0.05)
        assert len(r.pieces) == 1
        assert r.concavities[0] <= 0.05
        assert not r.budget_exceeded

    def test_l_prism_two_boxes(self):
        m = extrude_polygon(L_OUTLINE, 0.0, 20.0)
        r = decompose(m, cell_size=2.0, concavity_tol=0.05)
        assert len(r.pieces) == 2
        assert all(c <= 0.05 for c in r.concavities)
        assert coverage_fraction(m, r.pieces, n=4000) >= 0.995

    def test_u_prism(self):
        m = extrude_polygon(U_OUTLINE, 0.0, 20.0)
        r = decompose(m, cell_size=2.0, concavity_tol=0.05)
        assert 3 <= len(r.pieces) <= 6
        assert all(c <= 0.05 for c in r.concavities)
        assert coverage_fraction(m, r.pieces, n=4000) >= 0.995

    def test_budget_flag(self):
        m = extrude_polygon(U_OUTLINE, 0.0, 20.0)
        r = decompose(m, cell_size=2.0, concavity_tol=0.001, max_pieces=2)
        assert len(r.pieces) == 2
        assert r.budget_exceeded

    def test_deterministic(self):
        m = extrude_polygon(L_OUTLINE, 0.0, 20.0)
        a = decompose(m, cell_size=2.0, concavity_tol=0.05)
        b = decompose(m, cell_size=2.0, concavity_tol=0.05)
        assert len(a.pieces) == len(b.pieces)
        for pa, pb in zip(a.pieces, b.pieces):
            assert (pa.vertices == pb.vertices).all()

    def test_thin_walls_raise_when_no_cell_center_is_inside(self):
        # U-channel with 0.5 mm walls: at cell 2.0 every cell center lands
        # in air, so there is no solid to decompose
        thin = np.array([[0, 0], [10, 0], [10, 10], [9.5, 10], [9.5, 0.5],
                         [0.5, 0.5], [0.5, 10], [0, 10]], float)
        m = extrude_polygon(thin, 0.0, 10.0)
        with pytest.raises(EmptyShape):
            decompose(m, cell_size=2.0, concavity_tol=0.05)


class TestExport:
    def test_manifest_and_pieces_roundtrip(self, tmp_path):
        m = extrude_polygon(L_OUTLINE, 0.0, 20.0)
        r = decompose(m, cell_size=2.0, concavity_tol=0.05)
        path = save_decomposition(r, str(tmp_path), "lshape")
        import json
        manifest = json.loads((tmp_path / "lshape_decomposition.json").read_text())
        assert path.endswith("lshape_decomposition.json")
        assert len(manifest["pieces"]) == len(r.pieces)
        for entry, piece in zip(manifest["pieces"], r.pieces):
            pm = load_obj(tmp_path / entry["file"])
            assert pm.vertices.shape[0] == entry["vertex_count"]
            assert mesh_volume(pm) > 0  # outward winding

    def test_piece_to_mesh_volume_matches(self):
        m = box_mesh(np.zeros(3), (5.0, 3.0, 2.0))
        r = decompose(m, cell_size=2.0, concavity_tol=0.05)
        pm = piece_to_mesh(r.pieces[0])
        assert mesh_volume(pm) == pytest.approx(r.pieces[0].volume, rel=1e-9)
