import numpy as np
import pytest

from graspforge.errors import EmptyShape, OpenMesh
from graspforge.geometry import TriMesh, box_mesh, concavity, voxelize
from oracles import uv_sphere


def cell_concavity(cells, cell_size=1.0):
    """Concavity of integer cells on a grid at the origin."""
    return concavity(np.asarray(cells, dtype=int), np.zeros(3), cell_size)


class TestVoxelize:
    def test_unit_cube_half_cell(self):
        m = box_mesh(np.zeros(3), (0.5, 0.5, 0.5))
        g = voxelize(m, 0.5)
        assert g.dims == (2, 2, 2)
        assert g.count == 8

    def test_unit_cube_coarse_cell(self):
        m = box_mesh(np.zeros(3), (0.5, 0.5, 0.5))
        g = voxelize(m, 2.0)
        assert g.count == 1

    def test_sphere_volume_within_5_percent(self):
        m = uv_sphere(np.zeros(3), 1.0)
        g = voxelize(m, 0.1)
        exact = 4.0 / 3.0 * np.pi
        assert g.count * g.cell_size ** 3 == pytest.approx(exact, rel=0.05)

    def test_grid_covers_aabb(self):
        m = uv_sphere((1.0, -2.0, 0.5), 3.0)
        g = voxelize(m, 0.7)
        lo, hi = m.aabb
        top = g.origin + np.array(g.dims) * g.cell_size
        assert (g.origin <= lo + 1e-9).all()
        assert (top >= hi - 1e-9).all()

    def test_open_mesh_detected(self):
        m = box_mesh(np.zeros(3), (2.0, 2.0, 2.0))
        holed = TriMesh(m.vertices, m.faces[2:])  # drop the -x wall
        with pytest.raises(OpenMesh):
            voxelize(holed, 0.5)

    def test_deterministic(self):
        m = uv_sphere((0.2, 0.1, -0.3), 2.0)
        a = voxelize(m, 0.3)
        b = voxelize(m, 0.3)
        assert a.occupancy.tobytes() == b.occupancy.tobytes()
        assert np.allclose(a.origin, b.origin)


class TestConcavity:
    def test_full_cube_is_zero(self):
        m = box_mesh(np.zeros(3), (1.0, 1.0, 1.0))
        g = voxelize(m, 0.5)
        cells = np.argwhere(g.occupancy)
        assert concavity(cells, g.origin, g.cell_size) == pytest.approx(0.0, abs=1e-12)

    def test_straight_domino_is_zero(self):
        assert cell_concavity([(0, 0, 0), (1, 0, 0)]) == pytest.approx(0.0, abs=1e-12)

    def test_single_voxel_is_zero(self):
        assert cell_concavity([(0, 0, 0)]) == pytest.approx(0.0, abs=1e-12)

    def test_bent_tromino(self):
        # three unit cells in an L: hull is the 2x2x1 prism minus the corner
        # wedge -> volume 3.5, so (3.5 - 3) / 3.5 = 1/7
        assert cell_concavity([(0, 0, 0), (1, 0, 0), (0, 1, 0)]) == pytest.approx((3.5 - 3.0) / 3.5)

    def test_scale_invariant(self):
        cells = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        a = cell_concavity(cells, cell_size=1.0)
        b = cell_concavity(cells, cell_size=2.5)
        assert a == pytest.approx(b)

    def test_empty_raises(self):
        with pytest.raises(EmptyShape):
            cell_concavity(np.zeros((0, 3)))

    def test_range_zero_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = rng.integers(2, 30)
            cells = np.unique(rng.integers(0, 6, size=(n, 3)), axis=0)
            c = cell_concavity(cells)
            assert 0.0 <= c < 1.0
