from .decompose import DecompositionResult, decompose, piece_to_mesh, save_decomposition
from .gjk import GjkResult, gjk_distance, gjk_query, gjk_world
from .hull import ConvexPiece, convex_hull
from .mesh import TriMesh, box_mesh, extrude_polygon, load_obj, save_obj, uv_sphere
from .pose import Pose3
from .voxel import VoxelGrid, concavity, occupied_volume, voxelize

__all__ = [
    "ConvexPiece", "DecompositionResult", "GjkResult", "Pose3", "TriMesh",
    "VoxelGrid", "box_mesh", "concavity", "convex_hull", "decompose",
    "extrude_polygon", "gjk_distance", "gjk_query", "gjk_world", "load_obj",
    "occupied_volume", "piece_to_mesh", "save_decomposition", "save_obj",
    "uv_sphere", "voxelize",
]
