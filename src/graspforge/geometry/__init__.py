from .decompose import DecompositionResult, concavity, decompose, piece_to_mesh, save_decomposition
from .gjk import GjkResult, gjk_world
from .hull import ConvexPiece, convex_hull
from .mesh import TriMesh, box_mesh, load_obj, save_obj
from .pose import Pose3
from .voxel import VoxelGrid, voxelize

__all__ = [
    "ConvexPiece", "DecompositionResult", "GjkResult", "Pose3", "TriMesh",
    "VoxelGrid", "box_mesh", "concavity", "convex_hull", "decompose",
    "gjk_world", "load_obj", "piece_to_mesh", "save_decomposition", "save_obj",
    "voxelize",
]
