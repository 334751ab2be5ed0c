from .gjk import GjkResult, gjk_world
from .hull import ConvexPiece, convex_hull, hull_2d
from .mesh import TriMesh, box_mesh, load_obj, save_obj
from .pose import Pose3

__all__ = [
    "ConvexPiece", "GjkResult", "Pose3", "TriMesh", "box_mesh", "convex_hull",
    "gjk_world", "hull_2d", "load_obj", "save_obj",
]
