"""Exception types shared across the toolkit.

Every domain error derives from GraspForgeError so the CLI can map any
failure to a stable error name and exit code 1.
"""


class GraspForgeError(Exception):
    """Base class for all domain errors."""


class DegenerateInput(GraspForgeError):
    """An input the program cannot use: a bad config value, a malformed
    file (config, OBJ, scene manifest or listing, record, checkpoint, report
    input), a cable mesh that is not its spec's tube, or a point set that
    Qhull cannot hull."""


class SelfIntersecting(GraspForgeError):
    """Procedural cable folded into itself and resampling gave up."""


class Overfilled(GraspForgeError):
    """A cable could not be placed in the bin within the attempt budget."""


class NoCandidates(GraspForgeError):
    """Grasp sampling produced zero force-closure candidates."""


class SingleClass(GraspForgeError):
    """Dataset contains only one label class."""


class ShapeMismatch(GraspForgeError):
    """Tensor or patch shape does not match what the network expects."""


class DatasetNotFound(GraspForgeError):
    """An input file does not exist: a config file, scene listing, scene
    manifest, cable mesh, candidates or dataset index or blob, checkpoint,
    or report input (eval stats, metrics CSV). `fileio.read_input` raises
    it for all of them."""


class ConvergenceWarning(RuntimeWarning):
    """GJK hit its iteration cap; the returned distance is best-effort."""
