"""Exception hierarchy shared by all lane3d modules."""


class Lane3DError(Exception):
    """Base class for all toolkit errors."""


class InvariantViolation(Lane3DError):
    """A domain object was constructed with values outside its invariants."""


class ParseError(Lane3DError):
    """A file could not be parsed; message carries the path and line number."""


class HeightExceedsCamera(Lane3DError):
    """Point height z >= camera height: the central ray misses the ground
    plane in front of the camera, so the virtual top view is undefined."""


class DegeneratePose(Lane3DError):
    """Camera pose for which the ground-plane homography degenerates."""


class DegeneratePair(Lane3DError):
    """Flat-ground point pair too close to carry width information."""


class MismatchedAnchors(Lane3DError):
    """Anchor sets with different y-reference grids cannot be compared."""


class InvalidInput(Lane3DError):
    """Operation called with structurally unusable input."""


class SpecError(Lane3DError):
    """Road specification violates one of its invariants."""


class OutOfRange(Lane3DError):
    """Lane does not cover the required y position."""


class NoPairing(Lane3DError):
    """Point-pair matching rejected every boundary pair; reconstruction has
    no width signal to work with."""
