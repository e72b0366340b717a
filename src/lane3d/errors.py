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


class DegeneratePair(Lane3DError):
    """Flat-ground point pair too close to carry width information."""


class InvalidInput(Lane3DError):
    """Operation called with structurally unusable input."""


class NoPairing(Lane3DError):
    """Point-pair matching rejected a boundary pair: it carries no width signal."""
