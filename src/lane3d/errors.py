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


class located:
    """`with located("lane", lane_id):` raises a Lane3DError from its block
    again as its own type, led by "lane 'a': ", each id quoted by repr so a
    message stays on one line; a place alone ("path:3", "GT") leads as it is.
    Nothing is formatted unless an error passes. A class, as a contextlib
    generator costs twice as much to enter, and this wraps every lane read."""

    __slots__ = ("place", "ids")

    def __init__(self, place: str, *ids):
        self.place, self.ids = place, ids

    def __enter__(self):
        return self

    def __exit__(self, kind, error, tb):
        if isinstance(error, Lane3DError):
            where = " ".join([self.place, *map(repr, self.ids)])
            raise type(error)(f"{where}: {error}") from error
