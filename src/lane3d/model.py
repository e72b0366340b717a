"""Core domain types, the JSONL scene/prediction file formats, and the one
reader and writer of JSON documents (configs, reports). A record's fields
are listed only in its dataclass: _json_form writes them and _numbers reads
its number fields back, each by the field's declared type.

Coordinate conventions shared by every module:
  ego frame    right-handed; origin at the perpendicular projection of the
               camera center onto the road; x lateral (right positive),
               y longitudinal (forward positive), z up.
  flat ground  the z = 0 plane of the ego frame; all 2D lane representations
               live here.

Every type checks its invariants when it is built, rejecting bad input. Lane
arrays are read-only and configs frozen; a reassigned field is not re-checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np
import orjson

from .errors import InvalidInput, InvariantViolation, ParseError, located


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvariantViolation(msg)


def _is_utf8(text) -> bool:
    """text is a str that encodes as UTF-8, so it holds no lone surrogate."""
    try:
        return isinstance(text, str) and (text.isascii() or bool(text.encode("utf-8")))
    except UnicodeEncodeError:
        return False


class Config:
    """Mixin for the stage config dataclasses: from_dict reads a JSON object
    as a section over the defaults (see _coerce)."""

    @classmethod
    def from_dict(cls, d: dict):
        return _coerce(cls.__name__, cls(), d)


def check_range(name: str, pair) -> None:
    """A [lo, hi] range: exactly two numbers with lo <= hi."""
    if len(pair) != 2 or not pair[0] <= pair[1]:
        raise InvalidInput(f"{name} must be [lo, hi] with lo <= hi, got {list(pair)}")


def _coerce(name: str, default, value):
    """Coerce value by the type of default. A dataclass default is a section:
    value must be a JSON object of its fields, each coerced in turn, and a
    field it omits keeps the default's value. A tuple takes numbers. Any
    other field is a number and takes only JSON numbers (not booleans); an
    int field takes only integral values, a float among them only below
    2**53 in magnitude (a larger one may be an integer literal the parser
    rounded, see _parse_json), and a float field only finite ones."""
    if is_dataclass(default):
        if not isinstance(value, dict):
            raise InvalidInput(f"{name}: config must be a JSON object")
        names = {f.name for f in fields(default)}
        unknown = [f"{name}.{key}" for key in sorted(set(value) - names)]
        if unknown:
            raise InvalidInput(f"unknown config keys: {', '.join(unknown)}")
        return replace(default, **{key: _coerce(f"{name}.{key}", getattr(default, key), v)
                                   for key, v in value.items()})
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise InvalidInput(f"{name} must be a JSON list, got {value!r}")
        return tuple(_coerce(name, 0.0, v) for v in value)
    if isinstance(value, bool) or not isinstance(value, (float, int)):
        raise InvalidInput(f"{name} must be a number, got {value!r}")
    if isinstance(default, int):
        if isinstance(value, float) and not (value.is_integer() and abs(value) < 2 ** 53):
            raise InvalidInput(f"{name} must be an integer, got {value!r}")
        return int(value)
    try:
        number = float(value)
    except OverflowError:   # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise InvalidInput(f"{name} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width_px: int
    height_px: int

    def __post_init__(self):
        _require(all(math.isfinite(f) and f > 0 for f in (self.fx, self.fy)),
                 "focal lengths must be finite and positive")
        _require(0 < self.width_px < 2 ** 64 and 0 < self.height_px < 2 ** 64,
                 "image size must be positive and below 2**64")
        _require(0 <= self.cx < self.width_px, "cx must lie inside the image")
        _require(0 <= self.cy < self.height_px, "cy must lie inside the image")


@dataclass(frozen=True)
class CameraPose:
    """Camera at (0, 0, height_m) with pitch about the x-axis.

    Roll and yaw are zero by convention; positive pitch tilts the optical
    axis downward toward the road.
    """

    height_m: float
    pitch_rad: float
    intrinsics: Intrinsics

    def __post_init__(self):
        _require(math.isfinite(self.height_m) and self.height_m > 0,
                 f"camera height_m must be finite and positive, got {self.height_m!r}")
        _require(math.isfinite(self.pitch_rad), "pitch must be finite")


@dataclass(eq=False, slots=True)
class _Lane:
    """An ordered boundary polyline with visibility flags; subclasses fix the
    point dimension. Records are slotted: they hold their fields and no
    per-instance __dict__."""

    id: str
    points: np.ndarray       # (N, _dim) float64
    visibility: np.ndarray   # (N,) uint8 in {0, 1}

    def __post_init__(self):
        _require(self.id != "", "lane id must be nonempty")
        dim, pts = self._dim, np.asarray(self.points, dtype=float)
        with located("lane", self.id):
            if pts.size == 0:
                pts = pts.reshape(0, dim)
            _require(pts.ndim == 2 and pts.shape[1] == dim, f"points must be (N, {dim})")
            _require(bool(np.isfinite(pts).all()), "points must be finite")
            _require(len(pts) >= 1, "needs at least one point")
            _require(bool((pts[1:, 1] > pts[:-1, 1]).all()),
                     "points must be strictly increasing in y")
            vis = np.asarray(self.visibility)
            _require(vis.shape == (len(pts),),
                     f"visibility length {vis.size} != point count {len(pts)}")
            # check before casting so fractional flags fail instead of truncating
            _require(bool(((vis == 0) | (vis == 1)).all()), "visibility flags must be 0 or 1")
        self.points, self.visibility = pts, vis.astype(np.uint8, copy=False)
        self.points.setflags(write=False)
        self.visibility.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.id == other.id
                and np.array_equal(self.points, other.points)
                and np.array_equal(self.visibility, other.visibility))


class Lane3D(_Lane):
    """One lane boundary as an ordered 3D polyline with visibility flags."""

    __slots__ = ()
    _dim = 3

    @property
    def xy(self) -> np.ndarray:
        return self.points[:, :2]

    @property
    def z(self) -> np.ndarray:
        return self.points[:, 2]


class Lane2D(_Lane):
    """One lane boundary on the flat ground plane."""

    __slots__ = ()
    _dim = 2


@dataclass
class PairMap:
    """Matched point indices between two lane boundaries, keyed on the
    shorter (driving) boundary."""

    pairs: dict[int, int]
    source_id: str
    target_id: str

    def __post_init__(self):
        vals = [self.pairs[k] for k in sorted(self.pairs)]
        _require(all(b >= a for a, b in zip(vals, vals[1:])),
                 "pair values must be nondecreasing as keys increase")

    def indices(self, lane_id: str) -> tuple[np.ndarray, np.ndarray]:
        """The matched indices on lane_id and on the other boundary, as int
        arrays in key order; lane_id is the source or the target."""
        if lane_id not in (self.source_id, self.target_id):
            raise InvalidInput(f"pair map connects {self.source_id!r}->{self.target_id!r}, "
                               f"not {lane_id!r}")
        keys, values = np.array(sorted(self.pairs.items()), dtype=int).reshape(-1, 2).T.copy()
        return (keys, values) if lane_id == self.source_id else (values, keys)

    def __len__(self) -> int:
        return len(self.pairs)


# ---------------------------------------------------------------------------
# JSONL serialization.
#
# Canonical form: one frame per line, fixed key order, floats in orjson's
# shortest round-trip notation, strings as UTF-8. write(read(write(x))) is
# byte-identical.

_NUMBER_FIELDS = {"float": float, "int": int}   # a number field's annotation, its type


def _json_form(value):
    """A record value in its JSON form: a dataclass becomes an object of its
    fields in declaration order, each under its metadata's json_key if any,
    else its name, and a float or int field cast to its type; a list or tuple
    becomes a list; anything else stays. The one writer of record fields."""
    if is_dataclass(value):
        return {f.metadata.get("json_key", f.name):
                _NUMBER_FIELDS.get(f.type, _json_form)(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_json_form(v) for v in value]
    return value


def _numbers(name: str, d: dict, cls) -> dict:
    """The float and int init fields of the dataclass cls read from d, in
    declaration order, each coerced by its type. The one reader of record
    numbers."""
    return {f.name: _coerce(f"{name}.{f.name}", _NUMBER_FIELDS[f.type](), d[f.name])
            for f in fields(cls) if f.init and f.type in _NUMBER_FIELDS}


def camera_from_dict(d: dict) -> CameraPose:
    return CameraPose(**_numbers("camera", d, CameraPose), intrinsics=Intrinsics(
        **_numbers("camera.intrinsics", d["intrinsics"], Intrinsics)))


def _lane_to_dict(lane: _Lane, array) -> dict:
    return {
        "id": lane.id,
        "points": array(lane.points),
        "visibility": array(lane.visibility),
    }


_NUMBER_TYPES = {int, float}   # what JSON numbers parse to; bool is not one


def _lane_from_dict(cls, d: dict) -> _Lane:
    """A lane from its JSON form. The rows go through one np.fromiter, which
    takes under half the time np.asarray takes on nested lists but does not
    see their shape, so the row shape is checked here first. Both would read
    a string or a boolean as a number, so the value types are checked too."""
    lane_id, rows, vis, dim = d["id"], d["points"], d["visibility"], cls._dim
    with located("lane", lane_id):
        try:
            _require(set(map(type, rows)) <= {list} and set(map(len, rows)) <= {dim},
                     f"points must be (N, {dim})")
            values = list(itertools.chain.from_iterable(rows))
            _require(set(map(type, values)) <= _NUMBER_TYPES, "points must be finite numbers")
            points = np.fromiter(values, float, len(values))
        except (TypeError, OverflowError) as e:
            raise InvariantViolation("points must be finite numbers") from e
        _require(not isinstance(vis, list) or set(map(type, vis)) <= _NUMBER_TYPES,
                 "visibility flags must be 0 or 1")
    return cls(id=lane_id, points=points.reshape(-1, dim), visibility=vis)


@dataclass(eq=False, slots=True)
class _Frame:
    """One frame: a camera pose and its lane boundaries, the record of every
    JSONL file. Subclasses fix the lane type and add their own fields, which
    the JSON form writes after frame_id, camera and lanes."""

    frame_id: str
    camera: CameraPose
    lanes: list

    _lane_type = Lane3D

    def __post_init__(self):
        _require(self.frame_id != "", "frame_id must be nonempty")
        ids = [lane.id for lane in self.lanes]
        with located("frame", self.frame_id):
            _require(all(map(_is_utf8, self._strings())),
                     "ids and metadata must be UTF-8 strings")
            _require(len(set(ids)) == len(ids), "lane ids must be unique")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self))

    def to_dict(self) -> dict:
        """The JSON form, lane arrays as nested lists."""
        return self._doc(np.ndarray.tolist)

    def _doc(self, array) -> dict:
        """The JSON form with array(a) for each lane array a: the one
        description of the record, which to_dict and the writer share."""
        return {
            "frame_id": self.frame_id,
            "camera": _json_form(self.camera),
            "lanes": [_lane_to_dict(lane, array) for lane in self.lanes],
        }

    def _strings(self) -> list:
        """Every string the JSON form holds, its fixed keys aside."""
        return [self.frame_id, *(lane.id for lane in self.lanes)]

    @classmethod
    def from_dict(cls, d: dict):
        return cls(frame_id=d["frame_id"], camera=camera_from_dict(d["camera"]),
                   lanes=[_lane_from_dict(cls._lane_type, ld) for ld in d["lanes"]],
                   **cls._extras_from_dict(d))

    @classmethod
    def _extras_from_dict(cls, d: dict) -> dict:
        return {}


@dataclass(eq=False, slots=True)
class Scene(_Frame):
    """One frame: camera pose plus ground-truth 3D lane boundaries."""

    metadata: dict[str, str] = field(default_factory=dict)

    def _doc(self, array) -> dict:
        doc = _Frame._doc(self, array)
        doc["metadata"] = {k: self.metadata[k] for k in sorted(self.metadata)}
        return doc

    def _strings(self) -> list:
        return [*_Frame._strings(self), *itertools.chain.from_iterable(self.metadata.items())]

    @classmethod
    def _extras_from_dict(cls, d: dict) -> dict:
        return {"metadata": dict(d.get("metadata", {}))}


@dataclass(eq=False, slots=True)
class Prediction(_Frame):
    """Predicted lanes for one frame, each with a probability."""

    probs: list[float]

    # _Frame by name: slots=True builds a new class, which the cell that
    # zero-argument super() reads does not see
    def __post_init__(self):
        _Frame.__post_init__(self)
        with located("prediction", self.frame_id):
            _require(len(self.probs) == len(self.lanes), "one prob per lane required")
            _require(all(0.0 <= p <= 1.0 for p in self.probs), "probs must be within [0, 1]")

    def _doc(self, array) -> dict:
        doc = _Frame._doc(self, array)
        for lane, p in zip(doc["lanes"], self.probs):
            lane["prob"] = float(p)
        return doc

    @classmethod
    def _extras_from_dict(cls, d: dict) -> dict:
        return {"probs": [_coerce(f"lane {ld['id']!r} prob", 0.0, ld.get("prob", 1.0))
                          for ld in d["lanes"]]}


@dataclass(eq=False, slots=True)
class FlatFrame(_Frame):
    """Flat-ground (virtual top view) lanes for one frame; the input format
    of the 2D-to-3D reconstruction stage."""

    _lane_type = Lane2D


# The readers look these up when called, so a caller may wrap them.
scene_from_dict = Scene.from_dict
prediction_from_dict = Prediction.from_dict
flat_frame_from_dict = FlatFrame.from_dict

_loads = orjson.loads   # the one JSON parser; see _parse_json


def _parse_json(where: str, text: str, parse):
    """parse(the JSON value in text), with one error rule for every reader:
    text orjson rejects, or a KeyError, TypeError, ValueError or
    RecursionError from parse, becomes a ParseError, and every Lane3DError
    is located at where (the path, plus the line in JSONL). orjson is the one
    parser. It reads every number as the double float() gives, so output
    bytes do not depend on it, and an integer literal beyond 64 bits as the
    nearest double. It rejects NaN, Infinity, numbers beyond the double
    range, lone surrogates and text that is not JSON, with a reason that
    names the column. A RecursionError is a deeply nested value that a
    message tried to show."""
    with located(where):
        try:
            raw = _loads(text)
        except orjson.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}") from e
        try:
            return parse(raw)
        except (KeyError, TypeError, ValueError, RecursionError) as e:
            raise ParseError(f"malformed record: {e!r}") from e


def read_json(path, parse):
    """parse(the JSON document in path); see _parse_json for its errors. A
    byte that is not UTF-8 is decoded as a lone surrogate, which orjson
    rejects, so it exits as invalid JSON naming the path."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return _parse_json(str(path), fh.read(), parse)


def _same_json(a, b) -> bool:
    """Whether a and b are the same JSON text; one orjson cannot write matches none."""
    try:
        return orjson.dumps(a) == orjson.dumps(b)
    except TypeError:
        return False


def write_json(doc, path) -> None:
    """Write one JSON document indented by two spaces, with a final newline."""
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE))


def _read_jsonl(path, from_dict):
    """from_dict of each nonblank line, read one line at a time; frame ids are unique."""
    out = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip(" \t\r\n")   # JSON whitespace only, as orjson reads it
            if line:
                rec = _parse_json(f"{path}:{lineno}", line, from_dict)
                if rec.frame_id in out:
                    raise ParseError(f"{path}:{lineno}: duplicate frame id {rec.frame_id!r}")
                out[rec.frame_id] = rec
    return list(out.values())


def _encode(rec) -> bytes:
    """rec's line in canonical JSONL form, newline included. orjson encodes
    the lane arrays as they are; np.ascontiguousarray copies only a strided
    view, which orjson rejects. Every value of a record is one orjson
    writes: its checks admit only UTF-8 strings and 64-bit ints."""
    return orjson.dumps(rec._doc(np.ascontiguousarray),
                        option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)


def _write_jsonl(records, path) -> None:
    """Write frames in canonical JSONL form (bit-exact round trips)."""
    with open(path, "wb") as fh:
        for rec in records:
            fh.write(_encode(rec))


write_scenes = write_predictions = write_flat_frames = _write_jsonl


def read_scenes(path) -> list[Scene]:
    """Read a scene JSONL file; raises on the first malformed line."""
    return _read_jsonl(path, scene_from_dict)


def read_predictions(path) -> list[Prediction]:
    """Read a prediction JSONL file; lanes without "prob" default to 1."""
    return _read_jsonl(path, prediction_from_dict)


def read_flat_frames(path) -> list[FlatFrame]:
    return _read_jsonl(path, flat_frame_from_dict)
