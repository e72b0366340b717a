"""The JSONL writer: each line is JSON that any parser reads back as the
record, floats bit for bit, and a record read back writes the same bytes.
Tests pin the round trip, not the notation, which is the installed
orjson's."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane3d.errors import InvariantViolation
from lane3d.model import (CameraPose, FlatFrame, Intrinsics, Lane2D, Lane3D, Prediction,
                          Scene, read_flat_frames, read_predictions, read_scenes,
                          write_flat_frames, write_predictions, write_scenes)


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# The full range, plus the bands where the notation switches between fixed
# and exponent form (1e-5 <= |x| < 1e-4 and exponents >= 16), subnormals and
# both zeros.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _signed(st.floats(1e-5, 1e-4, exclude_max=True)),
    _signed(st.floats(1e16, 1e17, exclude_max=True)),
    _signed(st.floats(0.0, 2.2250738585072014e-308, exclude_max=True)),
    _signed(st.floats(1.0, 1e3).map(lambda x: x * 1e-7)),
    st.sampled_from([0.0, -0.0, 10.00001, -100.00002]),
)
# Text that looks like a number ("e1", "e-7", "0.0000"), characters JSON
# escapes, and a non-ASCII and a control character.
TEXT = st.lists(st.sampled_from([*"0123456789.e-+_aé\x7f\x01\"\\", "e-7", "e1", "0.0000"]),
                min_size=1, max_size=6).map("".join)


@st.composite
def _camera(draw):
    width = draw(st.sampled_from([1920, 2 ** 64 - 1]) | st.integers(1, 10 ** 6))
    height = draw(st.integers(1, 10 ** 6))
    positive = st.floats(min_value=5e-324, allow_infinity=False)
    return CameraPose(
        height_m=draw(positive), pitch_rad=draw(NUMBERS),
        intrinsics=Intrinsics(fx=draw(positive), fy=draw(positive),
                              cx=draw(st.floats(0, float(width), exclude_max=True)),
                              cy=draw(st.floats(0, height, exclude_max=True)),
                              width_px=width, height_px=height))


@st.composite
def _lane(draw, cls):
    ys = sorted(draw(st.lists(NUMBERS, min_size=1, max_size=5, unique=True)))
    columns = [ys if k == 1 else draw(st.lists(NUMBERS, min_size=len(ys), max_size=len(ys)))
               for k in range(cls._dim)]
    points = np.column_stack(columns)
    visibility = np.asarray(draw(st.lists(st.sampled_from([0, 1]), min_size=len(ys),
                                          max_size=len(ys))), dtype=np.uint8)
    if draw(st.booleans()):   # strided views, which orjson does not take as they are
        wide = np.zeros((len(ys), 2 * cls._dim))
        wide[:, ::2] = points
        points, visibility = wide[:, ::2], np.repeat(visibility, 2)[::2]
    return cls(id=draw(TEXT), points=points, visibility=visibility)


@st.composite
def _records(draw):
    kind = draw(st.sampled_from([Scene, Prediction, FlatFrame]))
    lane_type = Lane2D if kind is FlatFrame else Lane3D
    lanes = draw(st.lists(_lane(lane_type), max_size=3, unique_by=lambda lane: lane.id))
    extras = {}
    if kind is Scene:
        extras["metadata"] = draw(st.dictionaries(TEXT, TEXT, max_size=3))
    elif kind is Prediction:
        extras["probs"] = draw(st.lists(st.floats(0.0, 1.0), min_size=len(lanes),
                                        max_size=len(lanes)))
    return kind(frame_id=draw(TEXT), camera=draw(_camera()), lanes=lanes, **extras)


CODECS = {Scene: (write_scenes, read_scenes), Prediction: (write_predictions, read_predictions),
          FlatFrame: (write_flat_frames, read_flat_frames)}


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "records.jsonl"


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _exact(value):
    """value with its key order and float bits made visible to ==."""
    if isinstance(value, dict):
        return [(key, _exact(v)) for key, v in value.items()]
    if isinstance(value, list):
        return [_exact(v) for v in value]
    if isinstance(value, float):
        return "float", _bits(value)
    return value


@given(_records())
@settings(max_examples=300, deadline=None)
def test_written_line_is_json_of_the_record_and_rewrites_identically(out_path, rec):
    write, read = CODECS[type(rec)]
    write([rec], out_path)
    written = out_path.read_bytes()
    (line,) = written.decode("utf-8").splitlines()
    assert _exact(json.loads(line)) == _exact(rec.to_dict())
    (back,) = read(out_path)
    assert back == rec
    write([back], out_path)
    assert out_path.read_bytes() == written


BOUNDARY_TABLE = [1e-5, -1e-5, 9.999999999999999e-05, 1e-4, 1.5e-7, 9999999999999998.0,
                  1e16, 1e22, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0,
                  10.00001, -100.00002]


def test_boundary_numbers_read_back_bit_for_bit(tmp_path, pose):
    lane = Lane3D(id="lane_0", points=[[x, float(i), x] for i, x in enumerate(BOUNDARY_TABLE)],
                  visibility=[1] * len(BOUNDARY_TABLE))
    path = tmp_path / "table.jsonl"
    write_scenes([Scene(frame_id="f", camera=pose, lanes=[lane])], path)
    (back,) = read_scenes(path)
    assert [_bits(x) for x in back.lanes[0].points[:, 0]] == list(map(_bits, BOUNDARY_TABLE))
    rows = json.loads(path.read_text())["lanes"][0]["points"]   # and so does json
    assert [_bits(row[0]) for row in rows] == list(map(_bits, BOUNDARY_TABLE))


def test_camera_numbers_are_written_as_their_field_types(tmp_path):
    """A camera built from Python ints writes each float field with a decimal
    point and each int field without one."""
    camera = CameraPose(height_m=2, pitch_rad=0,
                        intrinsics=Intrinsics(1000, 1000, 960, 540, 1920, 1080))
    lane = Lane3D(id="a", points=[[0.0, 5.0, 0.0]], visibility=[1])
    path = tmp_path / "scene.jsonl"
    write_scenes([Scene(frame_id="f", camera=camera, lanes=[lane])], path)
    assert path.read_bytes() == (
        b'{"frame_id":"f","camera":{"height_m":2.0,"pitch_rad":0.0,"intrinsics":{"fx":1000.0,'
        b'"fy":1000.0,"cx":960.0,"cy":540.0,"width_px":1920,"height_px":1080}},'
        b'"lanes":[{"id":"a","points":[[0.0,5.0,0.0]],"visibility":[1]}],"metadata":{}}\n')


@pytest.mark.parametrize("size", [{"width_px": 2 ** 64}, {"width_px": 2 ** 70},
                                  {"height_px": 2 ** 64}])
def test_image_size_must_be_below_2_to_the_64(size):
    valid = dict(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0, width_px=1920, height_px=1080)
    with pytest.raises(InvariantViolation, match="below 2\\*\\*64"):
        Intrinsics(**(valid | size))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_focal_lengths_must_be_finite(bad):
    for focal in ({"fx": bad, "fy": 1000.0}, {"fx": 1000.0, "fy": bad}):
        with pytest.raises(InvariantViolation, match="focal lengths must be finite"):
            Intrinsics(**focal, cx=960.0, cy=540.0, width_px=1920, height_px=1080)
