import json
import math
import struct
from dataclasses import replace
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lane3d.augment import AugmentConfig
from lane3d.errors import InvalidInput, InvariantViolation, Lane3DError, ParseError
from lane3d.evaluate import EvalReport, MatchConfig, evaluate_frames
from lane3d.model import (CameraPose, FlatFrame, Intrinsics, Lane2D, Lane3D, PairMap,
                          Prediction, Scene, _coerce, _encode, _lane_from_dict,
                          _parse_json, read_json, read_predictions, read_scenes,
                          write_predictions, write_scenes)
from lane3d.reconstruct import SolveOptions
from lane3d.synth import GeneratorConfig

from conftest import straight_lane


def test_point_finite_required():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvariantViolation, match="finite"):
            Lane3D(id="a", points=[[0, 1, 0], [bad, 2, 0]], visibility=[1, 1])
        with pytest.raises(InvariantViolation, match="finite"):
            Lane2D(id="a", points=[[0, 1], [0, bad]], visibility=[1, 1])


def test_camera_invariants():
    with pytest.raises(InvariantViolation):
        CameraPose(height_m=0.0, pitch_rad=0.0,
                   intrinsics=Intrinsics(1000, 1000, 960, 540, 1920, 1080))
    with pytest.raises(InvariantViolation):
        Intrinsics(fx=1000, fy=1000, cx=2000, cy=540, width_px=1920, height_px=1080)


def test_lane_monotone_y_names_lane():
    with pytest.raises(InvariantViolation, match="wiggly"):
        Lane3D(id="wiggly", points=[[0, 5, 0], [0, 4, 0], [0, 6, 0]],
               visibility=[1, 1, 1])
    with pytest.raises(InvariantViolation, match="strictly increasing"):
        Lane3D(id="a", points=[[0, 5, 0], [0, 5, 0]], visibility=[1, 1])


def test_lane_visibility_checked():
    with pytest.raises(InvariantViolation, match="length"):
        Lane3D(id="a", points=[[0, 1, 0], [0, 2, 0]], visibility=[1])
    with pytest.raises(InvariantViolation, match="0 or 1"):
        Lane3D(id="a", points=[[0, 1, 0], [0, 2, 0]], visibility=[1, 2])
    # fractional flags are rejected, not truncated
    with pytest.raises(InvariantViolation, match="0 or 1"):
        Lane3D(id="a", points=[[0, 1, 0], [0, 2, 0]], visibility=[1.0, 0.7])
    for text in (["1", "0"], ["a", "b"]):
        with pytest.raises(InvariantViolation, match="0 or 1"):
            Lane3D(id="a", points=[[0, 1, 0], [0, 2, 0]], visibility=text)
    lane = Lane3D(id="a", points=[[0, 1, 0], [0, 2, 0]], visibility=[True, False])
    assert lane.visibility.tolist() == [1, 0]


def test_scene_unique_lane_ids(pose):
    lane = straight_lane("dup", 0.0, [1.0, 2.0])
    with pytest.raises(InvariantViolation, match="unique"):
        Scene(frame_id="f", camera=pose, lanes=[lane, lane])
    with pytest.raises(InvariantViolation, match="frame 'f': lane ids must be unique"):
        Prediction(frame_id="f", camera=pose, lanes=[lane, lane], probs=[0.5, 0.5])


def test_frame_strings_must_be_utf8(pose):
    # JSON text cannot carry a lone surrogate (orjson rejects it), so these
    # reach the check only as Python values
    lane = straight_lane("a", 0.0, [1.0, 2.0])
    for frame_id, lane_id, metadata in [("\udcff", "a", {}), ("f", "\ud800", {}),
                                        ("f", "a", {"k": "\ud800"}), ("f", "a", {"\udcff": "v"})]:
        with pytest.raises(InvariantViolation, match="ids and metadata must be UTF-8 strings"):
            Scene(frame_id=frame_id, camera=pose, lanes=[replace(lane, id=lane_id)],
                  metadata=metadata)


def test_pairmap_nondecreasing_values():
    PairMap(pairs={0: 0, 1: 1, 2: 1}, source_id="a", target_id="b")
    with pytest.raises(InvariantViolation, match="nondecreasing"):
        PairMap(pairs={0: 2, 1: 1}, source_id="a", target_id="b")


def test_read_single_scene(tmp_path, simple_scene):
    path = tmp_path / "scenes.jsonl"
    write_scenes([simple_scene], path)
    scenes = read_scenes(path)
    assert len(scenes) == 1
    assert scenes[0] == simple_scene


def test_read_records_hold_their_data(tmp_path, simple_scene):
    path = tmp_path / "scenes.jsonl"
    write_scenes([simple_scene], path)
    scene, = read_scenes(path)
    lane = scene.lanes[0]
    assert lane.visibility.dtype == np.uint8 and lane.points.shape == (20, 3)
    assert not hasattr(lane, "__dict__") and not hasattr(scene, "__dict__")


def test_read_hand_written_minimal_line(tmp_path):
    # pins the documented schema: a minimal hand-written record must parse
    line = ('{"frame_id":"f","camera":{"height_m":1.78,"pitch_rad":0.0,'
            '"intrinsics":{"fx":1000.0,"fy":1000.0,"cx":960.0,"cy":540.0,'
            '"width_px":1920,"height_px":1080}},'
            '"lanes":[{"id":"a","points":[[0.0,1.0,0.0],[0.5,2.0,0.1],[1.0,3.0,0.2]],'
            '"visibility":[1,1,0]}],"metadata":{}}')
    path = tmp_path / "hand.jsonl"
    path.write_text(line + "\n")
    (scene,) = read_scenes(path)
    assert scene.frame_id == "f"
    assert len(scene.lanes) == 1 and len(scene.lanes[0]) == 3
    assert scene.lanes[0].visibility.tolist() == [1, 1, 0]
    # canonical writer reproduces the hand-written form byte for byte
    out = tmp_path / "round.jsonl"
    write_scenes([scene], out)
    assert out.read_text() == line + "\n"
    # camera fields take only JSON numbers: integral ints, finite floats; the
    # error keeps the path:line prefix of other record errors
    for field, bad, message in [
            ('"width_px":1920', '"width_px":1920.7', "width_px must be an integer, got 1920.7"),
            ('"width_px":1920', '"width_px":true', "width_px must be a number"),
            ('"height_m":1.78', '"height_m":"1.78"', "height_m must be a number, got '1.78'")]:
        path.write_text("\n" + line.replace(field, bad) + "\n")
        with pytest.raises(InvalidInput, match=f"hand.jsonl:2: camera.*{message}"):
            read_scenes(path)
    # a number past the double range or NaN is not JSON: orjson's reason
    # names the column; the same values as Python numbers reach the field check
    for key, old, bad, reason, value, message in [
            ("width_px", "1920", "1e999", "number is infinity when parsed as double",
             math.inf, "width_px must be an integer, got inf"),
            ("height_m", "1.78", "1e999", "number is infinity when parsed as double",
             math.inf, "height_m must be finite, got inf"),
            ("fx", "1000.0", "NaN", "unexpected character",
             math.nan, "fx must be finite, got nan")]:
        text = line.replace(f'"{key}":{old}', f'"{key}":{bad}')
        column = text.index(f'"{key}":{bad}') + len(key) + 4   # 1-based, at bad
        path.write_text("\n" + text + "\n")
        with pytest.raises(ParseError,
                           match=f"hand.jsonl:2: invalid JSON: {reason}: line 1 column {column} "):
            read_scenes(path)
        doc = json.loads(line)
        (doc["camera"] if key == "height_m" else doc["camera"]["intrinsics"])[key] = value
        with pytest.raises(InvalidInput, match=f"camera.*{message}"):
            Scene.from_dict(doc)
    # integral floats coerce to the same numbers
    path.write_text(line.replace('"width_px":1920', '"width_px":1920.0') + "\n")
    (same,) = read_scenes(path)
    assert same == scene and type(same.camera.intrinsics.width_px) is int
    # lane points read as np.asarray reads the nested lists, bit for bit
    rows = [[-0.0, 1.0, 5e-324], [7, 2.0, -1e300], [0.1, 3.0, 1.7976931348623157e308]]
    path.write_text(line.replace("[[0.0,1.0,0.0],[0.5,2.0,0.1],[1.0,3.0,0.2]]",
                                 json.dumps(rows)) + "\n")
    (odd,) = read_scenes(path)
    assert odd.lanes[0].points.tobytes() == np.asarray(rows, dtype=float).tobytes()


def test_read_reports_line_number_on_bad_json(tmp_path, simple_scene):
    path = tmp_path / "scenes.jsonl"
    write_scenes([simple_scene], path)
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ParseError, match=":2:"):
        read_scenes(path)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=500, deadline=None)
def test_written_float_reads_back_bit_for_bit(x):
    """write(read(write(x))) is byte-identical because every finite double,
    subnormals and -0.0 included, written by the JSONL encoder reads back
    through the JSONL parser as the same double."""
    lane = Lane3D(id="a", points=[[x, 0.0, -x]], visibility=[1])
    camera = CameraPose(height_m=1.5, pitch_rad=0.0,
                        intrinsics=Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0,
                                              width_px=1, height_px=1))
    line = _encode(Scene(frame_id="f", camera=camera, lanes=[lane]))
    read = _parse_json("row", line.decode(), lambda d: _lane_from_dict(Lane3D, d["lanes"][0]))
    assert read.points.tobytes() == b"".join(map(_bits, (x, 0.0, -x)))


@pytest.mark.parametrize("s", [
    "2.2250738585072011e-308",     # just below the smallest normal double
    "9007199254740993.0",          # 2**53 + 1, halfway between two doubles
    "4.9406564584124654e-324",     # the smallest subnormal
    "1e-400",                      # underflows to 0.0
    "0.1000000000000000055511151231257827021181583404541015625",   # 0.1 exactly
])
def test_parser_reads_hard_decimals_as_float_does(s):
    (value,) = _parse_json("row", f"[{s}]", lambda v: v)
    assert type(value) is float and _bits(value) == _bits(float(s))


def test_int_field_never_takes_a_rounded_integer_literal(tmp_path):
    """An integer literal beyond 64 bits may parse as the nearest double. An
    int field rejects it, naming the field, or keeps it exact; it never
    takes the rounded value."""
    path = tmp_path / "augment.json"
    path.write_text('{"seed": 18446744073709551615}')
    assert read_json(path, AugmentConfig.from_dict).seed == 18446744073709551615
    path.write_text('{"seed": 18446744073709551617}')
    try:
        seed = read_json(path, AugmentConfig.from_dict).seed
    except InvalidInput as e:
        assert "augment.json: AugmentConfig.seed must be an integer" in str(e)
    else:
        assert seed == 18446744073709551617
    # the rule is the number's, whichever parser made it
    for value in (2.0 ** 53, -(2.0 ** 53), 1e300):
        with pytest.raises(InvalidInput, match=r"^x\.seed must be an integer"):
            _coerce("x.seed", 0, value)
    assert _coerce("x.seed", 0, 2.0 ** 53 - 1) == 2 ** 53 - 1
    assert _coerce("x.seed", 0, 2 ** 70) == 2 ** 70


def _reader_docs():
    """Each reader's name: (a valid document, the parse function of the
    reader), for the three JSONL records, a report and the four configs."""
    pose = CameraPose(height_m=1.5, pitch_rad=0.01,
                      intrinsics=Intrinsics(800.0, 810.0, 320.0, 240.0, 640, 480))
    ys = [5.0, 10.0, 15.0]
    scene = Scene(frame_id="f", camera=pose, metadata={"k": "v"},
                  lanes=[straight_lane("l", -1.75, ys), straight_lane("r", 1.75, ys)])
    pred = Prediction(frame_id="f", camera=pose, lanes=scene.lanes, probs=[0.9, 0.5])
    flat = FlatFrame(frame_id="f", camera=pose, lanes=[
        Lane2D(id=lane.id, points=lane.xy, visibility=lane.visibility) for lane in scene.lanes])
    configs = Path(__file__).resolve().parents[1] / "configs"
    return {"scene": (scene.to_dict(), Scene.from_dict),
            "prediction": (pred.to_dict(), Prediction.from_dict),
            "flat": (flat.to_dict(), FlatFrame.from_dict),
            "report": (evaluate_frames([scene], [pred]).to_dict(), EvalReport.from_dict),
            **{stage: (json.loads((configs / f"{stage}_default.json").read_text()), cls.from_dict)
               for stage, cls in [("generate", GeneratorConfig), ("augment", AugmentConfig),
                                  ("reconstruct", SolveOptions), ("evaluate", MatchConfig)]}}


_READER_DOCS = _reader_docs()

# a deeply nested value; where a number belongs, the field's message shows it
_DEEP = "[" * 5000 + "]" * 5000

# JSON text fragments orjson rejects or reads at its limits
_TOKENS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" * 5000, "-" + "9" * 400,
           str(2 ** 63), str(2 ** 64 - 1), str(2 ** 64), str(2 ** 70), "-0.0", "1.5", "0",
           "true", "null", '"\\ud800"', '"\\udcff"', '"\\u0000"', '"\udcff"', '"x"',
           _DEEP, '{"a":' * 1000 + "1" + "}" * 1000,
           '{"frame_id":NaN,"x":' + "[" * 1000 + "]" * 1000 + "}", "", "{", "}", "[", "]", ",", ":"]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 63), 2 ** 64 - 1) | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8).map(lambda value: orjson.dumps(value).decode())

# raw text: any string, any bytes as the readers decode them, or fragments
_RAW_TEXT = (st.text() | st.binary().map(lambda b: b.decode("utf-8", "surrogateescape"))
             | st.lists(st.sampled_from(_TOKENS), max_size=6).map("".join))


def _slots(doc, path=()):
    """The path of doc and of every value in it, plus one new key per object."""
    yield path
    if isinstance(doc, dict):
        yield (*path, "extra")
        for key, value in doc.items():
            yield from _slots(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _slots(value, (*path, i))


def _spliced(doc, path, token: str) -> str:
    """doc's JSON text with token as the text of its value at path."""
    if not path:
        return token
    mark = "\0splice\0"
    doc = orjson.loads(orjson.dumps(doc))
    reduce(getitem, path[:-1], doc)[path[-1]] = mark
    return orjson.dumps(doc).decode().replace(orjson.dumps(mark).decode(), token)


@st.composite
def _reader_inputs(draw):
    """(text, parse): raw text, or a reader's valid document whose value at
    one path (or a new key) is replaced by a fragment or a random JSON value."""
    doc, parse = draw(st.sampled_from(list(_READER_DOCS.values())))
    if draw(st.booleans()):
        return draw(_RAW_TEXT), parse
    path = draw(st.sampled_from(list(_slots(doc))))
    return _spliced(doc, path, draw(st.sampled_from(_TOKENS) | _JSON_VALUES)), parse


@given(_reader_inputs())
@example((_spliced(_READER_DOCS["scene"][0], ("camera", "height_m"), _DEEP), Scene.from_dict))
@example((_spliced(_READER_DOCS["generate"][0], ("lane_width",), _DEEP),
          GeneratorConfig.from_dict))
@settings(max_examples=300, deadline=None)
def test_every_reader_returns_a_value_or_raises_a_lane3d_error(case):
    """Whatever text reaches a reader, it exits 2 with a reason or reads:
    no input ends in another exception (a traceback and exit 1)."""
    text, parse = case
    try:
        _parse_json("where", text, parse)
    except Lane3DError as e:
        assert str(e).startswith("where: ")


def test_read_rejects_non_monotone_lane_naming_it(tmp_path, simple_scene):
    doc = simple_scene.to_dict()
    doc["lanes"][0]["points"][1][1] = -50.0   # break monotonicity of lane "left"
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(InvariantViolation, match="left"):
        read_scenes(path)
    # ragged, missing, short and non-numeric rows name the lane too
    for rows, message in [([[0.0, 1.0, 0.0], [0.0, 2.0]], r"\(N, 3\)"),
                          ([[0.0, 1.0, 0.0], None], r"\(N, 3\)"),
                          ([[0.0, 1.0], [0.0, 2.0]], r"\(N, 3\)"),
                          ([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 0.0]], r"\(N, 3\)"),
                          ([[0.0, 1.0, 0.0], "123"], r"\(N, 3\)"),
                          (5, "finite numbers"),
                          ([[0.0, 1.0, None]], "finite"),
                          ([[0.0, 1.0, [0.0]]], "finite numbers"),
                          ([[0.0, 1.0, "x"]], "finite numbers"),
                          # np.fromiter reads these as 1.5, 0.0 and 1.0
                          ([["1.5", 1.0, 0.0]], "finite numbers"),
                          ([[0.0, 1.0, False]], "finite numbers"),
                          ([[True, 1.0, 0.0], [0.0, 2.0, 0.0]], "finite numbers")]:
        doc["lanes"][0]["points"] = rows
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(InvariantViolation, match=f"bad.jsonl:1: lane 'left': .*{message}"):
            read_scenes(path)
    # an integer past the double range is not JSON orjson reads, but is a
    # Python value from_dict takes
    rows = [[0.0, 1.0, 10 ** 400]]
    doc["lanes"][0]["points"] = rows
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(ParseError, match="bad.jsonl:1: invalid JSON: number is infinity"):
        read_scenes(path)
    with pytest.raises(InvariantViolation, match="lane 'left': points must be finite numbers"):
        _lane_from_dict(Lane3D, {"id": "left", "points": rows, "visibility": [1]})
    # boolean visibility flags name the lane too; 0/1 numbers are the format
    doc = simple_scene.to_dict()
    n = len(doc["lanes"][0]["points"])
    for flags in ([True] * n, [1] * (n - 1) + [False], ["1"] * n):
        doc["lanes"][0]["visibility"] = flags
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(InvariantViolation, match="bad.jsonl:1: lane 'left': visibility"):
            read_scenes(path)


def test_empty_write_and_read(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_scenes([], path)
    assert path.read_bytes() == b""
    assert read_scenes(path) == []


def test_write_read_write_identical_bytes(tmp_path, simple_scene, pose):
    ys = np.arange(3.0, 60.0, 2.5)
    z = 0.1 * np.sin(ys / 10.0)
    scene2 = Scene(frame_id="frame_1", camera=pose,
                   lanes=[straight_lane("a", -1.0, ys, z=z)],
                   metadata={"k": "v", "a": "b"})
    p1 = tmp_path / "one.jsonl"
    p2 = tmp_path / "two.jsonl"
    write_scenes([simple_scene, scene2], p1)
    write_scenes(read_scenes(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_prediction_round_trip(tmp_path, simple_scene):
    pred = Prediction(frame_id=simple_scene.frame_id, camera=simple_scene.camera,
                      lanes=simple_scene.lanes, probs=[0.9, 0.8])
    path = tmp_path / "pred.jsonl"
    write_predictions([pred], path)
    back = read_predictions(path)
    assert back == [pred]
    # equality is per record kind: a scene of the same frame is not this prediction
    scene = Scene(frame_id=pred.frame_id, camera=pred.camera, lanes=pred.lanes)
    assert scene != pred and pred != scene
    # a legacy "anchors" block is ignored, as any other unknown record key is
    doc = json.loads(path.read_text())
    doc["anchors"] = {"y_refs": [5.0, 10.0], "anchors": [
        {"id": "left", "x_offsets": [-1.75, -1.75], "z": [0.0, 0.0], "vis": [1.0, 1.0],
         "prob": "0.9"}]}
    path.write_text(json.dumps(doc) + "\n")
    assert read_predictions(path) == [pred]


def test_prediction_prob_defaults_to_one(tmp_path, simple_scene):
    path = tmp_path / "scenes.jsonl"
    write_scenes([simple_scene], path)
    preds = read_predictions(path)
    assert preds[0].probs == [1.0, 1.0]
    doc = json.loads(path.read_text())
    for bad, message in [("0.5", "lane 'left' prob must be a number, got '0.5'"),
                         (True, "lane 'left' prob must be a number, got True")]:
        doc["lanes"][0]["prob"] = bad
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(InvalidInput, match=f"scenes.jsonl:1: {message}"):
            read_predictions(path)
    # Infinity is not JSON orjson reads, but is a Python value from_dict takes
    doc["lanes"][0]["prob"] = math.inf
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(ParseError, match="scenes.jsonl:1: invalid JSON: unexpected character"):
        read_predictions(path)
    with pytest.raises(InvalidInput, match="lane 'left' prob must be finite"):
        Prediction.from_dict(doc)
    doc["lanes"][0]["prob"] = 1
    path.write_text(json.dumps(doc) + "\n")
    assert read_predictions(path)[0].probs == [1.0, 1.0]


@st.composite
def lanes(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ys = np.cumsum(np.array(draw(st.lists(
        st.floats(min_value=0.5, max_value=10.0), min_size=n, max_size=n))))
    xs = np.array(draw(st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=n, max_size=n)))
    zs = np.array(draw(st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=n, max_size=n)))
    vis = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    lane_id = draw(st.text(alphabet="abcdef", min_size=1, max_size=4))
    return Lane3D(id=lane_id, points=np.column_stack([xs, ys, zs]), visibility=vis)


@given(st.lists(lanes(), min_size=0, max_size=4))
@settings(max_examples=40, deadline=None)
def test_round_trip_random_scenes(tmp_path_factory, lane_list):
    seen = set()
    unique = []
    for lane in lane_list:
        if lane.id not in seen:
            seen.add(lane.id)
            unique.append(lane)
    pose = CameraPose(height_m=1.5, pitch_rad=0.01,
                      intrinsics=Intrinsics(800.0, 810.0, 320.0, 240.0, 640, 480))
    scene = Scene(frame_id="x", camera=pose, lanes=unique, metadata={})
    path = tmp_path_factory.mktemp("rt") / "s.jsonl"
    write_scenes([scene], path)
    assert read_scenes(path) == [scene]


def test_lane2d_monotone():
    Lane2D(id="ok", points=[[0, 1], [0, 2]], visibility=[1, 1])
    with pytest.raises(InvariantViolation):
        Lane2D(id="bad", points=[[0, 2], [0, 1]], visibility=[1, 1])


def test_metadata_must_be_str_str(pose):
    with pytest.raises(InvariantViolation, match="metadata"):
        Scene(frame_id="f", camera=pose, lanes=[], metadata={"k": 3})
