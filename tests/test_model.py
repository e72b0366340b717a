import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane3d.errors import InvalidInput, InvariantViolation, ParseError
from lane3d.model import (CameraPose, Intrinsics, Lane2D, Lane3D, PairMap,
                          Prediction, Scene, read_predictions, read_scenes,
                          write_predictions, write_scenes)

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
            ('"width_px":1920', '"width_px":1e999', "width_px must be an integer, got inf"),
            ('"width_px":1920', '"width_px":1920.7', "width_px must be an integer, got 1920.7"),
            ('"width_px":1920', '"width_px":true', "width_px must be a number"),
            ('"height_m":1.78', '"height_m":"1.78"', "height_m must be a number, got '1.78'"),
            ('"height_m":1.78', '"height_m":1e999', "height_m must be finite, got inf"),
            ('"fx":1000.0', '"fx":NaN', "fx must be finite, got nan")]:
        path.write_text("\n" + line.replace(field, bad) + "\n")
        with pytest.raises(InvalidInput, match=f"hand.jsonl:2: camera.*{message}"):
            read_scenes(path)
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
                          ([[0.0, 1.0, 10 ** 400]], "finite numbers"),
                          # np.fromiter reads these as 1.5, 0.0 and 1.0
                          ([["1.5", 1.0, 0.0]], "finite numbers"),
                          ([[0.0, 1.0, False]], "finite numbers"),
                          ([[True, 1.0, 0.0], [0.0, 2.0, 0.0]], "finite numbers")]:
        doc["lanes"][0]["points"] = rows
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(InvariantViolation, match=f"bad.jsonl:1: lane 'left': .*{message}"):
            read_scenes(path)
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
                         (True, "lane 'left' prob must be a number, got True"),
                         (float("inf"), "lane 'left' prob must be finite")]:
        doc["lanes"][0]["prob"] = bad
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(InvalidInput, match=f"scenes.jsonl:1: {message}"):
            read_predictions(path)
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
