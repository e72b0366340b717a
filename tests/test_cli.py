import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lane3d.reconstruct
from lane3d import model
from lane3d.augment import AugmentConfig
from lane3d.cli import _looks_like_report, main
from lane3d.errors import InvalidInput
from lane3d.evaluate import EvalReport, MatchConfig
from lane3d.model import (CameraPose, FlatFrame, Intrinsics, Lane2D, Lane3D, Scene,
                          read_flat_frames, read_scenes, write_flat_frames,
                          write_scenes)
from lane3d.pairing import PairingConfig
from lane3d.reconstruct import LANE_STATUSES, STOP_REASONS, SolveOptions, solve_frame
from lane3d.synth import GeneratorConfig

from conftest import CLAMPING_PAIRING, clamping_flat_pair

CONFIGS = "configs"


def run(args):
    return main([str(a) for a in args])


def run_child(args):
    """Run a fresh interpreter on args; it imports the package under test,
    installed or not."""
    src = str(Path(lane3d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_generate_zero_count(tmp_path):
    out = tmp_path / "scenes.jsonl"
    assert run(["generate", "--count", 0, "--out", out]) == 0
    assert out.read_bytes() == b""


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(["generate", "--count", 10, "--seed", 5, "--out", a]) == 0
    assert run(["generate", "--count", 10, "--seed", 5, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.jsonl"
    assert run(["generate", "--count", 10, "--seed", 6, "--out", c]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_generate_scenes_validate_on_reload(tmp_path):
    out = tmp_path / "scenes.jsonl"
    assert run(["generate", "--count", 100, "--seed", 1, "--out", out]) == 0
    scenes = read_scenes(out)
    assert len(scenes) == 100
    assert all(len(s.lanes) == 2 for s in scenes)


def test_augment_zero_probabilities_identity(tmp_path):
    src = tmp_path / "src.jsonl"
    dst = tmp_path / "dst.jsonl"
    run(["generate", "--count", 5, "--seed", 2, "--out", src])
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"p_pitch": 0.0, "p_roll": 0.0, "p_yaw": 0.0}))
    assert run(["augment", "--in", src, "--config", cfg, "--out", dst]) == 0
    assert src.read_bytes() == dst.read_bytes()


def test_augment_fixed_pitch_changes_heights(tmp_path):
    src = tmp_path / "src.jsonl"
    dst = tmp_path / "dst.jsonl"
    run(["generate", "--count", 3, "--seed", 3, "--out", src])
    cfg = tmp_path / "pitch.json"
    cfg.write_text(json.dumps({
        "pitch_range": [0.05, 0.05], "p_pitch": 1.0, "p_roll": 0.0, "p_yaw": 0.0}))
    assert run(["augment", "--in", src, "--config", cfg, "--out", dst]) == 0
    from lane3d.augment import rot_x
    r = rot_x(0.05)
    for before, after in zip(read_scenes(src), read_scenes(dst)):
        for lb, la in zip(before.lanes, after.lanes):
            assert np.allclose(la.points, lb.points @ r.T, atol=1e-12)
        assert after.metadata["augment_pitch_rad"] == repr(0.05)


def test_augment_deterministic(tmp_path):
    """The augment seed is set in its config, and only there."""
    src = tmp_path / "src.jsonl"
    run(["generate", "--count", 5, "--seed", 4, "--out", src])
    default = json.loads((Path(CONFIGS) / "augment_default.json").read_text())
    outs = []
    for name, seed in (("a", 9), ("b", 9), ("c", 10)):
        cfg, dst = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        cfg.write_text(json.dumps({**default, "seed": seed}))
        assert run(["augment", "--in", src, "--config", cfg, "--out", dst]) == 0
        outs.append(dst.read_bytes())
    assert outs[0] == outs[1] != outs[2]
    assert run(["augment", "--in", src, "--seed", 9, "--out", tmp_path / "d.jsonl"]) == 1


# frame_1's lane 'right' holds these points; every generated frame has a
# lane_0, so the lane alone does not say which frame failed. Past the float
# range at every point, the fold test read NaN as a fold; at the last point
# alone, it passed.
EVERY_POINT_OVERFLOWS = [[0.0, 1e308, 1.0], [0.0, 1.5e308, 1.0]]
LAST_POINT_OVERFLOWS = [[1.75, 10.0, 0.0], [1.75, 1e308, 1.0]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, points, message", [
    ("augment", [[50.0, 5.0, 0.0], [-50.0, 5.01, 0.0]],
     "points must be strictly increasing in y"),
    ("project", [[1.75, 10.0, 1.5], [1.75, 20.0, 0.0]],
     "flat-ground y not strictly increasing; the virtual projection folds this lane"),
    ("project", [[1.75, 10.0, 0.0], [1.75, 20.0, 1.78]],
     "point height z >= camera height 1.78: no virtual top view"),
    ("project", EVERY_POINT_OVERFLOWS, "flat-ground projection overflows"),
    ("project", LAST_POINT_OVERFLOWS, "flat-ground projection overflows"),
], ids=["augment-yawed-lateral-lane", "project-folding-lane", "project-lane-at-camera-height",
        "project-overflowing-lane", "project-lane-overflowing-at-its-last-point"])
def test_augment_and_project_name_the_frame_whose_lane_fails(tmp_path, capsys, simple_scene,
                                                            command, points, message):
    src = tmp_path / "src.jsonl"
    lane = Lane3D(id="right", points=points, visibility=[1, 1])
    write_scenes([simple_scene, dataclasses.replace(simple_scene, frame_id="frame_1",
                                                    lanes=[simple_scene.lanes[0], lane])], src)
    yaw = tmp_path / "yaw.json"
    yaw.write_text(json.dumps({"yaw_range": [3.0, 3.0], "p_pitch": 0.0, "p_roll": 0.0,
                               "p_yaw": 1.0}))
    config = ["--config", yaw] if command == "augment" else []
    assert run([command, "--in", src, *config, "--out", tmp_path / "out.jsonl"]) == 2
    assert capsys.readouterr().err == f"lane3d: frame 'frame_1': lane 'right': {message}\n"


def test_project_then_reconstruct_flat(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    flat = tmp_path / "flat.jsonl"
    rec = tmp_path / "rec.jsonl"
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"flat_fraction": 1.0}))
    run(["generate", "--count", 3, "--seed", 5, "--config", cfg, "--out", scenes])
    assert run(["project", "--in", scenes, "--out", flat]) == 0
    assert run(["reconstruct", "--in", flat, "--out", rec]) == 0
    for scene in read_scenes(rec):
        for lane in scene.lanes:
            assert np.max(np.abs(lane.points[:, 2])) < 1e-6
        assert all(v == "ok" for k, v in scene.metadata.items()
                   if k.startswith("solver_status:"))


EDGE_CASES = ("one_point", "no_lanes", "coincident", "huge", "below_camera", "negative_y")
EDGE_POSE = CameraPose(height_m=1.78, pitch_rad=0.0,
                       intrinsics=Intrinsics(1000.0, 1000.0, 960.0, 540.0, 1920, 1080))


@st.composite
def edge_scenes(draw):
    """Frames of two straight boundaries, each bent by one edge case."""
    scenes = []
    for k, case in enumerate(draw(st.lists(st.sampled_from(EDGE_CASES), min_size=1, max_size=3))):
        n = 1 if case == "one_point" else draw(st.integers(2, 6))
        x = draw(st.floats(-3.0, 3.0))
        width = 0.0 if case == "coincident" else draw(st.floats(2.5, 4.5))
        pts = np.column_stack([np.full(n, x), 5.0 + 4.0 * np.arange(n), np.zeros(n)])
        if case == "huge":   # one coordinate column at +-1e300; z only below the camera
            axis = draw(st.integers(0, 2))
            sign = -1.0 if axis == 2 else draw(st.sampled_from([-1.0, 1.0]))
            pts[:, axis] = np.linspace(-1e300, 1e300, n) if axis == 1 else sign * 1e300
        elif case == "below_camera":
            pts[:, 2] = EDGE_POSE.height_m - 1e-9
        elif case == "negative_y":
            pts[:, 1] -= 100.0
        lanes = [Lane3D(id=lane_id, points=pts + [dx, 0.0, 0.0], visibility=np.ones(n, int))
                 for lane_id, dx in (("a", 0.0), ("b", width))]
        scenes.append(Scene(frame_id=f"{case}_{k}", camera=EDGE_POSE,
                            lanes=[] if case == "no_lanes" else lanes))
    return scenes


@given(edge_scenes())
# one lane at x = 1e17, where a +-0.5 m widening of the collapsed x range
# rounds away and used to scale every x to nan
@example([Scene(frame_id="far_x", camera=EDGE_POSE,
                lanes=[Lane3D(id="a", points=[[1e17, 5.0, 0.0], [1e17, 9.0, 0.0]],
                              visibility=[1, 1])])])
@settings(max_examples=30, deadline=None)
def test_edge_cases_exit_0_or_2_at_every_stage(tmp_path_factory, scenes):
    d = tmp_path_factory.mktemp("edge")
    gt, flat, rec, report = (d / name for name in ("gt.jsonl", "flat.jsonl", "rec.jsonl",
                                                   "report.json"))
    write_scenes(scenes, gt)
    codes = [run(["project", "--in", gt, "--out", flat])]
    if codes[-1] == 0:
        codes.append(run(["reconstruct", "--in", flat, "--out", rec]))
    if codes[-1] == 0:
        codes.append(run(["evaluate", gt, rec, "--out", report]))
        codes.append(run(["plot", "--in", gt, "--pred", rec, "--out", d / "figures"]))
    if report.exists():
        codes.append(run(["plot", "--in", report, "--out", d / "figures"]))
    assert set(codes) <= {0, 2}
    assert not [svg.name for svg in d.glob("figures/*.svg") if "nan" in svg.read_text()]


def test_reconstruct_single_boundary_status(tmp_path, simple_scene, pose):
    from lane3d.model import Scene
    scenes = tmp_path / "one.jsonl"
    flat = tmp_path / "flat.jsonl"
    rec = tmp_path / "rec.jsonl"
    single = Scene(frame_id="solo", camera=pose, lanes=[simple_scene.lanes[0]])
    write_scenes([single], scenes)
    run(["project", "--in", scenes, "--out", flat])
    assert run(["reconstruct", "--in", flat, "--out", rec]) == 0
    out = read_scenes(rec)[0]
    assert out.metadata["solver_status:left"] == "no_pairing"
    assert out.lanes == []


def test_reconstruct_prints_stop_histogram(tmp_path, capsys):
    scenes, flat, rec = (tmp_path / f"{name}.jsonl" for name in ("scenes", "flat", "rec"))
    run(["generate", "--count", 6, "--seed", 42, "--out", scenes])
    run(["project", "--in", scenes, "--out", flat])
    # noise on half of the frames makes their pairs descend
    frames = read_flat_frames(flat)
    rng = np.random.default_rng(16)
    for frame in frames[::2]:
        frame.lanes = [Lane2D(id=lane.id, visibility=lane.visibility,
                              points=lane.points + rng.normal(0.0, 0.05, lane.points.shape))
                       for lane in frame.lanes]
    write_flat_frames(frames, flat)
    capsys.readouterr()
    assert run(["reconstruct", "--in", flat, "--out", rec]) == 0
    (line,) = [ln for ln in capsys.readouterr().err.splitlines()
               if ln.startswith("solver stops: ")]
    counts = {reason: int(n) for reason, n in (item.split("=") for item in line.split()[2:])}
    assert list(counts) == ["no_descent", "step", "max_iters"] == list(STOP_REASONS)
    solved = Counter(pair.stop for frame in frames
                     for pair in solve_frame(frame.lanes, frame.camera.height_m).pairs)
    assert counts == {reason: solved[reason] for reason in STOP_REASONS}
    assert sum(counts.values()) > 0 and counts["no_descent"] > 0 and counts["step"] > 0


def test_reconstruct_prints_lane_status_counts(tmp_path, capsys):
    scenes, flat, rec = (tmp_path / f"{name}.jsonl" for name in ("scenes", "flat", "rec"))
    run(["generate", "--count", 3, "--seed", 42, "--out", scenes])
    run(["project", "--in", scenes, "--out", flat])
    frames = read_flat_frames(flat)
    # a right boundary widening 0.5 m a point lifts the left one folded
    ys = 1.0 + 0.5 * np.arange(20)
    widths = np.concatenate([np.full(3, 3.5), 3.5 + 0.5 * np.arange(1, 18)])
    folding = [Lane2D(id=lane_id, points=np.column_stack([x, ys]), visibility=np.ones(20, int))
               for lane_id, x in (("l", np.zeros(20)), ("r", widths))]
    frames += [FlatFrame(frame_id="folding", camera=frames[0].camera, lanes=folding),
               FlatFrame(frame_id="solo", camera=frames[0].camera, lanes=frames[0].lanes[:1])]
    write_flat_frames(frames, flat)
    capsys.readouterr()
    assert run(["reconstruct", "--in", flat, "--out", rec]) == 0
    (line,) = [ln for ln in capsys.readouterr().err.splitlines()
               if ln.startswith("lane statuses: ")]
    counts = {status: int(n) for status, n in (item.split("=") for item in line.split()[2:])}
    assert list(counts) == ["ok", "no_pairing", "folded"] == list(LANE_STATUSES)
    written = Counter(value for scene in read_scenes(rec) for key, value in scene.metadata.items()
                      if key.startswith("solver_status:"))
    assert counts == {status: written[status] for status in LANE_STATUSES}
    assert counts == {"ok": 7, "no_pairing": 1, "folded": 1}


def test_reconstruct_writes_solver_clamped_only_on_clamped_lanes(tmp_path, monkeypatch):
    scenes, flat, rec = (tmp_path / f"{name}.jsonl" for name in ("scenes", "flat", "rec"))
    run(["generate", "--count", 2, "--seed", 42, "--out", scenes])
    run(["project", "--in", scenes, "--out", flat])
    frames = read_flat_frames(flat)
    frames.append(FlatFrame(frame_id="clamping", camera=frames[0].camera,
                            lanes=clamping_flat_pair()))
    write_flat_frames(frames, flat)
    monkeypatch.setattr(lane3d.reconstruct, "DEFAULT_PAIRING", PairingConfig(**CLAMPING_PAIRING))
    assert run(["reconstruct", "--in", flat, "--out", rec]) == 0
    clamped = {(scene.frame_id, key, value) for scene in read_scenes(rec)
               for key, value in scene.metadata.items() if key.startswith("solver_clamped:")}
    assert clamped == {("clamping", f"solver_clamped:{lane_id}", "1") for lane_id in "lr"}


@pytest.mark.parametrize("frame_id", ["../escaped", "nested/escaped", "nul\0escaped"])
def test_frame_id_that_is_not_a_plain_name_exit_2(tmp_path, frame_id):
    work = tmp_path / "work"
    work.mkdir()
    scenes = work / "scenes.jsonl"
    flat = work / "flat.jsonl"
    run(["generate", "--count", 1, "--seed", 14, "--out", scenes])
    scene = read_scenes(scenes)[0]
    scene.frame_id = frame_id
    write_scenes([scene], scenes)
    assert run(["project", "--in", scenes, "--out", flat]) == 0
    # reconstruct writes only its JSONL, so any frame id is fine there
    assert run(["reconstruct", "--in", flat, "--out", work / "rec.jsonl"]) == 0
    assert [s.frame_id for s in read_scenes(work / "rec.jsonl")] == [frame_id]
    # plot names a file after each frame, and writes none outside its directory
    assert run(["plot", "--in", scenes, "--out", work / "figs"]) == 2
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "work", "work/flat.jsonl", "work/rec.jsonl", "work/scenes.jsonl"]


def test_plot_that_exits_2_writes_nothing(tmp_path, capsys):
    """Every input is read and every figure named before --out is made: a
    bad frame id in the last of three frames (not a plain file name, or
    holding a character XML 1.0 cannot hold, which would make a malformed
    figure title), or a report that does not read, leaves no directory and
    no figure."""
    scenes = tmp_path / "scenes.jsonl"
    run(["generate", "--count", 3, "--seed", 14, "--out", scenes])
    frames = read_scenes(scenes)
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"per_frame": []}))
    figs = tmp_path / "figs"
    for frame_id, reason in [("nested/escaped", "is not a plain file name"),
                             ("a\u0001b", "holds a character XML 1.0 cannot hold"),
                             ("a\ufffeb", "holds a character XML 1.0 cannot hold")]:
        frames[2].frame_id = frame_id
        write_scenes(frames, scenes)
        for args in [["--in", scenes], ["--in", scenes, "--pred", scenes]]:
            capsys.readouterr()
            assert run(["plot", *args, "--out", figs]) == 2
            assert f"frame id {frame_id!r} {reason}" in capsys.readouterr().err
            assert not figs.exists()
    assert run(["plot", "--in", report, "--out", figs]) == 2
    assert not figs.exists()


def test_shipped_configs_parse_to_the_code_defaults():
    """Each shipped config parses with its stage's parser; the *_default.json
    files equal the code defaults, so the two cannot drift apart."""
    yaw_only = dataclasses.replace(AugmentConfig(), pitch_range=(0.0, 0.0),
                                   roll_range=(0.0, 0.0), p_pitch=0.0, p_roll=0.0, p_yaw=1.0)
    expected = {
        "generate_default.json": (GeneratorConfig.from_dict, GeneratorConfig()),
        "augment_default.json": (AugmentConfig.from_dict, AugmentConfig()),
        "augment_yaw_only.json": (AugmentConfig.from_dict, yaw_only),
        "reconstruct_default.json": (SolveOptions.from_dict, SolveOptions()),
        "evaluate_default.json": (MatchConfig.from_dict, MatchConfig()),
    }
    paths = sorted(Path(CONFIGS).glob("*.json"))
    assert [p.name for p in paths] == sorted(expected)
    for path in paths:
        parse, default = expected[path.name]
        assert parse(json.loads(path.read_text())) == default, path.name


def test_misspelled_config_key_exit_2(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    camera = json.loads((Path(CONFIGS) / "generate_default.json").read_text())["camera"]
    for config, key in [({"lane_widht": 3.0}, "lane_widht"),
                        ({"hill": {"peak_z_rnage": [0.1, 0.2]}}, "hill.peak_z_rnage"),
                        ({"camera": {**camera, "roll_rad": 0.2}}, "camera.roll_rad"),
                        ({"camera": {**camera, "intrinsics": {**camera["intrinsics"],
                                                              "skew": 0.0}}},
                         "camera.intrinsics.skew"),
                        ([["lane_width", 5.0]], "must be a JSON object"),
                        # bad values: each names its field
                        ({"num_boundaries": 2.7}, "num_boundaries must be an integer"),
                        ({"lane_width": "3.5"}, "lane_width must be a number"),
                        ({"min_flat_step": "1"}, "min_flat_step must be a number"),
                        ({"x_offset_range": [1.0]}, "x_offset_range must be [lo, hi]"),
                        ({"x_offset_range": 5}, "x_offset_range must be a JSON list"),
                        ({"flat_fraction": 1.5}, "flat_fraction must be within [0, 1]"),
                        # a number beyond the double range is not JSON orjson reads
                        ('{"curvature_range": [0, 1e400]}',
                         "gen.json: invalid JSON: number is infinity when parsed as double: "
                         "line 1 column 25"),
                        # values the road spec rejects fail at parse time, before any draw
                        ({"lane_width": -1}, "lane_width must be positive"),
                        ({"y_end": 4.0, "flat_fraction": 0.0}, "y grid needs at least two points"),
                        ({"hill": {"peak_z_range": [1.0, 2.0]}, "flat_fraction": 0.0},
                         "GeneratorConfig.hill.peak_z_range must stay below the camera height"),
                        ({"hill": {"peak_z_range": [1.78, 1.78]}},
                         "GeneratorConfig.hill.peak_z_range must stay below the camera height"),
                        ({"hill": {"length_range": [-10.0, 5.0]}},
                         "gen.json: GeneratorConfig.hill.length_range must be positive, "
                         "got [-10.0, 5.0]")]:
        gen.write_text(config if isinstance(config, str) else json.dumps(config))
        assert run(["generate", "--count", 0, "--config", gen,
                    "--out", tmp_path / "gen.jsonl"]) == 2
        assert key in capsys.readouterr().err
    # peaks are drawn from [lo, hi), and no hill when every road is flat
    for config in [{"hill": {"peak_z_range": [1.0, 1.78]}, "flat_fraction": 0.0},
                   {"hill": {"peak_z_range": [1.0, 2.0]}, "flat_fraction": 1.0},
                   {"hill": {"length_range": [-10.0, 5.0]}, "flat_fraction": 1.0}]:
        gen.write_text(json.dumps(config))
        assert run(["generate", "--count", 5, "--config", gen,
                    "--out", tmp_path / "gen.jsonl"]) == 0
    scenes = tmp_path / "scenes.jsonl"
    run(["generate", "--count", 1, "--seed", 15, "--out", scenes])
    aug = tmp_path / "aug.json"
    # keys older configs may hold (the fixed angle units, solver step, tol,
    # max_iters and pairing, near/far split, match tolerance and fraction)
    # fail like any unknown key
    for config, message in [({"p_yew": 1.0}, "AugmentConfig.p_yew"),
                            ({"angle_unit": {"pitch": "radians", "roll": "degrees",
                                             "yaw": "degrees"}}, "AugmentConfig.angle_unit")]:
        aug.write_text(json.dumps(config))
        assert run(["augment", "--in", scenes, "--config", aug,
                    "--out", tmp_path / "aug.jsonl"]) == 2
        assert message in capsys.readouterr().err
    ev = tmp_path / "ev.json"
    for config, message in [({"point_tolerence": 0.5}, "point_tolerence"),
                            ({"eval_y_refs": 5}, "eval_y_refs must be a JSON list"),
                            ({"prob_thresholds": [1.5, -2]},
                             "prob_thresholds must be nonempty and within [0, 1]"),
                            ({"near_far_split": 40.0}, "MatchConfig.near_far_split"),
                            ({"point_tolerance": 1.5}, "MatchConfig.point_tolerance"),
                            ({"match_fraction": 0.75}, "MatchConfig.match_fraction")]:
        ev.write_text(json.dumps(config))
        assert run(["evaluate", scenes, scenes, "--config", ev,
                    "--out", tmp_path / "report.json"]) == 2
        assert message in capsys.readouterr().err
    flat = tmp_path / "flat.jsonl"
    assert run(["project", "--in", scenes, "--out", flat]) == 0
    rec = tmp_path / "rec.json"
    for config, message in [([1, 2], "must be a JSON object"),
                            ({"trace_dir": "traces"}, "SolveOptions.trace_dir"),
                            ({"max_iters": 400}, "SolveOptions.max_iters"),
                            ({"step": 0.05}, "SolveOptions.step"),
                            ({"tol": 1e-10}, "SolveOptions.tol"),
                            ({"max_iter": 5}, "SolveOptions.max_iter"),
                            ({"pairing": {"window": 2, "width_jump_threshold": 1.0}},
                             "SolveOptions.pairing")]:
        rec.write_text(json.dumps(config))
        capsys.readouterr()
        assert run(["reconstruct", "--in", flat, "--config", rec,
                    "--out", tmp_path / "rec.jsonl"]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "rec.jsonl").exists()


def test_evaluate_runs_without_scipy(tmp_path):
    scenes, aug, flat, rec = (tmp_path / f"{name}.jsonl"
                              for name in ("scenes", "aug", "flat", "rec"))
    assert run(["generate", "--count", 20, "--seed", 3, "--out", scenes]) == 0
    assert run(["augment", "--in", scenes, "--config",
                Path(CONFIGS) / "augment_yaw_only.json", "--out", aug]) == 0
    assert run(["project", "--in", aug, "--out", flat]) == 0
    assert run(["reconstruct", "--in", flat, "--out", rec]) == 0
    report = tmp_path / "report.json"
    assert run(["evaluate", aug, rec, "--out", report]) == 0
    # the child cannot import scipy at all
    child = tmp_path / "child.json"
    code = ("import sys; sys.modules['scipy'] = None; from lane3d.cli import main; "
            f"sys.exit(main(['evaluate', {str(aug)!r}, {str(rec)!r}, "
            f"'--out', {str(child)!r}]))")
    proc = run_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert child.read_bytes() == report.read_bytes()
    assert json.loads(report.read_text())["matched_pairs"]


def test_evaluate_gt_vs_gt(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    report = tmp_path / "report.json"
    run(["generate", "--count", 4, "--seed", 6, "--out", scenes])
    assert run(["evaluate", scenes, scenes, "--out", report]) == 0
    doc = json.loads(report.read_text())
    assert doc["f_score"] == 1.0
    assert doc["ap"] == 1.0
    assert doc["x_err_far"] == 0.0 and doc["z_err_far"] == 0.0


def test_evaluate_csv_quotes_frame_ids_with_comma_quote_or_newline(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    run(["generate", "--count", 4, "--seed", 12, "--out", scenes])
    ids = ['a,"b"\nc', "plain", ",", "x\ry"]
    write_scenes([dataclasses.replace(s, frame_id=i) for s, i in zip(read_scenes(scenes), ids)],
                 scenes)
    out = tmp_path / "frames.csv"
    assert run(["evaluate", scenes, scenes, "--out", tmp_path / "report.json",
                "--csv", out]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["frame_id", "tp", "fp", "fn", "x_near", "x_far", "z_near", "z_far"]
    assert [row[0] for row in rows[1:]] == ids
    assert [len(row) for row in rows] == [8] * 5
    # a plain id is written as it is, each number as repr writes it
    assert "\nplain,2,0,0,0.0,0.0,0.0,0.0\n" in out.read_text(encoding="utf-8")


def test_evaluate_joint_with_identical_method(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    other = tmp_path / os.fsdecode(b"other\xff.jsonl")   # a name that is not UTF-8
    report = tmp_path / "report.json"
    run(["generate", "--count", 3, "--seed", 7, "--out", scenes])
    other.write_bytes(scenes.read_bytes())
    assert run(["evaluate", scenes, scenes, "--joint", other, "--out", report]) == 0
    doc = json.loads(report.read_text())
    assert "joint" in doc and len(doc["joint"]) == 2
    assert [entry["source"] for entry in doc["joint"]] == [
        str(scenes), str(other).replace("\udcff", "\\xff")]
    for entry in doc["joint"]:
        assert entry["x_far"] == doc["x_err_far"]
        assert not entry["empty_intersection"]


def test_evaluate_frame_mismatch_exit_2(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run(["generate", "--count", 3, "--seed", 8, "--out", a])
    write_scenes(read_scenes(a)[:2], b)
    report = tmp_path / "report.json"
    assert run(["evaluate", a, b, "--out", report]) == 2
    assert "synth_8_00002" in capsys.readouterr().err


def test_evaluate_prediction_with_duplicate_lane_ids_exit_2(tmp_path, capsys):
    gt = tmp_path / "gt.jsonl"
    run(["generate", "--count", 2, "--seed", 8, "--out", gt])
    docs = [json.loads(line) for line in gt.read_text().splitlines()]
    docs[1]["lanes"][1]["id"] = docs[1]["lanes"][0]["id"]
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    assert run(["evaluate", gt, pred, "--out", tmp_path / "report.json"]) == 2
    assert "pred.jsonl:2: frame 'synth_8_00001': lane ids must be unique" \
        in capsys.readouterr().err


# frame_1's GT lane 'right' reaches the camera height or overflows, or its
# prediction lane 'right' folds in the virtual top view or overflows; every
# other lane resamples
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad_file, points, message", [
    ("gt", [[1.75, 10.0, 0.0], [1.75, 20.0, 1.78]],
     "GT: lane 'right': point height z >= camera height 1.78: no virtual top view"),
    ("pred", [[1.75, 10.0, 1.5], [1.75, 20.0, 0.0]],
     "prediction: lane 'right': flat-ground y not strictly increasing; "
     "the virtual projection folds this lane"),
    ("gt", EVERY_POINT_OVERFLOWS, "GT: lane 'right': flat-ground projection overflows"),
    ("pred", LAST_POINT_OVERFLOWS,
     "prediction: lane 'right': flat-ground projection overflows"),
], ids=["gt-lane-at-camera-height", "prediction-lane-that-folds", "gt-overflowing-lane",
        "prediction-lane-overflowing-at-its-last-point"])
def test_evaluate_names_the_frame_and_lane_it_cannot_resample(tmp_path, capsys, simple_scene,
                                                              bad_file, points, message):
    lane = Lane3D(id="right", points=points, visibility=[1, 1])
    frame_1 = dataclasses.replace(simple_scene, frame_id="frame_1")
    paths = {name: tmp_path / f"{name}.jsonl" for name in ("gt", "pred")}
    for name, path in paths.items():
        last = dataclasses.replace(frame_1, lanes=[frame_1.lanes[0], lane]) \
            if name == bad_file else frame_1
        write_scenes([simple_scene, last], path)
    report = tmp_path / "report.json"
    assert run(["evaluate", paths["gt"], paths["pred"], "--out", report]) == 2
    assert capsys.readouterr().err == f"lane3d: frame 'frame_1': {message}\n"
    assert not report.exists()


# repr shows a'b in double quotes and escapes the backslash, newline and tab,
# where a hand-quoted '{id}' does not; a"b and 漢 it shows as '{id}' does
TRICKY_IDS = {"quote": "a'b", "double-quote": 'a"b', "backslash": "a\\b",
              "newline": "a\nb", "tab": "a\tb", "cjk": "漢"}


@pytest.mark.parametrize("role", ["lane", "frame"])
@pytest.mark.parametrize("stage", ["scene-reader", "flat-reader", "project", "evaluate"])
@pytest.mark.parametrize("tricky", TRICKY_IDS.values(), ids=TRICKY_IDS.keys())
def test_an_error_quotes_each_id_by_repr_on_one_line(tmp_path, capsys, simple_scene,
                                                      tricky, stage, role):
    """The id plays the lane's or the frame's part in a record that fails
    where it is read, projected or evaluated; stderr is one line whatever
    the id holds."""
    frame_id, lane_id = (tricky, "right") if role == "frame" else ("frame_1", tricky)
    doc = dataclasses.replace(simple_scene, frame_id=frame_id).to_dict()
    bad = doc["lanes"][1]
    bad["id"] = lane_id
    src = tmp_path / "in.jsonl"
    lines = [doc]
    at_camera = "point height z >= camera height 1.78: no virtual top view"
    if stage == "scene-reader":
        args = ["project", "--in", src, "--out", tmp_path / "flat.jsonl"]
        if role == "lane":
            bad["points"].reverse()
            message = f"{src}:1: lane {lane_id!r}: points must be strictly increasing in y"
        else:
            doc["lanes"][0]["id"] = lane_id
            message = f"{src}:1: frame {frame_id!r}: lane ids must be unique"
    elif stage == "flat-reader":
        args = ["reconstruct", "--in", src, "--out", tmp_path / "rec.jsonl"]
        for lane in doc["lanes"]:
            lane["points"] = [point[:2] for point in lane["points"]]
        if role == "lane":
            bad["points"][0][0] = "1.75"
            message = f"{src}:1: lane {lane_id!r}: points must be finite numbers"
        else:
            lines = [doc, doc]
            message = f"{src}:2: duplicate frame id {frame_id!r}"
    else:
        bad["points"], bad["visibility"] = [[1.75, 10.0, 0.0], [1.75, 20.0, 1.78]], [1, 1]
        if stage == "project":
            args = ["project", "--in", src, "--out", tmp_path / "flat.jsonl"]
            message = f"frame {frame_id!r}: lane {lane_id!r}: {at_camera}"
        else:
            pred = tmp_path / "pred.jsonl"
            write_scenes([dataclasses.replace(simple_scene, frame_id=frame_id)], pred)
            args = ["evaluate", src, pred, "--out", tmp_path / "report.json"]
            message = f"frame {frame_id!r}: GT: lane {lane_id!r}: {at_camera}"
    src.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err == f"lane3d: {message}\n" and err.count("\n") == 1


def test_duplicate_frame_id_in_one_file_exit_2(tmp_path, capsys):
    scenes = tmp_path / "scenes.jsonl"
    run(["generate", "--count", 3, "--seed", 8, "--out", scenes])
    first = read_scenes(scenes)[0]
    dup = tmp_path / "dup.jsonl"
    # a 4th line repeating frame 0 with one lane
    dup.write_bytes(scenes.read_bytes() + json.dumps(
        {**first.to_dict(), "lanes": first.to_dict()["lanes"][:1]}).encode() + b"\n")
    report, figs = tmp_path / "report.json", tmp_path / "figs"
    for args in [["evaluate", scenes, dup, "--out", report],
                 ["evaluate", dup, scenes, "--out", report],
                 ["plot", "--in", dup, "--out", figs],
                 ["plot", "--in", scenes, "--pred", dup, "--out", figs]]:
        capsys.readouterr()
        assert run(args) == 2
        assert "dup.jsonl:4: duplicate frame id 'synth_8_00000'" in capsys.readouterr().err
    assert not report.exists() and not figs.exists()


def test_plot_empty_scene_list(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    scenes.write_text("")
    out_dir = tmp_path / "figs"
    assert run(["plot", "--in", scenes, "--out", out_dir]) == 0
    assert list(out_dir.glob("*.svg")) == []


def test_plot_scene_svg_well_formed(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    run(["generate", "--count", 1, "--seed", 9, "--out", scenes])
    out_dir = tmp_path / "figs"
    assert run(["plot", "--in", scenes, "--out", out_dir]) == 0
    files = list(out_dir.glob("*.svg"))
    assert len(files) == 1
    ET.parse(files[0])   # raises on malformed XML


def test_plot_overlay_two_series(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    run(["generate", "--count", 1, "--seed", 10, "--out", scenes])
    out_dir = tmp_path / "figs"
    assert run(["plot", "--in", scenes, "--pred", scenes, "--out", out_dir]) == 0
    tree = ET.parse(next(iter(out_dir.glob("*.svg"))))
    ns = "{http://www.w3.org/2000/svg}"
    classes = {el.get("class") for el in tree.iter(f"{ns}polyline")}
    assert {"series-gt", "series-pred"} <= classes
    colors = {el.get("stroke") for el in tree.iter(f"{ns}polyline")}
    assert len(colors) == 2


def test_plot_report_chart(tmp_path, capsys):
    scenes = tmp_path / "scenes.jsonl"
    report = tmp_path / "report.json"
    run(["generate", "--count", 2, "--seed", 11, "--out", scenes])
    run(["evaluate", scenes, scenes, "--out", report])
    out_dir = tmp_path / "figs"
    assert run(["plot", "--in", report, "--out", out_dir]) == 0
    ET.parse(out_dir / "report.svg")
    # a malformed report is a data error naming the file, not a traceback
    doc = json.loads(report.read_text())
    bad = tmp_path / "bad.json"
    # an indented report orjson rejects: the error names the line and column
    assert report.read_text().splitlines()[1].startswith('  "f_score": ')
    bad.write_text(report.read_text().replace('"f_score": ', '"f_score": NaN, "x": ', 1))
    assert run(["plot", "--in", bad, "--out", out_dir]) == 2
    assert "bad.json: invalid JSON: unexpected character: line 2 column 14 (char 15)\n" \
        in capsys.readouterr().err
    frame = doc["per_frame"][0]
    pair = frame["pairs"][0]
    for broken in [{"per_frame": []}, {**doc, "f_score": "0.9"}, {**doc, "pr_curve": [5]},
                   {**doc, "pr_curve": [[0.5]]}, {**doc, "pr_curve": [[0.5, 2, 3, 4]]},
                   {**doc, "per_frame": [{"frame_id": "f", "tp": 1.5}]},
                   {**doc, "matched_pairs": ["abc"]}, {**doc, "matched_pairs": [["f", "g"]]}]:
        bad.write_text(json.dumps(broken))
        capsys.readouterr()
        assert run(["plot", "--in", bad, "--out", out_dir]) == 2
        assert "bad.json" in capsys.readouterr().err
    # pair sums each finite can add up past the float range: x_err_far
    # would be inf, which the report writes as null
    assert len(frame["pairs"]) == 2
    overflow = {**frame, "pairs": [{**p, "x_far_sum": 1e308, "far_count": 1}
                                   for p in frame["pairs"]]}
    bad.write_text(json.dumps({**doc, "per_frame": [overflow, *doc["per_frame"][1:]]}))
    capsys.readouterr()
    assert run(["plot", "--in", bad, "--out", out_dir]) == 2
    assert "bad.json: offset errors must be finite" in capsys.readouterr().err
    # a report read must be one write_report can write back: every id a
    # UTF-8 string
    for broken in [{**doc, "per_frame": [{**frame, "frame_id": 5}]},
                   {**doc, "per_frame": [{**frame, "pairs": [{**pair, "gt_id": 1}]}]},
                   {**doc, "per_frame": [{**frame, "pairs": [{**pair, "pred_id": None}]}]}]:
        bad.write_text(json.dumps(broken))
        capsys.readouterr()
        assert run(["plot", "--in", bad, "--out", out_dir]) == 2
        assert "bad.json: report ids must be UTF-8 strings" in capsys.readouterr().err
    # a lone-surrogate escape is not JSON orjson reads
    for broken, reason, check in [
            ({**doc, "per_frame": [{**frame, "frame_id": "\udcff"}]}, "invalid high surrogate",
             "report ids must be UTF-8 strings"),
            ({**doc, "matched_pairs": [["f", "\ud800", "p"]]}, "no matched low surrogate",
             "report key 'matched_pairs' does not match")]:
        bad.write_text(json.dumps(broken))
        capsys.readouterr()
        assert run(["plot", "--in", bad, "--out", out_dir]) == 2
        assert f"bad.json: invalid JSON: {reason} in string: line 1 column " \
            in capsys.readouterr().err
        # the report's own checks still reject them, read from Python values
        with pytest.raises(InvalidInput, match=check):
            EvalReport.from_dict(broken)
    # and the very report write_report writes: matched_pairs and empty are
    # derived from per_frame, so any other value of theirs does not match
    for key, value in [("matched_pairs", [["f", "g", "p"]]), ("empty", 0),
                       ("empty", "false")]:
        bad.write_text(json.dumps({**doc, key: value}))
        capsys.readouterr()
        assert run(["plot", "--in", bad, "--out", out_dir]) == 2
        assert f"bad.json: report key '{key}' does not match" in capsys.readouterr().err


def _changed(doc, key, value):
    """doc with its key set to value; the key per_frame sets the first
    frame's tp."""
    if key == "per_frame":
        return {**doc, "per_frame": [{**doc["per_frame"][0], "tp": value}, *doc["per_frame"][1:]]}
    return {**doc, key: value}


@pytest.mark.parametrize("key, value", [
    ("f_score", 0.1), ("ap", 7.0), ("precision", 0.2), ("recall", 0.5),
    ("best_threshold", 0.9), ("x_err_near", 0.25), ("x_err_far", 3.0), ("z_err_near", 0.5),
    ("z_err_far", 1.5), ("empty", True), ("matched_pairs", []), ("per_frame", 5),
])
def test_plot_rejects_report_whose_derived_key_disagrees(tmp_path, capsys, key, value):
    """Every number a report holds besides pr_curve and per_frame is derived
    from them, as is each frame's tp from its pairs: a report that changes
    one, to another value of the same JSON type, does not read."""
    scenes = tmp_path / "scenes.jsonl"
    report = tmp_path / "report.json"
    run(["generate", "--count", 2, "--seed", 11, "--out", scenes])
    run(["evaluate", scenes, scenes, "--out", report])
    doc = json.loads(report.read_text())
    assert doc["per_frame"][0]["tp"] == len(doc["per_frame"][0]["pairs"]) == 2
    assert doc["best_threshold"] == 0.05 and not doc["empty"]
    assert type(doc[key] if key != "per_frame" else doc[key][0]["tp"]) is type(value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_changed(doc, key, value)))
    capsys.readouterr()
    assert run(["plot", "--in", bad, "--out", tmp_path / "figs"]) == 2
    assert f"bad.json: report key '{key}' does not match" in capsys.readouterr().err
    # a key the report does not write is ignored
    bad.write_text(json.dumps({**doc, "joint": [{"source": "x", "x_far": 0.0}]}))
    assert run(["plot", "--in", bad, "--out", tmp_path / "figs"]) == 0


def test_plot_tells_report_from_jsonl_by_first_line(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    report = tmp_path / "report.json"
    run(["generate", "--count", 2, "--seed", 11, "--out", scenes])
    run(["evaluate", scenes, scenes, "--out", report])
    one_line = json.dumps(json.loads(report.read_text()))
    path = tmp_path / "input"
    for text, expected, code in [
            (report.read_text(), True, 0),        # indented report
            (one_line + "\n", True, 0),
            # a report line followed by more: the report reader names line 2
            (one_line + "\n" + one_line + "\n", True, 2),
            (scenes.read_text(), False, 0),
            ("", False, 0),
            # not JSON from its first line: the report reader names where
            ("{not json\n", True, 2),
            ("not json\n", False, 2)]:
        path.write_text(text)
        assert _looks_like_report(path) is expected, text[:40]
        assert run(["plot", "--in", path, "--out", tmp_path / "figs"]) == code, text[:40]
    # JSONL is told from its first line, not by parsing the whole file
    line = scenes.read_text().splitlines()[0]
    path.write_text((line + "\n") * (4_000_000 // len(line) + 1))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        assert _looks_like_report(path) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size, (peak, size)


def test_plot_parses_a_report_once(tmp_path, monkeypatch):
    """The indented report evaluate writes is told from its first line, so
    read_report is the only code that parses its whole text."""
    scenes = tmp_path / "scenes.jsonl"
    report = tmp_path / "report.json"
    run(["generate", "--count", 2, "--seed", 11, "--out", scenes])
    run(["evaluate", scenes, scenes, "--out", report])
    texts = []
    loads = model._loads
    monkeypatch.setattr(model, "_loads", lambda text: texts.append(text) or loads(text))
    assert run(["plot", "--in", report, "--out", tmp_path / "figs"]) == 0
    assert texts.count(report.read_text()) == 1


def test_plot_of_a_report_with_pred_exit_1(tmp_path, capsys):
    """--pred overlays scene figures only: given a report, it is a usage
    error, found before the report or the overlay is read."""
    scenes, report = tmp_path / "scenes.jsonl", tmp_path / "report.json"
    run(["generate", "--count", 2, "--seed", 11, "--out", scenes])
    run(["evaluate", scenes, scenes, "--out", report])
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_text(json.dumps({"per_frame": []}))
    figs = tmp_path / "figs"
    for path in [report, unreadable]:
        for pred in [scenes, tmp_path / "absent.jsonl"]:
            capsys.readouterr()
            assert run(["plot", "--in", path, "--pred", pred, "--out", figs]) == 1
            assert capsys.readouterr().err == \
                "lane3d plot: error: --pred overlays scene figures, not a report\n"
            assert not figs.exists()


def test_plot_of_a_config_or_two_reports_exit_2_naming_it(tmp_path, capsys):
    """An indented object without per_frame, such as a config, and a report
    line followed by another both read as a report, whose reader says why
    they are not one."""
    scenes = tmp_path / "scenes.jsonl"
    report = tmp_path / "report.json"
    run(["generate", "--count", 2, "--seed", 11, "--out", scenes])
    run(["evaluate", scenes, scenes, "--out", report])
    one_line = json.dumps(json.loads(report.read_text()))
    two = tmp_path / "two.json"
    two.write_text(one_line + "\n" + one_line + "\n")
    config = Path(CONFIGS) / "generate_default.json"
    for path, message in [
            (config, "malformed record: KeyError('per_frame')\n"),
            (two, "invalid JSON: unexpected content after document: line 2 column 1 ")]:
        capsys.readouterr()
        assert run(["plot", "--in", path, "--out", tmp_path / "figs"]) == 2
        assert capsys.readouterr().err.startswith(f"lane3d: {path}: {message}")
    assert not (tmp_path / "figs").exists()


def test_usage_error_exit_1():
    assert run(["generate", "--count", "not-a-number", "--out", "x"]) == 1
    assert run(["generate", "--count", -5, "--out", "x"]) == 1
    assert run(["no-such-command"]) == 1
    # the camera height comes from each frame record, not from a flag
    assert run(["reconstruct", "--in", "x", "--h-cam", "1.5", "--out", "y"]) == 1


def test_generate_negative_seed_exit_1(tmp_path, capsys):
    out = tmp_path / "scenes.jsonl"
    assert run(["generate", "--seed", -1, "--out", out]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


# BAD holds a blank line, then a line with the byte 0xff
@pytest.mark.parametrize("command, where", [
    (["augment", "--in", "BAD", "--out", "OUT"], "bad.jsonl:2:"),
    (["project", "--in", "BAD", "--out", "OUT"], "bad.jsonl:2:"),
    (["reconstruct", "--in", "BAD", "--out", "OUT"], "bad.jsonl:2:"),
    (["evaluate", "BAD", "SCENES", "--out", "OUT"], "bad.jsonl:2:"),
    (["evaluate", "SCENES", "BAD", "--out", "OUT"], "bad.jsonl:2:"),
    (["plot", "--in", "BAD", "--out", "OUT"], "bad.jsonl:2:"),
    (["plot", "--in", "SCENES", "--pred", "BAD", "--out", "OUT"], "bad.jsonl:2:"),
    (["generate", "--config", "BAD", "--out", "OUT"], "bad.jsonl:"),
], ids=["augment", "project", "reconstruct", "evaluate-gt", "evaluate-pred", "plot-in",
        "plot-pred", "config"])
def test_input_that_is_not_utf8_exit_2_naming_it(tmp_path, capsys, command, where):
    paths = {"BAD": tmp_path / "bad.jsonl", "SCENES": tmp_path / "scenes.jsonl",
             "OUT": tmp_path / "out"}
    paths["BAD"].write_bytes(b"\n\xff\n")
    run(["generate", "--count", 1, "--out", paths["SCENES"]])
    capsys.readouterr()
    assert run([paths.get(arg, arg) for arg in command]) == 2
    assert f"{where} invalid JSON: str is not valid UTF-8" in capsys.readouterr().err
    assert not paths["OUT"].exists()


# text orjson rejects on which json.loads crashes: RecursionError on the
# nesting, ValueError (Python's int digit limit) on the integer
@pytest.mark.parametrize("text", [
    '{"frame_id":NaN,"x":' + "[" * 1000 + "]" * 1000 + "}\n",
    '{"lane_width":' + "1" * 5000 + "}\n",
], ids=["nan-1000-deep", "5000-digit-int"])
@pytest.mark.parametrize("command, line", [
    (["project", "--in", "BAD", "--out", "OUT"], ":1"),
    (["generate", "--config", "BAD", "--out", "OUT"], ""),
    (["plot", "--in", "BAD", "--out", "OUT"], ""),
], ids=["project", "generate", "plot"])
def test_text_orjson_rejects_exit_2_as_invalid_json(tmp_path, capsys, text, command, line):
    paths = {"BAD": tmp_path / "bad.json", "OUT": tmp_path / "out"}
    paths["BAD"].write_text(text)
    assert run([paths.get(arg, arg) for arg in command]) == 2
    assert capsys.readouterr().err.startswith(f"lane3d: {paths['BAD']}{line}: invalid JSON: ")
    assert not paths["OUT"].exists()


# Unicode whitespace that is not JSON whitespace around a scene line, or
# alone on a line, is text orjson rejects, not a blank line to skip
@pytest.mark.parametrize("wrap, lineno", [
    (lambda line: f"\u00a0{line}\u3000", 1),
    (lambda line: f"{line}\n\x1c", 2),
], ids=["nbsp-and-ideographic-space-around-a-line", "file-separator-alone-on-a-line"])
def test_unicode_whitespace_is_not_json_whitespace(tmp_path, capsys, simple_scene, wrap, lineno):
    bad, flat = tmp_path / "bad.jsonl", tmp_path / "flat.jsonl"
    write_scenes([simple_scene], bad)
    bad.write_text(wrap(bad.read_text().rstrip("\n")) + "\n", encoding="utf-8")
    assert run(["project", "--in", bad, "--out", flat]) == 2
    assert capsys.readouterr().err == f"lane3d: {bad}:{lineno}: invalid JSON: " \
        "unexpected character: line 1 column 1 (char 0)\n"
    assert not flat.exists()


# line 2 of BAD holds a lane point that is not a JSON number (orjson reads
# no NaN, no Infinity and nothing beyond the double range), or is cut short;
# orjson's reason names the column where the point starts
@pytest.mark.parametrize("point, reason", [
    ("NaN", "unexpected character"),
    ("Infinity", "unexpected character"),
    ("-Infinity", "no digit after minus sign"),
    ("1e400", "number is infinity when parsed as double"),
    (None, ""),
], ids=["nan", "infinity", "minus-infinity", "1e400", "truncated"])
def test_nonfinite_point_or_truncated_line_exit_2_naming_it(tmp_path, capsys, simple_scene,
                                                            point, reason):
    bad = tmp_path / "bad.jsonl"
    write_scenes([simple_scene, dataclasses.replace(simple_scene, frame_id="frame_1")], bad)
    first, second = bad.read_text().splitlines()
    column = second.index("-1.75") + 1
    second = second[:len(second) // 2] if point is None else second.replace("-1.75", point, 1)
    bad.write_text(f"{first}\n{second}\n")
    assert run(["project", "--in", bad, "--out", tmp_path / "flat.jsonl"]) == 2
    err = capsys.readouterr().err
    assert f"bad.jsonl:2: invalid JSON: {reason}" in err
    assert point is None or f": line 1 column {column} (char {column - 1})\n" in err


# line 2 of BAD holds a value the JSONL writer could not write back: a lone
# surrogate (not JSON orjson reads), a width past 64 bits (which orjson reads
# as the nearest double) or a number for an id
@pytest.mark.parametrize("edits, message", [
    ({'"id":"left"': '"id":"\\ud800"'},
     "bad.jsonl:2: invalid JSON: no matched low surrogate in string: line 1 column "),
    ({'"width_px":1920': f'"width_px":{2 ** 70}'},
     "bad.jsonl:2: camera.intrinsics.width_px must be an integer, got 1.1805916207174113e+21"),
    ({'"frame_id":"frame_1"': '"frame_id":5'},
     "bad.jsonl:2: frame 5: ids and metadata must be UTF-8 strings"),
], ids=["lone-surrogate-id", "width-2**70", "int-frame-id"])
@pytest.mark.parametrize("command", [["augment", "--in"], ["plot", "--in"]],
                         ids=["augment", "plot"])
def test_value_the_writer_cannot_write_exit_2_naming_it(tmp_path, capsys, simple_scene,
                                                         edits, message, command):
    bad = tmp_path / "bad.jsonl"
    write_scenes([simple_scene, dataclasses.replace(simple_scene, frame_id="frame_1")], bad)
    first, second = bad.read_text().splitlines()
    for old, new in edits.items():
        assert old in second
        second = second.replace(old, new, 1)
    bad.write_text(f"{first}\n{second}\n")
    assert run([*command, bad, "--out", tmp_path / "out"]) == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory):
    """The files of a two-frame README pipeline, by the name a command
    argument holds in their place."""
    d = tmp_path_factory.mktemp("stages")
    files = {name: d / name for name in ("SCENES", "AUG", "FLAT", "REC", "REPORT")}
    assert run(["generate", "--count", 2, "--seed", 4, "--out", files["SCENES"]]) == 0
    assert run(["augment", "--in", files["SCENES"], "--config",
                Path(CONFIGS) / "augment_yaw_only.json", "--out", files["AUG"]]) == 0
    assert run(["project", "--in", files["AUG"], "--out", files["FLAT"]]) == 0
    assert run(["reconstruct", "--in", files["FLAT"], "--out", files["REC"]]) == 0
    assert run(["evaluate", files["AUG"], files["REC"], "--out", files["REPORT"]]) == 0
    return files


# the lane3d modules a command loads beyond lane3d, cli, errors and model:
# the stages it runs and what they import, no more
@pytest.mark.parametrize("command, stages", [
    ([], []),
    (["generate", "--count", 2, "--out", "OUT"], ["projection", "synth"]),
    (["augment", "--in", "SCENES", "--out", "OUT"], ["augment", "projection"]),
    (["project", "--in", "AUG", "--out", "OUT"], ["projection"]),
    (["reconstruct", "--in", "FLAT", "--out", "OUT"],
     ["losses", "pairing", "projection", "reconstruct"]),
    (["evaluate", "AUG", "REC", "--out", "OUT"], ["evaluate", "projection"]),
    (["plot", "--in", "SCENES", "--pred", "REC", "--out", "OUT"], ["plot"]),
    (["plot", "--in", "REPORT", "--out", "OUT"], ["evaluate", "plot", "projection"]),
], ids=["import", "generate", "augment", "project", "reconstruct", "evaluate",
        "plot-scenes", "plot-report"])
def test_each_command_loads_only_the_stages_it_runs(tmp_path, stage_files, command, stages):
    code = ("import sys, lane3d.cli; "
            "code = lane3d.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'lane3d')); "
            "sys.exit(code)")
    paths = {**stage_files, "OUT": tmp_path / "out"}
    proc = run_child(["-c", code, *(paths.get(arg, arg) for arg in command)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["lane3d", *sorted(
        f"lane3d.{name}" for name in ["cli", "errors", "model", *stages])]


def test_missing_input_exit_3(tmp_path):
    assert run(["project", "--in", tmp_path / "absent.jsonl",
                "--out", tmp_path / "o.jsonl"]) == 3


def test_console_entry_point(tmp_path):
    out = tmp_path / "scenes.jsonl"
    proc = run_child(["-m", "lane3d.cli", "generate", "--count", 1, "--out", out])
    assert proc.returncode == 0
    assert out.exists()
