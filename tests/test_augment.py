import json
import math

import numpy as np
import pytest

from lane3d.augment import (AugmentConfig, augment_scene, composed_rotation,
                            draw_angles, rot_x, rot_y, rot_z, rotate_scene)
from lane3d.errors import InvalidInput
from lane3d.model import Scene

from conftest import straight_lane


def test_rot_x_identity_and_quarter_turn():
    assert np.allclose(rot_x(0.0), np.eye(3), atol=0)
    assert np.allclose(rot_x(math.pi / 2) @ np.array([0, 1, 0]),
                       [0, 0, 1], atol=1e-12)


def test_rot_z_composition_inverse():
    for theta in (0.3, -1.2, 2.9):
        assert np.allclose(rot_z(theta) @ rot_z(-theta), np.eye(3), atol=1e-12)


def test_matrices_match_axis_convention():
    # pitch about x, roll about y, yaw about z
    assert np.allclose(rot_x(0.5) @ [1, 0, 0], [1, 0, 0], atol=1e-15)
    assert np.allclose(rot_y(0.5) @ [0, 1, 0], [0, 1, 0], atol=1e-15)
    assert np.allclose(rot_z(0.5) @ [0, 0, 1], [0, 0, 1], atol=1e-15)


def test_rotations_orthonormal_random_angles():
    rng = np.random.default_rng(51)
    for _ in range(300):
        r = composed_rotation(*rng.uniform(-math.pi, math.pi, 3))
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_zero_probability_returns_scene_unchanged(simple_scene):
    cfg = AugmentConfig(p_pitch=0.0, p_roll=0.0, p_yaw=0.0)
    out = augment_scene(simple_scene, cfg)
    assert out == simple_scene


def test_fixed_pitch_raises_points(pose):
    lane = straight_lane("flat", 0.0, [5.0, 10.0, 20.0])
    scene = Scene(frame_id="f", camera=pose, lanes=[lane])
    cfg = AugmentConfig(pitch_range=(0.2, 0.2), p_pitch=1.0, p_roll=0.0, p_yaw=0.0)
    out = augment_scene(scene, cfg)
    z_at_10 = out.lanes[0].points[1, 2]
    assert z_at_10 == pytest.approx(10.0 * math.sin(0.2), abs=1e-12)   # 1.9867
    assert out.metadata["augment_pitch_rad"] == repr(0.2)


def test_deterministic_under_same_key(simple_scene):
    cfg = AugmentConfig(seed=7)
    a = augment_scene(simple_scene, cfg, draw_index=3)
    b = augment_scene(simple_scene, cfg, draw_index=3)
    assert a == b
    # with every axis firing, different draw indices give different angles
    always = AugmentConfig(p_pitch=1.0, p_roll=1.0, p_yaw=1.0, seed=7)
    angles_a = draw_angles(always, simple_scene.frame_id, 3)
    angles_b = draw_angles(always, simple_scene.frame_id, 4)
    assert angles_a != angles_b


def test_rotation_is_isometry(simple_scene):
    cfg = AugmentConfig(p_pitch=1.0, p_roll=1.0, p_yaw=1.0, seed=11)
    out = augment_scene(simple_scene, cfg)
    for before, after in zip(simple_scene.lanes, out.lanes):
        d0 = np.linalg.norm(before.points[:, None] - before.points[None], axis=2)
        d1 = np.linalg.norm(after.points[:, None] - after.points[None], axis=2)
        assert np.allclose(d1, d0, rtol=0, atol=1e-9)


def test_pure_yaw_preserves_height(pose):
    ys = np.arange(5.0, 50.0, 5.0)
    z = 0.3 * np.sin(ys / 10.0)
    lane = straight_lane("wavy", 1.0, ys, z=z)
    scene = Scene(frame_id="f", camera=pose, lanes=[lane])
    cfg = AugmentConfig(yaw_range=(2.5, 2.5), p_yaw=1.0, p_pitch=0.0, p_roll=0.0)
    out = augment_scene(scene, cfg)
    assert np.array_equal(out.lanes[0].points[:, 2], z)


def test_inverse_rotation_restores_scene(simple_scene):
    r = composed_rotation(0.1, 0.05, -0.2)
    rotated = rotate_scene(simple_scene, r)
    restored = rotate_scene(rotated, r.T)
    for before, after in zip(simple_scene.lanes, restored.lanes):
        assert np.max(np.abs(before.points - after.points)) < 1e-9


def test_composition_order_is_zyx():
    angles = (0.2, -0.15, 0.4)
    expected = rot_z(angles[2]) @ rot_y(angles[1]) @ rot_x(angles[0])
    assert np.array_equal(composed_rotation(*angles), expected)


def test_angle_units_converted():
    # the units are fixed: roll and yaw ranges in degrees, pitch's in radians
    cfg = AugmentConfig(yaw_range=(90.0, 90.0), roll_range=(90.0, 90.0),
                        pitch_range=(0.5, 0.5), p_yaw=1.0, p_pitch=1.0, p_roll=1.0)
    angles = draw_angles(cfg, "f", 0)
    assert angles["yaw"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert angles["roll"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert angles["pitch"] == 0.5


def test_config_validation_and_json(tmp_path):
    with pytest.raises(InvalidInput):
        AugmentConfig(pitch_range=(0.3, -0.1))
    with pytest.raises(InvalidInput):
        AugmentConfig(p_yaw=1.5)
    with pytest.raises(InvalidInput, match="p_yew"):
        AugmentConfig.from_dict({"p_yew": 1.0})
    # the units are fixed; a config naming them fails like any unknown key
    with pytest.raises(InvalidInput, match="AugmentConfig.angle_unit"):
        AugmentConfig.from_dict({"angle_unit": "radians"})
    path = tmp_path / "aug.json"
    path.write_text(json.dumps({
        "pitch_range": [-0.1, 0.3], "roll_range": [-3, 3], "yaw_range": [-3, 3],
        "p_pitch": 0.1, "p_roll": 0.05, "p_yaw": 0.2, "seed": 42}))
    cfg = AugmentConfig.from_dict(json.loads(path.read_text()))
    assert cfg == AugmentConfig(seed=42)


def test_rotation_can_push_points_above_camera(pose):
    # augmented scenes may hold z >= h_cam; only projecting them errors
    lane = straight_lane("far", 0.0, [5.0, 50.0, 100.0])
    scene = Scene(frame_id="f", camera=pose, lanes=[lane])
    cfg = AugmentConfig(pitch_range=(0.3, 0.3), p_pitch=1.0, p_roll=0.0, p_yaw=0.0)
    out = augment_scene(scene, cfg)
    assert np.max(out.lanes[0].points[:, 2]) > pose.height_m

    from lane3d.errors import HeightExceedsCamera
    from lane3d.projection import project_virtual_top_xy
    with pytest.raises(HeightExceedsCamera):
        project_virtual_top_xy(out.lanes[0].xy, out.lanes[0].z, pose.height_m)


def test_visibility_recomputed_after_rotation(pose):
    # a yaw large enough to sweep far points out of the horizontal FOV
    lane = straight_lane("straight", 0.0, np.arange(5.0, 101.0, 5.0))
    scene = Scene(frame_id="f", camera=pose, lanes=[lane])
    cfg = AugmentConfig(yaw_range=(60.0, 60.0), p_yaw=1.0, p_pitch=0.0, p_roll=0.0)
    out = augment_scene(scene, cfg)
    assert int(np.sum(out.lanes[0].visibility)) < int(np.sum(lane.visibility))
