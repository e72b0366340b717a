import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane3d.errors import HeightExceedsCamera
from lane3d.model import CameraPose
from lane3d.projection import (compute_visibility, lift_from_virtual_top_xy,
                               project_front_view_points, project_virtual_top_xy)

from conftest import H_CAM, straight_lane


def _virtual_top(x, y, z):
    return tuple(project_virtual_top_xy(np.array([[x, y]]), np.array([z]), H_CAM)[0])


def _front_view(x, y, z, pose):
    uv, depth = project_front_view_points(np.array([[x, y, z]], dtype=float), pose)
    return tuple(uv[0]), float(depth[0])


def test_virtual_top_examples():
    assert _virtual_top(2, 10, 0) == (2, 10)
    x, y = _virtual_top(2, 10, 0.89)
    assert x == pytest.approx(4.0, abs=1e-12)
    assert y == pytest.approx(20.0, abs=1e-12)


def test_virtual_top_rejects_z_at_camera_height():
    with pytest.raises(HeightExceedsCamera):
        _virtual_top(1, 5, H_CAM)
    with pytest.raises(HeightExceedsCamera):
        _virtual_top(1, 5, H_CAM + 0.5)


def test_virtual_equals_real_at_ground_level():
    # at z = 0 the virtual top view is the real one: z is dropped, xy kept
    for x, y in [(0.0, 1.0), (-3.0, 40.0), (7.5, 99.0)]:
        assert _virtual_top(x, y, 0.0) == (x, y)


def test_virtual_top_magnifies_above_ground():
    rng = np.random.default_rng(3)
    xy = np.column_stack([rng.uniform(-10, 10, 100), rng.uniform(1, 100, 100)])
    flat = project_virtual_top_xy(xy, rng.uniform(0.01, H_CAM - 0.01, 100), H_CAM)
    assert np.all(np.abs(flat) >= np.abs(xy))


def test_lift_examples():
    flat = np.array([[2.0, 10.0], [4.0, 20.0]])
    lifted = lift_from_virtual_top_xy(flat, np.array([0.0, 0.89]), H_CAM)
    assert lifted[0].tolist() == [2.0, 10.0, 0.0]
    assert lifted[1, :2] == pytest.approx([2.0, 10.0], abs=1e-12)
    assert lifted[1, 2] == 0.89
    with pytest.raises(HeightExceedsCamera):
        lift_from_virtual_top_xy(np.array([[1.0, 1.0]]), np.array([H_CAM]), H_CAM)


def test_array_forms_match_scalar():
    # each row of the array forms equals the per-point formula h / (h - z)
    pts = np.array([[1.0, 10.0, 0.3], [-2.0, 50.0, -0.4], [0.5, 80.0, 0.0]])
    flat = project_virtual_top_xy(pts[:, :2], pts[:, 2], H_CAM)
    for row, (x, y, z) in zip(flat, pts):
        scale = H_CAM / (H_CAM - z)
        assert row[0] == pytest.approx(x * scale) and row[1] == pytest.approx(y * scale)
    lifted = lift_from_virtual_top_xy(flat, pts[:, 2], H_CAM)
    assert np.allclose(lifted, pts, atol=1e-12)


@given(x=st.floats(-50, 50), y=st.floats(0.1, 200), z=st.floats(-1.0, 1.7))
@settings(max_examples=200, deadline=None)
def test_lift_project_round_trip(x, y, z):
    flat = project_virtual_top_xy(np.array([[x, y]]), np.array([z]), H_CAM)
    back = lift_from_virtual_top_xy(flat, np.array([z]), H_CAM)[0]
    assert abs(back[0] - x) < 1e-12 * max(1.0, abs(x))
    assert abs(back[1] - y) < 1e-12 * max(1.0, abs(y))
    assert back[2] == z


def test_front_view_principal_point(pose):
    # A point straight along the optical axis projects to (cx, cy).
    uv, depth = _front_view(0, 30, H_CAM, pose)
    assert uv == pytest.approx((960.0, 540.0), abs=1e-9)
    assert depth == pytest.approx(30.0)


def test_front_view_behind_camera(pose):
    # the camera plane and behind it: depth <= 0, so the pixels mean nothing
    assert _front_view(0, 0, 0, pose)[1] <= 0
    assert _front_view(0, -5, 0, pose)[1] <= 0


def test_front_view_hand_example(pose):
    (u, v), _ = _front_view(0, 20, 0, pose)
    assert u == pytest.approx(960.0, abs=1e-9)
    assert v == pytest.approx(540.0 + 1000.0 * H_CAM / 20.0, abs=1e-9)   # 629


def test_front_view_pitch_moves_v_down(pose):
    tilted = CameraPose(height_m=pose.height_m, pitch_rad=0.05,
                        intrinsics=pose.intrinsics)
    (_, v_flat), _ = _front_view(0, 30, 0, pose)
    (_, v_tilt), _ = _front_view(0, 30, 0, tilted)
    # positive pitch tilts the axis down, so ground points move up in v
    assert v_tilt < v_flat


def _ground_homography(pose):
    # K [r1 r2 t]: camera-frame coordinates of (x, y, 0) as a map of (x, y, 1)
    c, s = np.cos(pose.pitch_rad), np.sin(pose.pitch_rad)
    k = pose.intrinsics
    kmat = np.array([[k.fx, 0.0, k.cx], [0.0, k.fy, k.cy], [0.0, 0.0, 1.0]])
    return kmat @ np.array([[1.0, 0.0, 0.0],
                            [0.0, -s, c * pose.height_m],
                            [0.0, c, s * pose.height_m]])


def test_homography_matches_pinhole(pose):
    # on the ground plane the pinhole projection is the plane homography
    rng = np.random.default_rng(11)
    for p in (pose, CameraPose(height_m=pose.height_m, pitch_rad=0.05,
                               intrinsics=pose.intrinsics)):
        xy = np.column_stack([rng.uniform(-20, 20, 100), rng.uniform(1.0, 120, 100)])
        mapped = np.column_stack([xy, np.ones(100)]) @ _ground_homography(p).T
        uv_h = mapped[:, :2] / mapped[:, 2:]
        uv_p, depth = project_front_view_points(np.column_stack([xy, np.zeros(100)]), p)
        assert np.all(depth > 0)
        assert np.max(np.abs(uv_h - uv_p)) < 1e-9


def test_visibility_inside_behind_and_edge(pose):
    k = pose.intrinsics
    # ground point near the axis, well inside the image
    inside = straight_lane("in", 0.0, [30.0])
    assert compute_visibility(inside.points, pose).tolist() == [1]
    # behind the camera
    behind = straight_lane("behind", 0.0, [-10.0])
    assert compute_visibility(behind.points, pose).tolist() == [0]
    # construct points projecting one pixel outside / safely inside the right
    # edge via the inverse pinhole at depth 20
    y = 20.0
    depth = y   # zero pitch: depth is just y
    for u_target, expected in [(k.width_px + 1.0, 0), (k.width_px - 2.0, 1)]:
        x = (u_target - k.cx) * depth / k.fx
        lane = straight_lane("edge", x, [y])
        assert compute_visibility(lane.points, pose).tolist() == [expected]
