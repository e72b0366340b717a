import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane3d.errors import DegeneratePose, HeightExceedsCamera
from lane3d.model import CameraPose, Intrinsics, Point2D, Point3D
from lane3d.projection import (apply_homography, compute_visibility,
                               ipm_homography, lift_from_virtual_top,
                               lift_from_virtual_top_xy, project_front_view,
                               project_front_view_points, project_real_top,
                               project_virtual_top, project_virtual_top_xy)

from conftest import H_CAM, straight_lane


def test_real_top_discards_z():
    assert project_real_top(Point3D(2, 10, 0)) == Point2D(2, 10)
    assert project_real_top(Point3D(2, 10, 5)) == Point2D(2, 10)
    assert project_real_top(Point3D(-3.5, 80, -1)) == Point2D(-3.5, 80)


def test_virtual_top_examples():
    assert project_virtual_top(Point3D(2, 10, 0), H_CAM) == Point2D(2, 10)
    p = project_virtual_top(Point3D(2, 10, 0.89), H_CAM)
    assert p.x == pytest.approx(4.0, abs=1e-12)
    assert p.y == pytest.approx(20.0, abs=1e-12)


def test_virtual_top_rejects_z_at_camera_height():
    with pytest.raises(HeightExceedsCamera):
        project_virtual_top(Point3D(1, 5, H_CAM), H_CAM)
    with pytest.raises(HeightExceedsCamera):
        project_virtual_top(Point3D(1, 5, H_CAM + 0.5), H_CAM)


def test_virtual_equals_real_at_ground_level():
    for x, y in [(0.0, 1.0), (-3.0, 40.0), (7.5, 99.0)]:
        assert project_virtual_top(Point3D(x, y, 0.0), H_CAM) == \
            project_real_top(Point3D(x, y, 0.0))


def test_virtual_top_magnifies_above_ground():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = Point3D(rng.uniform(-10, 10), rng.uniform(1, 100), rng.uniform(0.01, H_CAM - 0.01))
        q = project_virtual_top(p, H_CAM)
        assert abs(q.x) >= abs(p.x)
        assert abs(q.y) >= abs(p.y)


def test_lift_examples():
    assert lift_from_virtual_top(Point2D(2, 10), 0.0, H_CAM) == Point3D(2, 10, 0)
    p = lift_from_virtual_top(Point2D(4, 20), 0.89, H_CAM)
    assert p.x == pytest.approx(2.0, abs=1e-12)
    assert p.y == pytest.approx(10.0, abs=1e-12)
    assert p.z == 0.89
    with pytest.raises(HeightExceedsCamera):
        lift_from_virtual_top(Point2D(1, 1), H_CAM, H_CAM)


@given(x=st.floats(-50, 50), y=st.floats(0.1, 200), z=st.floats(-1.0, 1.7))
@settings(max_examples=200, deadline=None)
def test_lift_project_round_trip(x, y, z):
    p = Point3D(x, y, z)
    flat = project_virtual_top(p, H_CAM)
    back = lift_from_virtual_top(flat, z, H_CAM)
    assert abs(back.x - p.x) < 1e-12 * max(1.0, abs(p.x))
    assert abs(back.y - p.y) < 1e-12 * max(1.0, abs(p.y))


def test_array_forms_match_scalar():
    pts = np.array([[1.0, 10.0, 0.3], [-2.0, 50.0, -0.4]])
    flat = project_virtual_top_xy(pts[:, :2], pts[:, 2], H_CAM)
    for row, p in zip(flat, pts):
        q = project_virtual_top(Point3D(*p), H_CAM)
        assert row[0] == pytest.approx(q.x) and row[1] == pytest.approx(q.y)
    lifted = lift_from_virtual_top_xy(flat, pts[:, 2], H_CAM)
    assert np.allclose(lifted, pts, atol=1e-12)


def test_front_view_principal_point(pose):
    # A point straight along the optical axis projects to (cx, cy).
    uv = project_front_view(Point3D(0, 30, H_CAM), pose)
    assert uv == pytest.approx((960.0, 540.0), abs=1e-9)


def test_front_view_behind_camera(pose):
    assert project_front_view(Point3D(0, 0, 0), pose) is None
    assert project_front_view(Point3D(0, -5, 0), pose) is None


def test_front_view_hand_example(pose):
    u, v = project_front_view(Point3D(0, 20, 0), pose)
    assert u == pytest.approx(960.0, abs=1e-9)
    assert v == pytest.approx(540.0 + 1000.0 * H_CAM / 20.0, abs=1e-9)   # 629


def test_front_view_pitch_moves_v_down(pose):
    tilted = CameraPose(height_m=pose.height_m, pitch_rad=0.05,
                        intrinsics=pose.intrinsics)
    _, v_flat = project_front_view(Point3D(0, 30, 0), pose)
    _, v_tilt = project_front_view(Point3D(0, 30, 0), tilted)
    # positive pitch tilts the axis down, so ground points move up in v
    assert v_tilt < v_flat


def test_homography_matches_pinhole(pose):
    rng = np.random.default_rng(11)
    hmat = ipm_homography(pose)
    xy = np.column_stack([rng.uniform(-20, 20, 100), rng.uniform(1.0, 120, 100)])
    uv_h = apply_homography(hmat, xy)
    pts3 = np.column_stack([xy[:, 0], xy[:, 1], np.zeros(100)])
    uv_p, depth = project_front_view_points(pts3, pose)
    assert np.all(depth > 0)
    assert np.max(np.abs(uv_h - uv_p)) < 1e-9


def test_homography_pitch_sweep_invertible():
    for pitch in np.linspace(-0.5, 0.5, 41):
        pose = CameraPose(height_m=H_CAM, pitch_rad=float(pitch),
                          intrinsics=Intrinsics(1000, 1000, 960, 540, 1920, 1080))
        hmat = ipm_homography(pose)
        assert abs(np.linalg.det(hmat)) > 1e-6


def test_homography_inverse_round_trip(pose):
    rng = np.random.default_rng(12)
    hmat = ipm_homography(pose)
    inv = np.linalg.inv(hmat)
    xy = np.column_stack([rng.uniform(-20, 20, 100), rng.uniform(1.0, 120, 100)])
    back = apply_homography(inv, apply_homography(hmat, xy))
    assert np.max(np.abs(back - xy)) < 1e-7


def test_homography_degenerate_pose():
    pose = CameraPose(height_m=H_CAM, pitch_rad=math.pi / 2,
                      intrinsics=Intrinsics(1000, 1000, 960, 540, 1920, 1080))
    with pytest.raises(DegeneratePose):
        ipm_homography(pose)


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
