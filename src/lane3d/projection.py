"""View transformations between the ego frame, the flat ground plane and the
front-view image.

Real top view drops z. Virtual top view casts a ray from the camera center
at (0, 0, h_cam) through the point onto the ground plane, scaling (x, y) by
h_cam / (h_cam - z); it is undefined for z >= h_cam (the ray lands behind
the camera), which is a hard error rather than a clamp.

Pitch convention: pitch rotates about the x-axis and positive pitch tilts
the optical axis downward toward the road. Flipping the sign would mirror
v about cy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegeneratePose, HeightExceedsCamera, InvariantViolation
from .model import CameraPose, Lane3D, Point2D, Point3D

_DEGENERATE_COS = 1e-12


def project_real_top(p: Point3D) -> Point2D:
    """Orthographic projection onto the ground plane: z is discarded."""
    return Point2D(p.x, p.y)


def _check_below_camera(z, h_cam: float) -> None:
    if np.any(np.asarray(z) >= h_cam):
        raise HeightExceedsCamera(
            f"point height z >= camera height {h_cam}: no virtual top view")


def virtual_top_scale(z, h_cam: float):
    """Magnification h / (h - z) of the virtual top view; scalar or array."""
    _check_below_camera(z, h_cam)
    return h_cam / (h_cam - np.asarray(z, dtype=float))


def project_virtual_top(p: Point3D, h_cam: float) -> Point2D:
    """Central projection from the camera center onto the flat ground."""
    s = float(virtual_top_scale(p.z, h_cam))
    return Point2D(p.x * s, p.y * s)


def project_virtual_top_xy(xy: np.ndarray, z: np.ndarray, h_cam: float) -> np.ndarray:
    """Array form of project_virtual_top: (N, 2) flat-ground coordinates."""
    s = virtual_top_scale(z, h_cam)
    return np.asarray(xy, dtype=float) * s[:, None]


def resample_flat(lane: Lane3D, h_cam: float, y_refs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resample a lane at flat-ground y references: returns (x_flat, z, vis),
    linear in flat y, with the visibility interpolated and thresholded at 0.5
    and False outside the lane's flat span. Raises InvariantViolation when
    the virtual projection folds the lane (flat y not strictly increasing)."""
    refs = np.asarray(y_refs, dtype=float)
    flat = project_virtual_top_xy(lane.xy, lane.z, h_cam)
    fy = flat[:, 1]
    if not np.all(np.diff(fy) > 0):
        raise InvariantViolation(
            f"lane '{lane.id}': flat-ground y not strictly increasing; "
            "the virtual projection folds this lane")
    x = np.interp(refs, fy, flat[:, 0])
    z = np.interp(refs, fy, lane.z)
    v = np.interp(refs, fy, lane.visibility.astype(float))
    vis = (v >= 0.5) & (refs >= fy[0]) & (refs <= fy[-1])
    return x, z, vis


def lift_from_virtual_top(p2: Point2D, z: float, h_cam: float) -> Point3D:
    """Inverse of the virtual top view at a known height z."""
    _check_below_camera(z, h_cam)
    s = (h_cam - z) / h_cam
    return Point3D(p2.x * s, p2.y * s, z)


def lift_from_virtual_top_xy(flat_xy: np.ndarray, z: np.ndarray, h_cam: float) -> np.ndarray:
    """Array form of lift_from_virtual_top: (N, 3) ego-frame points."""
    z = np.asarray(z, dtype=float)
    _check_below_camera(z, h_cam)
    s = (h_cam - z) / h_cam
    xy = np.asarray(flat_xy, dtype=float) * s[:, None]
    return np.column_stack([xy, z])


def _camera_frame(points: np.ndarray, pose: CameraPose) -> np.ndarray:
    """Ego points -> camera frame (x right, y down, z along optical axis)."""
    d = np.asarray(points, dtype=float) - np.array([0.0, 0.0, pose.height_m])
    c, s = math.cos(pose.pitch_rad), math.sin(pose.pitch_rad)
    xc = d[:, 0]
    yc = -s * d[:, 1] - c * d[:, 2]
    zc = c * d[:, 1] - s * d[:, 2]
    return np.column_stack([xc, yc, zc])


def project_front_view_points(points: np.ndarray, pose: CameraPose):
    """Pinhole projection of (N, 3) ego points.

    Returns (uv, depth): pixel coordinates and camera-frame depth. Pixels
    are meaningless where depth <= 0 (behind the camera).
    """
    cam = _camera_frame(points, pose)
    k = pose.intrinsics
    depth = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.cx + k.fx * cam[:, 0] / depth
        v = k.cy + k.fy * cam[:, 1] / depth
    return np.column_stack([u, v]), depth


def project_front_view(p: Point3D, pose: CameraPose):
    """Pinhole projection of one point; None when the point is at or behind
    the camera plane (a routine value for visibility checks, not an error)."""
    uv, depth = project_front_view_points(p.as_array()[None, :], pose)
    if depth[0] <= 0:
        return None
    return float(uv[0, 0]), float(uv[0, 1])


def ipm_homography(pose: CameraPose) -> np.ndarray:
    """Homography H mapping ground-plane points (x, y, 1) to image pixels
    (u, v, 1) up to scale; consistent with project_front_view on z = 0."""
    c, s = math.cos(pose.pitch_rad), math.sin(pose.pitch_rad)
    if abs(c) < _DEGENERATE_COS:
        raise DegeneratePose(f"pitch {pose.pitch_rad} makes the ground-plane mapping degenerate")
    h = pose.height_m
    k = pose.intrinsics
    kmat = np.array([[k.fx, 0.0, k.cx],
                     [0.0, k.fy, k.cy],
                     [0.0, 0.0, 1.0]])
    # Camera-frame coordinates of (x, y, 0, 1) as a linear map of (x, y, 1).
    m = np.array([[1.0, 0.0, 0.0],
                  [0.0, -s, c * h],
                  [0.0, c, s * h]])
    return kmat @ m


def apply_homography(hmat: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Apply a 3x3 homography to (N, 2) points, normalizing the result."""
    xy = np.asarray(xy, dtype=float)
    homog = np.column_stack([xy, np.ones(len(xy))])
    mapped = homog @ np.asarray(hmat).T
    return mapped[:, :2] / mapped[:, 2:3]


def compute_visibility(points: np.ndarray, pose: CameraPose) -> np.ndarray:
    """1 where an (N, 3) ego point projects inside [0, width) x [0, height)
    with positive depth, else 0."""
    uv, depth = project_front_view_points(points, pose)
    k = pose.intrinsics
    ok = (depth > 0) & (uv[:, 0] >= 0) & (uv[:, 0] < k.width_px) \
        & (uv[:, 1] >= 0) & (uv[:, 1] < k.height_px)
    return ok.astype(int)
