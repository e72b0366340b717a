"""View transformations between the ego frame, the flat ground plane and the
front-view image.

The virtual top view casts a ray from the camera center at (0, 0, h_cam)
through the point onto the ground plane, scaling (x, y) by
h_cam / (h_cam - z); it is undefined for z >= h_cam (the ray lands behind
the camera), which is a hard error rather than a clamp.

Pitch convention: pitch rotates about the x-axis and positive pitch tilts
the optical axis downward toward the road. Flipping the sign would mirror
v about cy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HeightExceedsCamera, InvariantViolation, located
from .model import CameraPose, Lane3D


def _check_below_camera(z, h_cam: float) -> None:
    if np.any(np.asarray(z) >= h_cam):
        raise HeightExceedsCamera(
            f"point height z >= camera height {h_cam}: no virtual top view")


def project_virtual_top_xy(xy: np.ndarray, z: np.ndarray, h_cam: float) -> np.ndarray:
    """Central projection of (N, 2) ego xy at heights z from the camera
    center onto the flat ground: (N, 2) flat-ground coordinates, magnified
    by h / (h - z)."""
    z = np.asarray(z, dtype=float)
    _check_below_camera(z, h_cam)
    return np.asarray(xy, dtype=float) * (h_cam / (h_cam - z))[:, None]


def virtual_top_view(lane: Lane3D, h_cam: float) -> np.ndarray:
    """The lane's (N, 2) flat-ground points. Raises, naming the lane,
    HeightExceedsCamera when a point reaches the camera height and
    InvariantViolation when the projection overflows or folds the lane (flat
    y not increasing)."""
    with located("lane", lane.id):
        with np.errstate(over="ignore"):
            flat = project_virtual_top_xy(lane.xy, lane.z, h_cam)
        if not np.isfinite(flat).all():
            raise InvariantViolation("flat-ground projection overflows")
        if not np.all(np.diff(flat[:, 1]) > 0):
            raise InvariantViolation("flat-ground y not strictly increasing; "
                                     "the virtual projection folds this lane")
    return flat


def resample_flat(lane: Lane3D, h_cam: float, y_refs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resample a lane at flat-ground y references: returns (x_flat, z, vis),
    linear in flat y, with the visibility interpolated and thresholded at 0.5
    and False outside the lane's flat span. Raises as virtual_top_view does."""
    refs = np.asarray(y_refs, dtype=float)
    flat = virtual_top_view(lane, h_cam)
    fy = flat[:, 1]
    x = np.interp(refs, fy, flat[:, 0])
    z = np.interp(refs, fy, lane.z)
    v = np.interp(refs, fy, lane.visibility.astype(float))
    vis = (v >= 0.5) & (refs >= fy[0]) & (refs <= fy[-1])
    return x, z, vis


def lift_from_virtual_top_xy(flat_xy: np.ndarray, z: np.ndarray, h_cam: float) -> np.ndarray:
    """Inverse of the virtual top view at known heights z: (N, 3) ego-frame
    points."""
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


def compute_visibility(points: np.ndarray, pose: CameraPose) -> np.ndarray:
    """1 where an (N, 3) ego point projects inside [0, width) x [0, height)
    with positive depth, else 0, as uint8 (the dtype lanes hold flags in)."""
    uv, depth = project_front_view_points(points, pose)
    k = pose.intrinsics
    ok = (depth > 0) & (uv[:, 0] >= 0) & (uv[:, 0] < k.width_px) \
        & (uv[:, 1] >= 0) & (uv[:, 1] < k.height_px)
    return ok.astype(np.uint8)
