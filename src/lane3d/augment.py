"""Rotation augmentation of 3D lane scenes about the pitch, roll and yaw axes.

Each axis fires independently with its own probability and draws a uniform
angle from its range. Randomness comes from a counter-based stream keyed by
(seed, frame_id, draw_index), so augmentation is reproducible and can be
applied to scenes in parallel without shared state.

Angle units are fixed and follow the reference training setup, whose ranges
strongly suggest radians for pitch ([-0.1, 0.3]) and degrees for roll and
yaw ([-3, 3]): pitch_range is in radians, roll_range and yaw_range in
degrees. Drawn angles are converted to radians before rotating.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .model import Config, Lane3D, Scene, check_range
from .projection import compute_visibility

_AXES = ("pitch", "roll", "yaw")
_DEGREE_AXES = ("roll", "yaw")   # their ranges are in degrees, pitch's in radians


@dataclass(frozen=True)
class AugmentConfig(Config):
    pitch_range: tuple[float, float] = (-0.1, 0.3)
    roll_range: tuple[float, float] = (-3.0, 3.0)
    yaw_range: tuple[float, float] = (-3.0, 3.0)
    p_pitch: float = 0.1
    p_roll: float = 0.05
    p_yaw: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for axis in _AXES:
            check_range(f"{axis}_range", getattr(self, f"{axis}_range"))
            p = getattr(self, f"p_{axis}")
            if not 0.0 <= p <= 1.0:
                raise InvalidInput(f"p_{axis} must be within [0, 1]")


def rot_x(angle: float) -> np.ndarray:
    """Rotation about the x (pitch) axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, c, -s],
                     [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    """Rotation about the y (roll) axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s],
                     [0.0, 1.0, 0.0],
                     [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    """Rotation about the z (yaw) axis; preserves every point's height."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0],
                     [s, c, 0.0],
                     [0.0, 0.0, 1.0]])


def _stream(seed: int, frame_id: str, draw_index: int) -> np.random.Generator:
    key = f"{seed}:{frame_id}:{draw_index}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def draw_angles(cfg: AugmentConfig, frame_id: str, draw_index: int) -> dict[str, float]:
    """Deterministic per-axis rotation angles in radians; 0 where the axis
    does not fire. Both the gate and the angle are always drawn, so the
    stream stays aligned across configs with different probabilities."""
    rng = _stream(cfg.seed, frame_id, draw_index)
    angles = {}
    for axis in _AXES:
        gate = rng.uniform()
        lo, hi = getattr(cfg, f"{axis}_range")
        value = rng.uniform(lo, hi)
        if gate < getattr(cfg, f"p_{axis}"):
            if axis in _DEGREE_AXES:
                value = math.radians(value)
            angles[axis] = value
        else:
            angles[axis] = 0.0
    return angles


def composed_rotation(pitch: float, roll: float, yaw: float) -> np.ndarray:
    """Fixed composition order: yaw about z, then roll about y, then pitch
    about x applied first (R = R_z R_y R_x)."""
    return rot_z(yaw) @ rot_y(roll) @ rot_x(pitch)


def rotate_scene(scene: Scene, rotation: np.ndarray,
                 metadata: dict[str, str] | None = None) -> Scene:
    """Rotate all lane points, recompute front-view visibility, keep the
    camera pose. Points may end up above the camera height; they stay valid
    scene data and only fail later if projected to the virtual top view."""
    lanes = []
    for lane in scene.lanes:
        pts = lane.points @ rotation.T
        lanes.append(Lane3D(id=lane.id, points=pts,
                            visibility=compute_visibility(pts, scene.camera)))
    merged = dict(scene.metadata)
    if metadata:
        merged.update(metadata)
    return Scene(frame_id=scene.frame_id, camera=scene.camera, lanes=lanes,
                 metadata=merged)


def augment_scene(scene: Scene, cfg: AugmentConfig, draw_index: int = 0) -> Scene:
    """Apply the drawn rotations for (cfg.seed, frame_id, draw_index).

    Returns the scene unchanged when no axis fires; otherwise records the
    applied angles (radians) in the scene metadata.
    """
    angles = draw_angles(cfg, scene.frame_id, draw_index)
    if all(a == 0.0 for a in angles.values()):
        return scene
    rotation = composed_rotation(angles["pitch"], angles["roll"], angles["yaw"])
    meta = {f"augment_{axis}_rad": repr(angles[axis]) for axis in _AXES}
    return rotate_scene(scene, rotation, metadata=meta)
