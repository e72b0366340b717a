import numpy as np
import pytest

from lane3d.model import CameraPose, Intrinsics, Lane2D, Lane3D, Scene

H_CAM = 1.78
# solver pairing options under which clamping_flat_pair() is matched
CLAMPING_PAIRING = {"window": 2, "width_jump_threshold": 1e15}


@pytest.fixture
def pose():
    return CameraPose(height_m=H_CAM, pitch_rad=0.0,
                      intrinsics=Intrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0,
                                            width_px=1920, height_px=1080))


def clamping_flat_pair():
    """Flat boundaries "l" and "r" whose widths explode far beyond the
    near-range estimate, which implies z -> h_cam: the solver clamps the
    heights at h_cam - 1e-6 and flags the lanes."""
    ys = np.arange(1.0, 12.0, 1.0)
    widths = np.concatenate([np.full(3, 3.5), np.geomspace(1e10, 1e12, 8)])
    vis = np.ones(len(ys), dtype=int)
    return [Lane2D(id="l", points=np.column_stack([np.zeros(len(ys)), ys]), visibility=vis),
            Lane2D(id="r", points=np.column_stack([widths, ys]), visibility=vis)]


def straight_lane(lane_id, x, ys, z=0.0, vis=None):
    ys = np.asarray(ys, dtype=float)
    z_arr = np.full_like(ys, z) if np.isscalar(z) else np.asarray(z, dtype=float)
    pts = np.column_stack([np.full_like(ys, x), ys, z_arr])
    if vis is None:
        vis = np.ones(len(ys), dtype=int)
    return Lane3D(id=lane_id, points=pts, visibility=vis)


@pytest.fixture
def simple_scene(pose):
    ys = np.arange(5.0, 101.0, 5.0)
    return Scene(frame_id="frame_0", camera=pose,
                 lanes=[straight_lane("left", -1.75, ys),
                        straight_lane("right", 1.75, ys)],
                 metadata={"origin": "test"})
