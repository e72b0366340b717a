"""Synthetic road scenes, anchor encoding/decoding and top-view GT masks.

Roads are parametric: a polynomial centerline x(y), a height profile z(y)
(polynomial or a raised-cosine hill), and boundaries laid out as true
parallel offsets of the centerline along the curve normal. Matched boundary
points share the same parameter y and the same height, so the pairwise 3D
width equals the configured lane width exactly by construction: the
constant-width prior holds on these scenes to rounding error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HeightExceedsCamera, InvalidInput, OutOfRange, SpecError
from .model import (Anchor, AnchorSet, CameraPose, Intrinsics, Lane3D, Point2D,
                    Scene, TopViewMask, camera_from_dict)
from .projection import (compute_visibility, lift_from_virtual_top_xy,
                         project_virtual_top_xy, resample_flat)

# Anchor y-reference grid of the reference dataset protocol.
DEFAULT_Y_REFS = (5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0)
DEFAULT_Y_ASSOC = 5.0


@dataclass(frozen=True)
class HillProfile:
    """Raised-cosine bump: smooth everywhere, zero outside [start_y, start_y+length]."""

    start_y: float
    length: float
    peak_z: float

    def __post_init__(self):
        if self.length <= 0:
            raise SpecError("hill length must be positive")

    def z_at(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        t = (y - self.start_y) / self.length
        z = 0.5 * self.peak_z * (1.0 - np.cos(2.0 * math.pi * t))
        return np.where((t >= 0.0) & (t <= 1.0), z, 0.0)


def _default_camera() -> CameraPose:
    return CameraPose(height_m=1.78, pitch_rad=0.0,
                      intrinsics=Intrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0,
                                            width_px=1920, height_px=1080))


@dataclass(frozen=True)
class RoadSpec:
    """Parametric road: centerline x(y), height profile, boundary layout."""

    centerline_x_coeffs: tuple = (0.0,)          # x(y) = c0 + c1 y + c2 y^2 + ...
    height_profile: object = (0.0,)              # poly z(y) coeffs or HillProfile
    lane_width: float = 3.5
    num_boundaries: int = 2
    y_start: float = 3.0
    y_end: float = 100.0
    y_step: float = 4.0
    camera: CameraPose = field(default_factory=_default_camera)

    def __post_init__(self):
        if self.lane_width <= 0:
            raise SpecError("lane_width must be positive")
        if self.num_boundaries < 2:
            raise SpecError("num_boundaries must be at least 2")
        if not self.y_start < self.y_end:
            raise SpecError("y_start must be below y_end")
        if self.y_step <= 0:
            raise SpecError("y_step must be positive")
        if np.max(self.z_at(self.y_grid())) >= self.camera.height_m:
            raise SpecError("height profile must stay below the camera height")

    def y_grid(self) -> np.ndarray:
        return np.arange(self.y_start, self.y_end + 1e-9, self.y_step)

    def x_at(self, y) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(y, dtype=float),
                                                self.centerline_x_coeffs)

    def dx_at(self, y) -> np.ndarray:
        deriv = np.polynomial.polynomial.polyder(self.centerline_x_coeffs)
        return np.polynomial.polynomial.polyval(np.asarray(y, dtype=float), deriv)

    def z_at(self, y) -> np.ndarray:
        if isinstance(self.height_profile, HillProfile):
            return self.height_profile.z_at(y)
        return np.polynomial.polynomial.polyval(np.asarray(y, dtype=float),
                                                self.height_profile)


def boundary_offsets(spec: RoadSpec) -> np.ndarray:
    """Signed normal offsets of the boundaries: adjacent boundaries sit one
    lane width apart, centered on the centerline (+-c/2, +-3c/2, ...)."""
    k = np.arange(spec.num_boundaries, dtype=float)
    return (k - (spec.num_boundaries - 1) / 2.0) * spec.lane_width


def generate_scene(spec: RoadSpec, seed: int = 0, frame_id: str | None = None) -> Scene:
    """Sample the road at its y grid and lay out boundaries along the exact
    curve normals; boundary points at the same parameter share one height."""
    ys = spec.y_grid()
    x = spec.x_at(ys)
    dx = spec.dx_at(ys)
    z = spec.z_at(ys)
    norm = np.sqrt(1.0 + dx * dx)
    nx, ny = 1.0 / norm, -dx / norm   # unit normal of the centerline at each y

    lanes = []
    for k, off in enumerate(boundary_offsets(spec)):
        pts = np.column_stack([x + off * nx, ys + off * ny, z])
        lanes.append(Lane3D(id=f"lane_{k}", points=pts,
                            visibility=compute_visibility(pts, spec.camera)))
    return Scene(frame_id=frame_id or f"synth_{seed:06d}", camera=spec.camera,
                 lanes=lanes, metadata={"generator": "parametric_road", "seed": str(seed)})


@dataclass(frozen=True)
class AnchorConfig:
    y_refs: tuple = DEFAULT_Y_REFS
    y_assoc: float = DEFAULT_Y_ASSOC   # reference at which a lane must exist

    def __post_init__(self):
        refs = np.asarray(self.y_refs, dtype=float)
        if not np.all(np.diff(refs) > 0):
            raise SpecError("y_refs must be strictly increasing")
        if not np.any(np.isclose(refs, self.y_assoc)):
            raise SpecError("y_assoc must be one of the y_refs")


DEFAULT_ANCHORS = AnchorConfig()


def encode_anchors(scene: Scene, cfg: AnchorConfig = DEFAULT_ANCHORS) -> AnchorSet:
    """Project each lane to the flat ground and resample it at the anchor
    y-references (linear interpolation in flat-ground y); visibility is
    interpolated then thresholded at 0.5, probability is 1 for ground truth."""
    h = scene.camera.height_m
    refs = np.asarray(cfg.y_refs, dtype=float)
    anchors = []
    for lane in scene.lanes:
        x_ref, z_ref, vis = resample_flat(lane, h, refs)
        fy0, fy1 = project_virtual_top_xy(lane.xy[[0, -1]], lane.z[[0, -1]], h)[:, 1]
        if not fy0 <= cfg.y_assoc <= fy1:
            raise OutOfRange(
                f"lane '{lane.id}' spans flat y [{fy0:.2f}, {fy1:.2f}] "
                f"and misses the association reference {cfg.y_assoc}")
        anchors.append(Anchor(id=lane.id, x_offsets=x_ref, z=z_ref,
                              vis=vis.astype(float), prob=1.0))
    return AnchorSet(y_refs=refs, anchors=anchors)


def decode_anchors(aset: AnchorSet, h_cam: float, prob_threshold: float = 0.5) -> list[Lane3D]:
    """Turn anchors back into 3D lanes: keep anchors with prob >= threshold,
    lift the visible references from the flat ground at their heights."""
    lanes = []
    for a in aset.anchors:
        if a.prob < prob_threshold:
            continue
        sel = a.vis >= 0.5
        if not np.any(sel):
            continue
        if np.any(a.z[sel] >= h_cam):
            raise HeightExceedsCamera(
                f"anchor '{a.id}' has z >= camera height {h_cam}")
        flat = np.column_stack([a.x_offsets[sel], aset.y_refs[sel]])
        pts = lift_from_virtual_top_xy(flat, a.z[sel], h_cam)
        lanes.append(Lane3D(id=a.id, points=pts,
                            visibility=np.ones(int(np.sum(sel)), dtype=int)))
    return lanes


@dataclass(frozen=True)
class MaskGeometry:
    width_cells: int
    height_cells: int
    meters_per_cell: float
    origin: Point2D              # ground position of cell (0, 0)
    thickness_cells: int = 1

    def __post_init__(self):
        if self.width_cells <= 0 or self.height_cells <= 0:
            raise SpecError("mask grid must be nonempty")
        if self.meters_per_cell <= 0:
            raise SpecError("meters_per_cell must be positive")
        if self.thickness_cells < 1:
            raise SpecError("thickness_cells must be a positive integer")


def _bresenham(ix0: int, iy0: int, ix1: int, iy1: int):
    """Integer line rasterization between two cells, inclusive."""
    dx = abs(ix1 - ix0)
    dy = -abs(iy1 - iy0)
    sx = 1 if ix0 < ix1 else -1
    sy = 1 if iy0 < iy1 else -1
    err = dx + dy
    x, y = ix0, iy0
    while True:
        yield x, y
        if x == ix1 and y == iy1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def rasterize_top_mask(scene: Scene, geometry: MaskGeometry) -> TopViewMask:
    """Draw every lane's virtual top-view polyline into an occupancy grid
    with constant thickness; cells outside the grid are clipped."""
    h = scene.camera.height_m
    grid = np.zeros((geometry.height_cells, geometry.width_cells), dtype=np.uint8)
    t = geometry.thickness_cells
    half = t // 2
    stamps = [(dx, dy) for dx in range(-half, t - half) for dy in range(-half, t - half)]

    def stamp(ix: int, iy: int) -> None:
        for dx, dy in stamps:
            cx, cy = ix + dx, iy + dy
            if 0 <= cx < geometry.width_cells and 0 <= cy < geometry.height_cells:
                grid[cy, cx] = 1

    for lane in scene.lanes:
        flat = project_virtual_top_xy(lane.xy, lane.z, h)
        cells = np.rint((flat - np.array([geometry.origin.x, geometry.origin.y]))
                        / geometry.meters_per_cell).astype(int)
        for (ax, ay), (bx, by) in zip(cells[:-1], cells[1:]):
            for ix, iy in _bresenham(ax, ay, bx, by):
                stamp(ix, iy)
        if len(cells) == 1:
            stamp(*cells[0])
    return TopViewMask(grid=grid, meters_per_cell=geometry.meters_per_cell,
                       origin=geometry.origin, thickness_cells=t)


def write_mask_pgm(mask: TopViewMask, path) -> None:
    """Write the mask as binary PGM (P5, occupied = 255) plus a JSON sidecar
    with the grid geometry at <path>.json."""
    height, width = mask.grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write((mask.grid * 255).astype(np.uint8).tobytes())
    sidecar = {
        "width_cells": int(width),
        "height_cells": int(height),
        "meters_per_cell": float(mask.meters_per_cell),
        "origin": [float(mask.origin.x), float(mask.origin.y)],
        "thickness_cells": int(mask.thickness_cells),
    }
    with open(f"{path}.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Batch scene generation for the CLI: a config of parameter ranges from which
# per-scene road specs are drawn.

DEFAULT_GENERATOR = {
    "camera": {
        "height_m": 1.78,
        "pitch_rad": 0.0,
        "intrinsics": {"fx": 1000.0, "fy": 1000.0, "cx": 960.0, "cy": 540.0,
                       "width_px": 1920, "height_px": 1080},
    },
    "lane_width": 3.5,
    "num_boundaries": 2,
    "y_start": 3.0,
    "y_end": 100.0,
    "y_step": 4.0,
    "x_offset_range": [-2.0, 2.0],
    "curvature_range": [-0.0008, 0.0008],
    "flat_fraction": 0.3,
    "hill": {
        "peak_z_range": [0.05, 0.6],
        "start_y_range": [20.0, 50.0],
        "length_range": [60.0, 160.0],
    },
    "min_flat_step": 1.5,
}


def _flat_step_ok(spec: RoadSpec, min_step: float) -> bool:
    """Downhill stretches at far range compress the flat-ground y spacing
    (d flat_y/dy = s + y s' can approach zero long before the projection
    actually folds); below about half the lane width the windowed point
    matcher loses its footing. Reject such draws."""
    ys = spec.y_grid()
    z = spec.z_at(ys)
    if np.max(z) >= spec.camera.height_m:
        return False
    flat_y = ys * spec.camera.height_m / (spec.camera.height_m - z)
    return bool(np.min(np.diff(flat_y)) >= min_step)


def sample_road_spec(config: dict, rng: np.random.Generator) -> RoadSpec:
    """Draw one road spec from a generator config of parameter ranges;
    redraws hill profiles whose flat projection would be too compressed."""
    cfg = {**DEFAULT_GENERATOR, **config}
    x0 = rng.uniform(*cfg["x_offset_range"])
    curv = rng.uniform(*cfg["curvature_range"])
    base = dict(
        centerline_x_coeffs=(x0, 0.0, curv),
        lane_width=float(cfg["lane_width"]),
        num_boundaries=int(cfg["num_boundaries"]),
        y_start=float(cfg["y_start"]),
        y_end=float(cfg["y_end"]),
        y_step=float(cfg["y_step"]),
        camera=camera_from_dict(cfg["camera"]),
    )
    if rng.uniform() < cfg["flat_fraction"]:
        return RoadSpec(height_profile=(0.0,), **base)
    hill = {**DEFAULT_GENERATOR["hill"], **cfg.get("hill", {})}
    for _ in range(100):
        profile = HillProfile(start_y=rng.uniform(*hill["start_y_range"]),
                              length=rng.uniform(*hill["length_range"]),
                              peak_z=rng.uniform(*hill["peak_z_range"]))
        spec = RoadSpec(height_profile=profile, **base)
        if _flat_step_ok(spec, float(cfg["min_flat_step"])):
            return spec
    return RoadSpec(height_profile=(0.0,), **base)


def _unknown_keys(config, defaults: dict, where: str) -> list[str]:
    """Dotted paths of the keys in config that defaults does not have, at the
    top level and inside every nested object of defaults that config gives."""
    if not isinstance(config, dict):
        raise InvalidInput(f"generator config: {where or 'the config'} must be a JSON object")
    prefix = f"{where}." if where else ""
    unknown = [prefix + key for key in sorted(set(config) - set(defaults))]
    for key, default in defaults.items():
        if isinstance(default, dict) and key in config:
            unknown += _unknown_keys(config[key], default, prefix + key)
    return unknown


def _check_generator_keys(config: dict) -> None:
    """Reject keys the generator does not read, at the top level and under
    'hill', 'camera' and 'camera.intrinsics', so a misspelled key fails
    instead of silently keeping its default."""
    unknown = _unknown_keys(config, DEFAULT_GENERATOR, "")
    if unknown:
        raise InvalidInput(f"generator config: unknown keys: {', '.join(unknown)}")


def generate_scenes(config: dict, count: int, seed: int) -> list[Scene]:
    """Deterministically generate `count` scenes from a generator config."""
    _check_generator_keys(config)
    scenes = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        spec = sample_road_spec(config, rng)
        scenes.append(generate_scene(spec, seed=i, frame_id=f"synth_{seed}_{i:05d}"))
    return scenes
