"""Synthetic road scenes.

Roads are parametric: a polynomial centerline x(y), a height profile z(y)
(flat or a raised-cosine hill), and boundaries laid out as true
parallel offsets of the centerline along the curve normal. Matched boundary
points share the same parameter y and the same height, so the pairwise 3D
width equals the configured lane width exactly by construction: the
constant-width prior holds on these scenes to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidInput
from .model import CameraPose, Config, Intrinsics, Lane3D, Scene
from .projection import compute_visibility


@dataclass(frozen=True)
class HillProfile:
    """Raised-cosine bump: smooth everywhere, zero outside [start_y, start_y+length]."""

    start_y: float
    length: float
    peak_z: float

    def __post_init__(self):
        if self.length <= 0:
            raise InvalidInput("hill length must be positive")

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
class _Road:
    """The boundary layout a RoadSpec and a GeneratorConfig share: the camera,
    the lane width and count, and the y grid the road is sampled at."""

    camera: CameraPose = field(default_factory=_default_camera)
    lane_width: float = 3.5
    num_boundaries: int = 2
    y_start: float = 3.0
    y_end: float = 100.0
    y_step: float = 4.0

    def __post_init__(self):
        if self.lane_width <= 0:
            raise InvalidInput("lane_width must be positive")
        if self.num_boundaries < 2:
            raise InvalidInput("num_boundaries must be at least 2")
        if not self.y_start < self.y_end:
            raise InvalidInput("y_start must be below y_end")
        if self.y_step <= 0:
            raise InvalidInput("y_step must be positive")
        if len(self.y_grid()) < 2:
            raise InvalidInput("the y grid needs at least two points")

    def y_grid(self) -> np.ndarray:
        return np.arange(self.y_start, self.y_end + 1e-9, self.y_step)


@dataclass(frozen=True)
class RoadSpec(_Road):
    """Parametric road: centerline x(y), height profile, boundary layout."""

    centerline_x_coeffs: tuple = (0.0,)          # x(y) = c0 + c1 y + c2 y^2 + ...
    height_profile: HillProfile | None = None    # None: a flat road

    def __post_init__(self):
        super().__post_init__()
        if np.max(self.z_at(self.y_grid())) >= self.camera.height_m:
            raise InvalidInput("height profile must stay below the camera height")

    def x_at(self, y) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(y, dtype=float),
                                                self.centerline_x_coeffs)

    def dx_at(self, y) -> np.ndarray:
        deriv = np.polynomial.polynomial.polyder(self.centerline_x_coeffs)
        return np.polynomial.polynomial.polyval(np.asarray(y, dtype=float), deriv)

    def z_at(self, y) -> np.ndarray:
        if self.height_profile is None:
            return np.zeros(np.shape(y))
        return self.height_profile.z_at(y)


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


# ---------------------------------------------------------------------------
# Batch scene generation for the CLI: a config of the road every scene shares,
# and the fixed ranges each scene's shape is drawn from. No workload sets the
# shape ranges, so they are constants, not config keys (see README, Configs).

X_OFFSET_RANGE = (-2.0, 2.0)            # centerline offset c0, metres
CURVATURE_RANGE = (-0.0008, 0.0008)     # centerline c2, 1/metres
FLAT_FRACTION = 0.3                     # probability that a road is flat
HILL_PEAK_Z_RANGE = (0.05, 0.6)         # raised-cosine hill draws, metres
HILL_START_Y_RANGE = (20.0, 50.0)
HILL_LENGTH_RANGE = (60.0, 160.0)


@dataclass(frozen=True)
class GeneratorConfig(_Road, Config):
    """The road every scene shares: its _Road fields with their checks, and
    the least flat-ground y spacing a hill draw may leave. The ranges each
    scene's shape is drawn from are this module's constants, X_OFFSET_RANGE
    to HILL_LENGTH_RANGE, not config keys."""

    min_flat_step: float = 1.5

    def __post_init__(self):
        super().__post_init__()
        # peaks are drawn from [lo, hi); one reaching the camera height would
        # fail RoadSpec's check mid-run
        if self.camera.height_m < HILL_PEAK_Z_RANGE[1]:
            raise InvalidInput(
                "GeneratorConfig.camera.height_m must be at least the highest hill peak "
                f"{HILL_PEAK_Z_RANGE[1]}, got {self.camera.height_m}")

    def road(self, **drawn) -> RoadSpec:
        """The road spec of the _Road fields every scene shares plus the drawn ones."""
        return RoadSpec(**{f.name: getattr(self, f.name) for f in fields(_Road)}, **drawn)


def _flat_step_ok(spec: RoadSpec, min_step: float) -> bool:
    """Downhill stretches at far range compress the flat-ground y spacing
    (d flat_y/dy = s + y s' can approach zero long before the projection
    actually folds); below about half the lane width the windowed point
    matcher loses its footing. Reject such draws."""
    ys = spec.y_grid()
    flat_y = ys * spec.camera.height_m / (spec.camera.height_m - spec.z_at(ys))
    return bool(np.min(np.diff(flat_y)) >= min_step)


def sample_road_spec(cfg: GeneratorConfig, rng: np.random.Generator) -> RoadSpec:
    """Draw one road spec on the config's road from this module's range
    constants, in a fixed order: X_OFFSET_RANGE, CURVATURE_RANGE, flat with
    probability FLAT_FRACTION, else a hill from the HILL_* ranges; redraws
    hill profiles whose flat projection would be too compressed."""
    x0 = rng.uniform(*X_OFFSET_RANGE)
    curv = rng.uniform(*CURVATURE_RANGE)
    centerline = (x0, 0.0, curv)
    if rng.uniform() < FLAT_FRACTION:
        return cfg.road(centerline_x_coeffs=centerline)
    for _ in range(100):
        profile = HillProfile(start_y=rng.uniform(*HILL_START_Y_RANGE),
                              length=rng.uniform(*HILL_LENGTH_RANGE),
                              peak_z=rng.uniform(*HILL_PEAK_Z_RANGE))
        spec = cfg.road(centerline_x_coeffs=centerline, height_profile=profile)
        if _flat_step_ok(spec, cfg.min_flat_step):
            return spec
    return cfg.road(centerline_x_coeffs=centerline)


def generate_scenes(config, count: int, seed: int) -> list[Scene]:
    """Deterministically generate `count` scenes from a generator config: a
    GeneratorConfig or its JSON form."""
    cfg = config if isinstance(config, GeneratorConfig) else GeneratorConfig.from_dict(config)
    scenes = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        scenes.append(generate_scene(sample_road_spec(cfg, rng), seed=i,
                                     frame_id=f"synth_{seed}_{i:05d}"))
    return scenes
