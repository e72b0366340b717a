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
from .model import CameraPose, Config, Intrinsics, Lane3D, Scene, check_range
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
# Batch scene generation for the CLI: a config of parameter ranges from which
# per-scene road specs are drawn.

@dataclass(frozen=True)
class HillRanges(Config):
    """Ranges of the raised-cosine hill draws."""

    peak_z_range: tuple[float, float] = (0.05, 0.6)
    start_y_range: tuple[float, float] = (20.0, 50.0)
    length_range: tuple[float, float] = (60.0, 160.0)

    def __post_init__(self):
        for name in ("peak_z_range", "start_y_range", "length_range"):
            check_range(name, getattr(self, name))


@dataclass(frozen=True)
class GeneratorConfig(_Road, Config):
    """The road every scene shares, its _Road fields with their checks, and
    the ranges its varying parameters are drawn from: the centerline offset
    and curvature, whether the road is flat (with probability flat_fraction)
    and otherwise its hill."""

    x_offset_range: tuple[float, float] = (-2.0, 2.0)
    curvature_range: tuple[float, float] = (-0.0008, 0.0008)
    flat_fraction: float = 0.3
    hill: HillRanges = HillRanges()
    min_flat_step: float = 1.5

    def __post_init__(self):
        check_range("x_offset_range", self.x_offset_range)
        check_range("curvature_range", self.curvature_range)
        if not 0.0 <= self.flat_fraction <= 1.0:
            raise InvalidInput("flat_fraction must be within [0, 1]")
        super().__post_init__()
        # a hill is drawn from [lo, hi) ranges unless every road is flat; a
        # peak reaching the camera height would fail RoadSpec's check and a
        # nonpositive length HillProfile's, mid-run
        if self.flat_fraction == 1.0:
            return
        lo, hi = self.hill.peak_z_range
        h = self.camera.height_m
        if hi > h or lo >= h:
            raise InvalidInput(
                "GeneratorConfig.hill.peak_z_range must stay below the camera height "
                f"{h}, got {[lo, hi]}")
        lo, hi = self.hill.length_range
        if lo <= 0:
            raise InvalidInput(
                f"GeneratorConfig.hill.length_range must be positive, got {[lo, hi]}")

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
    """Draw one road spec from the generator config's ranges; redraws hill
    profiles whose flat projection would be too compressed."""
    x0 = rng.uniform(*cfg.x_offset_range)
    curv = rng.uniform(*cfg.curvature_range)
    centerline = (x0, 0.0, curv)
    if rng.uniform() < cfg.flat_fraction:
        return cfg.road(centerline_x_coeffs=centerline)
    hill = cfg.hill
    for _ in range(100):
        profile = HillProfile(start_y=rng.uniform(*hill.start_y_range),
                              length=rng.uniform(*hill.length_range),
                              peak_z=rng.uniform(*hill.peak_z_range))
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
