from dataclasses import replace

import numpy as np
import pytest

from lane3d.errors import InvalidInput, InvariantViolation
from lane3d.model import Lane3D
from lane3d.projection import (lift_from_virtual_top_xy, project_virtual_top_xy,
                               resample_flat)
from lane3d.synth import (GeneratorConfig, HillProfile, HillRanges, RoadSpec, generate_scene,
                          generate_scenes)

from conftest import H_CAM, straight_lane

# flat-ground y references at which a lane is encoded (resampled)
Y_REFS = (5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0)


def test_straight_flat_road():
    spec = RoadSpec()
    scene = generate_scene(spec, seed=0)
    assert len(scene.lanes) == 2
    for lane, expect_x in zip(scene.lanes, (-1.75, 1.75)):
        assert np.allclose(lane.points[:, 0], expect_x, atol=1e-12)
        assert np.allclose(lane.points[:, 2], 0.0, atol=0)


def test_hill_preserves_constant_width():
    # bump over [31, 71] peaks at y = 51, which lies on the 3 + 4k sample grid
    spec = RoadSpec(height_profile=HillProfile(start_y=31.0, length=40.0, peak_z=0.89))
    scene = generate_scene(spec, seed=0)
    left, right = scene.lanes
    widths = np.linalg.norm(left.points - right.points, axis=1)
    assert np.max(np.abs(widths - 3.5)) < 1e-9
    assert np.max(left.points[:, 2]) == pytest.approx(0.89, abs=1e-9)


def test_curved_road_normal_offsets():
    spec = RoadSpec(centerline_x_coeffs=(0.0, 0.0, 1e-3))
    scene = generate_scene(spec, seed=0)
    left, right = scene.lanes
    sep = np.linalg.norm(left.points[:, :2] - right.points[:, :2], axis=1)
    assert np.max(np.abs(sep - 3.5)) < 1e-6


def test_more_boundaries_spacing():
    spec = RoadSpec(num_boundaries=4)
    scene = generate_scene(spec, seed=0)
    xs = sorted(lane.points[0, 0] for lane in scene.lanes)
    assert xs == pytest.approx([-5.25, -1.75, 1.75, 5.25], abs=1e-12)


def test_spec_errors_named():
    with pytest.raises(InvalidInput, match="lane_width"):
        RoadSpec(lane_width=0.0)
    with pytest.raises(InvalidInput, match="y_start"):
        RoadSpec(y_start=50.0, y_end=10.0)
    with pytest.raises(InvalidInput, match="y grid needs at least two points"):
        RoadSpec(y_start=3.0, y_end=4.0, y_step=4.0)
    with pytest.raises(InvalidInput, match="camera height"):
        RoadSpec(height_profile=HillProfile(start_y=20.0, length=40.0, peak_z=2.0))


def test_encode_straight_flat_lane():
    scene = generate_scene(RoadSpec(), seed=0)
    x, z, vis = resample_flat(scene.lanes[1], H_CAM, Y_REFS)
    assert np.any(vis)
    assert np.allclose(x[vis], 1.75, atol=1e-12)
    assert np.allclose(z[vis], 0.0, atol=1e-12)


def test_encode_uphill_doubles_flat_x():
    # lane constructed directly in flat coordinates: at the 30 m reference it
    # sits at height 0.89, so its 3D x is half the encoded flat x
    refs = np.array([5.0, 10.0, 15.0, 20.0, 30.0, 40.0])
    z = np.array([0.0, 0.0, 0.3, 0.6, 0.89, 0.89])
    flat_x = np.full(len(refs), 3.0)
    pts = lift_from_virtual_top_xy(np.column_stack([flat_x, refs]), z, H_CAM)
    lane = Lane3D(id="up", points=pts, visibility=np.ones(len(refs), dtype=int))
    x, z_at, vis = resample_flat(lane, H_CAM, refs)
    assert vis.all()
    assert x[4] == pytest.approx(3.0, abs=1e-9)
    assert z_at[4] == pytest.approx(0.89, abs=1e-9)
    # flat x is twice the 3D x at scale h/(h - 0.89) = 2
    assert x[4] == pytest.approx(2.0 * pts[4, 0], abs=1e-9)


def test_encode_rejects_folded_projection():
    # steep downhill at far range folds the virtual projection
    ys = np.arange(5.0, 101.0, 5.0)
    z = np.where(ys < 50, 0.0, np.minimum((ys - 50) * 0.06, 1.2))
    z = np.where(ys > 80, 1.2 - (ys - 80) * 0.05, z)
    lane = straight_lane("fold", 0.0, ys, z=z)
    with pytest.raises(InvariantViolation, match="lane 'fold'.*fold"):
        resample_flat(lane, H_CAM, Y_REFS)


def test_mask_identical_under_zero_yaw(simple_scene):
    # a zero-yaw rotation leaves both top views of every lane unchanged
    from lane3d.augment import AugmentConfig, augment_scene
    cfg = AugmentConfig(yaw_range=(0.0, 0.0), p_yaw=1.0, p_pitch=0.0, p_roll=0.0)
    out = augment_scene(simple_scene, cfg)
    assert [lane.id for lane in out.lanes] == [lane.id for lane in simple_scene.lanes]
    for before, after in zip(simple_scene.lanes, out.lanes):
        assert np.array_equal(after.xy, before.xy)
        assert np.array_equal(project_virtual_top_xy(after.xy, after.z, H_CAM),
                              project_virtual_top_xy(before.xy, before.z, H_CAM))


def test_flat_scene_virtual_equals_real_mask(simple_scene):
    # on flat scenes the virtual top view coincides with the real one (xy)
    for lane in simple_scene.lanes:
        flat = project_virtual_top_xy(lane.xy, lane.z, H_CAM)
        assert np.array_equal(flat, lane.points[:, :2])


def test_generated_scenes_satisfy_width_prior():
    # the geometry-prior loss vanishes on generated ground truth: widths are
    # constant by construction in both the 3D and weighted-2D measures
    from lane3d.losses import geo_prior_loss, width_series
    from lane3d.pairing import match_point_pairs
    spec = RoadSpec(centerline_x_coeffs=(1.0, 0.0, 5e-4),
                    height_profile=HillProfile(start_y=31.0, length=40.0, peak_z=0.8))
    scene = generate_scene(spec, seed=0)
    left, right = scene.lanes
    pm = match_point_pairs(left, right)
    series = width_series(left, right, pm, scene.camera.height_m)
    assert geo_prior_loss(series, 1.0) < 1e-6


def test_generate_scenes_deterministic():
    a = generate_scenes({}, 5, seed=3)
    b = generate_scenes({}, 5, seed=3)
    assert a == b
    c = generate_scenes({}, 5, seed=4)
    assert a != c
    ids = [s.frame_id for s in a]
    assert len(set(ids)) == 5


def test_generator_config_sections_keep_the_defaults_they_omit():
    cfg = GeneratorConfig.from_dict({"camera": {"pitch_rad": 0.02},
                                     "hill": {"peak_z_range": [0.1, 0.2]}})
    assert cfg.camera == replace(GeneratorConfig().camera, pitch_rad=0.02)
    assert cfg.hill == HillRanges(peak_z_range=(0.1, 0.2))
    assert generate_scenes({"camera": {"pitch_rad": 0.02}}, 1, seed=0)[0].camera == cfg.camera
    for bad, name in [({"x_offset_range": (2.0, 1.0)}, "x_offset_range"),
                      ({"curvature_range": (0.0, 0.1, 0.2)}, "curvature_range"),
                      ({"flat_fraction": -0.1}, "flat_fraction"),
                      # lengths are drawn from [lo, hi), unless every road is flat
                      ({"hill": HillRanges(length_range=(0.0, 5.0))},
                       r"hill\.length_range must be positive, got \[0\.0, 5\.0\]")]:
        with pytest.raises(InvalidInput, match=name):
            GeneratorConfig(**bad)
    GeneratorConfig(hill=HillRanges(length_range=(0.0, 5.0)), flat_fraction=1.0)
    with pytest.raises(InvalidInput, match="length_range"):
        HillRanges(length_range=(1.0,))


def test_generator_config_road_is_its_layout_plus_the_drawn_fields():
    assert GeneratorConfig().road() == RoadSpec()
    spec = GeneratorConfig(lane_width=3.0, y_end=60.0).road(centerline_x_coeffs=(1.0,))
    assert (spec.lane_width, spec.y_end, spec.centerline_x_coeffs) == (3.0, 60.0, (1.0,))
