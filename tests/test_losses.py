import numpy as np
import pytest

from lane3d.errors import HeightExceedsCamera
from lane3d.losses import (WidthSeries, geo_prior_loss, geo_prior_of_heights,
                           grad_check, width_series)
from lane3d.model import Lane3D, PairMap
from lane3d.pairing import match_point_pairs
from lane3d.projection import lift_from_virtual_top_xy, project_virtual_top_xy

from conftest import H_CAM, straight_lane


def _pair_widths(a, b, h_cam=H_CAM):
    """(D_3D, D_2D) of one pair of 3D points, through width_series."""
    left = Lane3D(id="l", points=[a], visibility=[1])
    right = Lane3D(id="r", points=[b], visibility=[1])
    series = width_series(left, right, PairMap(pairs={0: 0}, source_id="l", target_id="r"),
                          h_cam)
    return float(series.d3[0]), float(series.d2[0])


def test_dist3d_examples():
    # D_3D does not depend on the camera; a tall one keeps z = 3 below it
    assert _pair_widths((1, 2, 3), (1, 2, 3), h_cam=10.0)[0] == 0.0
    assert _pair_widths((0, 0, 0), (3, 4, 0))[0] == 5.0
    assert _pair_widths((1, 2, 3), (4, 6, 3), h_cam=10.0)[0] == 5.0


def test_dist2d_flat_pair():
    got = _pair_widths((0, 10, 0), (3.5, 10, 0))[1]
    assert got == pytest.approx(3.5 * H_CAM, abs=1e-12)   # 6.23
    # unequal heights: (3.5, 10, 0.89) projects to (7, 20), and the weight is
    # h minus the mean height
    got = _pair_widths((0, 10, 0), (3.5, 10, 0.89))[1]
    assert got == pytest.approx(np.hypot(7.0, 10.0) * (H_CAM - 0.445), abs=1e-12)


def test_dist2d_equal_height_pair():
    # both endpoints at z = 0.89 project with scale 2: flat width 7.0,
    # weight h - z = 0.89, giving h * c = 6.23 again
    got = _pair_widths((0, 10, 0.89), (3.5, 10, 0.89))[1]
    assert got == pytest.approx(7.0 * 0.89, abs=1e-12)
    assert got == pytest.approx(3.5 * H_CAM, abs=1e-12)


def test_dist2d_zero_for_equal_points():
    assert _pair_widths((1, 2, 0.3), (1, 2, 0.3))[1] == 0.0


def test_dist2d_rejects_height_at_camera():
    with pytest.raises(HeightExceedsCamera):
        _pair_widths((0, 10, H_CAM), (1, 10, 0))
    with pytest.raises(HeightExceedsCamera):
        _pair_widths((0, 10, 0), (1, 10, H_CAM + 0.5))


def test_equal_height_identity_random_pairs():
    # with equal heights, the weighted 2D distance equals the xy distance
    # times the camera height
    rng = np.random.default_rng(21)
    for _ in range(200):
        z = rng.uniform(-1.0, 1.7)
        a = (rng.uniform(-10, 10), rng.uniform(1, 100), z)
        b = (rng.uniform(-10, 10), rng.uniform(1, 100), z)
        d_xy = np.hypot(a[0] - b[0], a[1] - b[1])
        assert _pair_widths(a, b)[1] == pytest.approx(d_xy * H_CAM, abs=1e-9)


def test_width_series_parallel_lanes():
    ys = np.arange(10.0, 15.0, 1.0)
    left = straight_lane("l", 0.0, ys)
    right = straight_lane("r", 3.5, ys)
    pm = match_point_pairs(left, right)
    series = width_series(left, right, pm, H_CAM)
    assert np.allclose(series.d3, 3.5, atol=1e-12)
    assert np.allclose(series.d2, 3.5 * H_CAM, atol=1e-12)
    assert series.mask.tolist() == [1] * 5


def test_width_series_invisible_endpoint_masks_pair():
    ys = np.arange(10.0, 15.0, 1.0)
    vis = np.ones(5, dtype=int)
    vis[2] = 0
    left = straight_lane("l", 0.0, ys, vis=vis)
    right = straight_lane("r", 3.5, ys)
    series = width_series(left, right, match_point_pairs(left, right), H_CAM)
    assert series.mask.tolist() == [1, 1, 0, 1, 1]


def test_width_series_empty_pairs():
    ys = np.arange(10.0, 15.0, 1.0)
    left = straight_lane("l", 0.0, ys)
    right = straight_lane("r", 3.5, ys)
    series = width_series(left, right,
                          PairMap(pairs={}, source_id="l", target_id="r"), H_CAM)
    assert len(series) == 0
    assert geo_prior_loss(series, 1.0) == 0.0


def _series(d3, d2=None, mask=None):
    d3 = np.asarray(d3, dtype=float)
    if d2 is None:
        d2 = np.zeros_like(d3)
    if mask is None:
        mask = np.ones(len(d3), dtype=int)
    return WidthSeries(d3=d3, d2=d2, mask=mask)


def test_geo_loss_zero_on_constant_widths():
    s = _series([3.5, 3.5, 3.5, 3.5], [6.23, 6.23, 6.23, 6.23])
    assert geo_prior_loss(s, 1.0) == 0.0


def test_geo_loss_hand_case():
    s = _series([3.5, 3.6, 3.5])
    assert geo_prior_loss(s, 1.0) == pytest.approx(0.2, abs=1e-12)


def test_geo_loss_zero_on_linear_widths():
    s = _series([3.0, 3.1, 3.2, 3.3])
    assert geo_prior_loss(s, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_geo_loss_scales_with_prob_and_visibility():
    s = _series([3.5, 3.6, 3.5])
    assert geo_prior_loss(s, 0.25) == pytest.approx(0.05, abs=1e-12)
    masked = _series([3.5, 3.6, 3.5], mask=[1, 0, 1])
    assert geo_prior_loss(masked, 1.0) == 0.0


def test_geo_loss_short_series_is_zero():
    assert geo_prior_loss(_series([3.5, 3.6]), 1.0) == 0.0


def test_geo_loss_sums_both_series():
    s = _series([3.5, 3.6, 3.5], [1.0, 1.5, 1.0])
    assert geo_prior_loss(s, 1.0) == pytest.approx(0.2 + 1.0, abs=1e-12)


def _random_height_config(rng, n=12):
    ys = np.cumsum(rng.uniform(2.0, 4.0, n)) + 4.0
    left = np.column_stack([rng.uniform(-2, 0, n), ys])
    right = np.column_stack([rng.uniform(3, 5, n), ys + rng.uniform(-0.2, 0.2, n)])
    z = rng.uniform(-0.5, 1.0, 2 * n)
    return left, right, z


def test_geo_of_heights_matches_width_series_route():
    # independent route: lift the pairs, project the lifted points back to
    # the flat ground, measure both widths from the points, and compare
    # against the height-parameterized form
    rng = np.random.default_rng(71)
    for _ in range(20):
        left, right, z = _random_height_config(rng)
        n = len(left)
        value, _ = geo_prior_of_heights(z, left, right, H_CAM)
        lifted_l = lift_from_virtual_top_xy(left, z[:n], H_CAM)
        lifted_r = lift_from_virtual_top_xy(right, z[n:], H_CAM)
        d3 = np.linalg.norm(lifted_l - lifted_r, axis=1)
        flat_l = project_virtual_top_xy(lifted_l[:, :2], lifted_l[:, 2], H_CAM)
        flat_r = project_virtual_top_xy(lifted_r[:, :2], lifted_r[:, 2], H_CAM)
        d2 = (np.linalg.norm(flat_l - flat_r, axis=1)
              * (H_CAM - 0.5 * (lifted_l[:, 2] + lifted_r[:, 2])))
        series = WidthSeries(d3=d3, d2=d2, mask=np.ones(n, dtype=int))
        assert value == pytest.approx(geo_prior_loss(series, 1.0), abs=1e-9)


def test_geo_of_heights_gradient():
    # conditioned draws only: away from L1 kinks and from coordinates whose
    # analytic entry is ~0 (sign patterns can cancel exactly), where a
    # coordinate-wise relative error is meaningless at double precision
    rng = np.random.default_rng(72)
    checked = 0
    worst = 0.0
    while checked < 30:
        left, right, z = _random_height_config(rng)
        value, g = geo_prior_of_heights(z, left, right, H_CAM)
        if value == 0.0 or np.min(np.abs(g)) < 1e-3:
            continue
        worst = max(worst, grad_check(
            lambda x: geo_prior_of_heights(x, left, right, H_CAM), z, eps=1e-6))
        checked += 1
    assert worst < 1e-5


def test_grad_check_quadratic():
    def quad(x):
        return float(np.sum(x * x)), 2.0 * x
    rng = np.random.default_rng(41)
    for _ in range(5):
        assert grad_check(quad, rng.uniform(-3, 3, 8)) < 1e-8


def test_grad_check_flags_wrong_gradient():
    def wrong(x):
        return float(np.sum(x * x)), np.zeros_like(x)
    assert grad_check(wrong, np.array([1.0, 2.0])) > 0.5
