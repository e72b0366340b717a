import numpy as np
import pytest

from lane3d.errors import InvalidInput
from lane3d.model import Lane2D, Lane3D
from lane3d.pairing import PairingConfig, match_point_pairs

from conftest import straight_lane


def windowed_walk_oracle(l1, l2, eta, theta):
    """Independent reimplementation of the sliding-window walk with plain
    loops: seed at the middle, windowed nearest neighbor anchored at the
    previous match, reject on width jumps."""
    if (len(l1), l1.id) > (len(l2), l2.id):
        l1, l2 = l2, l1
    p1, p2 = l1.points, l2.points
    n1, n2 = len(p1), len(p2)

    def dist(i, j):
        return float(np.sqrt(np.sum((p1[i] - p2[j]) ** 2)))

    def best(i, lo, hi):
        lo, hi = max(0, lo), min(n2 - 1, hi)
        if hi < lo:
            return None
        cands = [(dist(i, j), j) for j in range(lo, hi + 1)]
        d, j = min(cands, key=lambda t: (t[0], t[1]))
        return j, d

    mid1 = n1 // 2
    same_y = min(range(n2), key=lambda j: abs(p2[j, 1] - p1[mid1, 1]))
    mid2, seed_w = best(mid1, same_y - eta, same_y + eta)
    pairs = {mid1: mid2}
    prev, prev_w = mid2, seed_w
    for i in range(mid1 - 1, -1, -1):
        got = best(i, prev - eta, prev - 1)
        if got is None:
            break
        j, w = got
        if abs(w - prev_w) > theta:
            return None
        pairs[i] = j
        prev, prev_w = j, w
    prev, prev_w = mid2, seed_w
    for i in range(mid1 + 1, n1):
        got = best(i, prev + 1, prev + eta)
        if got is None:
            break
        j, w = got
        if abs(w - prev_w) > theta:
            return None
        pairs[i] = j
        prev, prev_w = j, w
    return pairs


def test_parallel_identical_sampling_gives_identity():
    ys = np.arange(0.0, 20.0, 1.0)
    l1 = straight_lane("l", 0.0, ys)
    l2 = straight_lane("r", 3.5, ys)
    pm = match_point_pairs(l1, l2)
    assert pm.pairs == {i: i for i in range(len(ys))}
    assert pm.source_id == "l"


def test_extra_leading_point_shifts_mapping():
    ys = np.arange(0.0, 20.0, 1.0)
    l1 = straight_lane("l", 0.0, ys)
    l2 = straight_lane("r", 3.5, np.concatenate([[-1.0], ys]))
    pm = match_point_pairs(l1, l2)
    expected = windowed_walk_oracle(l1, l2, 2, 1.0)
    assert pm.pairs == expected
    assert pm.pairs == {i: i + 1 for i in range(len(ys))}


def test_width_step_rejects():
    theta = 1.0
    ys = np.arange(0.0, 10.0, 1.0)
    x_right = np.where(ys < 5.0, 3.5, 3.5 + 2 * theta)
    pts = np.column_stack([x_right, ys, np.zeros(len(ys))])
    l1 = straight_lane("l", 0.0, ys)
    l2 = Lane3D(id="r", points=pts, visibility=np.ones(len(ys), dtype=int))
    assert match_point_pairs(l1, l2, PairingConfig(window=2, width_jump_threshold=theta)) is None


def test_too_short_lanes_rejected():
    l1 = straight_lane("l", 0.0, [0.0, 1.0])
    l2 = straight_lane("r", 3.5, [0.0, 1.0, 2.0])
    with pytest.raises(InvalidInput):
        match_point_pairs(l1, l2)


def test_swap_invariance():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n1 = rng.integers(4, 20)
        n2 = rng.integers(4, 20)
        ys1 = np.cumsum(rng.uniform(0.5, 2.0, n1))
        ys2 = np.cumsum(rng.uniform(0.5, 2.0, n2))
        l1 = straight_lane("a", 0.0, ys1)
        l2 = straight_lane("b", 3.5, ys2)
        a = match_point_pairs(l1, l2)
        b = match_point_pairs(l2, l1)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.pairs == b.pairs and a.source_id == b.source_id
            # indices are oriented to the lane named, whatever the argument order
            assert [v.tolist() for v in a.indices(l1.id)] == \
                [v.tolist() for v in b.indices(l1.id)]
            keys = sorted(a.pairs)
            on_source = [keys, [a.pairs[k] for k in keys]]
            assert [v.tolist() for v in a.indices(a.source_id)] == on_source
            assert [v.tolist() for v in a.indices(a.target_id)] == on_source[::-1]
            with pytest.raises(InvalidInput, match="not 'c'"):
                a.indices("c")


def test_matches_windowed_oracle_on_random_parallel_instances():
    # Lane3D pairs at zero and at differing nonzero heights (3-D distances)
    # and Lane2D pairs; steps on a 0.5 m grid make equidistant candidates,
    # so ties occur and must go to the smaller index
    rng = np.random.default_rng(7)
    cfg = PairingConfig(window=2, width_jump_threshold=1.0)
    for k in range(200):
        n = int(rng.integers(3, 50))
        steps = rng.choice([1.0, 1.5, 2.0], n) if k % 2 else rng.uniform(0.8, 2.5, n)
        ys = np.cumsum(steps)
        width = rng.uniform(3.0, 4.0)
        # longer lane may carry extra points on either end
        extra_front = int(rng.integers(0, 3))
        extra_back = int(rng.integers(0, 3))
        ys2 = np.concatenate([ys[0] - np.arange(extra_front, 0, -1) * 1.5,
                              ys + (0.5 if k % 4 == 1 else 0.0),
                              ys[-1] + np.arange(1, extra_back + 1) * 1.5])
        x0 = rng.uniform(-2, 2)
        z1 = rng.uniform(0.1, 0.6) * np.sin(ys / rng.uniform(5.0, 20.0))
        z2 = rng.uniform(0.1, 0.6) * np.cos(ys2 / rng.uniform(5.0, 20.0))
        lane_pairs = [
            (straight_lane("a", x0, ys), straight_lane("b", x0 + width, ys2)),
            (straight_lane("a", x0, ys, z=z1), straight_lane("b", x0 + width, ys2, z=z2)),
            (Lane2D(id="a", points=np.column_stack([np.full(n, x0), ys]),
                    visibility=np.ones(n, dtype=int)),
             Lane2D(id="b", points=np.column_stack([np.full(len(ys2), x0 + width), ys2]),
                    visibility=np.ones(len(ys2), dtype=int))),
        ]
        for l1, l2 in lane_pairs:
            got = match_point_pairs(l1, l2, cfg)
            expected = windowed_walk_oracle(l1, l2, cfg.window, cfg.width_jump_threshold)
            if expected is None:
                assert got is None
            else:
                assert got is not None and got.pairs == expected


def test_window_bound_property():
    rng = np.random.default_rng(9)
    eta = 2
    for _ in range(50):
        n = int(rng.integers(5, 40))
        ys = np.cumsum(rng.uniform(0.8, 2.0, n))
        l1 = straight_lane("a", 0.0, ys)
        l2 = straight_lane("b", 3.5, ys)
        pm = match_point_pairs(l1, l2, PairingConfig(window=eta))
        assert pm is not None
        for i, j in zip(*pm.indices(l1.id)):
            same_y = int(np.argmin(np.abs(l2.points[:, 1] - l1.points[i, 1])))
            assert abs(j - same_y) <= eta


@pytest.mark.parametrize("eta", [1, 2, 3])
def test_walk_reaches_exactly_window_past_the_previous_match(eta):
    # the longer boundary is sampled four times as densely, so the same-y
    # point is always beyond the window and each step takes its far end:
    # from the seed (5 -> 20) the match moves exactly eta per step, both ways
    ys = np.arange(0.0, 11.0, 1.0)
    l1 = straight_lane("a", 0.0, ys)
    l2 = straight_lane("b", 3.5, np.arange(0.0, 10.01, 0.25))
    cfg = PairingConfig(window=eta, width_jump_threshold=100.0)
    pm = match_point_pairs(l1, l2, cfg)
    assert pm.pairs == {i: 20 + eta * (i - 5) for i in range(len(ys))}
    assert pm.pairs == windowed_walk_oracle(l1, l2, eta, 100.0)


def test_equals_global_nearest_neighbor_on_constant_width():
    # On parallel constant-width boundaries with equal sampling the greedy
    # walk equals the exhaustive O(n^2) nearest-neighbor assignment.
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        ys = np.cumsum(rng.uniform(1.0, 2.0, n))
        xs = rng.uniform(-1, 1) + 0.02 * ys
        pts1 = np.column_stack([xs, ys, np.zeros(n)])
        pts2 = np.column_stack([xs + 3.5, ys, np.zeros(n)])
        l1 = Lane3D(id="a", points=pts1, visibility=np.ones(n, dtype=int))
        l2 = Lane3D(id="b", points=pts2, visibility=np.ones(n, dtype=int))
        pm = match_point_pairs(l1, l2)
        brute = {i: int(np.argmin(np.linalg.norm(pts2 - pts1[i], axis=1)))
                 for i in range(n)}
        assert pm is not None and pm.pairs == brute


def test_tie_breaks_to_smaller_index():
    # symmetric candidates at equal distance: scan picks the smaller j
    ys1 = np.array([0.0, 1.0, 2.0])
    pts2 = np.column_stack([np.full(4, 3.5), [-0.5, 0.5, 1.5, 2.5], np.zeros(4)])
    l1 = straight_lane("a", 0.0, ys1)
    l2 = Lane3D(id="b", points=pts2, visibility=np.ones(4, dtype=int))
    pm = match_point_pairs(l1, l2)
    seed_j = pm.pairs[1]
    assert seed_j == 1   # equidistant between j=1 and j=2

