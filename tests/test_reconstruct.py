import dataclasses
import json

import numpy as np
import pytest

import lane3d.reconstruct
from lane3d.errors import DegeneratePair, InvalidInput, NoPairing
from lane3d.losses import grad_check
from lane3d.model import Lane2D
from lane3d.pairing import PairingConfig
from lane3d.projection import project_virtual_top_xy
from lane3d.reconstruct import (SolveOptions, _PairContext, closed_form_heights,
                                pair_objective, prepare_pair, solve_boundary_pair,
                                solve_frame)
from lane3d.synth import HillProfile, RoadSpec, generate_scene

from conftest import CLAMPING_PAIRING, H_CAM, clamping_flat_pair

HILL_SPEC = RoadSpec(height_profile=HillProfile(start_y=40.0, length=120.0, peak_z=0.89))
# sampled every metre, the noise-free closed form admits no descent step
DENSE_HILL_SPEC = dataclasses.replace(HILL_SPEC, y_step=1.0)


def flat_lane(lane_id, x, ys, vis=None):
    ys = np.asarray(ys, dtype=float)
    pts = np.column_stack([np.full_like(ys, x), ys])
    if vis is None:
        vis = np.ones(len(ys), dtype=int)
    return Lane2D(id=lane_id, points=pts, visibility=vis)


def project_scene(scene, noise_rng=None, sigma=0.05):
    h = scene.camera.height_m
    lanes = []
    for lane in scene.lanes:
        flat = project_virtual_top_xy(lane.xy, lane.z, h)
        if noise_rng is not None:
            flat = flat + noise_rng.normal(0.0, sigma, size=flat.shape)
        lanes.append(Lane2D(id=lane.id, points=flat, visibility=lane.visibility))
    return lanes


def test_options_from_dict_coerce_by_default_type_and_reject_unknown_keys():
    opts = SolveOptions.from_dict({"lambda_geo": 1, "pairing": {"window": 3.0}})
    assert type(opts.lambda_geo) is float and opts.lambda_geo == 1.0
    assert type(opts.pairing.window) is int and opts.pairing == PairingConfig(window=3)
    with pytest.raises(InvalidInput, match="windw"):
        SolveOptions.from_dict({"pairing": {"windw": 3}})
    with pytest.raises(InvalidInput, match="max_iter, "):
        SolveOptions.from_dict({"max_iter": 3, "tolerance": 1.0})
    with pytest.raises(InvalidInput, match="JSON object"):
        SolveOptions.from_dict({"pairing": []})
    # ints take only integral numbers, floats only finite ones; the JSON
    # parser reads NaN and Infinity as floats
    for bad, match in [({"pairing": {"window": 2.7}}, "window must be an integer"),
                       ({"pairing": {"window": True}}, "window must be a number"),
                       ({"pairing": {"window": "7"}}, "window must be a number"),
                       ({"lambda_geo": True}, "lambda_geo must be a number"),
                       (json.loads('{"lambda_geo": Infinity}'), "lambda_geo must be finite"),
                       (json.loads('{"lambda_geo": -Infinity}'), "lambda_geo must be finite"),
                       (json.loads('{"lambda_geo": NaN}'), "lambda_geo must be finite"),
                       ({"lambda_geo": 10 ** 400}, "lambda_geo must be finite")]:
        with pytest.raises(InvalidInput, match=match):
            SolveOptions.from_dict(bad)


def test_closed_form_examples():
    z = closed_form_heights([3.5, 7.0, 1.75], true_width=3.5, h_cam=H_CAM)
    assert z[0] == pytest.approx(0.0, abs=1e-12)
    assert z[1] == pytest.approx(0.89, abs=1e-12)
    assert z[2] == pytest.approx(-1.78, abs=1e-12)


def test_closed_form_degenerate_pair():
    with pytest.raises(DegeneratePair):
        closed_form_heights([0.0], 3.5, H_CAM)


def test_closed_form_round_trip_exact():
    scene = generate_scene(HILL_SPEC, seed=1)
    left, right = project_scene(scene)
    d_flat = np.linalg.norm(left.points - right.points, axis=1)
    z = closed_form_heights(d_flat, true_width=3.5, h_cam=H_CAM)
    assert np.max(np.abs(z - scene.lanes[0].z)) < 1e-9


def test_flat_input_recovers_zero_height():
    ys = np.arange(5.0, 100.0, 4.0)
    lanes = [flat_lane("l", -1.75, ys), flat_lane("r", 1.75, ys)]
    res = solve_boundary_pair(lanes[0], lanes[1], H_CAM)
    assert np.max(np.abs(res.z_left)) < 1e-6
    assert np.max(np.abs(res.z_right)) < 1e-6
    assert res.trace[-1][1] < 1e-10   # the final J


def test_hill_round_trip_noise_free():
    scene = generate_scene(HILL_SPEC, seed=2)
    lanes = project_scene(scene)
    res = solve_frame(lanes, H_CAM)
    assert set(res.statuses.values()) == {"ok"}
    out = res.lanes
    assert len(out) == len(scene.lanes)
    for got, truth in zip(out, scene.lanes):
        assert np.max(np.abs(got.z - truth.z)) < 1e-3
        # a far-range z error of e shifts the lifted y by up to e * y / h
        assert np.max(np.abs(got.points[:, :2] - truth.points[:, :2])) < 0.1


def test_objective_gradient_matches_finite_differences():
    # Coordinate-wise relative error is only meaningful away from the L1
    # kinks and away from points where an analytic entry is itself ~0 (the
    # sign pattern of a second-difference triple can cancel exactly); skip
    # such draws, as the contract's "away from kinks" caveat allows.
    rng = np.random.default_rng(61)
    scene = generate_scene(HILL_SPEC, seed=3)
    left, right = project_scene(scene, noise_rng=rng)
    ctx, z0 = prepare_pair(left, right, H_CAM, SolveOptions())
    checked = 0
    worst = 0.0
    while checked < 20:
        z = z0 + rng.normal(0.0, 0.05, size=z0.shape)
        _, g = pair_objective(z, ctx)
        n1 = ctx.n_left
        second_diffs = np.concatenate([
            z[:n1][:-2] + z[:n1][2:] - 2 * z[:n1][1:-1],
            z[n1:][:-2] + z[n1:][2:] - 2 * z[n1:][1:-1]])
        if np.min(np.abs(second_diffs)) < 1e-3 or np.min(np.abs(g)) < 1e-3:
            continue
        worst = max(worst, grad_check(lambda x: pair_objective(x, ctx), z, eps=1e-6))
        checked += 1
    assert worst < 1e-5


def test_descent_never_increases_objective():
    rng = np.random.default_rng(62)
    scene = generate_scene(HILL_SPEC, seed=4)
    left, right = project_scene(scene, noise_rng=rng)
    res = solve_boundary_pair(left, right, H_CAM)
    values = [row[1] for row in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert res.iters >= 1


def test_single_boundary_has_no_pairing():
    ys = np.arange(5.0, 60.0, 4.0)
    res = solve_frame([flat_lane("only", 0.0, ys)], H_CAM)
    assert res.lanes == []
    assert res.statuses == {"only": "no_pairing"}


def test_width_jump_rejection_propagates():
    ys = np.arange(0.0, 20.0, 1.0)
    x_right = np.where(ys < 10.0, 3.5, 8.0)
    right = Lane2D(id="r", points=np.column_stack([x_right, ys]),
                   visibility=np.ones(len(ys), dtype=int))
    left = flat_lane("l", 0.0, ys)
    with pytest.raises(NoPairing):
        solve_boundary_pair(left, right, H_CAM)


# the left boundary of three, which its pair with "mid" rejects
REJECTED_LEFT = {
    "width-jump": (np.where(np.arange(20.0) < 10.0, -3.5, -8.0), np.arange(20.0), NoPairing),
    "coincident": (np.zeros(20), np.arange(20.0), DegeneratePair),
    "two-points": (np.full(2, -3.5), np.arange(2.0), InvalidInput),
}


@pytest.mark.parametrize("case", REJECTED_LEFT)
def test_one_rejected_pair_marks_only_its_lanes_no_pairing(case):
    x, ys, error = REJECTED_LEFT[case]
    left = Lane2D(id="left", points=np.column_stack([x, ys]),
                  visibility=np.ones(len(ys), dtype=int))
    mid, right = flat_lane("mid", 0.0, np.arange(20.0)), flat_lane("right", 3.5, np.arange(20.0))
    with pytest.raises(error):
        solve_boundary_pair(left, mid, H_CAM)
    res = solve_frame([left, mid, right], H_CAM)
    assert res.statuses == {"left": "no_pairing", "mid": "ok", "right": "ok"}
    assert [lane.id for lane in res.lanes] == ["mid", "right"]
    assert len(res.pairs) == 1


def test_heights_clamped_below_camera(monkeypatch):
    left, right = clamping_flat_pair()
    monkeypatch.setattr(lane3d.reconstruct, "_MAX_ITERS", 5)
    opts = SolveOptions(pairing=PairingConfig(**CLAMPING_PAIRING))
    res = solve_boundary_pair(left, right, H_CAM, opts)
    assert res.clamped_right or res.clamped_left
    assert np.max(res.z_left) <= H_CAM - 1e-6 + 1e-15
    assert np.max(res.z_right) <= H_CAM - 1e-6 + 1e-15


def test_pair_whose_objective_overflows_at_the_closed_form_is_rejected():
    # straight boundaries 3.5 m apart: at 1e152 m scale the closed form is
    # exact, at 1e154 m the squared widths overflow and J is not finite
    ys = np.arange(3.0, 101.0)

    def scaled(scale):
        return [Lane2D(id=lane.id, points=lane.points * scale, visibility=lane.visibility)
                for lane in (flat_lane("l", 0.0, ys), flat_lane("r", 3.5, ys))]

    solved = solve_frame(scaled(1e152), H_CAM)
    assert solved.statuses == {"l": "ok", "r": "ok"}
    assert [pair.stop for pair in solved.pairs] == ["step"]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInput, match="not finite"):
            solve_boundary_pair(*scaled(1e154), H_CAM)
        rejected = solve_frame(scaled(1e154), H_CAM)
    assert rejected.statuses == {"l": "no_pairing", "r": "no_pairing"}
    assert rejected.pairs == [] and rejected.lanes == []


def test_three_boundaries_all_solved():
    spec = RoadSpec(num_boundaries=3,
                    height_profile=HillProfile(start_y=40.0, length=120.0, peak_z=0.5))
    scene = generate_scene(spec, seed=5)
    lanes = project_scene(scene)
    res = solve_frame(lanes, H_CAM)
    assert all(status == "ok" for status in res.statuses.values())
    for lane in scene.lanes:
        assert np.max(np.abs(res.z_by_lane[lane.id] - lane.z)) < 2e-3


def test_noise_regularizer_improves_far_height(subtests=None):
    # quick version of the acceptance comparison: 12 seeds
    wins = 0
    for seed in range(12):
        scene = generate_scene(HILL_SPEC, seed=seed)
        truth_far = [(lane.z, lane.points[:, 1] >= 40.0) for lane in scene.lanes]

        def far_rmse(lam):
            rng = np.random.default_rng(900 + seed)
            lanes = project_scene(scene, noise_rng=rng)
            res = solve_frame(lanes, H_CAM, SolveOptions(lambda_geo=lam))
            errs = [(res.z_by_lane[lane.id][m] - z[m]) ** 2
                    for lane, (z, m) in zip(scene.lanes, truth_far)]
            return float(np.sqrt(np.mean(np.concatenate(errs))))

        wins += far_rmse(1e-2) < far_rmse(0.0)
    assert wins >= 9


def test_closed_form_heights_vectorized():
    d = np.array([3.5, 7.0, 1.75])
    z = closed_form_heights(d, 3.5, H_CAM)
    assert np.allclose(z, [0.0, 0.89, -1.78], atol=1e-12)


def sequential_halving_solve(left, right, h_cam, opts=SolveOptions(), step_rule=True):
    """Reference descent: one objective call per trial step, halving the
    step until J does not increase, at most 20 times; with step_rule, it
    stops after an accepted step that moves no height by 1e-5 m. The step
    and max_iters are the solver's module constants, read when called."""
    mod = lane3d.reconstruct
    ctx, z = prepare_pair(left, right, h_cam, opts)
    value, grad = pair_objective(z, ctx)
    step = mod._STEP
    trace = [(0, value, step)]
    iters = 0
    for it in range(1, mod._MAX_ITERS + 1):
        trial = z - step * grad
        trial_value, trial_grad = pair_objective(trial, ctx)
        halvings = 0
        while trial_value > value and halvings < 20:
            step *= 0.5
            halvings += 1
            trial = z - step * grad
            trial_value, trial_grad = pair_objective(trial, ctx)
        if trial_value > value:
            break
        moved = np.max(np.abs(trial - z))
        z, value, grad = trial, trial_value, trial_grad
        iters = it
        trace.append((it, value, step))
        if step_rule and moved < 1e-5:
            break
        if halvings == 0:
            step = min(step * 1.25, mod._STEP)
    return iters, trace, value, np.minimum(z, h_cam - 1e-6)


def test_batched_objective_rows_equal_single_calls():
    rng = np.random.default_rng(63)
    scene = generate_scene(HILL_SPEC, seed=6)
    left, right = project_scene(scene, noise_rng=rng)
    ctx_long, z_long = prepare_pair(left, right, H_CAM, SolveOptions())
    assert len(ctx_long.i_idx) > 8
    ctx_short = _PairContext(
        a=np.array([[0.0, 5.0], [0.1, 9.0]]), b=np.array([[3.5, 5.2], [3.4, 9.1]]),
        i_idx=np.array([0, 1]), j_idx=np.array([1, 3]), n_left=2,
        c_hat=3.5, h_cam=H_CAM, lambda_geo=1e-2)
    cases = [(ctx_long, z_long), (ctx_short, np.zeros(7)),
             (dataclasses.replace(ctx_long, lambda_geo=0.0), z_long)]
    for ctx, z0 in cases:
        stack = z0 + rng.normal(0.0, 0.05, size=(20, len(z0)))
        values, grads = pair_objective(stack, ctx)
        assert values.shape == (20,) and grads.shape == stack.shape
        for k in range(20):
            value, grad = pair_objective(stack[k], ctx)
            assert type(value) is float
            assert np.float64(value).tobytes() == values[k].tobytes()
            assert grad.tobytes() == grads[k].tobytes()


@pytest.mark.parametrize("spec, noise_seed", [(DENSE_HILL_SPEC, None), (HILL_SPEC, None),
                                              (HILL_SPEC, 64), (DENSE_HILL_SPEC, 65)])
def test_solve_matches_sequential_halving_reference(spec, noise_seed):
    rng = None if noise_seed is None else np.random.default_rng(noise_seed)
    left, right = project_scene(generate_scene(spec, seed=7), noise_rng=rng)
    iters, trace, value, z = sequential_halving_solve(left, right, H_CAM)
    res = solve_boundary_pair(left, right, H_CAM)
    if spec is DENSE_HILL_SPEC and noise_seed is None:
        assert iters == 0
    else:
        assert iters >= 1 and len({step for _, _, step in trace}) > 1
    assert res.iters == iters
    assert np.array(res.trace).tobytes() == np.array(trace).tobytes()
    assert np.float64(res.trace[-1][1]).tobytes() == np.float64(value).tobytes()
    assert np.concatenate([res.z_left, res.z_right]).tobytes() == z.tobytes()


def test_noise_free_pair_makes_three_objective_calls(monkeypatch):
    # the start, one trial step, and every halving of it in one batched call
    calls = []

    def counted(z, ctx):
        calls.append(z.shape)
        return pair_objective(z, ctx)

    monkeypatch.setattr(lane3d.reconstruct, "pair_objective", counted)
    left, right = project_scene(generate_scene(DENSE_HILL_SPEC, seed=7))
    res = solve_boundary_pair(left, right, H_CAM)
    assert res.iters == 0
    n = len(left) + len(right)
    assert calls == [(n,), (n,), (20, n)]


# (spec, noise seed, solver constants overridden, expected stop): each reason
# from one pair
STOP_CASES = [(DENSE_HILL_SPEC, None, {}, "no_descent"),
              (HILL_SPEC, 65, {}, "step"),
              (HILL_SPEC, 65, {"_MAX_ITERS": 3}, "max_iters")]


@pytest.mark.parametrize("spec, noise_seed, opts, stop", STOP_CASES)
def test_stop_reason_of_constructed_pairs(monkeypatch, spec, noise_seed, opts, stop):
    for name, value in opts.items():
        monkeypatch.setattr(lane3d.reconstruct, name, value)
    max_iters = lane3d.reconstruct._MAX_ITERS
    rng = None if noise_seed is None else np.random.default_rng(noise_seed)
    left, right = project_scene(generate_scene(spec, seed=7), noise_rng=rng)
    res = solve_boundary_pair(left, right, H_CAM)
    assert res.stop == stop
    if stop == "step":
        assert 1 < res.iters < max_iters
    else:
        assert res.iters == {"no_descent": 0, "max_iters": max_iters}[stop]


def test_step_rule_stops_noisy_pair_near_the_descent_without_it():
    # without the rule this pair crawls to max_iters, each step lowering J
    left, right = project_scene(generate_scene(HILL_SPEC, seed=7),
                                noise_rng=np.random.default_rng(65))
    iters, _, _, z_full = sequential_halving_solve(left, right, H_CAM, step_rule=False)
    assert iters == lane3d.reconstruct._MAX_ITERS
    res = solve_boundary_pair(left, right, H_CAM)
    assert res.stop == "step" and res.iters < iters // 2
    z = np.concatenate([res.z_left, res.z_right])
    assert np.max(np.abs(z - z_full)) < 5e-3


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_lane_records_do_not_depend_on_input_order(seed):
    # noisy 5-boundary hill frames, some with folded lanes
    spec = dataclasses.replace(DENSE_HILL_SPEC, num_boundaries=5)
    rng = np.random.default_rng(seed)
    lanes = project_scene(generate_scene(spec, seed=seed), noise_rng=rng)
    shuffled = [lanes[k] for k in rng.permutation(len(lanes))]
    assert shuffled != lanes
    want = {rec.id: rec for rec in solve_frame(lanes, H_CAM).boundaries}
    got = solve_frame(shuffled, H_CAM).boundaries
    assert [rec.id for rec in got] == [lane.id for lane in shuffled]
    for rec in got:
        assert (rec.status, rec.clamped, rec.lane) == \
            (want[rec.id].status, want[rec.id].clamped, want[rec.id].lane)
        assert rec.z.tobytes() == want[rec.id].z.tobytes()


def test_frame_lists_one_stop_per_solved_pair():
    spec = dataclasses.replace(DENSE_HILL_SPEC, num_boundaries=4)
    lanes = project_scene(generate_scene(spec, seed=8))
    noisy = project_scene(generate_scene(spec, seed=8), noise_rng=np.random.default_rng(66))
    lanes[0] = noisy[0]
    res = solve_frame(lanes, H_CAM)
    assert [entry.stop for entry in res.pairs] == ["step", "no_descent", "no_descent"]
    assert res.traces == [entry.trace for entry in res.pairs]
    for entry, a, b in zip(res.pairs, lanes, lanes[1:]):
        pair = solve_boundary_pair(a, b, H_CAM)
        assert entry.stop == pair.stop and entry.trace == pair.trace
