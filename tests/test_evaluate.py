import collections
import dataclasses
import itertools
import json
import signal

import numpy as np
import pytest

import lane3d.evaluate as evaluate_module
from lane3d.cli import main
from lane3d.errors import InvalidInput, InvariantViolation, ParseError
from lane3d.evaluate import (EvalReport, FrameBreakdown, MatchConfig, compute_ap,
                             compute_fscore, compute_offset_errors,
                             evaluate_frames, fscore_from_counts,
                             joint_offset_errors, match_lanes, read_report,
                             resample_flat, split_extra_long, split_hard_easy,
                             write_report, write_report_csv)
from lane3d.model import (Lane3D, Prediction, Scene, read_predictions, read_scenes,
                          write_json, write_predictions, write_scenes)
from lane3d.projection import lift_from_virtual_top_xy
from lane3d.synth import RoadSpec, generate_scene

from conftest import H_CAM, straight_lane


def as_pred(lanes, probs=None):
    probs = probs or [1.0] * len(lanes)
    return list(zip(lanes, probs))


def lanes_at(xs, ys=None):
    ys = np.arange(4.0, 101.0, 4.0) if ys is None else np.asarray(ys)
    return [straight_lane(f"lane_{k}", x, ys) for k, x in enumerate(xs)]


def brute_force_assignment(cost, admissible):
    """Lexicographic optimum over all injective assignments: most admissible
    matches first, then least total cost."""
    n, m = cost.shape
    if m <= n:
        candidates = ([(g, p) for p, g in enumerate(perm)]
                      for perm in itertools.permutations(range(n), m))
    else:
        candidates = ([(g, p) for g, p in enumerate(perm)]
                      for perm in itertools.permutations(range(m), n))
    best = None
    for assignment in candidates:
        pairs = [(g, p) for g, p in assignment if admissible[g, p]]
        key = (-len(pairs), sum(cost[g, p] for g, p in pairs))
        if best is None or key < best:
            best = key
    return (-best[0], best[1]) if best else (0, 0.0)


def test_match_gt_vs_itself():
    gt = lanes_at([-1.75, 1.75, 5.25])
    m = match_lanes(gt, as_pred(gt), MatchConfig(), H_CAM)
    assert m.tp == 3 and m.fp == 0 and m.fn == 0
    assert all(cost == pytest.approx(0.0, abs=1e-12) for _, _, cost in m.matches)


def test_match_displaced_lane_unmatched():
    gt = lanes_at([0.0])
    pred = lanes_at([10.0])
    m = match_lanes(gt, as_pred(pred), MatchConfig(), H_CAM)
    assert m.tp == 0 and m.fp == 1 and m.fn == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_pair_whose_mean_distance_overflows_is_not_admissible(tmp_path, pose):
    """One reference 1e200 m off leaves 9 of 10 within tolerance, but its
    squared distance, so the mean, overflows to inf: the pair is not
    admissible, every cost the solver sees is finite, and the report
    evaluate writes reads back."""
    gt = lanes_at([-1.75, 1.75])
    points = gt[0].points.copy()
    points[-1, 0] = 1e200
    far_off = Lane3D(id="far_off", points=points, visibility=gt[0].visibility)

    def hung(signum, frame):
        raise TimeoutError("the assignment did not end")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        m = match_lanes(gt, as_pred([far_off, gt[1]]), MatchConfig(), H_CAM)
        report = evaluate_frames(
            [Scene(frame_id="f", camera=pose, lanes=gt)],
            [Prediction(frame_id="f", camera=pose, lanes=[far_off, gt[1]], probs=[1.0, 1.0])])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert (m.tp, m.fp, m.fn) == (1, 1, 1)
    assert m.matches == [("lane_1", "lane_1", 0.0)]
    path, again = tmp_path / "report.json", tmp_path / "again.json"
    write_report(report, path)
    assert read_report(path) == report
    write_report(read_report(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_match_counts_and_offsets_over_covisible_refs_only():
    """Three GT lanes and one prediction: tp 1, fp 0, fn 2. The prediction
    is hidden up to y = 12 and ends at y = 60, so its pair's offsets are
    summed over the co-visible references 15..60 only."""
    gt = lanes_at([-1.75, 1.75, 5.25])
    ys = np.arange(4.0, 61.0, 4.0)
    pred = straight_lane("p", 1.85, ys, vis=(ys > 12.0).astype(int))
    m = match_lanes(gt, as_pred([pred]), MatchConfig(), H_CAM, frame_id="f")
    assert (m.tp, m.fp, m.fn) == (1, 0, 2)
    (s,) = m.pair_stats
    assert (s.gt_id, s.pred_id, s.near_count, s.far_count) == ("lane_1", "p", 3, 3)
    assert s.x_near_sum == pytest.approx(0.3) and s.x_far_sum == pytest.approx(0.3)


def test_match_equals_brute_force_small_instances():
    rng = np.random.default_rng(81)
    cfg = MatchConfig()
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m_count = int(rng.integers(1, 4))
        gt = lanes_at(rng.uniform(-8, 8, n))
        pred = lanes_at(rng.uniform(-8, 8, m_count))
        match = match_lanes(gt, as_pred(pred), cfg, H_CAM)
        # rebuild cost/admissibility independently
        cost = np.zeros((n, m_count))
        adm = np.zeros((n, m_count), dtype=bool)
        for i, g in enumerate(gt):
            gx, gz, gv = resample_flat(g, H_CAM, cfg.eval_y_refs)
            for j, p in enumerate(pred):
                px, pz, pv = resample_flat(p, H_CAM, cfg.eval_y_refs)
                covis = gv & pv
                if not np.any(covis):
                    continue
                d = np.sqrt((gx[covis] - px[covis]) ** 2 + (gz[covis] - pz[covis]) ** 2)
                cost[i, j] = np.mean(d)
                adm[i, j] = np.mean(d <= cfg.point_tolerance) >= cfg.match_fraction
        count, total = brute_force_assignment(cost, adm)
        assert match.tp == count
        assert sum(c for _, _, c in match.matches) == pytest.approx(total, abs=1e-9)


def _random_costs(rng, kind, shape):
    """Uniform floats, integers 0-3, 0/1 values or tenths 0.0-0.3. The last
    three tie often; with tenths, float rounding decides which sums tie, so
    only the same operations in the same order reproduce the reference."""
    if kind == 0:
        return rng.random(shape)
    if kind == 3:
        return rng.integers(0, 4, shape) * 0.1
    return rng.integers(0, 4 if kind == 1 else 2, shape).astype(float)


def test_assignment_matches_scipy_including_ties(monkeypatch):
    from scipy.optimize import linear_sum_assignment

    def scipy_cols(cost):
        return linear_sum_assignment(np.array(cost))[1].tolist()

    rng = np.random.default_rng(2016)
    for k in range(24000):
        n = int(rng.integers(1, 13))
        cost = _random_costs(rng, k % 4, (n, n)).tolist()
        assert evaluate_module._min_cost_assignment(cost) == scipy_cols(cost), cost
    # the padded matrices _assignment builds, from GT x prediction tables
    # with every share of admissible edges
    tables = []
    for k in range(3000):
        shape = tuple(int(s) for s in rng.integers(1, 7, 2))
        tables.append((_random_costs(rng, k % 4, shape),
                       rng.random(shape) < rng.choice([0.2, 0.5, 0.9, 1.0])))
    ours = [evaluate_module._assignment(cost, adm) for cost, adm in tables]
    monkeypatch.setattr(evaluate_module, "_min_cost_assignment", scipy_cols)
    assert [evaluate_module._assignment(cost, adm) for cost, adm in tables] == ours


def test_fscore_arithmetic():
    assert fscore_from_counts(4, 0, 0).f_score == 1.0
    fs = fscore_from_counts(2, 0, 2)
    assert fs.precision == 1.0 and fs.recall == 0.5
    assert fs.f_score == pytest.approx(2 / 3, abs=1e-12)
    assert fscore_from_counts(0, 0, 5).f_score == 0.0


def test_ap_toy_cases():
    assert compute_ap([(1.0, 1.0)]) == 1.0
    assert compute_ap([(0.0, 0.0)]) == 0.0
    assert compute_ap([(1.0, 0.5), (0.5, 1.0)]) == pytest.approx(0.75, abs=1e-12)


def test_offset_errors_zero_for_exact_prediction():
    gt = lanes_at([-1.75, 1.75])
    m = match_lanes(gt, as_pred(gt), MatchConfig(), H_CAM, frame_id="f")
    errors = compute_offset_errors(m.pair_stats)
    assert errors.x_near == errors.x_far == errors.z_near == errors.z_far == 0.0
    assert not errors.empty


def _biased_lane(lane, dx_far=0.0, dz=0.0, split=40.0):
    # shift the flat representation and lift back, so the bias is exactly
    # what the flat-ground metric sees
    x, z, vis = resample_flat(lane, H_CAM, np.asarray([5, 10, 15, 20, 30, 40, 50, 60, 80, 100], dtype=float))
    refs = np.asarray([5, 10, 15, 20, 30, 40, 50, 60, 80, 100], dtype=float)
    x = x + np.where(refs >= split, dx_far, 0.0)
    z = z + dz
    pts = lift_from_virtual_top_xy(np.column_stack([x, refs]), z, H_CAM)
    return Lane3D(id=lane.id, points=pts, visibility=np.ones(len(refs), dtype=int))


def test_offset_errors_constructed_far_bias():
    gt = lanes_at([-1.75, 1.75])
    pred = [_biased_lane(lane, dx_far=0.1) for lane in gt]
    m = match_lanes(gt, as_pred(pred), MatchConfig(), H_CAM, frame_id="f")
    errors = compute_offset_errors(m.pair_stats)
    assert errors.x_far == pytest.approx(0.1, abs=1e-9)
    assert errors.x_near == pytest.approx(0.0, abs=1e-9)


def test_offset_errors_z_bias_everywhere():
    gt = lanes_at([-1.75, 1.75])
    pred = [_biased_lane(lane, dz=0.05) for lane in gt]
    m = match_lanes(gt, as_pred(pred), MatchConfig(), H_CAM, frame_id="f")
    errors = compute_offset_errors(m.pair_stats)
    assert errors.z_near == pytest.approx(0.05, abs=1e-9)
    assert errors.z_far == pytest.approx(0.05, abs=1e-9)


def test_fscore_monotone_in_tolerance():
    rng = np.random.default_rng(83)
    gt = lanes_at([-1.75, 1.75, 5.25])
    pred = [_biased_lane(lane, dx_far=float(rng.uniform(0.3, 2.5))) for lane in gt]
    last_f = None
    for tol in (3.0, 1.5, 0.8, 0.4, 0.2):
        cfg = MatchConfig(point_tolerance=tol)
        f = compute_fscore([match_lanes(gt, as_pred(pred), cfg, H_CAM)]).f_score
        if last_f is not None:
            assert f <= last_f + 1e-12
        last_f = f


def _report_for(pred_scenes, gt_scenes, cfg=MatchConfig()):
    preds = [Prediction(frame_id=s.frame_id, camera=s.camera, lanes=s.lanes,
                        probs=[1.0] * len(s.lanes)) for s in pred_scenes]
    return evaluate_frames(gt_scenes, preds, cfg)


def test_evaluate_gt_vs_gt(pose):
    scenes = [generate_scene(RoadSpec(), seed=k, frame_id=f"f{k}") for k in range(3)]
    report = _report_for(scenes, scenes)
    assert report.f_score == 1.0
    assert report.ap == 1.0
    assert report.x_err_near == 0.0 and report.x_err_far == 0.0
    assert report.z_err_near == 0.0 and report.z_err_far == 0.0


def test_evaluate_missing_frames_listed(pose):
    scenes = [generate_scene(RoadSpec(), seed=k, frame_id=f"f{k}") for k in range(2)]
    preds = [Prediction(frame_id="f0", camera=scenes[0].camera,
                        lanes=scenes[0].lanes, probs=[1.0, 1.0])]
    with pytest.raises(InvalidInput, match="f1"):
        evaluate_frames(scenes, preds, MatchConfig())


def _reference_report(gt_scenes, predictions, cfg):
    """Every report field as the protocol states it, by name: at every
    threshold, filter each frame's predictions and match them from scratch,
    then take AP over the sweep and the rest from the best-F threshold."""
    pred_by_frame = {p.frame_id: p for p in predictions}
    sweeps = []
    for threshold in cfg.prob_thresholds:
        matchings = []
        for scene in gt_scenes:
            pred = pred_by_frame[scene.frame_id]
            kept = [(lane, prob) for lane, prob in zip(pred.lanes, pred.probs)
                    if prob >= threshold]
            matchings.append(match_lanes(scene.lanes, kept, cfg,
                                         scene.camera.height_m, scene.frame_id))
        sweeps.append((threshold, compute_fscore(matchings), matchings))
    ap = compute_ap([(fs.precision, fs.recall) for _, fs, _ in sweeps])
    best_threshold, best_fs, best_matchings = max(
        sweeps, key=lambda item: (item[1].f_score, -item[0]))
    all_stats = [s for m in best_matchings for s in m.pair_stats]
    offsets = compute_offset_errors(all_stats)
    return dict(
        f_score=best_fs.f_score, ap=ap, precision=best_fs.precision,
        recall=best_fs.recall, best_threshold=best_threshold,
        x_err_near=offsets.x_near, x_err_far=offsets.x_far,
        z_err_near=offsets.z_near, z_err_far=offsets.z_far,
        empty=offsets.empty,
        matched_pairs=[(m.frame_id, s.gt_id, s.pred_id)
                       for m in best_matchings for s in m.pair_stats],
        pr_curve=[(t, fs.precision, fs.recall) for t, fs, _ in sweeps],
        per_frame=best_matchings)


# Flat-ground y folds back (22.8 m, then 20 m): resampling this lane raises.
FOLDED_LANE = Lane3D(id="folded", points=np.array([[0.0, 10.0, 1.0], [0.0, 20.0, 0.0]]),
                     visibility=np.ones(2, dtype=int))
BELOW_EVERY_THRESHOLD = 0.01


def _mixed_probability_frames(pose):
    """Noisy predictions with per-lane probabilities, some equal to a
    threshold and all at most 0.9; a frame without predictions, one without
    GT, and a folded lane whose probability no threshold keeps."""
    rng = np.random.default_rng(89)
    ys = np.arange(4.0, 101.0, 4.0)
    scenes, preds = [], []
    for k in range(4):
        scene = generate_scene(RoadSpec(), seed=k, frame_id=f"f{k}")
        lanes = [_biased_lane(lane, dx_far=float(rng.uniform(0.0, 2.5)),
                              dz=float(rng.uniform(0.0, 0.3))) for lane in scene.lanes]
        duplicate = _biased_lane(scene.lanes[0], dx_far=0.4)
        lanes.append(Lane3D(id="duplicate", points=duplicate.points,
                            visibility=duplicate.visibility))
        lanes.append(straight_lane("spurious", float(rng.uniform(15.0, 25.0)), ys))
        probs = [float(p) for p in rng.choice([0.05, 0.2, 0.5, 0.62, 0.9], len(lanes))]
        if k == 0:
            lanes.append(FOLDED_LANE)
            probs.append(BELOW_EVERY_THRESHOLD)
        scenes.append(scene)
        preds.append(Prediction(frame_id=scene.frame_id, camera=scene.camera,
                                lanes=lanes, probs=probs))
    no_pred = generate_scene(RoadSpec(), seed=7, frame_id="no_pred")
    scenes.append(no_pred)
    preds.append(Prediction(frame_id="no_pred", camera=pose, lanes=[], probs=[]))
    scenes.append(Scene(frame_id="no_gt", camera=pose, lanes=[]))
    preds.append(Prediction(frame_id="no_gt", camera=pose,
                            lanes=lanes_at([-1.75, 1.75]), probs=[0.3, 0.8]))
    return scenes, preds


@pytest.mark.parametrize("thresholds", [
    MatchConfig().prob_thresholds,
    (0.5, 0.2, 0.97, 0.35, 0.05, 0.8),
])
def test_sweep_equals_per_threshold_reference_on_mixed_probabilities(pose, thresholds):
    scenes, preds = _mixed_probability_frames(pose)
    cfg = MatchConfig(prob_thresholds=thresholds)
    assert max(thresholds) > max(p for pred in preds for p in pred.probs)
    report = evaluate_frames(scenes, preds, cfg)
    # the sweep is not trivial: thresholds change the precision/recall point
    assert len({(p, r) for _, p, r in report.pr_curve}) >= 3
    expected = _reference_report(scenes, preds, cfg)
    assert list(expected) == [f.name for f in dataclasses.fields(report)]
    for name, value in expected.items():
        assert type(getattr(report, name)) is type(value), name
        assert getattr(report, name) == value, name
    assert [(m.frame_id, m.tp) for m in report.per_frame] \
        == [(m.frame_id, len(m.pair_stats)) for m in expected["per_frame"]]


def test_report_is_built_from_its_sweep_and_matchings_alone():
    """Only pr_curve and per_frame are constructor arguments; a best sweep
    point that per_frame does not give is rejected."""
    assert [f.name for f in dataclasses.fields(EvalReport) if f.init] == ["pr_curve", "per_frame"]
    assert [f.name for f in dataclasses.fields(FrameBreakdown) if f.init] \
        == ["frame_id", "fp", "fn", "pair_stats"]
    frames = [FrameBreakdown(frame_id="f", fp=1, fn=0, pair_stats=[])]
    report = EvalReport(pr_curve=[(0.5, 0.0, 0.0), (0.7, 0.0, 0.0)], per_frame=frames)
    assert (report.best_threshold, report.f_score, report.empty) == (0.5, 0.0, True)
    with pytest.raises(InvalidInput, match="the best pr_curve point"):
        EvalReport(pr_curve=[(0.5, 1.0, 1.0)], per_frame=frames)
    for pr_curve in [[], [(0.5,)], [(0.5, 0.0, 0.0, 0.0)]]:
        with pytest.raises(InvalidInput, match="pr_curve must be points"):
            EvalReport(pr_curve=pr_curve, per_frame=frames)


def test_report_reads_back_equal_and_rewrites_byte_identically(tmp_path, pose):
    scenes, preds = _mixed_probability_frames(pose)
    report = evaluate_frames(scenes, preds, MatchConfig())
    assert not report.empty and report.f_score < 1.0
    path, again = tmp_path / "report.json", tmp_path / "again.json"
    write_report(report, path)
    assert read_report(path) == report
    write_report(read_report(path), again)
    assert again.read_bytes() == path.read_bytes()
    # a CLI report with a joint block reads as the report without it, and
    # writes the same bytes with that block put back
    gt, pred, cli = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl", tmp_path / "cli.json"
    write_scenes(scenes, gt)
    write_predictions(preds, pred)
    assert main(["evaluate", str(gt), str(pred), "--out", str(cli), "--joint", str(gt)]) == 0
    doc = json.loads(cli.read_text())
    assert [j["source"] for j in doc["joint"]] == [str(pred), str(gt)]
    back = read_report(cli)
    assert back == evaluate_frames(read_scenes(gt), read_predictions(pred))
    write_json({**back.to_dict(), "joint": doc["joint"]}, again)
    assert again.read_bytes() == cli.read_bytes()


def test_resampling_a_folded_lane_raises():
    with pytest.raises(InvariantViolation, match="fold"):
        resample_flat(FOLDED_LANE, H_CAM, MatchConfig().eval_y_refs)


def test_sweep_resamples_each_lane_once_per_frame(monkeypatch, pose):
    scenes, preds = _mixed_probability_frames(pose)
    real = evaluate_module.resample_flat
    calls = collections.Counter()

    def counting(lane, h_cam, y_refs):
        calls[id(lane)] += 1
        return real(lane, h_cam, y_refs)

    monkeypatch.setattr(evaluate_module, "resample_flat", counting)
    evaluate_frames(scenes, preds, MatchConfig())
    lanes = [lane for s in scenes for lane in s.lanes]
    lanes += [lane for p in preds for lane, prob in zip(p.lanes, p.probs)
              if prob != BELOW_EVERY_THRESHOLD]
    assert dict(calls) == {id(lane): 1 for lane in lanes}


def test_joint_identical_reports_equal_plain(pose):
    scenes = [generate_scene(RoadSpec(), seed=k, frame_id=f"f{k}") for k in range(2)]
    pred = [Scene(frame_id=s.frame_id, camera=s.camera,
                  lanes=[_biased_lane(lane, dx_far=0.2) for lane in s.lanes])
            for s in scenes]
    rep = _report_for(pred, scenes)
    joint = joint_offset_errors([rep, rep])
    for j in joint:
        assert j.x_far == pytest.approx(rep.x_err_far, abs=1e-12)
        assert j.z_far == pytest.approx(rep.z_err_far, abs=1e-12)
        assert not j.empty_intersection


def test_joint_excludes_lane_missed_by_other_method(pose):
    gt = [Scene(frame_id="f0", camera=pose, lanes=lanes_at([-1.75, 1.75]))]
    # method A matches both lanes but with extra far error on lane_1
    pred_a = [Scene(frame_id="f0", camera=pose,
                    lanes=[_biased_lane(gt[0].lanes[0], dx_far=0.1),
                           _biased_lane(gt[0].lanes[1], dx_far=1.0)])]
    # method B only finds lane_0
    pred_b = [Scene(frame_id="f0", camera=pose,
                    lanes=[_biased_lane(gt[0].lanes[0], dx_far=0.1)])]
    rep_a = _report_for(pred_a, gt)
    rep_b = _report_for(pred_b, gt)
    assert rep_a.x_err_far == pytest.approx(0.55, abs=1e-9)
    joint_a, joint_b = joint_offset_errors([rep_a, rep_b])
    assert joint_a.x_far == pytest.approx(0.1, abs=1e-9)   # lane_1 excluded
    assert joint_b.x_far == pytest.approx(0.1, abs=1e-9)


def test_joint_keys_each_lane_by_its_own_frame(pose):
    """The frames share lane ids; only lane_0 of f0 is matched by both. B
    names its predictions apart from the GT: a lane is keyed by its GT id."""
    gt = [Scene(frame_id=f, camera=pose, lanes=lanes_at([-1.75, 1.75])) for f in ("f0", "f1")]
    lanes = gt[0].lanes
    pred_a = [Scene(frame_id="f0", camera=pose, lanes=[_biased_lane(lanes[0], dx_far=0.1)]),
              Scene(frame_id="f1", camera=pose,
                    lanes=[_biased_lane(lane, dx_far=0.5) for lane in lanes])]
    pred_b = [Scene(frame_id="f0", camera=pose,
                    lanes=[_biased_lane(Lane3D(id=f"b_{lane.id}", points=lane.points,
                                               visibility=lane.visibility), dx_far=0.3)
                           for lane in lanes]),
              Scene(frame_id="f1", camera=pose, lanes=[])]
    joint_a, joint_b = joint_offset_errors([_report_for(pred_a, gt), _report_for(pred_b, gt)])
    assert (joint_a.pair_count, joint_b.pair_count) == (1, 1)
    assert joint_a.x_far == pytest.approx(0.1, abs=1e-9)
    assert joint_b.x_far == pytest.approx(0.3, abs=1e-9)


def test_joint_single_report_equals_own_errors(pose):
    scenes = [generate_scene(RoadSpec(), seed=k, frame_id=f"f{k}") for k in range(2)]
    pred = [Scene(frame_id=s.frame_id, camera=s.camera,
                  lanes=[_biased_lane(lane, dx_far=0.3) for lane in s.lanes])
            for s in scenes]
    rep = _report_for(pred, scenes)
    (joint,) = joint_offset_errors([rep])
    assert joint.x_far == pytest.approx(rep.x_err_far, abs=1e-12)
    assert joint.z_far == pytest.approx(rep.z_err_far, abs=1e-12)


def test_joint_disjoint_matches_flagged(pose):
    gt = [Scene(frame_id="f0", camera=pose, lanes=lanes_at([-1.75, 1.75]))]
    pred_a = [Scene(frame_id="f0", camera=pose, lanes=[gt[0].lanes[0]])]
    pred_b = [Scene(frame_id="f0", camera=pose,
                    lanes=[Lane3D(id="lane_1", points=gt[0].lanes[1].points,
                                  visibility=gt[0].lanes[1].visibility)])]
    joint = joint_offset_errors([_report_for(pred_a, gt), _report_for(pred_b, gt)])
    assert all(j.empty_intersection for j in joint)


def test_split_extra_long(pose):
    short = Scene(frame_id="short", camera=pose,
                  lanes=lanes_at([0.0], ys=np.arange(5.0, 101.0, 5.0)))
    reaches = Scene(frame_id="long", camera=pose,
                    lanes=lanes_at([0.0], ys=np.arange(5.0, 201.0, 5.0)))
    kept, refs = split_extra_long([short, reaches])
    assert [s.frame_id for s in kept] == ["long"]
    assert len(refs) == 40
    assert refs[0] == 5.0 and refs[-1] == 200.0
    assert np.allclose(np.diff(refs), 5.0)


def test_split_extra_long_boundary():
    # max y exactly 195 is excluded; 196 is included
    from lane3d.model import CameraPose, Intrinsics
    pose = CameraPose(height_m=H_CAM, pitch_rad=0.0,
                      intrinsics=Intrinsics(1000, 1000, 960, 540, 1920, 1080))
    at_195 = Scene(frame_id="a", camera=pose,
                   lanes=lanes_at([0.0], ys=np.arange(5.0, 196.0, 5.0)))
    at_196 = Scene(frame_id="b", camera=pose,
                   lanes=lanes_at([0.0], ys=np.concatenate([np.arange(5.0, 196.0, 5.0), [196.0]])))
    kept, _ = split_extra_long([at_195, at_196])
    assert [s.frame_id for s in kept] == ["b"]


def test_split_hard_easy(pose):
    flat = Scene(frame_id="flat", camera=pose, lanes=lanes_at([0.0]))
    tall_lane = straight_lane("t", 0.0, [5.0, 10.0], z=[0.0, 1.8])
    tall = Scene(frame_id="tall", camera=pose, lanes=[tall_lane])
    border_lane = straight_lane("b", 0.0, [5.0, 10.0], z=[0.0, 1.78])
    border = Scene(frame_id="border", camera=pose, lanes=[border_lane])
    hard, easy = split_hard_easy([flat, tall, border])
    assert [s.frame_id for s in hard] == ["tall"]
    assert [s.frame_id for s in easy] == ["flat", "border"]


def test_report_round_trip_and_csv(tmp_path, pose):
    scenes = [generate_scene(RoadSpec(), seed=k, frame_id=f"f{k}") for k in range(2)]
    rep = _report_for(scenes, scenes)
    path = tmp_path / "report.json"
    write_report(rep, path)
    back = read_report(path)
    assert back.f_score == rep.f_score and back.ap == rep.ap
    assert back.matched_pairs == rep.matched_pairs
    costs = [p.cost for fb in rep.per_frame for p in fb.pair_stats]
    assert costs and {type(c) for c in costs} == {float}
    assert costs == [p.cost for fb in back.per_frame for p in fb.pair_stats]
    # one writer: a report read back writes the same bytes, and so does the CLI
    again = tmp_path / "again.json"
    write_report(back, again)
    assert again.read_bytes() == path.read_bytes()
    gt = tmp_path / "gt.jsonl"
    write_scenes(scenes, gt)
    cli_path = tmp_path / "cli.json"
    assert main(["evaluate", str(gt), str(gt), "--out", str(cli_path)]) == 0
    write_report(evaluate_frames(read_scenes(gt), read_predictions(gt)), again)
    assert cli_path.read_bytes() == again.read_bytes()
    csv_path = tmp_path / "frames.csv"
    write_report_csv(rep, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "frame_id,tp,fp,fn,x_near,x_far,z_near,z_far"
    assert len(lines) == 3


def test_read_truncated_report_raises_parse_error_naming_it(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"f_score": 1.0,')
    with pytest.raises(ParseError, match="report.json: invalid JSON"):
        read_report(path)
