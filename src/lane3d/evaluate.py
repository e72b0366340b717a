"""Detection evaluation: min-cost lane matching, F-score/AP, near/far offset
errors, the joint metric, and the dataset splits.

Lanes are resampled at the evaluation y-references on the flat ground plane
(linear interpolation of flat x and of height z against flat y, visibility
interpolated and thresholded at 0.5). A GT/prediction edge is admissible
when at least match_fraction of the co-visible references lie within
point_tolerance; the assignment then maximizes the number of admissible
matches and, among those, minimizes the total mean pointwise distance.
Near/far buckets split at y = 40 m: y < 40 is near, y >= 40 is far.

The probability-threshold sweep only changes which predictions a frame
keeps, so each frame's lanes are resampled and its cost and admissibility
tables are built once; the assignment then runs once per distinct
kept-prediction set, on those tables' kept columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import InvalidInput
from .model import (Config, Lane3D, Prediction, Scene, _coerce, _is_utf8, _numbers,
                    read_json, write_json)
from .projection import resample_flat

DEFAULT_EVAL_Y_REFS = (5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0)
DEFAULT_PROB_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 20))

EXTRA_LONG_MIN_Y = 195.0
EXTRA_LONG_Y_REFS = tuple(float(y) for y in range(5, 201, 5))
HARD_Z_THRESHOLD = 1.78


@dataclass(frozen=True)
class MatchConfig(Config):
    point_tolerance: float = 1.5
    match_fraction: float = 0.75
    eval_y_refs: tuple = DEFAULT_EVAL_Y_REFS
    near_far_split: float = 40.0
    prob_thresholds: tuple = DEFAULT_PROB_THRESHOLDS

    def __post_init__(self):
        if self.point_tolerance <= 0:
            raise InvalidInput("point_tolerance must be positive")
        if not 0.0 <= self.match_fraction <= 1.0:
            raise InvalidInput("match_fraction must be within [0, 1]")
        refs = np.asarray(self.eval_y_refs, dtype=float)
        if refs.size == 0 or not np.all(np.diff(refs) > 0):
            raise InvalidInput("eval_y_refs must be nonempty and strictly increasing")
        if not self.prob_thresholds:
            raise InvalidInput("prob_thresholds must be nonempty")


@dataclass
class PairStats:
    """Per-matched-pair offset sums, bucketed near/far, for aggregation and
    for the joint metric's set intersection. Its frame is the FrameBreakdown
    that holds it."""

    gt_id: str
    pred_id: str
    cost: float
    x_near_sum: float
    x_far_sum: float
    z_near_sum: float
    z_far_sum: float
    near_count: int
    far_count: int


@dataclass
class FrameBreakdown:
    """One frame's matching: its counts and its matched pairs."""

    frame_id: str
    tp: int
    fp: int
    fn: int
    pair_stats: list[PairStats] = field(metadata={"json_key": "pairs"})

    @property
    def matches(self) -> list[tuple[str, str, float]]:
        """(GT id, prediction id, cost) of each matched pair."""
        return [(s.gt_id, s.pred_id, s.cost) for s in self.pair_stats]


def _min_cost_assignment(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a square matrix of
    finite costs, by shortest augmenting paths (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016).

    It follows the reference rectangular_lsap solver step for step: rows are
    added in order, the unvisited columns are scanned from the last one, an
    equal-cost free column wins over an assigned one, and the reduced costs
    and duals are updated with the same float operations in the same order,
    so the assignment, ties included, is the reference's (the tests compare
    the two).
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        visited_rows, visited_cols = [], []
        remaining = list(range(n - 1, -1, -1))
        i, sink, min_val = cur, -1, 0.0
        # Dijkstra on reduced costs from row cur to the nearest free column
        while sink == -1:
            visited_rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # update the duals, then augment: each row on the path takes the
        # column after it, up to the free sink
        u[cur] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _assignment(cost: np.ndarray, admissible: np.ndarray) -> list[tuple[int, int]]:
    """Maximize the number of admissible matches, then minimize total cost.

    Realized as an exact assignment solve on a padded square matrix where
    leaving a lane unmatched costs BIG and an inadmissible match costs more
    than two unmatched lanes, so it is never chosen.
    """
    n, m = cost.shape
    if n == 0 or m == 0:
        return []
    big = 1.0 + float(np.sum(cost[admissible])) if np.any(admissible) else 1.0
    size = n + m
    padded = np.zeros((size, size))
    padded[:n, :m] = np.where(admissible, cost, 4.0 * big)
    padded[:n, m:] = big
    padded[n:, :m] = big
    cols = _min_cost_assignment(padded.tolist())
    return [(r, cols[r]) for r in range(n) if cols[r] < m and admissible[r, cols[r]]]


@dataclass
class _FrameTables:
    """Threshold-invariant matching state of one frame: resampled lanes and
    the GT x prediction tables over every candidate prediction."""

    gt: list[Lane3D]
    pred: list[Lane3D]
    gt_rs: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    pred_rs: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    cost: np.ndarray            # mean distance; inf without co-visibility
    admissible: np.ndarray


def _frame_tables(gt: list[Lane3D], pred: list[Lane3D], cfg: MatchConfig,
                  h_cam: float) -> _FrameTables:
    refs = np.asarray(cfg.eval_y_refs, dtype=float)
    gt_rs = [resample_flat(lane, h_cam, refs) for lane in gt]
    pred_rs = [resample_flat(lane, h_cam, refs) for lane in pred]

    cost = np.full((len(gt), len(pred)), np.inf)
    admissible = np.zeros(cost.shape, dtype=bool)
    for gi, (gx, gz, gvis) in enumerate(gt_rs):
        for pi, (px, pz, pvis) in enumerate(pred_rs):
            covis = gvis & pvis
            if not np.any(covis):
                continue
            d = np.sqrt((gx[covis] - px[covis]) ** 2 + (gz[covis] - pz[covis]) ** 2)
            cost[gi, pi] = float(np.mean(d))
            admissible[gi, pi] = float(np.mean(d <= cfg.point_tolerance)) >= cfg.match_fraction
    return _FrameTables(gt=gt, pred=pred, gt_rs=gt_rs, pred_rs=pred_rs,
                        cost=cost, admissible=admissible)


def _match_columns(tables: _FrameTables, cols: list[int], cfg: MatchConfig,
                   frame_id: str) -> FrameBreakdown:
    """Matching against the predictions in columns `cols` (ascending) of the
    frame's tables. Every cost entry is computed independently, so this
    equals matching the kept predictions from scratch."""
    cost = tables.cost[:, cols]
    # an admissible mean distance can overflow to inf; the solver, which
    # would never end on it, reads it as 0 (the pair keeps its inf cost)
    cost_for_solver = np.where(np.isfinite(cost), cost, 0.0)
    far = np.asarray(cfg.eval_y_refs, dtype=float) >= cfg.near_far_split
    stats = []
    for gi, pi in _assignment(cost_for_solver, tables.admissible[:, cols]):
        gx, gz, gvis = tables.gt_rs[gi]
        px, pz, pvis = tables.pred_rs[cols[pi]]
        covis = gvis & pvis
        dx = np.abs(gx - px)
        dz = np.abs(gz - pz)
        near_sel = covis & ~far
        far_sel = covis & far
        stats.append(PairStats(
            gt_id=tables.gt[gi].id, pred_id=tables.pred[cols[pi]].id,
            cost=float(cost[gi, pi]),
            x_near_sum=float(np.sum(dx[near_sel])), x_far_sum=float(np.sum(dx[far_sel])),
            z_near_sum=float(np.sum(dz[near_sel])), z_far_sum=float(np.sum(dz[far_sel])),
            near_count=int(np.sum(near_sel)), far_count=int(np.sum(far_sel))))
    tp = len(stats)
    return FrameBreakdown(frame_id=frame_id, tp=tp, fp=len(cols) - tp,
                          fn=len(tables.gt) - tp, pair_stats=stats)


def match_lanes(gt: list[Lane3D], pred: list[tuple[Lane3D, float]],
                cfg: MatchConfig, h_cam: float, frame_id: str = "") -> FrameBreakdown:
    """Min-cost matching between GT and predicted lanes of one frame.

    Predictions arrive as (lane, prob) tuples already filtered at the
    caller's probability threshold; edge cost is the mean pointwise
    flat-ground/height distance over co-visible references.
    """
    tables = _frame_tables(gt, [lane for lane, _ in pred], cfg, h_cam)
    return _match_columns(tables, list(range(len(pred))), cfg, frame_id)


@dataclass(frozen=True)
class FScore:
    precision: float
    recall: float
    f_score: float


def fscore_from_counts(tp: int, fp: int, fn: int) -> FScore:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return FScore(precision=precision, recall=recall, f_score=f)


def compute_fscore(matchings: list[FrameBreakdown]) -> FScore:
    """Precision/recall/F over matchings computed for one prob threshold."""
    tp = sum(m.tp for m in matchings)
    fp = sum(m.fp for m in matchings)
    fn = sum(m.fn for m in matchings)
    return fscore_from_counts(tp, fp, fn)


def compute_ap(pr_points) -> float:
    """Interpolated average precision from (precision, recall) pairs: the
    area under the monotone precision envelope over recall, from recall 0."""
    pts = sorted(((float(r), float(p)) for p, r in pr_points))
    if not pts:
        return 0.0
    recalls = [r for r, _ in pts]
    precisions = [p for _, p in pts]
    env = precisions[:]
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recalls, env):
        ap += (r - prev_r) * p
        prev_r = r
    return ap


@dataclass(frozen=True)
class OffsetErrors:
    x_near: float
    x_far: float
    z_near: float
    z_far: float
    empty: bool          # no matched pairs contributed


def compute_offset_errors(pair_stats: list[PairStats]) -> OffsetErrors:
    """Mean absolute flat-ground x and height z errors over matched pairs'
    co-visible references; the near/far bucketing was fixed at match time."""
    xn = sum(s.x_near_sum for s in pair_stats)
    xf = sum(s.x_far_sum for s in pair_stats)
    zn = sum(s.z_near_sum for s in pair_stats)
    zf = sum(s.z_far_sum for s in pair_stats)
    cn = sum(s.near_count for s in pair_stats)
    cf = sum(s.far_count for s in pair_stats)
    return OffsetErrors(
        x_near=xn / cn if cn else 0.0,
        x_far=xf / cf if cf else 0.0,
        z_near=zn / cn if cn else 0.0,
        z_far=zf / cf if cf else 0.0,
        empty=not pair_stats)


# default of each number field in a report, by type: from_dict coerces with it
_REPORT_NUMBERS = dict.fromkeys(("f_score", "ap", "precision", "recall", "best_threshold",
                                 "x_err_near", "x_err_far", "z_err_near", "z_err_far"), 0.0)
_FRAME_COUNTS = dict.fromkeys(("tp", "fp", "fn"), 0)
_PAIR_NUMBERS = {**dict.fromkeys(("cost", "x_near_sum", "x_far_sum", "z_near_sum",
                                  "z_far_sum"), 0.0), "near_count": 0, "far_count": 0}


def _json_form(value):
    """A report value in its JSON form: a dataclass becomes an object of its
    fields in declaration order, each under the json_key of its metadata if
    it has one, else under its name; a list or tuple becomes a list;
    anything else is written as it is."""
    if is_dataclass(value):
        return {f.metadata.get("json_key", f.name): _json_form(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_json_form(v) for v in value]
    return value


@dataclass
class EvalReport:
    f_score: float
    ap: float
    precision: float
    recall: float
    best_threshold: float
    x_err_near: float
    x_err_far: float
    z_err_near: float
    z_err_far: float
    empty: bool
    matched_pairs: list[tuple[str, str, str]]     # (frame_id, gt id, pred id)
    pr_curve: list[tuple[float, float, float]]    # (threshold, precision, recall)
    per_frame: list[FrameBreakdown]

    def to_dict(self) -> dict:
        return _json_form(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """Read to_dict's form back; numbers are coerced by field type. Ids must
        be UTF-8 strings and empty a boolean, so that write_report can write it."""
        frames = d["per_frame"]
        if not all(isinstance(t, list) and len(t) == 3 for t in d["matched_pairs"]):
            raise InvalidInput("each matched pair must be a list of three ids")
        ids = [s for t in d["matched_pairs"] for s in t] + [fb["frame_id"] for fb in frames] \
            + [p[key] for fb in frames for p in fb["pairs"] for key in ("gt_id", "pred_id")]
        if not (all(map(_is_utf8, ids)) and isinstance(d["empty"], bool)):
            raise InvalidInput("report ids must be UTF-8 strings and empty true or false")
        per_frame = [
            FrameBreakdown(
                frame_id=fb["frame_id"], **_numbers("frame", fb, _FRAME_COUNTS),
                pair_stats=[
                    PairStats(gt_id=p["gt_id"], pred_id=p["pred_id"],
                              **_numbers("pair", p, _PAIR_NUMBERS))
                    for p in fb["pairs"]
                ])
            for fb in frames
        ]
        return cls(
            **_numbers("report", d, _REPORT_NUMBERS),
            empty=d["empty"],
            matched_pairs=[tuple(t) for t in d["matched_pairs"]],
            per_frame=per_frame,
            pr_curve=[_coerce("pr_curve", (), t) for t in d["pr_curve"]])


def write_report(report: EvalReport, path) -> None:
    write_json(report.to_dict(), path)


def read_report(path) -> EvalReport:
    """Read a report JSON; a malformed report raises a Lane3DError naming
    the path."""
    return read_json(path, EvalReport.from_dict)


def write_report_csv(report: EvalReport, path) -> None:
    """Optional per-frame CSV breakdown; an id holding a comma, a quote or a
    line break is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # the default quoting leaves a bare \r, on which csv.reader splits a row
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(["frame_id", "tp", "fp", "fn", "x_near", "x_far", "z_near", "z_far"])
        for fb in report.per_frame:
            e = compute_offset_errors(fb.pair_stats)
            (quoted if "\r" in fb.frame_id else writer).writerow(
                [fb.frame_id, fb.tp, fb.fp, fb.fn, e.x_near, e.x_far, e.z_near, e.z_far])


def evaluate_frames(gt_scenes: list[Scene], predictions: list[Prediction],
                    cfg: MatchConfig = MatchConfig()) -> EvalReport:
    """Full protocol over aligned frames: sweep the probability thresholds,
    report AP over the sweep and the metrics of the best-F threshold.

    Per frame, the lanes are resampled and the cost tables built once, over
    the predictions kept at the lowest threshold; each threshold keeps the
    columns with prob >= threshold, and the assignment runs once per
    distinct kept set, shared by every threshold that keeps that set.
    """
    pred_by_frame = {p.frame_id: p for p in predictions}
    missing = [s.frame_id for s in gt_scenes if s.frame_id not in pred_by_frame]
    if missing:
        raise InvalidInput(f"predictions missing for frames: {', '.join(missing)}")

    lowest = min(cfg.prob_thresholds)
    per_threshold = [[] for _ in cfg.prob_thresholds]
    for scene in gt_scenes:
        pred = pred_by_frame[scene.frame_id]
        candidates = [(lane, prob) for lane, prob in zip(pred.lanes, pred.probs)
                      if prob >= lowest]
        tables = _frame_tables(scene.lanes, [lane for lane, _ in candidates], cfg,
                               scene.camera.height_m)
        by_kept = {}
        for threshold, matchings in zip(cfg.prob_thresholds, per_threshold):
            cols = tuple(j for j, (_, prob) in enumerate(candidates) if prob >= threshold)
            if cols not in by_kept:
                by_kept[cols] = _match_columns(tables, list(cols), cfg, scene.frame_id)
            matchings.append(by_kept[cols])

    sweeps = [(threshold, compute_fscore(matchings), matchings)
              for threshold, matchings in zip(cfg.prob_thresholds, per_threshold)]
    ap = compute_ap([(fs.precision, fs.recall) for _, fs, _ in sweeps])
    best_threshold, best_fs, best_frames = max(
        sweeps, key=lambda item: (item[1].f_score, -item[0]))

    offsets = compute_offset_errors([s for fb in best_frames for s in fb.pair_stats])
    return EvalReport(
        f_score=best_fs.f_score, ap=ap, precision=best_fs.precision,
        recall=best_fs.recall, best_threshold=best_threshold,
        x_err_near=offsets.x_near, x_err_far=offsets.x_far,
        z_err_near=offsets.z_near, z_err_far=offsets.z_far,
        empty=offsets.empty,
        matched_pairs=[(fb.frame_id, s.gt_id, s.pred_id)
                       for fb in best_frames for s in fb.pair_stats],
        per_frame=best_frames,
        pr_curve=[(t, fs.precision, fs.recall) for t, fs, _ in sweeps])


@dataclass(frozen=True)
class JointErrors:
    x_far: float
    z_far: float
    pair_count: int
    empty_intersection: bool


def joint_offset_errors(reports: list[EvalReport]) -> list[JointErrors]:
    """Far offset errors recomputed on the intersection of GT lanes matched
    by every report; restricted to one report this equals its own errors."""
    if not reports:
        raise InvalidInput("joint metric needs at least one report")
    key_sets = []
    for rep in reports:
        key_sets.append({(fb.frame_id, s.gt_id)
                         for fb in rep.per_frame for s in fb.pair_stats})
    common = set.intersection(*key_sets)
    out = []
    for rep in reports:
        stats = [s for fb in rep.per_frame for s in fb.pair_stats
                 if (fb.frame_id, s.gt_id) in common]
        errors = compute_offset_errors(stats)
        out.append(JointErrors(x_far=errors.x_far, z_far=errors.z_far,
                               pair_count=len(stats), empty_intersection=not common))
    return out


def split_extra_long(scenes: list[Scene]):
    """Scenes reaching beyond 195 m, with the extended 5..200 m reference
    grid (40 references) for evaluating them."""
    kept = [s for s in scenes
            if any(float(np.max(lane.points[:, 1])) > EXTRA_LONG_MIN_Y
                   for lane in s.lanes)]
    return kept, EXTRA_LONG_Y_REFS


def split_hard_easy(scenes: list[Scene], z_threshold: float = HARD_Z_THRESHOLD):
    """Hard scenes contain some lane point with |z| strictly above the
    threshold (default: the camera height of the reference dataset)."""
    if z_threshold <= 0:
        raise InvalidInput("z_threshold must be positive")
    hard, easy = [], []
    for s in scenes:
        is_hard = any(float(np.max(np.abs(lane.z))) > z_threshold for lane in s.lanes)
        (hard if is_hard else easy).append(s)
    return hard, easy
