"""Detection evaluation: min-cost lane matching, F-score/AP, near/far offset
errors, the joint metric, and the dataset splits.

Lanes are resampled at the evaluation y-references on the flat ground plane
(linear interpolation of flat x and of height z against flat y, visibility
interpolated and thresholded at 0.5). A GT/prediction edge is admissible
when its mean pointwise distance is finite (squaring overflows beyond about
1.3e154 m) and at least match_fraction of the co-visible references lie
within point_tolerance; the assignment then maximizes the number of
admissible matches and, among those, minimizes the total mean distance.
Near/far buckets split at y = 40 m: y < 40 is near, y >= 40 is far.

The probability-threshold sweep only changes which predictions a frame
keeps, so each frame's lanes are resampled and its cost and admissibility
tables are built once; the assignment then runs once per distinct
kept-prediction set, on those tables' kept columns.

A report is its matchings, the sweep (pr_curve) and the best-F threshold's
per-frame matchings (per_frame): every other number derives from them, and
it reads back only if each key it writes holds the value it would write.
The report records are written by model._json_form and their numbers read
by model._numbers, so a new number is one dataclass field.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import astuple, dataclass, field
from typing import ClassVar

import numpy as np

from .errors import InvalidInput, located
from .model import (Config, Lane3D, Prediction, Scene, _coerce, _is_utf8, _json_form,
                    _numbers, _same_json, read_json, write_json)
from .projection import resample_flat

DEFAULT_EVAL_Y_REFS = (5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0)
DEFAULT_PROB_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 20))

EXTRA_LONG_MIN_Y = 195.0
EXTRA_LONG_Y_REFS = tuple(float(y) for y in range(5, 201, 5))
HARD_Z_THRESHOLD = 1.78
NEAR_FAR_SPLIT = 40.0   # metres: a reference at y below it is near, else far


@dataclass(frozen=True)
class MatchConfig(Config):
    point_tolerance: ClassVar[float] = 1.5   # metres; both fixed by the Gen-LaneNet
    match_fraction: ClassVar[float] = 0.75   # protocol, so not config keys
    eval_y_refs: tuple = DEFAULT_EVAL_Y_REFS
    prob_thresholds: tuple = DEFAULT_PROB_THRESHOLDS

    def __post_init__(self):
        refs = np.asarray(self.eval_y_refs, dtype=float)
        if refs.size == 0 or not np.all(np.diff(refs) > 0):
            raise InvalidInput("eval_y_refs must be nonempty and strictly increasing")
        if not self.prob_thresholds or not all(0 <= t <= 1 for t in self.prob_thresholds):
            raise InvalidInput("prob_thresholds must be nonempty and within [0, 1]")
        # floats however the config was built, as from_dict gives them, so a
        # report's thresholds read back as written
        object.__setattr__(self, "prob_thresholds", tuple(map(float, self.prob_thresholds)))


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
    """One frame's matching: its counts and its matched pairs, one per tp."""

    frame_id: str
    tp: int = field(init=False)
    fp: int
    fn: int
    pair_stats: list[PairStats] = field(metadata={"json_key": "pairs"})

    def __post_init__(self):
        self.tp = len(self.pair_stats)

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
    with located("GT"):
        gt_rs = [resample_flat(lane, h_cam, refs) for lane in gt]
    with located("prediction"):
        pred_rs = [resample_flat(lane, h_cam, refs) for lane in pred]

    cost = np.full((len(gt), len(pred)), np.inf)
    admissible = np.zeros(cost.shape, dtype=bool)
    for gi, (gx, gz, gvis) in enumerate(gt_rs):
        for pi, (px, pz, pvis) in enumerate(pred_rs):
            covis = gvis & pvis
            if not np.any(covis):
                continue
            d = np.sqrt((gx[covis] - px[covis]) ** 2 + (gz[covis] - pz[covis]) ** 2)
            cost[gi, pi] = mean = float(np.mean(d))
            admissible[gi, pi] = math.isfinite(mean) and \
                float(np.mean(d <= cfg.point_tolerance)) >= cfg.match_fraction
    return _FrameTables(gt=gt, pred=pred, gt_rs=gt_rs, pred_rs=pred_rs,
                        cost=cost, admissible=admissible)


def _match_columns(tables: _FrameTables, cols: list[int], cfg: MatchConfig,
                   frame_id: str) -> FrameBreakdown:
    """Matching against the predictions in columns `cols` (ascending) of the
    frame's tables. Every cost entry is computed independently, so this
    equals matching the kept predictions from scratch."""
    cost = tables.cost[:, cols]
    far = np.asarray(cfg.eval_y_refs, dtype=float) >= NEAR_FAR_SPLIT
    stats = []
    for gi, pi in _assignment(cost, tables.admissible[:, cols]):
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
    return FrameBreakdown(frame_id=frame_id, fp=len(cols) - len(stats),
                          fn=len(tables.gt) - len(stats), pair_stats=stats)


def match_lanes(gt: list[Lane3D], pred: list[tuple[Lane3D, float]],
                cfg: MatchConfig, h_cam: float, frame_id: str = "") -> FrameBreakdown:
    """Min-cost matching between GT and predicted lanes of one frame.

    Predictions arrive as (lane, prob) tuples already filtered at the
    caller's probability threshold; edge cost is the mean pointwise
    flat-ground/height distance over co-visible references.
    """
    with located("frame", frame_id):
        tables = _frame_tables(gt, [lane for lane, _ in pred], cfg, h_cam)
    return _match_columns(tables, list(range(len(pred))), cfg, frame_id)


@dataclass(frozen=True)
class FScore:
    precision: float
    recall: float
    f_score: float


def _f(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def fscore_from_counts(tp: int, fp: int, fn: int) -> FScore:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return FScore(precision=precision, recall=recall, f_score=_f(precision, recall))


def compute_fscore(matchings: list[FrameBreakdown]) -> FScore:
    """Precision/recall/F over matchings computed for one prob threshold."""
    return fscore_from_counts(*(sum(getattr(m, key) for m in matchings)
                                for key in ("tp", "fp", "fn")))


def _best_point(pr_curve) -> int:
    """Index of the sweep point (threshold, precision, recall) of highest F,
    the lowest threshold among ties."""
    return max(range(len(pr_curve)), key=lambda k: (_f(*pr_curve[k][1:]), -pr_curve[k][0]))


def compute_ap(pr_points) -> float:
    """Interpolated average precision from (precision, recall) pairs: the
    area under the monotone precision envelope over recall, from recall 0."""
    pts = sorted((float(r), float(p)) for p, r in pr_points)
    env = itertools.accumulate(reversed([p for _, p in pts]), lambda later, p: max(p, later))
    ap = prev_r = 0.0
    for (r, _), p in zip(pts, list(env)[::-1]):
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
    xn, xf, zn, zf, cn, cf = (sum(getattr(s, key) for s in pair_stats) for key in (
        "x_near_sum", "x_far_sum", "z_near_sum", "z_far_sum", "near_count", "far_count"))
    return OffsetErrors(x_near=xn / cn if cn else 0.0, x_far=xf / cf if cf else 0.0,
                        z_near=zn / cn if cn else 0.0, z_far=zf / cf if cf else 0.0,
                        empty=not pair_stats)


@dataclass
class EvalReport:
    """The sweep and the best threshold's matchings; the other fields derive from them."""

    f_score: float = field(init=False)
    ap: float = field(init=False)
    precision: float = field(init=False)
    recall: float = field(init=False)
    best_threshold: float = field(init=False)
    x_err_near: float = field(init=False)
    x_err_far: float = field(init=False)
    z_err_near: float = field(init=False)
    z_err_far: float = field(init=False)
    empty: bool = field(init=False)
    matched_pairs: list[tuple[str, str, str]] = field(init=False)  # (frame_id, gt, pred)
    pr_curve: list[tuple[float, float, float]]    # (threshold, precision, recall)
    per_frame: list[FrameBreakdown]

    def __post_init__(self):
        if {len(point) for point in self.pr_curve} != {3}:
            raise InvalidInput("pr_curve must be points [threshold, precision, recall]")
        self.best_threshold, precision, recall = self.pr_curve[_best_point(self.pr_curve)]
        fs = compute_fscore(self.per_frame)
        if (fs.precision, fs.recall) != (precision, recall):
            raise InvalidInput(f"per_frame gives (precision, recall) {fs.precision, fs.recall}, "
                               f"the best pr_curve point {precision, recall}")
        self.f_score, self.precision, self.recall = fs.f_score, fs.precision, fs.recall
        self.ap = compute_ap([(p, r) for _, p, r in self.pr_curve])
        self.matched_pairs = [(fb.frame_id, s.gt_id, s.pred_id)
                              for fb in self.per_frame for s in fb.pair_stats]
        self.x_err_near, self.x_err_far, self.z_err_near, self.z_err_far, self.empty = \
            astuple(compute_offset_errors([s for fb in self.per_frame for s in fb.pair_stats]))
        errors = (self.x_err_near, self.x_err_far, self.z_err_near, self.z_err_far)
        if not all(map(math.isfinite, errors)):
            raise InvalidInput(f"offset errors must be finite, got {errors}")

    def to_dict(self) -> dict:
        return _json_form(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """Read to_dict's form back: pr_curve and per_frame are parsed (numbers
        coerced by field type, ids UTF-8 strings), and each key to_dict writes
        must hold in d the JSON value it writes; other keys are ignored."""
        frames = d["per_frame"]
        ids = [fb["frame_id"] for fb in frames] \
            + [p[key] for fb in frames for p in fb["pairs"] for key in ("gt_id", "pred_id")]
        if not all(map(_is_utf8, ids)):
            raise InvalidInput("report ids must be UTF-8 strings")
        report = cls(
            pr_curve=[_coerce("pr_curve", (), t) for t in d["pr_curve"]],
            per_frame=[
                FrameBreakdown(
                    frame_id=fb["frame_id"], **_numbers("frame", fb, FrameBreakdown),
                    pair_stats=[
                        PairStats(gt_id=p["gt_id"], pred_id=p["pred_id"],
                                  **_numbers("pair", p, PairStats))
                        for p in fb["pairs"]
                    ])
                for fb in frames
            ])
        for key, value in report.to_dict().items():
            if not _same_json(d[key], value):
                raise InvalidInput(f"report key {key!r} does not match the value "
                                   "its pr_curve and per_frame give")
        return report


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
        with located("frame", scene.frame_id):
            tables = _frame_tables(scene.lanes, [lane for lane, _ in candidates], cfg,
                                   scene.camera.height_m)
        by_kept = {}
        for threshold, matchings in zip(cfg.prob_thresholds, per_threshold):
            cols = tuple(j for j, (_, prob) in enumerate(candidates) if prob >= threshold)
            if cols not in by_kept:
                by_kept[cols] = _match_columns(tables, list(cols), cfg, scene.frame_id)
            matchings.append(by_kept[cols])

    pr_curve = [(threshold, fs.precision, fs.recall)
                for threshold, fs in zip(cfg.prob_thresholds, map(compute_fscore, per_threshold))]
    return EvalReport(pr_curve=pr_curve, per_frame=per_threshold[_best_point(pr_curve)])


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
    common = set.intersection(*({(f, gt) for f, gt, _ in rep.matched_pairs} for rep in reports))
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
