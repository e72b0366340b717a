"""2D-to-3D lane reconstruction from flat-ground (virtual top view) lanes.

The width-ratio closed form inverts the flat-ground width formula
D_flat = h / (h - z) * c: a pair of boundary points sharing a height and a
known true width c gives z = h * (1 - c / D_flat) exactly.

The iterative solver refines per-point heights for a pair of boundaries by
gradient descent on

    J(z) = sum_pairs (w3(z) - c_hat)^2 + lambda_geo * 5h * sum |second diff of z|

where w3 is a pair's lifted width, c_hat the median near-range flat width
(the least distorted part of the lane), and the L1 sum runs over each
boundary's height profile, weighted by _Z_SERIES_WEIGHT * h = 5h. The height
profiles are where the prior can average out measurement noise across
neighboring pairs; the width series themselves are exactly constant wherever
the data term is satisfied, so penalizing them adds no information (see
pair_objective). Descent starts at the closed form and uses a backtracking
line search, so the objective never increases across accepted steps.

Descent starts with step 0.05 and stops at the first of three rules: no step
of 20 halvings lowers J ("no_descent"); an accepted step moves no height by
10 micrometres or more ("step"); or 400 accepted steps ("max_iters"). The
step rule ends the slow crawl the L1 prior causes on noisy pairs, where
hundreds of tiny steps each still lower J but move the heights by
millimetres in total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePair, InvalidInput, InvariantViolation, NoPairing
from .losses import lifted_width, second_difference_l1
from .model import Config, Lane2D, Lane3D
from .pairing import DEFAULT_PAIRING, PairingConfig, match_point_pairs
from .projection import lift_from_virtual_top_xy

_MIN_FLAT_WIDTH = 1e-9
_Z_CLAMP_MARGIN = 1e-6
_NEAR_RANGE_PAIRS = 3
_Z_SERIES_WEIGHT = 5.0   # height-profile penalty scale, in camera heights
_STEP = 0.05             # initial and largest descent step
_MAX_ITERS = 400         # accepted steps before the descent stops
_MAX_HALVINGS = 20       # line-search step halvings before the descent stops
_MIN_Z_STEP = 1e-5       # metres: an accepted step moving no height this far ends descent
STOP_REASONS = ("no_descent", "step", "max_iters")
LANE_STATUSES = ("ok", "no_pairing", "folded")


def closed_form_heights(d_flat: np.ndarray, true_width: float, h_cam: float) -> np.ndarray:
    """Vectorized width-ratio inversion: z = h * (1 - c / D_flat)."""
    d = np.asarray(d_flat, dtype=float)
    if np.any(d <= _MIN_FLAT_WIDTH):
        raise DegeneratePair("flat pair distance too small to carry width information")
    if true_width <= 0:
        raise InvalidInput("true_width must be positive")
    return h_cam * (1.0 - true_width / d)


@dataclass(frozen=True)
class SolveOptions(Config):
    lambda_geo: float = 1e-2
    pairing: PairingConfig = DEFAULT_PAIRING

    def __post_init__(self):
        if self.lambda_geo < 0:
            raise InvalidInput("lambda_geo must be nonnegative")


@dataclass
class _PairContext:
    """Fixed data for one boundary-pair solve; z is the only variable."""

    a: np.ndarray           # (M, 2) flat coords of matched left points
    b: np.ndarray           # (M, 2) flat coords of matched right points
    i_idx: np.ndarray       # matched indices into the left boundary
    j_idx: np.ndarray       # matched indices into the right boundary
    n_left: int
    c_hat: float
    h_cam: float
    lambda_geo: float


def pair_objective(z: np.ndarray, ctx: _PairContext):
    """Objective and analytic gradient for one boundary-pair solve.

    z concatenates the left boundary's heights then the right's, along the
    last axis: a (K, n) stack of height vectors gives K values and a (K, n)
    gradient, each row equal bit for bit to the 1-D call on that row.
    """
    h = ctx.h_cam
    zl = z[..., :ctx.n_left]
    zr = z[..., ctx.n_left:]
    # take keeps each row contiguous (fancy indexing on the last axis would
    # not), so the row sums below reduce in the same order as in 1-D
    w3, dw3_dzi, dw3_dzj = lifted_width(ctx.a, ctx.b, zl.take(ctx.i_idx, axis=-1),
                                        zr.take(ctx.j_idx, axis=-1), h)

    r = w3 - ctx.c_hat
    value = (r * r).sum(axis=-1)
    gl = np.zeros(zl.shape)
    gr = np.zeros(zr.shape)
    # matched indices never repeat, so adding through them equals np.add.at;
    # the transposes index the last axis of a stack of any depth
    gl.T[ctx.i_idx] += (2.0 * r * dw3_dzi).T
    gr.T[ctx.j_idx] += (2.0 * r * dw3_dzj).T

    lam = ctx.lambda_geo
    if lam > 0:
        # Second-difference L1 on the height profiles. The width series
        # themselves are exactly constant everywhere the data term is
        # satisfied, so penalizing their second differences carries no
        # smoothing signal; worse, their L1 kink at zero rejects every
        # descent step under a backtracking line search. The height
        # profiles are where pair noise shows up, and their local
        # smoothness is the relaxation the width prior rests on. An L1
        # penalty here acts as a trend filter: on a smooth noise-free
        # profile the constant-sign runs telescope to a near-zero
        # gradient, while alternating noise signs fire it everywhere.
        weight = _Z_SERIES_WEIGHT * h
        vl, gzl = second_difference_l1(zl)
        vr, gzr = second_difference_l1(zr)
        value += lam * weight * (vl + vr)
        gl += lam * weight * gzl
        gr += lam * weight * gzr

    return (float(value) if z.ndim == 1 else value), np.concatenate([gl, gr], axis=-1)


def _fill_unmatched(n: int, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-point init: matched points take their pair's height, the rest
    interpolate between matched neighbors (edge values extended)."""
    return np.interp(np.arange(n), idx, values)


@dataclass
class PairSolve:
    z_left: np.ndarray
    z_right: np.ndarray
    iters: int
    stop: str            # one of STOP_REASONS
    clamped_left: bool
    clamped_right: bool
    trace: list = field(default_factory=list)   # (iter, J, step) rows


def prepare_pair(left: Lane2D, right: Lane2D, h_cam: float,
                 opts: SolveOptions = SolveOptions()):
    """Match a boundary pair and build the solve context plus the closed-form
    initial heights; raises NoPairing when the matcher rejects the pair."""
    pm = match_point_pairs(left, right, opts.pairing)
    if pm is None:
        raise NoPairing(f"width jump rejected pairing of {left.id!r} and {right.id!r}")

    i_idx, j_idx = pm.indices(left.id)
    a = left.points[i_idx]
    b = right.points[j_idx]
    d_flat = np.linalg.norm(a - b, axis=1)
    c_hat = float(np.median(d_flat[:_NEAR_RANGE_PAIRS]))

    z0 = closed_form_heights(d_flat, c_hat, h_cam)
    ctx = _PairContext(a=a, b=b, i_idx=i_idx, j_idx=j_idx, n_left=len(left), c_hat=c_hat,
                       h_cam=h_cam, lambda_geo=opts.lambda_geo)
    z_init = np.concatenate([_fill_unmatched(len(left), i_idx, z0),
                             _fill_unmatched(len(right), j_idx, z0)])
    return ctx, z_init


def solve_boundary_pair(left: Lane2D, right: Lane2D, h_cam: float,
                        opts: SolveOptions = SolveOptions()) -> PairSolve:
    """Solve one adjacent boundary pair; raises NoPairing when the matcher
    rejects the pair and InvalidInput when J is not finite at the closed form,
    so the descent never runs on NaN. The result's stop field says which rule
    ended the descent (see the module docstring)."""
    ctx, z = prepare_pair(left, right, h_cam, opts)

    value, grad = pair_objective(z, ctx)
    if not np.isfinite(value):
        raise InvalidInput(f"objective of {left.id!r} and {right.id!r} is not finite")
    step = _STEP
    trace = [(0, value, step)]
    stop = "max_iters"
    for it in range(1, _MAX_ITERS + 1):
        trial = z - step * grad
        trial_value, trial_grad = pair_objective(trial, ctx)
        backtracked = trial_value > value
        if backtracked:
            # Backtracking: evaluate step/2, step/4, ... (each the previous
            # one halved, as a halving loop computes them) in one batched
            # call and take the first that does not increase J; a NaN value
            # counts as not increasing, as it does for the first trial.
            steps = np.multiply.accumulate([step] + [0.5] * _MAX_HALVINGS)[1:]
            trials = z - steps[:, None] * grad
            values, grads = pair_objective(trials, ctx)
            accepted = np.flatnonzero(~(values > value))
            if len(accepted) == 0:
                stop = "no_descent"   # no descent left at the smallest step
                break
            k = int(accepted[0])
            step = float(steps[k])
            trial, trial_value, trial_grad = trials[k], float(values[k]), grads[k]
        moved = float(np.max(np.abs(trial - z)))
        z, value, grad = trial, trial_value, trial_grad
        trace.append((it, value, step))
        if moved < _MIN_Z_STEP:
            stop = "step"
            break
        if not backtracked:
            step = min(step * 1.25, _STEP)

    limit = h_cam - _Z_CLAMP_MARGIN
    zl, zr = z[:len(left)], z[len(left):]
    clamped_left = bool(np.any(zl > limit))
    clamped_right = bool(np.any(zr > limit))
    return PairSolve(z_left=np.minimum(zl, limit), z_right=np.minimum(zr, limit),
                     iters=len(trace) - 1, stop=stop,
                     clamped_left=clamped_left, clamped_right=clamped_right, trace=trace)


@dataclass(slots=True)
class LaneSolve:
    """One input boundary's outcome."""
    id: str
    status: str = "no_pairing"           # one of LANE_STATUSES
    clamped: bool = False                # any z clamped below h_cam
    z: np.ndarray | None = None          # heights averaged over its solved pairs
    lane: Lane3D | None = None           # the lifted lane, unless unpaired or folded


@dataclass(slots=True)
class PairStop:
    stop: str                            # one solved pair's PairSolve.stop
    trace: list                          # and its trace; the heights live in LaneSolve.z


@dataclass
class FrameSolve:
    boundaries: list[LaneSolve]          # one per input boundary, input order
    pairs: list[PairStop]                # one per solved pair, left to right
    lanes: list[Lane3D] = field(init=False)               # lifted lanes, input order
    statuses: dict[str, str] = field(init=False)          # lane id -> status
    clamped: dict[str, bool] = field(init=False)          # lane id -> clamped
    z_by_lane: dict[str, np.ndarray] = field(init=False)  # lane id -> z, solved lanes
    traces: list = field(init=False)                      # each pair's trace

    def __post_init__(self):
        self.lanes = [b.lane for b in self.boundaries if b.lane is not None]
        self.statuses = {b.id: b.status for b in self.boundaries}
        self.clamped = {b.id: b.clamped for b in self.boundaries}
        self.z_by_lane = {b.id: b.z for b in self.boundaries if b.z is not None}
        self.traces = [p.trace for p in self.pairs]


def solve_frame(flat_lanes: list[Lane2D], h_cam: float,
                opts: SolveOptions = SolveOptions()) -> FrameSolve:
    """Reconstruct every boundary of a frame.

    Boundaries are sorted by lateral position and solved as consecutive
    adjacent pairs; a boundary shared by two pairs averages its two height
    profiles. Boundaries left without any accepted pairing get status
    "no_pairing". Noisy height estimates can fold the lifted polyline
    (lifted y is flat y scaled by (h - z)/h); such lanes keep their solved
    heights in z but are reported as "folded" and get no lane rather than
    being silently re-sorted.
    """
    order = sorted(range(len(flat_lanes)),
                   key=lambda k: float(np.mean(flat_lanes[k].points[:, 0])))
    boundaries = [LaneSolve(id=lane.id) for lane in flat_lanes]
    pairs = []
    for a_pos, b_pos in zip(order, order[1:]):
        try:
            res = solve_boundary_pair(flat_lanes[a_pos], flat_lanes[b_pos], h_cam, opts)
        except (NoPairing, InvalidInput, DegeneratePair):
            continue
        for rec, z, clamped in ((boundaries[a_pos], res.z_left, res.clamped_left),
                                (boundaries[b_pos], res.z_right, res.clamped_right)):
            rec.z = z if rec.z is None else np.mean([rec.z, z], axis=0)
            rec.clamped = rec.clamped or clamped
            rec.status = "ok"
        pairs.append(PairStop(stop=res.stop, trace=res.trace))

    for lane, rec in zip(flat_lanes, boundaries):
        if rec.z is None:
            continue
        points = lift_from_virtual_top_xy(lane.points, rec.z, h_cam)
        try:
            rec.lane = Lane3D(id=lane.id, points=points, visibility=lane.visibility)
        except InvariantViolation:
            rec.status = "folded"
    return FrameSolve(boundaries=boundaries, pairs=pairs)
