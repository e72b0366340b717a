"""Greedy sliding-window matching of point pairs between two lane boundaries.

The matcher seeds at the middle of the shorter boundary, finds its partner
within +/- window of the same-y index on the longer boundary, then walks
backward and forward with a window anchored at the previous match. A pair
whose width jumps by more than the threshold against the previously matched
width rejects the whole pairing (returned as None, mirroring a NULL result):
lane width may drift gradually but not step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .model import Lane2D, Lane3D, PairMap


@dataclass(frozen=True)
class PairingConfig:
    window: int = 2                      # sliding-window half width
    width_jump_threshold: float = 1.0    # meters

    def __post_init__(self):
        if self.window < 1:
            raise InvalidInput("pairing window must be >= 1")
        if self.width_jump_threshold <= 0:
            raise InvalidInput("width_jump_threshold must be positive")


DEFAULT_PAIRING = PairingConfig()


def _windowed_argmin(p: list, pts: list, lo: int, hi: int) -> tuple[int, float]:
    """Best index in [lo, hi] by Euclidean distance over every coordinate;
    ties go to the smaller index. The squares are summed in column order,
    as np.linalg.norm(axis=1) sums them, so distances match it bit for bit."""
    best, best_d = lo, math.inf
    for j in range(lo, hi + 1):
        s = 0.0
        for a, b in zip(p, pts[j]):
            d = b - a
            s += d * d
        dist = math.sqrt(s)
        if dist < best_d:
            best, best_d = j, dist
    return best, best_d


def match_point_pairs(l1: Lane2D | Lane3D, l2: Lane2D | Lane3D,
                      cfg: PairingConfig = DEFAULT_PAIRING):
    """Match point pairs between two boundaries; returns a PairMap keyed on
    the shorter boundary, or None when a local width jump rejects the pair.

    The result is independent of argument order: the shorter boundary always
    drives, with the smaller lane id breaking length ties.
    """
    if len(l1) < 3 or len(l2) < 3:
        raise InvalidInput("point-pair matching needs at least 3 points per boundary")
    if (len(l1), l1.id) > (len(l2), l2.id):
        l1, l2 = l2, l1

    n1, n2 = len(l1), len(l2)
    eta = cfg.window

    mid1 = n1 // 2
    same_y = int(np.argmin(np.abs(l2.points[:, 1] - l1.points[mid1, 1])))
    pts1, pts2 = l1.points.tolist(), l2.points.tolist()
    lo, hi = max(0, same_y - eta), min(n2 - 1, same_y + eta)
    mid2, seed_width = _windowed_argmin(pts1[mid1], pts2, lo, hi)

    pairs = {mid1: mid2}
    # backward with window [prev - eta, prev - 1], then forward with [prev + 1, prev + eta]
    for step, dlo, dhi, end in ((-1, -eta, -1, -1), (1, 1, eta, n1)):
        prev, prev_width = mid2, seed_width
        for i in range(mid1 + step, end, step):
            lo, hi = max(0, prev + dlo), min(n2 - 1, prev + dhi)
            if hi < lo:
                break
            j, width = _windowed_argmin(pts1[i], pts2, lo, hi)
            if abs(width - prev_width) > cfg.width_jump_threshold:
                return None
            pairs[i] = j
            prev, prev_width = j, width

    return PairMap(pairs=dict(sorted(pairs.items())), source_id=l1.id, target_id=l2.id)

