"""Width distances and the geometry-prior loss on lane pairs.

Width distances follow the flat-ground derivation: D_3D is the plain 3D
Euclidean pair distance, and D_2D is the flat-ground distance of the two
virtual top-view projections weighted by (h_cam - z_mean). When both
endpoints share a height, D_2D equals the 3D width times the camera height
exactly, which is what makes flat-ground width a readable proxy for height.

The geometry-prior loss penalizes the absolute second difference of each
width series along the lane: constant and linearly drifting widths cost
nothing, steps and kinks are charged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .model import Lane3D, PairMap
from .projection import project_virtual_top_xy


@dataclass(eq=False)
class WidthSeries:
    """Per-pair width measurements along one lane, in pair order."""

    d3: np.ndarray    # meters
    d2: np.ndarray    # weighted meters
    mask: np.ndarray  # {0, 1}, AND of endpoint visibilities

    def __post_init__(self):
        self.d3 = np.asarray(self.d3, dtype=float)
        self.d2 = np.asarray(self.d2, dtype=float)
        self.mask = np.asarray(self.mask, dtype=int)
        if not (len(self.d3) == len(self.d2) == len(self.mask)):
            raise InvalidInput("width series must have equal lengths")
        if np.any(self.d3 < 0) or np.any(self.d2 < 0):
            raise InvalidInput("width distances must be nonnegative")

    def __len__(self) -> int:
        return len(self.d3)


def width_series(left: Lane3D, right: Lane3D, pairs: PairMap, h_cam: float) -> WidthSeries:
    """Evaluate D_3D and D_2D for every matched pair, in key order. Raises
    HeightExceedsCamera when a matched point has z >= h_cam."""
    if {pairs.source_id, pairs.target_id} != {left.id, right.id}:
        raise InvalidInput(
            f"pair map connects {pairs.source_id!r}->{pairs.target_id!r}, "
            f"got lanes {left.id!r} and {right.id!r}")
    i, j = pairs.indices(left.id)
    a, b = left.points[i], right.points[j]
    flat = (project_virtual_top_xy(a[:, :2], a[:, 2], h_cam)
            - project_virtual_top_xy(b[:, :2], b[:, 2], h_cam))
    z_mean = 0.5 * (a[:, 2] + b[:, 2])
    return WidthSeries(d3=np.linalg.norm(a - b, axis=1),
                       d2=np.hypot(flat[:, 0], flat[:, 1]) * (h_cam - z_mean),
                       mask=left.visibility[i] & right.visibility[j])


def second_difference_l1(values: np.ndarray, mask: np.ndarray | None = None,
                         weight: float = 1.0) -> tuple[float | np.ndarray, np.ndarray]:
    """Sum of weight * |mask_i * (v[i-1] + v[i+1] - 2 v[i])| over interior i,
    and its subgradient with respect to v (taken as 0 at the |.| kink).

    Works along the last axis: for a stack of series the value is an array
    over the leading axes, and each row equals the 1-D result bit for bit."""
    v = np.ascontiguousarray(values, dtype=float)   # rows reduce as in 1-D
    grad = np.zeros(v.shape)
    if v.shape[-1] < 3:
        value = np.zeros(v.shape[:-1])
    else:
        t = v[..., :-2] + v[..., 2:] - 2.0 * v[..., 1:-1]
        s = weight * np.sign(t)
        if mask is not None:
            m = np.asarray(mask)[..., 1:-1]
            t = t * m
            s = s * m
        grad[..., :-2] += s
        grad[..., 2:] += s
        grad[..., 1:-1] -= 2.0 * s
        value = weight * np.abs(t).sum(axis=-1)
    return (float(value) if v.ndim == 1 else value), grad


def geo_prior_loss(series: WidthSeries, prob: float) -> float:
    """Geometry-prior loss: probability-weighted L1 of the second differences
    of both width series over the visible span. Zero for fewer than 3 pairs."""
    return (second_difference_l1(series.d2, series.mask, prob)[0]
            + second_difference_l1(series.d3, series.mask, prob)[0])


def lifted_width(left_flat: np.ndarray, right_flat: np.ndarray, zl: np.ndarray,
                 zr: np.ndarray, h_cam: float):
    """3D widths of index-aligned flat-ground pairs lifted to heights zl, zr,
    with their derivatives: returns (w3, dw3/dzl, dw3/dzr). Heights may be
    stacks whose last axis runs over the pairs."""
    h = h_cam
    ax, ay = left_flat[:, 0], left_flat[:, 1]
    bx, by = right_flat[:, 0], right_flat[:, 1]
    hl, hr = h - zl, h - zr
    ux = ax * hl / h - bx * hr / h
    uy = ay * hl / h - by * hr / h
    uz = zl - zr
    w3 = np.sqrt(ux * ux + uy * uy + uz * uz)
    inv_w3 = 1.0 / np.maximum(w3, 1e-12)
    dw3_dzl = (-ux * ax / h - uy * ay / h + uz) * inv_w3
    dw3_dzr = (ux * bx / h + uy * by / h - uz) * inv_w3
    return w3, dw3_dzl, dw3_dzr


def geo_prior_of_heights(z: np.ndarray, left_flat: np.ndarray, right_flat: np.ndarray,
                         h_cam: float, prob: float = 1.0,
                         mask: np.ndarray | None = None):
    """Geometry-prior loss as a function of pair heights, with its analytic
    gradient.

    z concatenates the left and right heights of N index-aligned pairs whose
    flat-ground coordinates are fixed; the widths are those of the lifted
    points. The value equals geo_prior_loss on the induced width series. The
    |.|_1 subgradient at zero is taken as 0.
    """
    left_flat = np.asarray(left_flat, dtype=float)
    right_flat = np.asarray(right_flat, dtype=float)
    n = len(left_flat)
    zl, zr = z[:n], z[n:]
    w3, dw3_dzl, dw3_dzr = lifted_width(left_flat, right_flat, zl, zr, h_cam)
    d_flat = np.hypot(left_flat[:, 0] - right_flat[:, 0], left_flat[:, 1] - right_flat[:, 1])
    w2 = d_flat * (h_cam - 0.5 * (zl + zr))

    v3, g_w3 = second_difference_l1(w3, mask, prob)
    v2, g_w2 = second_difference_l1(w2, mask, prob)
    grad = np.concatenate([g_w3 * dw3_dzl - 0.5 * g_w2 * d_flat,
                           g_w3 * dw3_dzr - 0.5 * g_w2 * d_flat])
    return v3 + v2, grad


def grad_check(loss_fn, point, eps: float = 1e-6) -> float:
    """Compare an analytic gradient against central finite differences.

    loss_fn maps a flat parameter vector to (value, gradient). Returns the
    maximum over coordinates of |analytic - numeric| / max(|analytic|,
    |numeric|, 1e-8).
    """
    x = np.asarray(point, dtype=float)
    _, analytic = loss_fn(x)
    analytic = np.asarray(analytic, dtype=float)
    worst = 0.0
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = eps
        f_plus, _ = loss_fn(x + step)
        f_minus, _ = loss_fn(x - step)
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic.flat[i])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
