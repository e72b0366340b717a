"""Dependency-free SVG figures: top-view and height-profile lane panels with
GT in blue and predictions in red, plus a metric bar chart for reports. Each
figure is built as SVG text, the bytes ElementTree would write for it."""

from __future__ import annotations

import math

import numpy as np

from .evaluate import EvalReport
from .model import Lane3D, Scene

GT_COLOR = "#1f4fd8"    # blue
PRED_COLOR = "#d82f2f"  # red

_PANEL_W = 420.0
_PANEL_H = 420.0
_MARGIN = 45.0


def _axis_range(values, pad_frac=0.08, min_span=1.0):
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi - lo < min_span:
        mid = 0.5 * (lo + hi)
        lo, hi = mid - min_span / 2, mid + min_span / 2
        if lo == hi:   # past |mid| ~ 1e16 the widening is below the float spacing
            lo, hi = mid - math.ulp(mid), mid + math.ulp(mid)
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


def _scale(v, lo, hi, out_lo, out_hi):
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def _text(x, y, font_size, text, middle=True) -> str:
    """A <text> element; its text is escaped as ElementTree escapes character data."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    anchor = ' text-anchor="middle"' if middle else ""
    return f'<text x="{x}" y="{y}"{anchor} font-size="{font_size}">{text}</text>'


def _polyline(xs, ys, color, series, dashed=False) -> str:
    xy = np.column_stack([xs, ys]).ravel().tolist()
    pts = ("%.2f,%.2f " * len(xs) % tuple(xy))[:-1]
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2" '
            f'class="series-{series}"{dash} />')


def _panel(x0, title, lanes_by_series, value_fn, y_label) -> str:
    """One panel: value_fn(lane) -> (horizontal values, vertical values)."""
    parts = [f'<g transform="translate({x0},0)">',
             f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_PANEL_W - 2 * _MARGIN}" '
             f'height="{_PANEL_H - 2 * _MARGIN}" fill="none" stroke="#888" stroke-width="1" />',
             _text(_PANEL_W / 2, 25, 15, title),
             _text(12, _PANEL_H / 2, 12, y_label, middle=False)]
    series_data = [(series, *value_fn(lane), color, dashed)
                   for series, lanes, color, dashed in lanes_by_series
                   for lane in lanes]
    if series_data:
        h_lo, h_hi = _axis_range(np.concatenate([h for _, h, _, _, _ in series_data]))
        v_lo, v_hi = _axis_range(np.concatenate([v for _, _, v, _, _ in series_data]))
        parts += [_polyline(_scale(h, h_lo, h_hi, _MARGIN, _PANEL_W - _MARGIN),
                            _scale(v, v_lo, v_hi, _PANEL_H - _MARGIN, _MARGIN),
                            color, series, dashed)
                  for series, h, v, color, dashed in series_data]
    return "".join(parts) + "</g>"


def _svg(width, body) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{_PANEL_H}">'
            f'{body}</svg>')


def render_scene_svg(scene: Scene, pred_lanes: list[Lane3D] | None = None) -> str:
    """Two panels per frame: top view (x over y) and height profile (z over y)."""
    series = [("gt", scene.lanes, GT_COLOR, False)]
    if pred_lanes:
        series.append(("pred", pred_lanes, PRED_COLOR, True))
    top = _panel(0.0, f"{scene.frame_id}: top view", series,
                 lambda lane: (lane.points[:, 0], lane.points[:, 1]), "x-y [m]")
    profile = _panel(_PANEL_W, f"{scene.frame_id}: height profile", series,
                     lambda lane: (lane.points[:, 1], lane.points[:, 2]), "z-y [m]")
    return _svg(2 * _PANEL_W, top + profile)


def render_report_svg(report: EvalReport) -> str:
    """Summary bar chart of the report's offset errors plus F/AP header."""
    parts = [_text(_PANEL_W / 2, 25, 15, f"F={report.f_score:.3f}  AP={report.ap:.3f}  "
                                         f"thr={report.best_threshold:.2f}")]
    bars = [
        ("x near", report.x_err_near), ("x far", report.x_err_far),
        ("z near", report.z_err_near), ("z far", report.z_err_far),
    ]
    top = max(max(v for _, v in bars), 1e-6)
    slot = (_PANEL_W - 2 * _MARGIN) / len(bars)
    for i, (name, value) in enumerate(bars):
        height = (value / top) * (_PANEL_H - 2 * _MARGIN - 30)
        x = _MARGIN + i * slot + slot * 0.2
        y = _PANEL_H - _MARGIN - height
        fill = PRED_COLOR if "far" in name else GT_COLOR
        parts += [f'<rect x="{x:.2f}" y="{y:.2f}" width="{slot * 0.6:.2f}" '
                  f'height="{height:.2f}" fill="{fill}" class="metric-bar" />',
                  _text(f"{x + slot * 0.3:.2f}", _PANEL_H - _MARGIN + 16, 11, name),
                  _text(f"{x + slot * 0.3:.2f}", f"{y - 5:.2f}", 10, f"{value:.3g}")]
    return _svg(_PANEL_W, "".join(parts))


def write_svg(svg: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("<?xml version='1.0' encoding='utf-8'?>\n" + svg)
