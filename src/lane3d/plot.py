"""Dependency-free SVG figures: top-view and height-profile lane panels with
GT in blue and predictions in red, plus a metric bar chart for reports."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

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


def _polyline(parent, xs, ys, color, series, dashed=False):
    xy = np.column_stack([xs, ys]).ravel().tolist()
    pts = ("%.2f,%.2f " * len(xs) % tuple(xy))[:-1]
    attrs = {"points": pts, "fill": "none", "stroke": color, "stroke-width": "2",
             "class": f"series-{series}"}
    if dashed:
        attrs["stroke-dasharray"] = "6,4"
    ET.SubElement(parent, "polyline", attrs)


def _panel(svg, x0, title, lanes_by_series, value_fn, y_label):
    """One panel: value_fn(lane) -> (horizontal values, vertical values)."""
    group = ET.SubElement(svg, "g", {"transform": f"translate({x0},0)"})
    ET.SubElement(group, "rect", {
        "x": str(_MARGIN), "y": str(_MARGIN),
        "width": str(_PANEL_W - 2 * _MARGIN), "height": str(_PANEL_H - 2 * _MARGIN),
        "fill": "none", "stroke": "#888", "stroke-width": "1"})
    text = ET.SubElement(group, "text", {"x": str(_PANEL_W / 2), "y": "25",
                                         "text-anchor": "middle", "font-size": "15"})
    text.text = title
    label = ET.SubElement(group, "text", {"x": "12", "y": str(_PANEL_H / 2),
                                          "font-size": "12"})
    label.text = y_label

    series_data = [(series, *value_fn(lane), color, dashed)
                   for series, lanes, color, dashed in lanes_by_series
                   for lane in lanes]
    if not series_data:
        return
    h_lo, h_hi = _axis_range(np.concatenate([h for _, h, _, _, _ in series_data]))
    v_lo, v_hi = _axis_range(np.concatenate([v for _, _, v, _, _ in series_data]))
    for series, h, v, color, dashed in series_data:
        _polyline(group, _scale(h, h_lo, h_hi, _MARGIN, _PANEL_W - _MARGIN),
                  _scale(v, v_lo, v_hi, _PANEL_H - _MARGIN, _MARGIN), color, series, dashed)


def render_scene_svg(scene: Scene, pred_lanes: list[Lane3D] | None = None) -> ET.Element:
    """Two panels per frame: top view (x over y) and height profile (z over y)."""
    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(2 * _PANEL_W), "height": str(_PANEL_H)})
    series = [("gt", scene.lanes, GT_COLOR, False)]
    if pred_lanes:
        series.append(("pred", pred_lanes, PRED_COLOR, True))
    _panel(svg, 0.0, f"{scene.frame_id}: top view",
           series, lambda lane: (lane.points[:, 0], lane.points[:, 1]), "x-y [m]")
    _panel(svg, _PANEL_W, f"{scene.frame_id}: height profile",
           series, lambda lane: (lane.points[:, 1], lane.points[:, 2]), "z-y [m]")
    return svg


def render_report_svg(report: EvalReport) -> ET.Element:
    """Summary bar chart of the report's offset errors plus F/AP header."""
    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(_PANEL_W), "height": str(_PANEL_H)})
    header = ET.SubElement(svg, "text", {"x": str(_PANEL_W / 2), "y": "25",
                                         "text-anchor": "middle", "font-size": "15"})
    header.text = (f"F={report.f_score:.3f}  AP={report.ap:.3f}  "
                   f"thr={report.best_threshold:.2f}")
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
        ET.SubElement(svg, "rect", {
            "x": f"{x:.2f}", "y": f"{y:.2f}",
            "width": f"{slot * 0.6:.2f}", "height": f"{height:.2f}",
            "fill": PRED_COLOR if "far" in name else GT_COLOR,
            "class": "metric-bar"})
        label = ET.SubElement(svg, "text", {
            "x": f"{x + slot * 0.3:.2f}", "y": str(_PANEL_H - _MARGIN + 16),
            "text-anchor": "middle", "font-size": "11"})
        label.text = name
        val = ET.SubElement(svg, "text", {
            "x": f"{x + slot * 0.3:.2f}", "y": f"{y - 5:.2f}",
            "text-anchor": "middle", "font-size": "10"})
        val.text = f"{value:.3g}"
    return svg


def write_svg(element: ET.Element, path) -> None:
    ET.ElementTree(element).write(path, encoding="unicode", xml_declaration=True)
