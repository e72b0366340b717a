"""Figures must be byte-identical to the ElementTree renderers kept below as
the reference: the axis ranges, the scaling expression, the "%.2f" point
format and the escaping of a frame id may not change a single character of
any figure."""

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane3d import plot
from lane3d.cli import main
from lane3d.evaluate import EvalReport, FrameBreakdown, PairStats, read_report
from lane3d.model import CameraPose, Intrinsics, Lane3D, Scene

from conftest import H_CAM, straight_lane

POSE = CameraPose(height_m=H_CAM, pitch_rad=0.0,
                  intrinsics=Intrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0,
                                        width_px=1920, height_px=1080))


# --- reference: the per-point ElementTree renderer --------------------------

def _ref_axis_range(values, pad_frac=0.08, min_span=1.0):
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi - lo < min_span:
        mid = 0.5 * (lo + hi)
        lo, hi = mid - min_span / 2, mid + min_span / 2
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


def _ref_scale(v, lo, hi, out_lo, out_hi):
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def _ref_polyline(parent, xs, ys, color, series, dashed=False):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    attrs = {"points": pts, "fill": "none", "stroke": color, "stroke-width": "2",
             "class": f"series-{series}"}
    if dashed:
        attrs["stroke-dasharray"] = "6,4"
    ET.SubElement(parent, "polyline", attrs)


def _ref_panel(svg, x0, title, lanes_by_series, value_fn, y_label):
    W, H, M = plot._PANEL_W, plot._PANEL_H, plot._MARGIN
    group = ET.SubElement(svg, "g", {"transform": f"translate({x0},0)"})
    ET.SubElement(group, "rect", {
        "x": str(M), "y": str(M), "width": str(W - 2 * M), "height": str(H - 2 * M),
        "fill": "none", "stroke": "#888", "stroke-width": "1"})
    text = ET.SubElement(group, "text", {"x": str(W / 2), "y": "25",
                                         "text-anchor": "middle", "font-size": "15"})
    text.text = title
    label = ET.SubElement(group, "text", {"x": "12", "y": str(H / 2), "font-size": "12"})
    label.text = y_label
    all_h, all_v = [], []
    series_data = []
    for series, lanes, color, dashed in lanes_by_series:
        for lane in lanes:
            h, v = value_fn(lane)
            all_h.extend(h)
            all_v.extend(v)
            series_data.append((series, h, v, color, dashed))
    if not all_h:
        return
    h_lo, h_hi = _ref_axis_range(np.array(all_h))
    v_lo, v_hi = _ref_axis_range(np.array(all_v))
    for series, h, v, color, dashed in series_data:
        xs = [_ref_scale(x, h_lo, h_hi, M, W - M) for x in h]
        ys = [_ref_scale(y, v_lo, v_hi, H - M, M) for y in v]
        _ref_polyline(group, xs, ys, color, series, dashed)


def _ref_render_scene_svg(scene, pred_lanes=None):
    svg = ET.Element("svg", {"xmlns": "http://www.w3.org/2000/svg",
                             "width": str(2 * plot._PANEL_W), "height": str(plot._PANEL_H)})
    series = [("gt", scene.lanes, plot.GT_COLOR, False)]
    if pred_lanes:
        series.append(("pred", pred_lanes, plot.PRED_COLOR, True))
    _ref_panel(svg, 0.0, f"{scene.frame_id}: top view",
               series, lambda lane: (lane.points[:, 0], lane.points[:, 1]), "x-y [m]")
    _ref_panel(svg, plot._PANEL_W, f"{scene.frame_id}: height profile",
               series, lambda lane: (lane.points[:, 1], lane.points[:, 2]), "z-y [m]")
    return svg


def _ref_render_report_svg(report):
    W, H, M = plot._PANEL_W, plot._PANEL_H, plot._MARGIN
    svg = ET.Element("svg", {"xmlns": "http://www.w3.org/2000/svg",
                             "width": str(W), "height": str(H)})
    header = ET.SubElement(svg, "text", {"x": str(W / 2), "y": "25",
                                         "text-anchor": "middle", "font-size": "15"})
    header.text = (f"F={report.f_score:.3f}  AP={report.ap:.3f}  "
                   f"thr={report.best_threshold:.2f}")
    bars = [("x near", report.x_err_near), ("x far", report.x_err_far),
            ("z near", report.z_err_near), ("z far", report.z_err_far)]
    top = max(max(v for _, v in bars), 1e-6)
    slot = (W - 2 * M) / len(bars)
    for i, (name, value) in enumerate(bars):
        height = (value / top) * (H - 2 * M - 30)
        x = M + i * slot + slot * 0.2
        y = H - M - height
        ET.SubElement(svg, "rect", {
            "x": f"{x:.2f}", "y": f"{y:.2f}", "width": f"{slot * 0.6:.2f}",
            "height": f"{height:.2f}",
            "fill": plot.PRED_COLOR if "far" in name else plot.GT_COLOR,
            "class": "metric-bar"})
        label = ET.SubElement(svg, "text", {"x": f"{x + slot * 0.3:.2f}", "y": str(H - M + 16),
                                            "text-anchor": "middle", "font-size": "11"})
        label.text = name
        val = ET.SubElement(svg, "text", {"x": f"{x + slot * 0.3:.2f}", "y": f"{y - 5:.2f}",
                                          "text-anchor": "middle", "font-size": "10"})
        val.text = f"{value:.3g}"
    return svg


# ---------------------------------------------------------------------------

def _assert_same_svg(scene, pred_lanes):
    assert plot.render_scene_svg(scene, pred_lanes) \
        == ET.tostring(_ref_render_scene_svg(scene, pred_lanes), encoding="unicode")


def _scene(lanes, frame_id="f"):
    return Scene(frame_id=frame_id, camera=POSE, lanes=lanes)


def _lane(lane_id, points):
    return Lane3D(id=lane_id, points=points, visibility=np.ones(len(points), dtype=int))


@pytest.mark.parametrize("case", ["no_lanes", "pred_none", "pred_empty", "pred_only",
                                  "one_point", "flat_z", "gt_and_pred", "tie",
                                  "id_markup", "id_quotes", "id_non_ascii", "id_whitespace"])
def test_scene_svg_bytes_equal_per_point_reference(simple_scene, case):
    ys = np.arange(5.0, 101.0, 5.0)
    hilly = [straight_lane("l", -1.7, ys, z=0.002 * ys ** 1.5),
             straight_lane("r", 1.9, ys, z=0.002 * ys ** 1.5 + 0.01)]
    scene, pred = {
        "no_lanes": (_scene([]), None),
        "pred_none": (_scene(hilly), None),
        "pred_empty": (simple_scene, []),
        "pred_only": (_scene([]), hilly),
        "one_point": (_scene([_lane("a", [[0.3, 7.0, 0.1]])]),
                      [_lane("p", [[-1.25, 7.5, -0.2]])]),
        "flat_z": (simple_scene, None),  # z span 0 < min_span
        "gt_and_pred": (_scene(hilly), simple_scene.lanes),
        # x scales to 106.875 (+-1 ulp): "106.88" here, "106.87" if the scaling
        # expression multiplies before it divides
        "tie": (_scene([_lane("a", [[11.375, 1.0, 0.0], [1.375, 2.0, 0.0],
                                    [2.75, 3.0, 0.0]])]), None),
        # the frame id is the only record text in a figure: it is escaped as
        # ElementTree escapes character data, quotes and whitespace as they are
        "id_markup": (_scene(hilly, "a&b<c>d&amp;]]>"), None),
        "id_quotes": (_scene(hilly, "say \"hi\" it's"), None),
        "id_non_ascii": (_scene(hilly, "é漢字 ∑"), simple_scene.lanes),
        "id_whitespace": (_scene(hilly, "tab\there\nlf\rcr\r\n"), None),
    }[case]
    _assert_same_svg(scene, pred)


# Scaled points land inside the panel margins, so a figure never shows these
# values; the point format is checked on them directly.
@pytest.mark.parametrize("values", [
    [-0.001, -0.004999, 0.0, -0.0, -0.005],   # "-0.00" and "0.00"
    [0.125, 0.375, 1.005, 2.675, 100.125],    # ties at x.xx5 and their neighbours
    [1e-300, 123456.785, -3.14159, 375.0, 45.0],
])
def test_polyline_format_equals_per_point_reference(values):
    ref = ET.Element("g")
    _ref_polyline(ref, np.array(values), np.array(values[::-1]), "#000", "gt", True)
    assert plot._polyline(np.array(values), np.array(values[::-1]), "#000", "gt", True) \
        == ET.tostring(ref[0], encoding="unicode")


_coord = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)


@st.composite
def _lanes(draw, prefix):
    out = []
    for k in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 12))
        ys = np.cumsum(draw(st.lists(st.floats(0.01, 20.0), min_size=n, max_size=n)))
        xs = draw(st.lists(_coord, min_size=n, max_size=n))
        zs = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        out.append(_lane(f"{prefix}{k}", np.column_stack([xs, ys, zs])))
    return out


@given(gt=_lanes("g"), pred=st.one_of(st.none(), _lanes("p")))
@settings(max_examples=60, deadline=None)
def test_random_scene_svg_bytes_equal_per_point_reference(gt, pred):
    _assert_same_svg(_scene(gt), pred)


def _readme_report(tmp_path):
    """The report of the README pipeline, yaw-only augmentation."""
    cfg = Path(__file__).resolve().parents[1] / "configs"
    scenes, aug, flat, rec, report = (tmp_path / name for name in (
        "scenes.jsonl", "aug.jsonl", "flat.jsonl", "rec.jsonl", "report.json"))
    for args in [["generate", "--config", cfg / "generate_default.json", "--count", 100,
                  "--seed", 42, "--out", scenes],
                 ["augment", "--in", scenes, "--config", cfg / "augment_yaw_only.json",
                  "--out", aug],
                 ["project", "--in", aug, "--out", flat],
                 ["reconstruct", "--in", flat, "--config", cfg / "reconstruct_default.json",
                  "--out", rec],
                 ["evaluate", aug, rec, "--config", cfg / "evaluate_default.json",
                  "--out", report]]:
        assert main([str(a) for a in args]) == 0
    return read_report(report)


def _dwarfed_report():
    """One matched pair whose x far error is thousands of times the others."""
    pair = PairStats(gt_id="g", pred_id="p", cost=0.1, x_near_sum=0.02, x_far_sum=400.0,
                     z_near_sum=0.01, z_far_sum=0.03, near_count=4, far_count=8)
    return EvalReport(pr_curve=[(0.5, 0.5, 1.0)],
                      per_frame=[FrameBreakdown(frame_id="f", fp=1, fn=0, pair_stats=[pair])])


@pytest.mark.parametrize("case", ["empty", "readme", "dwarfed"])
def test_report_svg_equals_reference(tmp_path, case):
    report = {"empty": lambda: EvalReport(pr_curve=[(0.5, 0.0, 0.0)], per_frame=[]),
              "readme": lambda: _readme_report(tmp_path),
              "dwarfed": _dwarfed_report}[case]()
    assert plot.render_report_svg(report) \
        == ET.tostring(_ref_render_report_svg(report), encoding="unicode")


def test_write_svg_writes_the_declaration_and_the_markup_as_utf8(tmp_path, simple_scene):
    """The declaration is the one ElementTree writes for encoding="unicode" to a
    file name; a newline in the markup stays one byte on Linux."""
    svg = plot.render_scene_svg(_scene(simple_scene.lanes, "é\t漢\r\nx&y"))
    path = tmp_path / "f.svg"
    plot.write_svg(svg, path)
    assert path.read_bytes() == b"<?xml version='1.0' encoding='utf-8'?>\n" + svg.encode()
    # an XML parser reads the CR LF back as one LF
    assert ET.parse(path).getroot()[0][1].text == "é\t漢\nx&y: top view"
