"""Batch command-line surface: generate | augment | project | reconstruct |
evaluate | plot.

Every command is deterministic given its flags and seed. Data goes to files,
diagnostics to stderr. Exit codes: 0 ok, 1 usage, 2 data error, 3 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter
from pathlib import Path

from . import evaluate as ev
from . import model, plot, synth
from .augment import AugmentConfig, augment_scene
from .errors import HeightExceedsCamera, InvalidInput, Lane3DError
from .model import FlatFrame, Lane2D, Scene
from .projection import project_virtual_top_xy
from .reconstruct import LANE_STATUSES, STOP_REASONS, SolveOptions, solve_frame

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _count(text: str) -> int:
    """argparse type for a count or a seed: a nonnegative decimal integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


# characters XML 1.0 cannot hold: a figure whose title held one would not parse
_NOT_XML = frozenset(map(chr, [*range(0x9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF]))


def _frame_file(directory: Path, frame_id: str, suffix: str) -> Path:
    """directory/<frame_id><suffix>; a frame id that is not one plain path
    component (a separator, '..', an absolute path) would write elsewhere,
    and a NUL byte cannot be opened at all. The id is also the figure's
    title, so it must hold no character XML 1.0 cannot hold."""
    if frame_id == ".." or Path(frame_id).name != frame_id or "\0" in frame_id:
        raise InvalidInput(f"frame id {frame_id!r} is not a plain file name")
    if not _NOT_XML.isdisjoint(frame_id):
        raise InvalidInput(f"frame id {frame_id!r} holds a character XML 1.0 cannot hold")
    return directory / f"{frame_id}{suffix}"


def cmd_generate(args) -> int:
    cfg = model.read_json(args.config, synth.GeneratorConfig.from_dict) if args.config \
        else synth.GeneratorConfig()
    scenes = synth.generate_scenes(cfg, args.count, args.seed)
    model.write_scenes(scenes, args.out)
    print(f"wrote {len(scenes)} scenes to {args.out}", file=sys.stderr)
    return EXIT_OK


def _map_frames(fn, frames, *more) -> list:
    """list(map(fn, frames, *more)); a Lane3DError names the frame it came from."""
    out = []
    for args in zip(frames, *more):
        try:
            out.append(fn(*args))
        except Lane3DError as e:
            raise type(e)(f"frame {args[0].frame_id!r}: {e}") from e
    return out


def cmd_augment(args) -> int:
    cfg = model.read_json(args.config, AugmentConfig.from_dict) if args.config \
        else AugmentConfig()
    scenes = model.read_scenes(args.in_path)
    out = _map_frames(lambda scene, i: augment_scene(scene, cfg, draw_index=i),
                      scenes, range(len(scenes)))
    model.write_scenes(out, args.out)
    print(f"augmented {len(out)} scenes to {args.out}", file=sys.stderr)
    return EXIT_OK


def _project_scene(scene: Scene) -> FlatFrame:
    lanes = []
    for lane in scene.lanes:
        try:
            points = project_virtual_top_xy(lane.xy, lane.z, scene.camera.height_m)
        except HeightExceedsCamera as e:
            raise HeightExceedsCamera(f"lane {lane.id!r}: {e}") from e
        lanes.append(Lane2D(id=lane.id, points=points, visibility=lane.visibility))
    return FlatFrame(frame_id=scene.frame_id, camera=scene.camera, lanes=lanes)


def cmd_project(args) -> int:
    scenes = model.read_scenes(args.in_path)
    frames = _map_frames(_project_scene, scenes)
    model.write_flat_frames(frames, args.out)
    print(f"projected {len(frames)} frames to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    opts = model.read_json(args.config, SolveOptions.from_dict) if args.config \
        else SolveOptions()
    frames = model.read_flat_frames(args.in_path)
    stops, statuses = Counter(), Counter()

    def solve(frame: FlatFrame) -> Scene:
        result = solve_frame(frame.lanes, frame.camera.height_m, opts)
        stops.update(result.stops)
        statuses.update(result.statuses.values())
        meta = {f"solver_status:{lane_id}": status
                for lane_id, status in sorted(result.statuses.items())}
        for lane_id, was_clamped in sorted(result.clamped.items()):
            if was_clamped:
                meta[f"solver_clamped:{lane_id}"] = "1"
        return Scene(frame_id=frame.frame_id, camera=frame.camera,
                     lanes=result.lanes, metadata=meta)

    scenes = [solve(frame) for frame in frames]
    model.write_scenes(scenes, args.out)
    print("lane statuses: " + " ".join(f"{s}={statuses[s]}" for s in LANE_STATUSES),
          file=sys.stderr)
    print("solver stops: " + " ".join(f"{r}={stops[r]}" for r in STOP_REASONS),
          file=sys.stderr)
    print(f"reconstructed {len(scenes)} frames to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = model.read_json(args.config, ev.MatchConfig.from_dict) if args.config \
        else ev.MatchConfig()
    gt = model.read_scenes(args.gt)
    main_report = ev.evaluate_frames(gt, model.read_predictions(args.pred), cfg)
    out = main_report.to_dict()
    if args.joint:
        reports = [main_report]
        for path in args.joint:
            reports.append(ev.evaluate_frames(gt, model.read_predictions(path), cfg))
        joint = ev.joint_offset_errors(reports)
        # a path's bytes that are not UTF-8, which JSON text cannot hold, as \xNN
        out["joint"] = [{"source": src.encode("utf-8", "surrogateescape")
                         .decode("utf-8", "backslashreplace"), **dataclasses.asdict(j)}
                        for src, j in zip([args.pred, *args.joint], joint)]
    model.write_json(out, args.out)
    if args.csv:
        ev.write_report_csv(main_report, args.csv)
    print(f"F={main_report.f_score:.4f} AP={main_report.ap:.4f} "
          f"x_far={main_report.x_err_far:.4f} z_far={main_report.z_err_far:.4f}",
          file=sys.stderr)
    return EXIT_OK


def _looks_like_report(path) -> bool:
    """Whether path holds a report rather than scene JSONL, told from its
    first line alone, so neither is parsed here beyond that line: a first
    line that starts with '{' and does not parse alone (the indented report
    write_json writes, or broken text whose error read_report then names),
    or that parses to an object holding per_frame. Bytes that are not UTF-8
    are decoded as lone surrogates, which the reader rejects."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
    if not first.startswith("{"):
        return False
    try:
        return "per_frame" in model._loads(first)
    except ValueError:
        return True


def cmd_plot(args) -> int:
    """Every input is read and every figure path checked before --out is
    made, so a plot that exits 2 leaves nothing behind."""
    out_dir = Path(args.out)
    if _looks_like_report(args.in_path):
        report = ev.read_report(args.in_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "report.svg"
        plot.write_svg(plot.render_report_svg(report), path)
        print(f"wrote {path}", file=sys.stderr)
        return EXIT_OK
    scenes = model.read_scenes(args.in_path)
    pred_by_frame = {p.frame_id: p.lanes for p in model.read_predictions(args.pred)} \
        if args.pred else {}
    paths = [_frame_file(out_dir, scene.frame_id, ".svg") for scene in scenes]
    out_dir.mkdir(parents=True, exist_ok=True)
    for scene, path in zip(scenes, paths):
        plot.write_svg(plot.render_scene_svg(scene, pred_by_frame.get(scene.frame_id)), path)
    print(f"wrote {len(paths)} figures to {out_dir}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lane3d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate synthetic scenes")
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--count", type=_count, default=100)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("augment", help="rotation-augment scenes")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--config", help="augment config JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("project", help="project scenes to flat-ground lanes")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("reconstruct", help="reconstruct 3D lanes from flat lanes")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--config", help="solver options JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="evaluate predictions against GT")
    p.add_argument("gt", help="ground-truth scenes JSONL")
    p.add_argument("pred", help="prediction JSONL")
    p.add_argument("--config", help="match config JSON")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--csv", help="optional per-frame CSV path")
    p.add_argument("--joint", nargs="+", default=None, metavar="PRED",
                   help="additional prediction files for the joint metric")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("plot", help="render SVG figures")
    p.add_argument("--in", dest="in_path", required=True,
                   help="scenes JSONL or report JSON")
    p.add_argument("--pred", help="optional prediction JSONL overlay")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except Lane3DError as e:
        print(f"lane3d: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"lane3d: I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
