"""Benchmark worker: runs the lane3d chain generate -> augment -> project ->
reconstruct -> evaluate -> plot on one workload in this one process,
repeating it for a fixed time, and writes its metrics, output hashes and
the results of its correctness checks to a JSON file.

run.py starts it as a fresh interpreter, one at a time, with src/ on
PYTHONPATH. It can be run alone from the root of a checkout:

    PYTHONPATH=src python3 perfbench/chain.py --workload yaw_sweep --seed 42 \
        --seconds 20 --trace 0 --work .perfbench/work --result result.json

Each stage goes through the public functions the CLI calls, writes JSONL
through model.write_* and the next stage reads it back through
model.read_*. Per-frame stages run frame by frame: a Lane3DError on one
frame is recorded against that frame and the batch goes on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from lane3d import augment, evaluate, model, plot, projection, reconstruct, synth
from lane3d.errors import Lane3DError

from metrics import SPAN_METRICS, STAGE_METRICS
from spans import Tracer, instrumented, summarize
from workloads import WORKLOADS, write_configs

STAGES = ("generate", "augment", "project", "reconstruct", "evaluate", "plot")
OUTPUT_FILES = {"scenes": "scenes.jsonl", "augmented": "augmented.jsonl",
                "flat": "flat.jsonl", "reconstructed": "reconstructed.jsonl",
                "report": "report.json"}
UNPROJECTABLE = "HeightExceedsCamera"

# Public module attributes the chain calls through; a traced repetition
# wraps each so that calls record a span under the given name.
TRACED_CALLS = (
    ("lane3d.reconstruct", "match_point_pairs", "pairing.match_point_pairs"),
    ("lane3d.reconstruct", "pair_objective", "reconstruct.pair_objective"),
    ("lane3d.evaluate", "match_lanes", "evaluate.match_lanes"),
    ("lane3d.evaluate", "resample_flat", "evaluate.resample_flat"),
    ("lane3d.model", "scene_from_dict", "model.from_dict"),
    ("lane3d.model", "flat_frame_from_dict", "model.from_dict"),
    ("lane3d.model", "prediction_from_dict", "model.from_dict"),
    ("lane3d.synth", "compute_visibility", "synth.compute_visibility"),
    ("lane3d.augment", "compute_visibility", "augment.compute_visibility"),
)


@dataclass
class Inputs:
    frames: int
    seed: int
    generate: dict
    augment: augment.AugmentConfig
    solve: reconstruct.SolveOptions
    match: evaluate.MatchConfig


def load_inputs(paths: dict, frames: int, seed: int) -> Inputs:
    """Parse the workload's config files with the parsers the CLI uses."""
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return Inputs(
        frames=frames, seed=seed, generate=load(paths["generate"]),
        augment=augment.AugmentConfig.from_dict(load(paths["augment"])),
        solve=reconstruct.SolveOptions.from_dict(load(paths["reconstruct"])),
        match=evaluate.MatchConfig.from_dict(load(paths["evaluate"])))


@dataclass
class Stage:
    """Frame accounting of one stage: frames out + frames failed = frames in."""

    frames_in: int = 0
    frames_out: int = 0
    failed: dict = field(default_factory=dict)   # frame_id -> error class


def per_frame(tracer: Tracer, span_name: str, stage: Stage, items, fn) -> list:
    """Apply fn(index, item) frame by frame; a Lane3DError fails that frame
    only."""
    out = []
    stage.frames_in += len(items)
    for i, item in enumerate(items):
        idx = tracer.begin(span_name)
        try:
            out.append(fn(i, item))
        except Lane3DError as e:
            stage.failed[item.frame_id] = type(e).__name__
        finally:
            tracer.end(idx)
    stage.frames_out += len(out)
    return out


def project_frame(_, scene: model.Scene) -> model.FlatFrame:
    h = scene.camera.height_m
    lanes = [model.Lane2D(id=lane.id,
                          points=projection.project_virtual_top_xy(lane.xy, lane.z, h),
                          visibility=lane.visibility)
             for lane in scene.lanes]
    return model.FlatFrame(frame_id=scene.frame_id, camera=scene.camera, lanes=lanes)


def prediction_scene(frame: model.FlatFrame, res) -> model.Scene:
    """The reconstruct stage's output record, as the CLI writes it."""
    meta = {f"solver_status:{lane_id}": status
            for lane_id, status in sorted(res.statuses.items())}
    for lane_id, was_clamped in sorted(res.clamped.items()):
        if was_clamped:
            meta[f"solver_clamped:{lane_id}"] = "1"
    return model.Scene(frame_id=frame.frame_id, camera=frame.camera,
                       lanes=res.lanes, metadata=meta)


@dataclass
class Rep:
    """One run of the whole chain."""

    wall_s: float
    spans: dict
    stages: dict
    solves: list
    rotated: int
    report: object


def run_chain(inp: Inputs, out: Path, tracer: Tracer) -> Rep:
    files = {key: out / name for key, name in OUTPUT_FILES.items()}
    figures = out / "figures"
    figures.mkdir(parents=True, exist_ok=True)
    stages = {name: Stage() for name in STAGES}

    def read(reader, path):
        with tracer.span("model.read"):
            return reader(path)

    def write(writer, records, path):
        with tracer.span("model.write"):
            writer(records, path)

    t0 = perf_counter()
    with tracer.span("stage.generate"):
        with tracer.span("synth.generate_scenes"):
            scenes = synth.generate_scenes(inp.generate, inp.frames, inp.seed)
        stages["generate"].frames_in = inp.frames
        stages["generate"].frames_out = len(scenes)
        write(model.write_scenes, scenes, files["scenes"])

    with tracer.span("stage.augment"):
        scenes = read(model.read_scenes, files["scenes"])
        augmented = per_frame(
            tracer, "augment.augment_scene", stages["augment"], scenes,
            lambda i, s: augment.augment_scene(s, inp.augment, draw_index=i))
        write(model.write_scenes, augmented, files["augmented"])

    with tracer.span("stage.project"):
        scenes = read(model.read_scenes, files["augmented"])
        frames = per_frame(tracer, "projection.project_frame", stages["project"],
                           scenes, project_frame)
        write(model.write_flat_frames, frames, files["flat"])

    with tracer.span("stage.reconstruct"):
        frames = read(model.read_flat_frames, files["flat"])
        solved = per_frame(
            tracer, "reconstruct.solve_frame", stages["reconstruct"], frames,
            lambda _, f: (f, reconstruct.solve_frame(f.lanes, f.camera.height_m,
                                                     inp.solve)))
        write(model.write_scenes, [prediction_scene(f, res) for f, res in solved],
              files["reconstructed"])

    report = None
    with tracer.span("stage.evaluate"):
        gt = read(model.read_scenes, files["augmented"])
        preds = read(model.read_predictions, files["reconstructed"])
        present = {p.frame_id for p in preds}
        gt = [s for s in gt if s.frame_id in present]
        ev = stages["evaluate"]
        ev.frames_in = len(gt)
        try:
            with tracer.span("evaluate.evaluate_frames"):
                report = evaluate.evaluate_frames(gt, preds, inp.match)
            evaluate.write_report(report, files["report"])
            ev.frames_out = len(report.per_frame)
        except Lane3DError as e:
            ev.failed = {s.frame_id: type(e).__name__ for s in gt}

    with tracer.span("stage.plot"):
        scenes = read(model.read_scenes, files["augmented"])
        preds = read(model.read_predictions, files["reconstructed"])
        pred_lanes = {p.frame_id: p.lanes for p in preds}

        def draw(_, scene):
            with tracer.span("plot.render"):
                svg = plot.render_scene_svg(scene, pred_lanes.get(scene.frame_id))
            with tracer.span("plot.write"):
                plot.write_svg(svg, figures / f"{scene.frame_id}.svg")

        per_frame(tracer, "plot.frame", stages["plot"], scenes, draw)
        if report is not None:
            plot.write_svg(plot.render_report_svg(report), out / "report.svg")
    wall = perf_counter() - t0

    return Rep(wall_s=wall, spans=summarize(tracer.spans), stages=stages,
               solves=[res for _, res in solved],
               rotated=sum("augment_yaw_rad" in s.metadata for s in augmented),
               report=report)


# ---------------------------------------------------------------------------
# Correctness checks.

def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_hashes(out: Path) -> dict[str, str]:
    """sha256 of every output file; the figures as one digest over their
    sorted names and contents."""
    hashes = {name: sha256(out / name) for name in OUTPUT_FILES.values()
              if (out / name).exists()}
    digest = hashlib.sha256()
    for svg in sorted(out.glob("figures/*.svg")) + sorted(out.glob("report.svg")):
        digest.update(svg.name.encode("utf-8"))
        digest.update(svg.read_bytes())
    hashes["figures"] = digest.hexdigest()
    return hashes


def check_accounting(rep: Rep) -> list[str]:
    problems = []
    for name, st in rep.stages.items():
        if st.frames_out + len(st.failed) != st.frames_in:
            problems.append(f"{name}: {st.frames_out} out + {len(st.failed)} failed "
                            f"!= {st.frames_in} in")
    chain_in = [("augment", "generate"), ("project", "augment"),
                ("reconstruct", "project"), ("evaluate", "reconstruct"),
                ("plot", "augment")]
    for name, source in chain_in:
        if rep.stages[name].frames_in != rep.stages[source].frames_out:
            problems.append(f"{name} read {rep.stages[name].frames_in} frames, "
                            f"{source} wrote {rep.stages[source].frames_out}")
    return problems


def check_round_trips(out: Path, scratch: Path) -> list[str]:
    """Every JSONL output re-serializes byte-identically through model.read_*
    then model.write_*, and the report through read_report/write_report."""
    pairs = [("scenes.jsonl", model.read_scenes, model.write_scenes),
             ("augmented.jsonl", model.read_scenes, model.write_scenes),
             ("flat.jsonl", model.read_flat_frames, model.write_flat_frames),
             ("reconstructed.jsonl", model.read_scenes, model.write_scenes)]
    problems = []
    scratch.mkdir(parents=True, exist_ok=True)
    for name, reader, writer in pairs:
        again = scratch / name
        writer(reader(out / name), again)
        if again.read_bytes() != (out / name).read_bytes():
            problems.append(f"{name} does not re-serialize byte-identically "
                            f"through {reader.__name__}/{writer.__name__}")
    again = scratch / "report.json"
    evaluate.write_report(evaluate.read_report(out / "report.json"), again)
    if again.read_bytes() != (out / "report.json").read_bytes():
        problems.append("report.json does not re-serialize byte-identically")
    return problems


def check_projection(gt: list, rep: Rep) -> list[str]:
    """A frame of ``gt``, the augmented scenes, may be rejected as
    unprojectable only when one of its points is at or above the camera."""
    problems = []
    failed = rep.stages["project"].failed
    for scene in gt:
        above = any(float(np.max(lane.z)) >= scene.camera.height_m
                    for lane in scene.lanes)
        cls = failed.get(scene.frame_id)
        if cls == UNPROJECTABLE and not above:
            problems.append(f"{scene.frame_id}: {cls} with every point below the camera")
    return problems


def check_report(out: Path, gt: list, rep: Rep, inp: Inputs) -> list[str]:
    """Report values are finite and in range, and its per-frame counts agree
    with the ground truth ``gt`` and the predictions it was given."""
    report = rep.report
    if report is None:
        return ["evaluate produced no report"]
    problems = []
    for name in ("f_score", "ap", "precision", "recall"):
        v = getattr(report, name)
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            problems.append(f"report {name}={v} outside [0, 1]")
    for name in ("x_err_near", "x_err_far", "z_err_near", "z_err_far"):
        v = getattr(report, name)
        if not (math.isfinite(v) and v >= 0.0):
            problems.append(f"report {name}={v} not a finite nonnegative error")
    if report.best_threshold not in inp.match.prob_thresholds:
        problems.append(f"best threshold {report.best_threshold} not in the sweep")
    if len(report.pr_curve) != len(inp.match.prob_thresholds):
        problems.append("pr curve does not have one point per threshold")

    gt_lanes = {s.frame_id: len(s.lanes) for s in gt}
    pred_lanes = {p.frame_id: sum(prob >= report.best_threshold for prob in p.probs)
                  for p in model.read_predictions(out / "reconstructed.jsonl")}
    tp = fp = fn = 0
    for fb in report.per_frame:
        n_gt, n_pred = gt_lanes.get(fb.frame_id), pred_lanes.get(fb.frame_id)
        if fb.tp + fb.fn != n_gt or fb.tp + fb.fp != n_pred:
            problems.append(f"{fb.frame_id}: tp/fp/fn {fb.tp}/{fb.fp}/{fb.fn} do not add up "
                            f"to {n_gt} GT and {n_pred} predicted lanes")
        tp, fp, fn = tp + fb.tp, fp + fb.fp, fn + fb.fn
    expected = evaluate.fscore_from_counts(tp, fp, fn).f_score
    if not math.isclose(report.f_score, expected, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"report f_score {report.f_score} != {expected} from its per-frame counts")
    return problems


# ---------------------------------------------------------------------------
# Metrics.

def unexpected_failures(rep: Rep) -> int:
    """Frames that failed any stage other than projection rejecting a frame
    that reaches the camera height, which the projection defines as an
    error (check_projection verifies that it does so only then)."""
    count = 0
    for name, st in rep.stages.items():
        count += sum(1 for cls in st.failed.values()
                     if not (name == "project" and cls == UNPROJECTABLE))
    return count


def _span(rep: Rep, name: str, key: str) -> float:
    return rep.spans.get(name, {}).get(key, 0.0)


def end_to_end_metrics(reps: list[Rep], last: Rep, inp: Inputs,
                       peak_rss_mb: float) -> dict:
    """Times are medians over the untraced repetitions ``reps``; the rest
    comes from ``last``, the last repetition, which is identical to all."""
    metrics = {
        "frames_per_s": statistics.median(inp.frames / r.wall_s for r in reps),
        "peak_rss_mb": peak_rss_mb,
        "projected_frame_frac": last.stages["project"].frames_out / inp.frames,
    }
    if last.report is not None:
        metrics["f_score"] = last.report.f_score
    return metrics


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(traced: list[Rep], untraced: list[Rep], last: Rep,
                  inp: Inputs, out: Path) -> dict:
    """Per-layer metrics: stage times are medians over the untraced
    repetitions, span times over the traced ones; counts come from
    ``last``, the last traced repetition (they repeat exactly, see main)."""
    metrics = {name: statistics.median(_span(r, f"stage.{stage}", "total_s")
                                       for r in untraced)
               for name, stage in STAGE_METRICS.items()}
    for name, (_, span, key) in SPAN_METRICS.items():
        values = [_span(r, span, key) for r in traced]
        metrics[name] = statistics.median(values) if key != "calls" else values[-1]

    solves = last.solves
    iters = [trace[-1][0] for res in solves for trace in res.traces]
    statuses = Counter(s for res in solves for s in res.statuses.values())
    attempts = sum(max(len(res.statuses) - 1, 0) for res in solves)
    pair_solves = sum(len(res.traces) for res in solves)
    project_failed = Counter(last.stages["project"].failed.values())
    failed_frames = set().union(*(st.failed for st in last.stages.values()))
    metrics.update({
        "pairing.rejected": attempts - pair_solves,
        "reconstruct.pair_solves": pair_solves,
        "reconstruct.iters_p50": _percentile(iters, 50),
        "reconstruct.iters_p95": _percentile(iters, 95),
        "reconstruct.iters_max": max(iters, default=0),
        "reconstruct.status.ok": statuses["ok"],
        "reconstruct.status.no_pairing": statuses["no_pairing"],
        "reconstruct.status.folded": statuses["folded"],
        "reconstruct.clamped": sum(v for res in solves for v in res.clamped.values()),
        f"projection.failed.{UNPROJECTABLE}": project_failed[UNPROJECTABLE],
        "projection.failed.other": sum(n for cls, n in project_failed.items()
                                       if cls != UNPROJECTABLE),
        "failed_frame_frac": len(failed_frames) / inp.frames,
        "augment.rotated_frames": last.rotated,
        "model.bytes": sum((out / name).stat().st_size for name in OUTPUT_FILES.values()
                           if name.endswith(".jsonl")),
        "plot.bytes": sum(p.stat().st_size for p in (out / "figures").glob("*.svg")),
    })
    if last.report is not None:
        metrics.update({f"evaluate.{key}": getattr(last.report, key)
                        for key in ("ap", "x_err_near", "x_err_far",
                                    "z_err_near", "z_err_far")})
    fps_untraced = statistics.median(inp.frames / r.wall_s for r in untraced)
    fps_traced = statistics.median(inp.frames / r.wall_s for r in traced)
    metrics.update({
        "trace.untraced_frames_per_s": fps_untraced,
        "trace.traced_frames_per_s": fps_traced,
        "trace.overhead_frac": fps_untraced / fps_traced - 1.0,
    })
    return metrics


def absent_metrics(absent: list[str]) -> list[str]:
    """Span metrics none of whose wrapped targets exist any more."""
    present = {span for module, attr, span in TRACED_CALLS
               if f"{module}.{attr}" not in absent}
    gone = {span for _, _, span in TRACED_CALLS} - present
    return [name for name, (_, span, _) in SPAN_METRICS.items() if span in gone]


def call_counts(rep: Rep) -> dict[str, int]:
    return {name: entry["calls"] for name, entry in sorted(rep.spans.items())}


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    work = Path(args.work)
    out = work / "out"
    paths = write_configs(Path.cwd(), args.workload, work / "inputs")
    inp = load_inputs(paths, WORKLOADS[args.workload].frames, args.seed)

    # Fill lazy imports and caches on a few frames first: a CLI user pays
    # them once per command, not once per frame.
    run_chain(replace(inp, frames=min(inp.frames, 10)), work / "warm", Tracer())

    # A traced run alternates untraced and traced repetitions, so both
    # see the same machine state and their ratio is the tracing overhead.
    # Only the latest repetition of each kind keeps its outputs in memory.
    untraced, traced, absent = [], [], []
    last = last_traced = None
    problems = []
    hashes = None
    min_reps = 2 if args.trace else 1
    start = perf_counter()
    while True:
        is_traced = bool(args.trace) and (len(untraced) + len(traced)) % 2 == 1
        tracer = Tracer()
        gc.collect()
        if is_traced:
            with instrumented(tracer, TRACED_CALLS) as missing:
                rep = run_chain(inp, out, tracer)
            absent = missing
            last_traced = rep
        else:
            rep = run_chain(inp, out, tracer)
        last = rep
        (traced if is_traced else untraced).append(replace(rep, solves=[], report=None))
        count = len(untraced) + len(traced)
        problems += [f"rep {count}: {p}" for p in check_accounting(rep)]
        rep_hashes = output_hashes(out)
        if hashes is None:
            hashes = rep_hashes
        elif rep_hashes != hashes:
            problems.append(f"rep {count}: outputs differ from rep 1")
        del rep
        if count >= min_reps and perf_counter() - start + last.wall_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gt = model.read_scenes(out / "augmented.jsonl")
    problems += check_projection(gt, last)
    problems += check_report(out, gt, last, inp)
    del gt
    if last.report is not None:
        problems += check_round_trips(out, work / "round_trip")

    if traced:
        counts = [call_counts(r) for r in traced]
        if any(c != counts[0] for c in counts):
            problems.append("call counts differ between traced repetitions")

    reps = untraced + traced
    result = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "reps": {"untraced": len(untraced), "traced": len(traced)},
        "rep_wall_s": {"untraced": [r.wall_s for r in untraced],
                       "traced": [r.wall_s for r in traced]},
        "attempted": inp.frames * len(reps),
        "failed": sum(unexpected_failures(r) for r in reps),
        "problems": problems,
        "hashes": hashes,
        "absent": absent,
        "absent_metrics": absent_metrics(absent),
        "stages": {name: {"in": st.frames_in, "out": st.frames_out,
                          "failed": dict(Counter(st.failed.values()))}
                   for name, st in last.stages.items()},
        "end_to_end": end_to_end_metrics(untraced, last, inp, peak_rss_mb),
    }
    if traced:
        result["per_layer"] = layer_metrics(traced, untraced, last_traced, inp, out)
        result["call_counts"] = counts[0]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
