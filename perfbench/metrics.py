"""Names and units of every metric the benchmark prints, and where each
per-layer metric comes from.

End-to-end metrics come from untraced repetitions (--trace 0); per-layer
metrics from the traced run (--trace 1). BENCHMARK.json lists the same
names and units.
"""

END_TO_END = {
    "setup_s": "s",               # fresh interpreter: import lane3d.cli
    "frames_per_s": "frames/s",   # frames / wall time of the whole chain
    "peak_rss_mb": "MB",          # peak resident set of the chain process
    "f_score": "ratio",           # evaluate report, best threshold
    "projected_frame_frac": "ratio",  # frames that project / frames
}

# Per-layer metric -> (unit, span name, span field). Spans named after a
# wrapped module attribute (chain.TRACED_CALLS) exist only in traced
# repetitions; the others are recorded around the benchmark's own calls.
SPAN_METRICS = {
    "synth.generate_s": ("s", "synth.generate_scenes", "total_s"),
    "synth.visibility_s": ("s", "synth.compute_visibility", "total_s"),
    "augment.augment_s": ("s", "augment.augment_scene", "total_s"),
    "augment.visibility_s": ("s", "augment.compute_visibility", "total_s"),
    "projection.project_s": ("s", "projection.project_frame", "total_s"),
    "pairing.calls": ("count", "pairing.match_point_pairs", "calls"),
    "pairing.match_s": ("s", "pairing.match_point_pairs", "total_s"),
    "reconstruct.objective_calls": ("count", "reconstruct.pair_objective", "calls"),
    "reconstruct.objective_s": ("s", "reconstruct.pair_objective", "total_s"),
    "reconstruct.solve_self_s": ("s", "reconstruct.solve_frame", "self_s"),
    "evaluate.match_lanes_calls": ("count", "evaluate.match_lanes", "calls"),
    "evaluate.match_lanes_self_s": ("s", "evaluate.match_lanes", "self_s"),
    "evaluate.resample_calls": ("count", "evaluate.resample_flat", "calls"),
    "evaluate.resample_s": ("s", "evaluate.resample_flat", "total_s"),
    "model.read_s": ("s", "model.read", "total_s"),
    "model.write_s": ("s", "model.write", "total_s"),
    "model.from_dict_s": ("s", "model.from_dict", "total_s"),
    "plot.render_s": ("s", "plot.render", "total_s"),
    "plot.write_s": ("s", "plot.write", "total_s"),
}

# Stage wall times, JSONL read and write included, from the untraced
# repetitions of a traced run.
STAGE_METRICS = {f"stage.{stage}_s": stage for stage in
                 ("generate", "augment", "project", "reconstruct", "evaluate", "plot")}

PER_LAYER = {
    **{name: "s" for name in STAGE_METRICS},
    **{name: unit for name, (unit, _, _) in SPAN_METRICS.items()},
    "pairing.rejected": "count",
    "reconstruct.pair_solves": "count",
    "reconstruct.iters_p50": "count",
    "reconstruct.iters_p95": "count",
    "reconstruct.iters_max": "count",
    "reconstruct.status.ok": "count",
    "reconstruct.status.no_pairing": "count",
    "reconstruct.status.folded": "count",
    "reconstruct.clamped": "count",
    "projection.failed.HeightExceedsCamera": "count",
    "projection.failed.other": "count",
    "failed_frame_frac": "ratio",
    "augment.rotated_frames": "count",
    "model.bytes": "bytes",
    "plot.bytes": "bytes",
    "evaluate.ap": "ratio",
    "evaluate.x_err_near": "m",
    "evaluate.x_err_far": "m",
    "evaluate.z_err_near": "m",
    "evaluate.z_err_far": "m",
    "trace.untraced_frames_per_s": "frames/s",
    "trace.traced_frames_per_s": "frames/s",
    "trace.overhead_frac": "ratio",
    "cli.import_scipy_s": "s",
}
