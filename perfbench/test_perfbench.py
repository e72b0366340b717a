"""Tests for the benchmark's own code. From the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
from pathlib import Path

import numpy as np
import pytest

import lane3d.evaluate
import lane3d.model
import lane3d.synth
from lane3d.model import Lane3D, Scene

import chain
import run
from metrics import END_TO_END, PER_LAYER
from spans import Tracer, instrumented, self_times, summarize
from workloads import WORKLOADS, write_configs

ROOT = Path(__file__).resolve().parent.parent


def _inputs(tmp_path, workload, frames, seed):
    paths = write_configs(ROOT, workload, tmp_path / f"inputs-{workload}-{seed}")
    return chain.load_inputs(paths, frames, seed)


def test_same_seed_gives_byte_identical_inputs_and_outputs(tmp_path):
    hashes = []
    for k, seed in enumerate((7, 7, 8)):
        inp = _inputs(tmp_path / str(k), "default_aug", 12, seed)
        chain.run_chain(inp, tmp_path / str(k) / "out", Tracer())
        configs = sorted((tmp_path / str(k)).glob("inputs-*/*.json"))
        hashes.append(([p.read_bytes() for p in configs],
                       chain.output_hashes(tmp_path / str(k) / "out")))
    assert hashes[0] == hashes[1]
    assert hashes[0][0] == hashes[2][0]
    assert hashes[0][1]["scenes.jsonl"] != hashes[2][1]["scenes.jsonl"]


def _raised(scene: Scene, dz: float) -> Scene:
    lanes = [Lane3D(id=lane.id, points=lane.points + np.array([0.0, 0.0, dz]),
                    visibility=lane.visibility) for lane in scene.lanes]
    return Scene(frame_id=scene.frame_id, camera=scene.camera, lanes=lanes,
                 metadata=scene.metadata)


def test_frame_above_camera_fails_alone_and_batch_continues(tmp_path, monkeypatch):
    generate = lane3d.synth.generate_scenes

    def with_raised_frame(config, count, seed):
        scenes = generate(config, count, seed)
        scenes[1] = _raised(scenes[1], scenes[1].camera.height_m + 0.5)
        return scenes

    monkeypatch.setattr(lane3d.synth, "generate_scenes", with_raised_frame)
    inp = _inputs(tmp_path, "yaw_sweep", 3, 0)
    out = tmp_path / "out"
    rep = chain.run_chain(inp, out, Tracer())

    failed_id = "synth_0_00001"
    assert rep.stages["project"].failed == {failed_id: "HeightExceedsCamera"}
    assert rep.stages["project"].frames_out == 2
    for name in ("reconstruct", "evaluate"):
        assert (rep.stages[name].frames_in, rep.stages[name].frames_out) == (2, 2)
    assert rep.stages["plot"].frames_out == 3
    assert chain.unexpected_failures(rep) == 0
    assert chain.check_accounting(rep) == []
    gt = lane3d.model.read_scenes(out / "augmented.jsonl")
    assert chain.check_projection(gt, rep) == []
    assert chain.check_report(out, gt, rep, inp) == []
    assert rep.report.f_score == 1.0


def test_projection_check_flags_rejected_frame_below_camera(tmp_path):
    inp = _inputs(tmp_path, "yaw_sweep", 2, 0)
    out = tmp_path / "out"
    rep = chain.run_chain(inp, out, Tracer())
    rep.stages["project"].failed["synth_0_00000"] = "HeightExceedsCamera"
    gt = lane3d.model.read_scenes(out / "augmented.jsonl")
    assert len(chain.check_projection(gt, rep)) == 1
    assert chain.unexpected_failures(rep) == 0
    rep.stages["reconstruct"].failed["synth_0_00001"] = "NoPairing"
    assert chain.unexpected_failures(rep) == 1


def test_self_time_subtracts_union_of_children():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["b", 3.0, 6.0, 0],      # overlaps a: root loses [1, 6] once
             ["a.x", 2.0, 3.0, 1],
             ["late", 9.5, 12.0, 0]]  # only [9.5, 10] lies inside root
    assert self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 2.5])
    summary = summarize(spans + [["a", 20.0, 21.0, -1]])
    assert summary["a"]["calls"] == 2
    assert summary["a"]["total_s"] == pytest.approx(4.0)
    assert summary["a"]["self_s"] == pytest.approx(3.0)


def test_tracer_records_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_instrumented_reports_absent_targets_and_restores():
    original = lane3d.evaluate.match_lanes
    tracer = Tracer()
    targets = [("lane3d.evaluate", "match_lanes", "evaluate.match_lanes"),
               ("lane3d.evaluate", "no_such_function", "gone"),
               ("lane3d.no_such_module", "f", "gone")]
    with instrumented(tracer, targets) as absent:
        assert absent == ["lane3d.evaluate.no_such_function", "lane3d.no_such_module.f"]
        lane3d.evaluate.match_lanes([], [], lane3d.evaluate.MatchConfig(), 1.78)
    assert lane3d.evaluate.match_lanes is original
    assert [s[0] for s in tracer.spans] == ["evaluate.match_lanes"]
    assert chain.absent_metrics(["lane3d.evaluate.match_lanes"]) == [
        "evaluate.match_lanes_calls", "evaluate.match_lanes_self_s"]


def test_scipy_import_time_sums_scipy_self_times():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:      2000 |       2500 |       scipy._lib",
        "import time:       500 |       3000 |     scipy",
        "import time:      7000 |      10000 |   scipy.optimize",
        "import time:        50 |      10050 | lane3d.evaluate",
    ])
    assert run.scipy_import_s(log) == pytest.approx(0.0095)


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "yaw_sweep", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
