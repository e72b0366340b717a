"""The benchmark's workloads: the shipped configs each one starts from, and
the keys it overrides. Each workload is one closed loop, a single caller
running the chain stage after stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

CONFIG_FILES = ("generate", "augment", "reconstruct", "evaluate")


@dataclass(frozen=True)
class Workload:
    frames: int
    augment_config: str
    generate_overrides: dict = field(default_factory=dict)
    evaluate_overrides: dict = field(default_factory=dict)


WORKLOADS = {
    # Every frame is yaw-rotated and every frame projects. Evaluate sweeps
    # 19 probability thresholds, so it dominates the chain; reconstruct
    # solves one short boundary pair per frame.
    "yaw_sweep": Workload(frames=500, augment_config="augment_yaw_only.json"),
    # The shipped augmentation: about 30 % of frames rotate, and pitch lifts
    # some far points above the camera, so projection rejects those frames.
    # This is the failure and accuracy path.
    "default_aug": Workload(frames=500, augment_config="augment_default.json"),
    # Five boundaries sampled every metre: long arrays, 8x larger JSONL per
    # frame, four pairings per frame. min_flat_step is scaled with y_step;
    # at the shipped 1.5 every hill draw would be rejected. One probability
    # threshold, so evaluate does no sweep.
    "dense_lanes": Workload(
        frames=200, augment_config="augment_yaw_only.json",
        generate_overrides={"num_boundaries": 5, "y_step": 1.0,
                            "min_flat_step": 0.375},
        evaluate_overrides={"prob_thresholds": [0.5]}),
}


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_configs(root: Path, name: str, work: Path) -> dict[str, Path]:
    """Write the workload's four stage configs into ``work``, built from the
    shipped configs under ``root/configs``; returns their paths by stage."""
    wl = WORKLOADS[name]
    shipped = root / "configs"
    configs = {
        "generate": {**_load(shipped / "generate_default.json"),
                     **wl.generate_overrides},
        "augment": _load(shipped / wl.augment_config),
        "reconstruct": _load(shipped / "reconstruct_default.json"),
        "evaluate": {**_load(shipped / "evaluate_default.json"),
                     **wl.evaluate_overrides},
    }
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stage in CONFIG_FILES:
        path = work / f"{stage}_config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(configs[stage], fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths[stage] = path
    return paths
