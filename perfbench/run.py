"""lane3d pipeline benchmark: one command, run from the root of a checkout.

    python3 perfbench/run.py --workload yaw_sweep --seed 42 --seconds 20 --trace 0

It runs the chain generate -> augment -> project -> reconstruct -> evaluate
-> plot on the workload's seeded synthetic inputs (see workloads.py) in a
fresh worker interpreter (chain.py), for --seconds seconds, and checks the
outputs. Before that it times fresh interpreters importing lane3d.cli, one
at a time. Only this process and its own children are timed, with
perf_counter and getrusage; nothing traces the system or drops caches.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it name
the detail file, which holds the environment, per-stage frame counts, the
sha256 of every output file and each failed check. Exit status: 0 when
every check passes, 1 when a check fails, 2 when the worker cannot run,
for instance outside a lane3d checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
IMPORT_CLI = ["-c", "import lane3d.cli"]
SCOPE = ("Times only the benchmark's own processes, with perf_counter and "
         "getrusage; no system-wide tracing and no cache dropping.")


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _probe(args, env, root, timeout):
    """Run one fresh interpreter; returns (wall seconds, stderr)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)
    return perf_counter() - t0, proc.stderr


def scipy_import_s(importtime_stderr: str) -> float:
    """Self time of every scipy module in a ``-X importtime`` log."""
    total_us = 0
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            total_us += int(fields[0])
    return total_us / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "lane3d" / "__init__.py").is_file() \
            or not (root / "configs").is_dir():
        print("perfbench: no src/lane3d and configs/ here; run from the root "
              "of a lane3d checkout", file=sys.stderr)
        return 2

    base = root / ".perfbench"
    work = base / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env(root)

    def remaining():
        return max(DEADLINE_S - (perf_counter() - start), 1.0)

    try:
        # The first import compiles bytecode and fills the page cache,
        # which a user pays once, not per command: it is not measured.
        _probe(IMPORT_CLI, env, root, remaining())
        setup = {}
        if args.trace:
            logs = [_probe(["-X", "importtime", *IMPORT_CLI], env, root, remaining())[1]
                    for _ in range(IMPORTTIME_PROBES)]
            setup["cli.import_scipy_s"] = statistics.median(map(scipy_import_s, logs))
        else:
            setup["setup_s"] = statistics.median(
                _probe(IMPORT_CLI, env, root, remaining())[0]
                for _ in range(SETUP_PROBES))

        result_path = work / "result.json"
        subprocess.run(
            [sys.executable, str(HERE / "chain.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(work),
             "--result", str(result_path)],
            cwd=root, env=env, stdout=sys.stderr, timeout=remaining(), check=True)
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = PER_LAYER if args.trace else END_TO_END
    values = {**result["per_layer" if args.trace else "end_to_end"], **setup}
    problems = list(result["problems"])
    missing = sorted(set(names) - set(values))
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    absent = sorted(result.get("absent_metrics", []))
    if args.trace and setup["cli.import_scipy_s"] == 0.0:
        absent.append("cli.import_scipy_s")

    detail = {"command": "perfbench/run.py", "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "scope": SCOPE, **result, "absent_metrics": absent,
              "problems": problems}
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2)
        fh.write("\n")

    print(f"detail: {detail_path.relative_to(root)}")
    for problem in problems:
        print(f"check failed: {problem}")
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    line = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in names.items()},
    }
    print(json.dumps(line))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
