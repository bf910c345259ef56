"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload offline-rank --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced (layer
spans wrapped around the program's public functions) and prints the
per-layer metrics plus ``trace.overhead.<metric>`` (traced minus
untraced).  Metric names and units come from ``BENCHMARK.json``; see
``perfbench/README.md`` for their definitions.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PERCENTILE_NAME = re.compile(r"_p(\d+)_ms$")
#: A percentile is trustworthy with at least this many samples beyond it.
MIN_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["offline-rank", "append-rank", "serve-mix", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="workload sizes; tiny is the self-test scale")
    parser.add_argument("--out", default=None,
                        help="also write the full result (metrics, samples, "
                             "checks, environment) to this JSON file")
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from workloads import NPROC

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                   capture_output=True, text=True, timeout=10)
            commit = found.stdout.strip() if found.returncode == 0 else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "seed": seed}


def run_workload(name: str, args, workdir: Path):
    """One workload; with ``--trace 1`` an untraced then a traced pass."""
    from spans import Tracer
    from workloads import SIZES, WORKLOADS

    size = SIZES[args.scale][name]
    plain = WORKLOADS[name](args.seed, args.seconds, size, workdir=workdir)
    if not args.trace:
        return plain, None
    traced = WORKLOADS[name](args.seed, args.seconds, size, Tracer(), workdir=workdir)
    return plain, traced


def _format(value: float) -> str:
    return "%.6g" % value


def report_lines(result) -> list:
    lines = ["== %s ==" % result.workload]
    for name, (value, unit, samples) in result.report.items():
        note = "n=%d" % samples
        match = PERCENTILE_NAME.search(name)
        if match:
            beyond = int(samples * (1 - int(match.group(1)) / 100.0))
            note += ", %d beyond" % beyond
            if beyond < MIN_BEYOND:
                note += " (fewer than %d: indicative only)" % MIN_BEYOND
        lines.append("  %-22s %14s %-10s %s" % (name, _format(value), unit, note))
    for name, value in sorted(result.info.items()):
        lines.append("  info %-17s %s" % (name, value))
    for check, passed, detail in result.checks:
        lines.append("  check %-4s %s: %s" % ("ok" if passed else "FAIL", check, detail))
    return lines


def layer_values(plain, traced, declared_layers: dict) -> dict:
    values = {}
    for name in declared_layers:
        if name.startswith("trace.overhead."):
            metric = name[len("trace.overhead."):]
            values[name] = traced.e2e[metric] - plain.e2e[metric]
        else:
            values[name] = traced.layers.get(name, 0.0)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no src/repro next to %s; run from a repository checkout"
              % HERE.name, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    layer_units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}

    names = (["offline-rank", "append-rank", "serve-mix"]
             if args.workload == "all" else [args.workload])
    workdir = ROOT / ".bench_build" / "perfbench" / ("run-%d" % time.monotonic_ns())
    workdir.mkdir(parents=True)
    env = environment(args.seed)
    print("environment:", json.dumps(env, sort_keys=True))
    full = {"environment": env, "workloads": {}}
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            plain, traced = run_workload(name, args, workdir)
            runs = [plain] if traced is None else [plain, traced]
            for result in runs:
                print("\n".join(report_lines(result)))
                correct = correct and result.correct
                # A failed output check counts as one more failed operation.
                attempted += result.attempted + len(result.checks)
                failed += result.failed + sum(not passed for _, passed, _ in result.checks)
            if traced is None:
                values = {metric: plain.e2e[metric] for metric in e2e_units}
                units = e2e_units
            else:
                values = layer_values(plain, traced, layer_units)
                units = layer_units
                for metric, value in values.items():
                    print("  layer %-30s %14s %s" % (metric, _format(value), units[metric]))
            prefix = name + "." if args.workload == "all" else ""
            for metric, value in values.items():
                if not math.isfinite(value):
                    correct = False
                    value = -1.0
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
            full["workloads"][name] = {
                "metrics": values,
                "runs": [{"report": {key: {"value": value, "unit": unit, "samples": samples}
                                     for key, (value, unit, samples) in result.report.items()},
                          "checks": [list(check) for check in result.checks],
                          "info": result.info} for result in runs],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(full, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
