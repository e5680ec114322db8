#!/usr/bin/env python3
"""E18 service benchmark: build the driver from source, run one workload, check it.

Usage (from the root of a checkout):

    python3 servicebench/run.py --workload directory_fast --seed 1 --seconds 10 --trace 0

Builds servicebench/ (and the SINTRA libraries in src/) with CMake into
$CARGO_TARGET_DIR/servicebench (default .bench_build/servicebench), runs the
e18_service driver in a fresh process, prints every metric by name and unit,
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics.  The full result, stamped with commit,
build type and parameters, is kept under <build dir>/results/ for
servicebench/compare.py.  Exits 1 if an output check failed, 2 if the
benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "servicebench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servicebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "servicebench"


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/ is missing: the benchmark builds the program from source")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out_dir / "e18_service"


def source_digest():
    """SHA-256 over the program and benchmark sources (a checkout has no .git)."""
    digest = hashlib.sha256()
    for top in ("src", "servicebench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    names = declared_metrics(args.trace)
    out_dir = build_dir()
    exe = build(out_dir)
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # run() kills the driver and waits for it if it overruns.
        proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"driver exited {proc.returncode} without a result")

    stamp = result["stamp"]
    stamp["commit"] = commit() or "unknown (not a git checkout)"
    stamp["source_sha256"] = source_digest()
    stamp["trace"] = args.trace
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print("# e18 " + " ".join(f"{key}={value}" for key, value in stamp.items()))
    for name, metric in result["metrics"].items():
        print(f"# {name:32s} {metric['value']:16.6f} {metric['unit']}")
    for failure in result["failures"]:
        print(f"# CHECK FAILED: {failure}")

    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        fail(f"driver did not report {', '.join(missing)}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: result["metrics"][name] for name in names},
    }))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
