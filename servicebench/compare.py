#!/usr/bin/env python3
"""Compare E18 results of two builds, refusing runs that are not comparable.

Usage:

    python3 servicebench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each file is a result written by servicebench/run.py (under
<build dir>/results/).  All files must come from the same workload and trace
mode, and agree on nproc, build type and every deployment parameter;
otherwise the comparison is refused with exit code 2.  For each metric it
prints both medians and their ratio; for BENCHMARK.json's end-to-end metrics
it flags a worsening beyond the metric's bound and exits 1.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Stamp fields that must match: a run on another CPU count, build type or
# parameter set measures something else.
MUST_MATCH = ("workload", "trace", "seconds", "nproc", "build_type", "group_backend",
              "rsa_modulus_bits", "executors", "transport", "service", "loop", "window",
              "rate_per_s", "value_bytes")


def load(paths):
    return [json.loads(Path(path).read_text()) for path in paths]


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, new = load(argv[:split]), load(argv[split + 1:])
    if not base or not new:
        print("compare: need at least one result on each side", file=sys.stderr)
        return 2

    reference = base[0]["stamp"]
    for result in base + new:
        for field in MUST_MATCH:
            if result["stamp"].get(field) != reference.get(field):
                print(f"compare: refused, {field} differs: {reference.get(field)!r} vs "
                      f"{result['stamp'].get(field)!r}", file=sys.stderr)
                return 2
    for side, results in (("base", base), ("new", new)):
        bad = [r["stamp"]["seed"] for r in results if not r["correct"]]
        if bad:
            print(f"compare: refused, {side} runs with failed output checks (seeds {bad})",
                  file=sys.stderr)
            return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    worse = []
    print(f"{'metric':32s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for name, metric in base[0]["metrics"].items():
        before = statistics.median(r["metrics"][name]["value"] for r in base)
        after = statistics.median(r["metrics"][name]["value"] for r in new if name in r["metrics"])
        if before:
            ratio = after / before
        else:
            ratio = 1.0 if after == before else float("inf")
        flag = ""
        if name in bounds:
            better, bound = bounds[name]
            regressed = ratio < 1 - bound if better == "higher" else ratio > 1 + bound
            if regressed:
                flag = f"  WORSE than bound {bound}"
                worse.append(name)
        print(f"{name:32s} {before:14.6g} {after:14.6g} {ratio:9.4f} {metric['unit']}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
