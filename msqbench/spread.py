#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, for every metric, the
median over the runs and the spread: the distance between the first and
third quartile as a share of the median (statistics.quantiles, n=4).

    python3 msqbench/spread.py --workload ca_cold --seeds 1-10 --seconds 25 [--trace 1]

Run it from the repository root after one `cargo build --release
--manifest-path msqbench/Cargo.toml`; it calls the built binary directly,
one run at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    """`1-10`, or a comma list such as `3,3,3` to repeat one seed."""
    if "," in spec:
        return [int(s) for s in spec.split(",")]
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = os.path.join(target, "release", "msqbench")
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: failed {result['failed']} of {result['attempted']}",
                  file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<44} {'median':>14} {'spread':>8}  ({args.workload}, seeds {args.seeds})")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<44} {med:>14.6f} {spread:>8.4f}")


if __name__ == "__main__":
    main()
