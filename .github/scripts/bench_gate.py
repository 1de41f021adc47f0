#!/usr/bin/env python3
"""Bench regression gate: fail CI when a recorded metric falls below floor.

Parses a bench report JSON (written by `cargo bench -p helium-bench`,
including under HELIUM_BENCH_SMOKE=1) and walks every object in it for keys
with a configured floor. Floors are selected per report file by basename —
BENCH_lowering.json gates the execution-tier and reduction speedups,
BENCH_serve.json gates the serving throughput and the parallel-reduction
accumulation split. Floors are deliberately below steady-state numbers so
only a genuine regression — a lane family silently falling back a tier, a
reduction landing back on the interpreter, the deferred accumulator
degrading to the serial path — trips the gate, not CI-runner noise.

Keys absent from a report fail its gate too (a silently dropped column is
itself a regression).

Usage: bench_gate.py [path-to-BENCH_*.json]
"""

import json
import os
import sys

# report basename -> {key -> minimum acceptable value}.
REPORT_FLOORS = {
    "BENCH_lowering.json": {
        "simd_speedup": 3.0,        # [i32; W] fused tier vs per-op, per filter
        "f32_simd_speedup": 10.0,   # [f32; W] lane family (miniGMG smooth)
        "i64_simd_speedup": 3.0,    # [i64; W/2] lane family (hist64 binning)
        "f64_simd_speedup": 1.5,    # [f64; W/2] lane family (f64 miniGMG smooth)
        "reduction_speedup": 1.5,   # compiled update nests vs run_update
    },
    "BENCH_serve.json": {
        "serve_throughput_rps": 1.0,     # the service must actually serve
        "parallel_reduce_speedup": 1.3,  # privatize-then-merge vs serial nest
        "shed_p99_improvement": 1.0,     # shedding never worsens the tail
        "expired_completed_fraction": 1.0,  # every expired ticket resolves
    },
    "BENCH_autotune.json": {
        "guided_vs_random_speedup": 1.2,  # model-ranked trials-to-5% vs random
        "warm_start_zero_trials": 1.0,    # persisted cache => zero timed trials
    },
}


def walk(node, path, floors, found, failures):
    if isinstance(node, dict):
        for key, value in node.items():
            here = f"{path}.{key}" if path else key
            if key in floors and isinstance(value, (int, float)):
                found.add(key)
                if value < floors[key]:
                    failures.append(
                        f"{here} = {value:.3f} is below the floor {floors[key]:.1f}"
                    )
                else:
                    print(f"ok: {here} = {value:.3f} (floor {floors[key]:.1f})")
            else:
                walk(value, here, floors, found, failures)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            walk(value, f"{path}[{i}]", floors, found, failures)


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_lowering.json"
    floors = REPORT_FLOORS.get(os.path.basename(path))
    if floors is None:
        print(f"bench gate FAILED: no floors configured for {path}", file=sys.stderr)
        sys.exit(1)
    with open(path) as f:
        report = json.load(f)
    found, failures = set(), []
    walk(report, "", floors, found, failures)
    for key in sorted(set(floors) - found):
        failures.append(f"{key} is missing from {path} entirely")
    if failures:
        print(f"\nbench gate FAILED ({len(failures)} problem(s)):", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        sys.exit(1)
    print(f"\nbench gate passed: {len(found)} gated column(s) above their floors")


if __name__ == "__main__":
    main()
