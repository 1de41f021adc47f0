#!/usr/bin/env python3
"""Perfbench smoke check: fail CI when a brief benchmark run went wrong.

Reads the benchmark declaration (BENCHMARK.json) and the standard output of
one `perfbench --trace 0` run, whose last line is one JSON object. Fails if
the run checked an output as wrong (`correct: false`), if any operation
failed, or if an end-to-end metric the declaration lists is missing from the
report. No timing is judged here: a few seconds on a CI runner say nothing
about speed.

Usage: perfbench_check.py BENCHMARK.json perfbench_output.log
"""

import json
import sys


def main():
    declaration_path, output_path = sys.argv[1], sys.argv[2]
    with open(declaration_path) as f:
        declared = [m["name"] for m in json.load(f)["end_to_end"]]
    with open(output_path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        print(f"perfbench check FAILED: {output_path} is empty", file=sys.stderr)
        sys.exit(1)
    report = json.loads(lines[-1])
    problems = []
    if report.get("correct") is not True:
        problems.append(f"correct is {report.get('correct')!r}")
    if report.get("failed", 1) > 0:
        problems.append(f"{report.get('failed')} of {report.get('attempted')} operations failed")
    metrics = report.get("metrics", {})
    for name in declared:
        if name not in metrics:
            problems.append(f"end-to-end metric {name} is missing")
    if problems:
        print(f"perfbench check FAILED for {output_path}:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        sys.exit(1)
    for name in declared:
        print(f"ok: {name} = {metrics[name]['value']} {metrics[name]['unit']}")


if __name__ == "__main__":
    main()
