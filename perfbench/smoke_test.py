#!/usr/bin/env python3
"""Smoke test for the repository benchmark.

Runs every workload in BENCHMARK.json in the short mode of run.py (a small
pool, one set-up, a two-second window), untraced and traced, and checks
that:
  * each run exits 0 and reports correct == true;
  * every metric BENCHMARK.json names is printed with its unit;
  * no op failed or returned wrong bytes (failed == 0 and, in the traced
    run, bench.error_rate == 0).

Usage, from the repository root:  python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        seconds = json.load(f)["short"]["seconds"]

    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w["name"], "--seed", "1",
                   "--seconds", str(seconds), "--trace", str(trace), "--short"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            tag = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            want = bench["per_layer" if trace else "end_to_end"]
            for m in want:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{tag}: metric {m['name']} missing")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit "
                                    f"{got.get('unit')!r} != {m['unit']!r}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if trace and result["metrics"]["bench.error_rate"]["value"] != 0:
                problems.append(f"{tag}: bench.error_rate != 0")
            print(f"ok   {tag}: {result['attempted']} ops")
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
