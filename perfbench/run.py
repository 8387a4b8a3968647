#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

Usage, from the repository root:

    python3 perfbench/run.py --workload oltp-mem --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (and the library from
src/) into .bench_build/; later runs rebuild incrementally. Build output
goes to stderr. The workload's parameters come from perfbench/spec.json.
The benchmark's own report follows on stdout, and its last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is nonzero when the build fails, the run fails, or any byte read back
was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr) != 0:
        fail("build failed", 3)
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    bench = load_json(os.path.join(HERE, "..", "BENCHMARK.json"))
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="small pool and few set-ups (smoke_test.py)")
    args = ap.parse_args()

    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload {args.workload!r}; "
             f"have {sorted(spec['workloads'])}")
    params = dict(spec["workloads"][args.workload]["params"])
    if args.short:
        params.update(spec["short"]["params"])

    binary = build()
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_DIR, "run", args.workload),
           "--trace-file",
           os.path.join(BUILD_DIR, "traces",
                        f"{args.workload}-seed{args.seed}.tsv")]
    for key, value in params.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}", proc.returncode)

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, unexpected "
             f"{sorted(set(got) - set(want))}, units "
             f"{ {k: (got[k], want[k]) for k in set(got) & set(want) if got[k] != want[k]} }",
             5)


if __name__ == "__main__":
    main()
