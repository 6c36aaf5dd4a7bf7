#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <tpcc-online|rpc-read|trace-analyze>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The driver is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr. The driver's last stdout line is the result JSON.

A plain run (--trace 0) saves its end-to-end metrics under perfbench/out; a
span run (--trace 1) prints its own end-to-end metrics against the latest
saved plain run of the same workload, which is the span recording's
overhead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def e2e_of(lines):
    for line in lines:
        if line.startswith("e2e "):
            return json.loads(line[4:])
    return None


def overhead_lines(workload, e2e):
    path = os.path.join(OUT_DIR, "last-plain-%s.json" % workload)
    if not os.path.exists(path):
        return ["span-run overhead: no plain run of %s recorded yet" % workload]
    with open(path) as f:
        plain = json.load(f)
    lines = ["span-run overhead against the latest plain run (seed %s):"
             % plain.get("seed")]
    for name, metric in e2e.items():
        base = plain["metrics"].get(name, {}).get("value")
        if not base:
            continue
        lines.append("  %-28s plain %14.4f  span %14.4f  %+7.2f%%" % (
            name, base, metric["value"],
            100.0 * (metric["value"] - base) / base))
    return lines


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(os.path.join(os.path.abspath(build_root), "perfbench"))
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", OUT_DIR],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1

    e2e = e2e_of(lines)
    extra = []
    if e2e is not None:
        if args.trace:
            extra = overhead_lines(args.workload, e2e)
        else:
            with open(os.path.join(
                    OUT_DIR, "last-plain-%s.json" % args.workload), "w") as f:
                json.dump({"seed": args.seed, "metrics": e2e}, f)
    for line in lines[:-1] + extra:
        print(line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
