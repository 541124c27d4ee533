#!/usr/bin/env python3
"""Build and run the sps end-to-end benchmark (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt compiles the checkout's src/ in Release
mode) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later calls rebuild only what changed. Every call runs
the benchmark's self-tests, then the workload. The workload's stdout is
passed through; its last line is the JSON result, checked here against the
metric lists in BENCHMARK.json. --trace 1 also writes the traced run's spans
as Chrome-trace JSON to <build>/traces/<workload>.json (Perfetto opens it).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sps sources under {ROOT}/src; run from a full checkout", 2)
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed", 2)


def check_result(line, declared):
    """Return the parsed result line, or exit if it breaks the contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool) or \
            not isinstance(result["attempted"], int) or result["attempted"] < 1 or \
            not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("result fields have the wrong types")
    if result["correct"]:
        units = {m["name"]: m["unit"] for m in declared}
        got = result["metrics"]
        if set(got) != set(units):
            fail(f"metrics differ from BENCHMARK.json: missing "
                 f"{sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}")
        for name, metric in got.items():
            if set(metric) != {"value", "unit"} or metric["unit"] != units[name]:
                fail(f"metric {name} is malformed: {metric}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    declared = bench["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    build(out_dir)
    selftest = subprocess.run([os.path.join(out_dir, "perfbench_selftest"), out_dir],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("benchmark self-tests failed")

    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, "traces", args.workload + ".json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if run.returncode not in (0, 1) or not lines[-1].startswith("{"):
        fail(f"benchmark exited with {run.returncode} and no result")
    result = check_result(lines[-1], declared)
    print(lines[-1], flush=True)
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
