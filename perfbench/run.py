#!/usr/bin/env python3
"""End-to-end transaction benchmark over real UDP sockets.

Builds perf_e2e from the repository's sources (perfbench/CMakeLists.txt),
runs one workload, checks the result's shape against BENCHMARK.json and
prints it as the last line of standard output:

    python3 perfbench/run.py --workload ycsbt_uniform --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1 the
per-layer metrics of a traced run (see perfbench/README.md). Run it from the
repository root. The build goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. --out FILE also saves the info and result lines as
one JSON document, which perfbench/compare.py compares.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no meerkat sources under {ROOT}/src; run from a repository checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perf_e2e",
                    "perf_logic_test"], stdout=sys.stderr, check=True)
    return build_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also save info and result to this JSON file")
    args = parser.parse_args()

    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    binary = os.path.join(build_dir, "perf_e2e")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perf_e2e did not finish within {RUN_TIMEOUT_S} s")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail(f"perf_e2e exited {proc.returncode} without a result")
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {sorted(n for n in want if n in got and got[n] != want[n])}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"info": info["info"], "result": result}, f, indent=1)
    print(lines[-2])
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
