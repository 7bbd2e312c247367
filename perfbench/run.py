"""Pipeline benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Builds the perfbench driver and the project libraries from source into
.bench_build/perfbench (first run only; later runs rebuild
incrementally), generates the workload's inputs from the seed
(perfbench/gen.py), runs the driver and prints its report. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of BENCHMARK.json with --trace 1. Traced runs also
leave a Chrome trace of their spans in .bench_build/perfbench/.

Workloads: profile-exact, simulate-clean, profile-sampled-par,
daemon-mix (see BENCHMARK.json for why each was chosen). The exit code
is nonzero when any output check fails or the build is impossible.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["profile-exact", "simulate-clean", "profile-sampled-par",
             "daemon-mix"]
# Everything must finish well inside three minutes after the build.
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import gen  # noqa: E402


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; output to stderr."""
    for needed in ("src/CMakeLists.txt", "bench/baselines/workloads.json",
                   "perfbench/pins.json", "BENCHMARK.json"):
        if not os.path.isfile(needed):
            fail("missing %s: run from a checkout of the repository" % needed)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    exe = build()
    os.makedirs(BUILD, exist_ok=True)
    tag = "%s-%d" % (args.workload, args.seed)
    inputs = os.path.join(BUILD, "inputs-%s-%d.json" % (tag, os.getpid()))
    with open(inputs, "w") as f:
        json.dump(gen.generate(args.workload, args.seed), f)
    cmd = [exe, "--workload", args.workload, "--inputs", inputs,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--work-dir", BUILD,
           "--trace-out", os.path.join(BUILD, "trace-%s.json" % tag)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                  RUN_TIMEOUT_S))
    finally:
        os.remove(inputs)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver did not end with a JSON result (exit %d)" %
             proc.returncode)
    names = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(names):
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(result["metrics"]) ^ set(names)))
    for line in lines[:-1]:
        print(line)
    print("seed %d, %.1f s wall" % (args.seed, time.monotonic() - start))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: result["metrics"][name]
                                  for name in names}}))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
