"""Seeded input generator for the pipeline benchmark.

Everything a run feeds the program comes from here, derived from the
seed alone: the order in which the pipeline workloads visit the ten
applications, and the cuadvisord request stream of the daemon workload
(hot jobs that the set-up stores in the cache, the cache-missing jobs,
and the MiniCUDA source kernels of the source jobs).

The seed changes only orders and kernel constants, never the amount of
work: every pass of every seed carries the same multiset of jobs, and a
kernel's constants do not change its instruction stream, so the
deterministic work counters repeat exactly across seeds. In the daemon
stream the seed orders the hits; the misses keep fixed, evenly spaced
slots, so that every seed spreads them alike over the pass.

    python3 perfbench/gen.py --workload daemon-mix --seed 7 > inputs.json
"""

import argparse
import json
import random

APPS = ["backprop", "bfs", "hotspot", "lavaMD", "nn", "nw", "srad_v2",
        "bicg", "syrk", "syr2k"]

# Small applications the daemon serves; each is a hot job twice (exact
# and warp-sampled) and a no_cache miss once per pass.
SMALL_APPS = ["backprop", "bfs", "nn", "nw", "bicg"]

# Fault demos and the structured error code each must come back with.
# They are never cached, so every one is a miss.
FAULT_DEMOS = [
    ("oob-store", "oob-global", 0),
    ("div-zero", "div-zero", 0),
    ("divergent-sync", "divergent-barrier", 0),
    # The runaway demo refuses to launch without a small watchdog.
    ("runaway", "watchdog", 200000),
]

# Source-job templates. C1 and C2 are the seeded constants: they change
# the printed IR (so the cache key) but not the executed instructions.
TEMPLATES = {
    "saxpy": {
        "code": (
            "__global__ void saxpy(float* x, float* y, int n) {\n"
            "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
            "  if (i < n) {\n"
            "    y[i] = x[i] * C1f + C2f;\n"
            "  }\n"
            "}\n"),
        "kernel": "saxpy",
        "grid": [8, 1],
        "block": [64, 1],
        "args": [{"type": "buffer", "bytes": 2048, "fill": "iota"},
                 {"type": "buffer", "bytes": 2048},
                 {"type": "int", "value": 500}],
    },
    "blur": {
        "code": (
            "__global__ void blur(float* in, float* out) {\n"
            "  __shared__ float tile[64];\n"
            "  int tx = threadIdx.x;\n"
            "  int i = blockIdx.x * blockDim.x + tx;\n"
            "  tile[tx] = in[i] * C1f;\n"
            "  __syncthreads();\n"
            "  float left = tile[(tx + 63) % 64];\n"
            "  out[i] = (left + tile[tx]) * C2f;\n"
            "}\n"),
        "kernel": "blur",
        "grid": [4, 1],
        "block": [64, 1],
        "args": [{"type": "buffer", "bytes": 1024, "fill": "iota"},
                 {"type": "buffer", "bytes": 1024}],
    },
    "transpose": {
        "code": (
            "__global__ void transpose(float* in, float* out, int w) {\n"
            "  int x = blockIdx.x * blockDim.x + threadIdx.x;\n"
            "  int y = blockIdx.y * blockDim.y + threadIdx.y;\n"
            "  out[x * w + y] = in[y * w + x] * C1f - C2f;\n"
            "}\n"),
        "kernel": "transpose",
        "grid": [2, 2],
        "block": [16, 16],
        "args": [{"type": "buffer", "bytes": 4096, "fill": "iota"},
                 {"type": "buffer", "bytes": 4096},
                 {"type": "int", "value": 32}],
    },
}

HOT_KERNELS_PER_TEMPLATE = 4
HOT_REPEATS = 5          # Each hot job appears this often in a pass.
DAEMON_PASSES = 64       # Upper bound on passes one run can make.

# The misses of a pass in slot order: "m<i>" is the i-th fixed miss
# (SMALL_APPS as no_cache jobs, then FAULT_DEMOS), "f<i>" the fresh
# kernel of the i-th template. The slow no_cache jobs (bfs, nw, bicg)
# sit apart.
MISS_ORDER = ["m1", "m5", "f0", "m3", "m6", "f1", "m4", "m7", "f2", "m0",
              "m8", "m2"]


def request(app=None, sample="", no_cache=False, watchdog=0, source=None):
    req = {"schema": "cuadv-job-request-1", "kind": "profile",
           "arch": "kepler16"}
    if app is not None:
        req["app"] = app
    if source is not None:
        req["source"] = source
    if sample:
        req["sample"] = sample
    if no_cache:
        req["no_cache"] = True
    if watchdog:
        req["limits"] = {"watchdog_cycles": watchdog}
    return req


class ConstantPool:
    """Hands out kernel constants never used before in this run, so each
    generated kernel has its own cache key."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def take(self):
        while True:
            eighths = self.rng.randrange(8, 1 << 20)
            if eighths not in self.used:
                self.used.add(eighths)
                # A multiple of 1/8 below 2^17 is exact in float, so
                # distinct constants print as distinct IR.
                return "%d.%03d" % (eighths // 8, eighths % 8 * 125)


def source_job(template, pool):
    t = TEMPLATES[template]
    code = (t["code"].replace("C1", pool.take())
            .replace("C2", pool.take()))
    return {"code": code, "file": template + ".cu", "kernel": t["kernel"],
            "grid": t["grid"], "block": t["block"], "args": t["args"]}


def job(request, check, expect="ok"):
    return {"request": request, "check": check, "expect": expect}


def daemon_inputs(rng):
    """Hot jobs (stored by set-up, hits in every pass), fixed misses
    (no_cache app jobs and fault demos) and, per pass, one fresh kernel
    of each template plus the order of the pass."""
    pool = ConstantPool(rng)
    hot = [job(request(app=app, sample=sample), "app")
           for app in SMALL_APPS for sample in ("", "warp:32")]
    hot += [job(request(source=source_job(template, pool)),
                "template:" + template)
            for template in TEMPLATES
            for _ in range(HOT_KERNELS_PER_TEMPLATE)]
    fixed = [job(request(app=app, no_cache=True), "app")
             for app in SMALL_APPS]
    fixed += [job(request(app=app, watchdog=watchdog), "fault", code)
              for app, code, watchdog in FAULT_DEMOS]
    passes = []
    for _ in range(DAEMON_PASSES):
        fresh = [job(request(source=source_job(template, pool)),
                     "template:" + template)
                 for template in TEMPLATES]
        hits = ["h%d" % i for i in range(len(hot))] * HOT_REPEATS
        rng.shuffle(hits)
        order = []
        for k, miss in enumerate(MISS_ORDER):
            order += hits[len(order) - k:
                          round((k + 0.5) * len(hits) / len(MISS_ORDER))]
            order.append(miss)
        order += hits[len(order) - len(MISS_ORDER):]
        passes.append({"order": order, "fresh": fresh})
    return {"hot": hot, "fixed": fixed, "passes": passes}


def generate(workload, seed):
    rng = random.Random(seed)
    order = list(APPS)
    rng.shuffle(order)
    doc = {"workload": workload, "seed": seed, "app_order": order}
    if workload == "daemon-mix":
        doc["daemon"] = daemon_inputs(rng)
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps(generate(args.workload, args.seed)))


if __name__ == "__main__":
    main()
