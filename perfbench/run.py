#!/usr/bin/env python3
"""Build and run the lamb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Configures and builds perfbench/ (which builds
the lamb library from the root sources) into .bench_build/, then runs the
benchmark binary. Build output goes to stderr; the binary's lines go to
stdout, and the last stdout line is the result object. --seconds defaults to
BENCHMARK.json's run_seconds. Per-layer metrics that a workload does not
exercise are reported as 0, so every traced run names every per_layer metric
of BENCHMARK.json. A traced run also computes the workload's exact counts in
two more processes, for the seed and a held-out seed, and fails unless both
agree with each other and with the traced run. Exits non-zero when the build
fails, a check fails, or the result does not hold the metrics BENCHMARK.json
names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
WORKLOADS = ["warm_http", "warm_batch", "cold_sim", "cold_measured"]


def build():
    """Configure once, then build; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = os.path.join(BUILD, "perfbench")
    return binary if os.path.isfile(binary) else None


def describe():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def exact_counts(binary, workload, seed):
    """The workload's exact counts from one separate process."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--counts", "1"],
        stdout=subprocess.PIPE, text=True, timeout=60)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_counts(binary, workload, seed, metrics):
    """Problems with the exact counts: two processes must agree with each
    other, for the seed and the held-out seed, and with the traced run."""
    first = exact_counts(binary, workload, seed)
    second = exact_counts(binary, workload, seed)
    if first is None or second is None:
        return ["the exact-count pass failed"]
    problems = []
    if first != second:
        problems.append("exact counts differ between two processes: %s vs %s"
                        % (first, second))
    for name, value in first["seed"].items():
        if metrics.get(name, {}).get("value") != value:
            problems.append("%s of the traced run %s differs from the count "
                            "pass's %s" % (name, metrics.get(name), value))
    return problems


def run_one(binary, workload, seed, seconds, trace, tag):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--describe", tag],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print("perfbench: the benchmark binary printed no result", file=sys.stderr)
        return None, 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    metrics = result["metrics"]
    code = proc.returncode
    if trace:
        for problem in check_counts(binary, workload, seed, metrics):
            print("CHECK FAILED: " + problem)
            result["correct"] = False
            code = code or 1
    missing = []
    for m in spec()["per_layer" if trace else "end_to_end"]:
        if m["name"] in metrics:
            continue
        if trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}  # not exercised
        else:
            missing.append(m["name"])
    if missing:
        print("perfbench: missing end-to-end metrics %s" % missing, file=sys.stderr)
        return None, 1
    return result, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # Keep git (run by `describe` here and by the library's configure step)
    # from searching above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    tag = describe()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results, code = {}, 0
    for workload in workloads:
        result, rc = run_one(os.path.abspath(binary), workload, args.seed,
                             args.seconds, args.trace, tag)
        if result is None:
            return 1
        code = code or rc
        results[workload] = result
        if args.workload == "all":
            print(json.dumps({workload: result}))
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
        print(json.dumps(summary))
    else:
        print(json.dumps(results[args.workload]))
    return code


if __name__ == "__main__":
    sys.exit(main())
