#!/usr/bin/env python3
"""End-to-end WGS pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the library and the
benchmark programs from source (CMake, Release) under .bench_build/,
generates the workload's inputs from the seed, runs the real pipeline in a
closed loop for S seconds and checks every VCF it writes: byte-identical
across runs, identical to an in-process run on the spill and distributed
backends, and above the accuracy floors against the generated truth.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (wall_s, cpu_s, setup_s, peak_rss_mb and SNP/indel
recall/precision); with --trace 1 they are the per-layer ones, and a Chrome
trace of the run plus its layer replay is written next to the run's VCF.
Workloads, their generator parameters and the layer -> end-to-end map are in
perfbench/manifest.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
TARGETS = ["gpf_perfbench", "gpf_perfbench_gen", "gpf_worker"]
# A run must end within this many seconds once the programs are built.
RUN_DEADLINE_S = 170.0
# setup_s is the median over this many fresh processes, each setting up once.
SETUP_PROBES = 11


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def stop_group(proc):
    """Kills whatever is left of the process group `proc` led and waits
    until every member has exited."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(cmd, timeout, capture=False, env=None):
    """Runs `cmd` in its own process group; returns (exit code, stdout).
    On timeout the group is killed and the exit code is None."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout:.0f}s: {' '.join(cmd)}")
        out, code = "", None
    finally:
        stop_group(proc)
    return code, out or ""


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources at {ROOT}/src: run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
        if code != 0:
            return False
    code, _ = run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
                  timeout=840)
    return code == 0


def report_failure(attempted, failed):
    """Prints a failed result for runs that ended before the timed loop."""
    print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                      "failed": max(failed, 1), "metrics": {}}))
    return 1


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "manifest.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload}; known: {', '.join(workloads)}")
        return 2
    workload = workloads[args.workload]
    if not build():
        log("build failed")
        return 1
    started = time.monotonic()

    work = os.path.join(BUILD_ROOT, "work",
                        f"{args.workload}-{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, TMPDIR=work)
    gen = [os.path.join(BUILD, "gpf_perfbench_gen"), "--out", work,
           "--seed", str(args.seed)]
    for key, value in workload["generator"].items():
        gen += ["--" + key, str(value)]
    code, out = run(gen, timeout=60, capture=True, env=env)
    if code != 0:
        log("input generation failed")
        return 1
    log(out.strip())

    harness = [os.path.join(BUILD, "gpf_perfbench"), "--inputs", work,
               "--work", work]
    for key, value in workload["backend"].items():
        harness += ["--" + key, str(value)]
    for key, value in workload["accuracy_floors"].items():
        harness += ["--min-" + key, str(value)]
    attempted, failed = 0, 0
    if workload["backend"].get("backend", "inprocess") != "inprocess":
        # The in-process VCF every run on this backend must reproduce.
        reference = os.path.join(work, "inprocess.vcf")
        attempted += 1
        code, out = run(harness + ["--reference-out", reference],
                        timeout=RUN_DEADLINE_S - (time.monotonic() - started),
                        capture=True, env=env)
        if code != 0:
            return report_failure(attempted, failed + 1)
        harness += ["--reference", reference]

    setup = []
    for _ in range(SETUP_PROBES if args.trace == 0 else 0):
        code, out = run(harness + ["--setup-probe", "1"], timeout=60,
                        capture=True, env=env)
        if code != 0:
            log("set-up probe failed")
            return report_failure(attempted, failed)
        setup.append(last_json_line(out)["metrics"]["setup_s"]["value"])

    harness += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run(harness,
                    timeout=RUN_DEADLINE_S - (time.monotonic() - started),
                    capture=True, env=env)
    try:
        result = last_json_line(out)
    except ValueError:
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}, "info": {}}
    correct = bool(result["correct"]) and code == 0
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    declared = declared_metrics(args.trace)
    if declared is not None and correct and declared != set(result["metrics"]):
        log("metrics differ from BENCHMARK.json: "
            f"missing {sorted(declared - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - declared)}")
        correct = False
    log("info: " + json.dumps(result.get("info", {})))
    print(json.dumps({"correct": correct,
                      "attempted": attempted + result["attempted"],
                      "failed": failed + result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
