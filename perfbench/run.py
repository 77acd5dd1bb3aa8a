#!/usr/bin/env python3
"""Simulator benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pr --seed 1 --seconds 10 --trace 0

Builds the simulator and the simbench program in a Release tree of their
own (.bench_build/, rebuilt only when a source file changes), runs the
workload, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 gives the end-to-end
metrics, added up over one simbench process per input of the seed; --trace 1
gives the per-layer ones, from one process. See perfbench/README.md for
what each metric means.

Exits non-zero without printing a result when the simulator sources are
missing, the build fails, or simbench fails or runs out of time.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("pr", "ycsb", "pr-meta")

# Inputs of the build: everything the Release tree compiles.
SOURCES = ("src", "perfbench/CMakeLists.txt", "perfbench/simbench.cc",
           "bench/micro_components.cc")

# An end-to-end run is one simbench process per input of the seed. Where the
# simulator's heap lands in physical memory differs from one process to
# the next and moves its speed by several percent, while repeats inside a
# process agree; several processes per run average that out.
INPUTS = 4

# Host memory latency the refs/s figures are scaled to (see README.md).
NOMINAL_CHASE_NS = 100.0

# Whole-process limits: the first run in a checkout also builds.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Each per-layer probe beside the micro_components figure for the same
# function on that benchmark's small, cache-resident state.
BM_FOR_PROBE = (
    ("workloads.next_ns", "BM_TraceGeneration", "bm.trace_generation_ns"),
    ("sim.core_ns", "BM_CoreIssueLoad", "bm.core_issue_load_ns"),
    ("sim.access_ns", "BM_EndToEndAccess", "bm.end_to_end_access_ns"),
    ("cache.lookup_ns", "BM_SetAssocLookup", "bm.set_assoc_lookup_ns"),
    ("coherence.dir_lookup_ns", "BM_SetAssocLookup",
     "bm.set_assoc_lookup_ns"),
    ("mem.dram_access_ns", "BM_DramAccess", "bm.dram_access_ns"),
    ("pipm.remap_lookup_ns", "BM_RemapCacheLookup",
     "bm.remap_cache_lookup_ns"),
    ("pipm.vote_ns", "BM_MajorityVote", "bm.majority_vote_ns"),
)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_digest():
    """sha256 over the path and bytes of every build input."""
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path]
        if os.path.isdir(path):
            files = sorted(os.path.join(d, f)
                           for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, check=True)


def build():
    """Configure and build the Release tree unless it is current."""
    os.makedirs(BUILD, exist_ok=True)
    digest = source_digest()
    stamp = os.path.join(BUILD, "stamp")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(stamp):
            with open(stamp) as fh:
                if fh.read() == digest:
                    return digest
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        t0 = time.monotonic()
        run_checked(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S)
        run_checked(["cmake", "--build", BUILD, "-j", jobs,
                     "--target", "simbench", "micro_components"],
                    BUILD_TIMEOUT_S)
        with open(stamp, "w") as fh:
            fh.write(digest)
        log(f"built in {time.monotonic() - t0:.1f} s")
    return digest


def build_stamp(digest):
    """One line naming the code and the toolchain behind the numbers."""
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as fh:
        for line in fh:
            key, sep, val = line.rstrip("\n").partition("=")
            if sep and not line.startswith(("#", "//")):
                cache[key.split(":")[0]] = val
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return (f"# build: commit={commit} source={digest[:16]} "
            f"compiler=\"{version}\" "
            f"build_type={cache.get('CMAKE_BUILD_TYPE', '?')} "
            f"nproc={os.cpu_count()}")


def micro_figures(deadline):
    """ns/op of the micro_components benchmarks the probes match."""
    names = sorted({bm for _, bm, _ in BM_FOR_PROBE})
    out = subprocess.run(
        [os.path.join(BUILD, "micro_components"),
         "--benchmark_filter=^(" + "|".join(names) + ")$",
         "--benchmark_min_time=0.1", "--benchmark_format=json"],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=max(1.0, deadline - time.monotonic()))
    return {b["name"]: b["real_time"] for b in json.loads(out.stdout)
            ["benchmarks"] if b.get("time_unit") == "ns"}


def run_simbench(args, scratch, deadline, extra):
    """Run simbench once; return its comment lines and its result."""
    out = subprocess.run(
        [os.path.join(BUILD, "simbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--trace", str(args.trace),
         "--scratch", scratch, *extra],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def end_to_end(parts):
    """Add up the per-input parts into the end-to-end metrics."""
    def v(part, key):
        return part["metrics"][key]["value"]

    def nominal_s(part, key):
        # Host seconds on a host with NOMINAL_CHASE_NS memory latency.
        return v(part, key) * NOMINAL_CHASE_NS / v(part, "chase_ns")

    def total(key, f=v):
        return sum(f(p, key) for p in parts)

    metrics = {
        "refs_per_s": (total("row_refs") / total("row_s", nominal_s), "1/s"),
        "pipm_refs_per_s": (total("pipm_refs") / total("pipm_s", nominal_s),
                            "1/s"),
        "setup_s": (statistics.median(v(p, "setup_s") for p in parts), "s"),
        "peak_rss_mb": (max(v(p, "peak_rss_mb") for p in parts), "MB"),
        "pipm_speedup": (total("native_cycles") / total("pipm_cycles"), "x"),
    }
    return {k: {"value": val, "unit": unit}
            for k, (val, unit) in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        log("simulator sources missing: " + ", ".join(missing))
        return 2
    try:
        digest = build()
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    deadline = time.monotonic() + RUN_TIMEOUT_S
    scratch = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.trace:
            lines, result = run_simbench(args, scratch, deadline,
                                         ["--seconds", str(args.seconds)])
            bm = micro_figures(deadline)
        else:
            lines, parts = [], []
            for j in range(INPUTS):
                notes, part = run_simbench(
                    args, scratch, deadline,
                    ["--seconds", str(args.seconds / INPUTS),
                     "--input", str(j)])
                m = part["metrics"]
                lines += notes + [
                    f"# input {j}: unscaled refs_per_s "
                    f"{m['row_refs']['value'] / m['row_s']['value']:.6g}, "
                    f"pipm_refs_per_s "
                    f"{m['pipm_refs']['value'] / m['pipm_s']['value']:.6g}; "
                    f"chase {m['chase_ns']['value']:.4g} ns/step"]
                parts.append(part)
            result = {"correct": all(p["correct"] for p in parts),
                      "attempted": sum(p["attempted"] for p in parts),
                      "failed": sum(p["failed"] for p in parts),
                      "metrics": end_to_end(parts)}
    except (subprocess.SubprocessError, OSError, ValueError, IndexError,
            KeyError) as e:
        if isinstance(e, subprocess.CalledProcessError):
            sys.stderr.write(e.stderr or "")
        log(f"benchmark run failed: {e}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = result["metrics"]
    print(build_stamp(digest))
    print("\n".join(lines))
    if args.trace:
        print(f"# {'probe':26s} {'ns/call':>9s}  {'micro_components':22s}"
              f" {'ns/op':>8s} {'ratio':>6s}")
        for probe, bm_name, metric in BM_FOR_PROBE:
            if bm_name not in bm:
                log(f"{bm_name} missing from micro_components")
                return 1
            metrics[metric] = {"value": bm[bm_name], "unit": "ns"}
            ns = metrics[probe]["value"]
            print(f"# {probe:26s} {ns:9.2f}  {bm_name:22s}"
                  f" {bm[bm_name]:8.2f} {ns / bm[bm_name]:6.2f}")
    print(json.dumps({"correct": result["correct"] and result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
