#!/usr/bin/env python3
"""Append one end-to-end perfbench point to BENCH_perf.json.

    python3 tools/perf_point.py --workload pr --seed 1 --seconds 24

Runs `python3 perfbench/run.py <arguments> --trace 0`, echoes its output and
appends its build stamp, workload, seed, --seconds and metrics as one line of
the BENCH_perf.json array. Appends nothing, and exits non-zero, when the run
fails or reports an incorrect result.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "BENCH_perf.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, kind in (("--workload", str), ("--seed", int),
                       ("--seconds", float)):
        ap.add_argument(flag, required=True, type=kind)
    args, _ = ap.parse_known_args()
    out = subprocess.run([sys.executable, "perfbench/run.py", *sys.argv[1:],
                          "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    sys.stdout.write(out.stdout)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines or not json.loads(lines[-1])["correct"]:
        print("perf_point: run failed, nothing appended", file=sys.stderr)
        return out.returncode or 1
    stamp = next(l for l in lines if l.startswith("# build: "))
    point = dict(f.split("=", 1) for f in shlex.split(stamp[9:]))
    point.update(nproc=int(point["nproc"]), **vars(args),
                 metrics=json.loads(lines[-1])["metrics"])
    points = []
    if os.path.exists(RECORD):
        with open(RECORD) as fh:
            points = json.load(fh)
    with open(RECORD + ".tmp", "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(p) for p in points + [point])
                 + "\n]\n")
    os.replace(RECORD + ".tmp", RECORD)
    return 0


if __name__ == "__main__":
    sys.exit(main())
