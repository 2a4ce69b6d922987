#!/usr/bin/env python3
"""Builds and runs the seplsm end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library plus the benchmark (RelWithDebInfo, the repository's default build
type) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls only rebuild what changed.
Build output goes to stderr. The benchmark's own progress and ledger go to
stdout, and the last stdout line is the result:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "e2ebench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "e2ebench")


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(bdir, "data"),
           "--trace-file", os.path.join(bdir, f"spans-{args.workload}.csv")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        # The benchmark runs in its own session: take it down with us.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4

    lines = out.rstrip("\n").split("\n") if out else []
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 5
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"run.py: last line is not JSON: {lines[-1]!r}", file=sys.stderr)
        return 5
    want = expected_metrics(args.trace == 1)
    if want is not None and set(result["metrics"]) != want:
        print("run.py: metrics differ from BENCHMARK.json: missing "
              f"{sorted(want - set(result['metrics']))}, extra "
              f"{sorted(set(result['metrics']) - want)}", file=sys.stderr)
        return 6
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
