#!/usr/bin/env python3
"""Smoke test: runs every workload briefly, untraced and traced, and checks
that each run is correct and prints every metric BENCHMARK.json names.

    python3 e2ebench/tests/smoke_test.py [workload ...]

Run from the repository root; takes about a minute on a 4-thread host.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# query_under_ingest needs about 8 s of queries for 1000 samples per kind.
SECONDS = {"ingest_fleet": 2, "query_under_ingest": 10}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", workload, "--seed", "7",
           "--seconds", str(SECONDS.get(workload, 2)), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return f"incorrect run: {result['failed']} of {result['attempted']} failed"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            return f"metric {m['name']} missing"
        if got["unit"] != m["unit"]:
            return f"metric {m['name']} unit {got['unit']} != {m['unit']}"
        if not trace and not got["value"] > 0:
            return f"end-to-end metric {m['name']} is {got['value']}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = 0
    for workload in sys.argv[1:] or workloads:
        for trace in (0, 1):
            err = run(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if err is None else 'FAIL ' + err}",
                  flush=True)
            failures += err is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
