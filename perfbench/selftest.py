#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

Runs every workload of BENCHMARK.json for one second, untraced and traced,
and checks that each run is correct, fails nothing, and emits exactly the
metric names BENCHMARK.json declares, with their units.

Usage, from the repository root: python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = run(wl["name"], trace)
            before = len(errors)
            where = f"{wl['name']} trace={trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                errors.append(f"{where}: correct={res['correct']} failed={res['failed']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics {sorted(got.items())} != {sorted(want.items())}")
            print(f"{where}: {'ok' if len(errors) == before else 'FAILED'}", flush=True)
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
