#!/usr/bin/env python3
"""Self-test of the Voltron benchmark.

From the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size (--quick) twice,
untraced and traced. Checks that each result line has the four result
keys, that every run verifies, that the metric names and units are
exactly the ones BENCHMARK.json lists, and that every exact count (units
count, cycles and share, and the attempted and failed totals) repeats
bit for bit. Exits 1 on the first mismatch, 0 when all hold.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_UNITS = {"count", "cycles", "share"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace):
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--quick"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} --trace {trace}: exit code {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(cond, msg):
    if not cond:
        sys.exit("selftest: " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            first, second = run(name, trace), run(name, trace)
            for r in (first, second):
                check(set(r) == RESULT_KEYS, f"{name} --trace {trace}: keys {sorted(r)}")
                check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
                      f"{name} --trace {trace}: not verified: {r['attempted']} attempted, "
                      f"{r['failed']} failed, correct {r['correct']}")
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                check(got == expected,
                      f"{name} --trace {trace}: metrics differ from BENCHMARK.json {key}: "
                      f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for total in ("attempted", "failed"):
                check(first[total] == second[total],
                      f"{name} --trace {trace}: {total} {first[total]} then {second[total]}")
            for metric, unit in expected.items():
                if unit in EXACT_UNITS:
                    a = first["metrics"][metric]["value"]
                    b = second["metrics"][metric]["value"]
                    check(a == b, f"{name} --trace {trace}: {metric} {a} then {b}")
            print(f"selftest: {name} --trace {trace}: ok ({len(expected)} metrics)")
    print("selftest: ok")


if __name__ == "__main__":
    main()
