#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload at a tiny scale and checks
that each metric BENCHMARK.json names is printed with its unit, that the
traced run drops no spans, and that a planted wrong answer is caught (the
run is marked incorrect, counted as failed, and exits non-zero).

    python3 perfbench/selftest.py        # from the repository root, ~2 min
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--sf", "0.01", "--seconds", "1", "--seed", "1"]


def run(workload, trace, extra=()):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = (["python3", os.path.join(HERE, "run.py")] + bench["command"][2:] +
               ["--workload", workload, "--trace", str(trace)] + TINY + list(extra))
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return bench, proc.returncode, result, proc.stderr


def main():
    failures = []

    def check(condition, message):
        if not condition:
            failures.append(message)
            print("FAIL", message)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            bench, code, result, stderr = run(workload, trace)
            label = f"{workload} trace={trace}"
            check(code == 0 and result is not None, f"{label}: exit {code}\n{stderr[-2000:]}")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{label}: correct={result['correct']} failed={result['failed']}")
            check(result["attempted"] >= 1, f"{label}: attempted={result['attempted']}")
            wanted = bench["per_layer" if trace else "end_to_end"]
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in wanted},
                  f"{label}: metric names differ: "
                  f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
            for m in wanted:
                got = metrics.get(m["name"])
                check(got is not None and got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)),
                      f"{label}: {m['name']} printed as {got}, unit {m['unit']} expected")
            if trace:
                dropped = metrics.get("obs.spans_dropped", {}).get("value")
                check(dropped == 0, f"{label}: obs.spans_dropped = {dropped}")
        _, code, result, _ = run(workload, 0, ["--plant-wrong-answer"])
        check(code != 0 and result is not None and result["correct"] is False and
              result["failed"] >= 1,
              f"{workload}: planted wrong answer not caught (exit {code}, {result and {k: result[k] for k in ('correct', 'failed')}})")
        print("ok" if not failures else "..", workload)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
