#!/usr/bin/env python3
"""Self-test of the serving benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Runs every workload at a tiny scale
(10,000 points, one-second passes) through perfbench/run.py, once untraced
and once traced, and checks that:

  * each run passes the correctness gate (exit code 0, "correct": true,
    no failed query);
  * the metric names and units it prints are exactly those BENCHMARK.json
    lists: end_to_end for --trace 0, per_layer for --trace 1;
  * the timing decorators are transparent: in the traced run, the digest of
    the queries both passes completed is the same untraced and traced.

Exits 0 when every check holds and prints one line per run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The gated workloads come from BENCHMARK.json; table1-open runs too, as it
# shares the load loops, the gate and the decorators. Being an open loop, it also
# prints the generator's metrics, which BENCHMARK.json does not list.
EXTRA_WORKLOADS = ["table1-open"]
OPEN_LOOP_ONLY = {"gen.lag_us_p99": "us", "gen.wait_us_per_query": "us"}


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--scale", "0.02"]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"{workload}: no result (exit {out.returncode})")
    return out.returncode, json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check(workload, trace, spec, ungated):
    code, meta, result = run(workload, trace)
    problems = []
    if code != 0 or result["correct"] is not True:
        problems.append(f"correctness gate failed: {meta['errors']}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted {result['attempted']} failed "
                        f"{result['failed']}")
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    if ungated and trace:
        listed.update(OPEN_LOOP_ONLY)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != listed:
        missing = sorted(set(listed) - set(printed))
        extra = sorted(set(printed) - set(listed))
        wrong = sorted(n for n in set(listed) & set(printed)
                       if listed[n] != printed[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{missing}, unlisted {extra}, unit {wrong}")
    if trace:
        if meta["common_queries"] < 1:
            problems.append("the two passes share no completed query")
        if meta["digest_untraced"] != meta["digest_traced"]:
            problems.append("traced and untraced digests differ")
    status = "ok" if not problems else "FAIL " + "; ".join(problems)
    print(f"{workload:14s} trace={trace} attempted={result['attempted']:6d} "
          f"{status}", flush=True)
    return not problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    gated = [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in gated + [w for w in EXTRA_WORKLOADS if w not in gated]:
        for trace in (0, 1):
            ok = check(workload, trace, spec, workload not in gated) and ok
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
