#!/usr/bin/env python3
"""Smoke test of the CMDL benchmark at a small scale.

Usage, from the root of the repository:

    python3 cmdlbench/smoke_test.py [--seed N] [--scale X]

Runs every workload untraced and traced for one second each and asserts
that the run passes its own output checks, that the final JSON line holds
exactly the metrics BENCHMARK.json names with their units, that every
printed metric is finite and unit-tagged, that the metrics the README
names for each workload are printed, and that the traced run wrote spans
for every module. Takes a few minutes.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODULES = ["lake", "profile", "sketch", "embed", "text", "label", "joint", "discover", "ekg", "core"]
PRINTED = {
    "build": ["setup_s", "heap_mb", "build_s", "rprec_doc2table_joint", "rprec_doc2table_solo", "failed_frac"],
    "lookup": ["setup_s", "heap_mb", "query_p50_ms", "query_p90_ms", "queries_per_s", "op_ms",
               "rprec_join", "rprec_doc2table_solo", "failed_frac", "lake.columns", "lake.docs", "lake.queries"],
    "union": ["setup_s", "heap_mb", "query_p50_ms", "queries_per_s", "op_ms", "rprec_union", "failed_frac"],
}
TRACED = ["table6.content_search_qps", "table6.containment_qps", "table6.semantic_qps", "trace.spans",
          "self_ms.bench"]
LINE = re.compile(r"^(e2e|layer|info)\s+(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)")


def check(workload, trace, seed, scale, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", str(scale)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stdout}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(want), f"{workload}: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
    for name, m in got.items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
        assert m["unit"] == want[name], (name, m["unit"], want[name])

    printed = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match:
            _, name, value, unit, _ = match.groups()
            assert math.isfinite(float(value)) and unit, line
            printed[name] = unit
    needed = PRINTED[workload] + (TRACED if trace else [])
    assert not set(needed) - set(printed), f"{workload}: not printed {set(needed) - set(printed)}"
    assert set(got) <= set(printed), f"{workload}: JSON metrics missing from the report"

    if trace:
        path = os.path.join(HERE, "target", "traces", f"{workload}-{seed}.jsonl")
        with open(path) as fh:
            modules = {json.loads(l)["name"].split(".")[0] for l in fh}
        assert not set(MODULES) - modules, f"{workload}: no spans for {set(MODULES) - modules}"
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} calls")


def main():
    ap = argparse.ArgumentParser(description="Smoke test of the CMDL benchmark.")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--scale", type=float, default=0.2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in PRINTED:
        for trace in (0, 1):
            check(workload, trace, args.seed, args.scale, spec)


if __name__ == "__main__":
    main()
