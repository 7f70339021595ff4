#!/usr/bin/env python3
"""Writes and compares BENCH_<n>.json, the committed perf and quality record.

A BENCH file holds, for one commit, the last JSON line of each cmdlbench run
(workload x trace mode) and the Table 1-6 rows that `sbt "bench/test"`
prints. Standard library only.

    python3 jobs/benchfile.py make --commit REV --tables bench-test.log \\
        --run build untraced build0.out --run build traced build1.out ... > BENCH_6.json
    python3 jobs/benchfile.py diff BENCH_5.json BENCH_6.json

`make` reads each run's output and keeps its last line (the cmdlbench JSON);
`diff` prints every metric of both files with its relative change, and every
table row that differs.

Exit status of `diff`: 0 when every Table 1-5 row and row count is the same
in both files, 1 when any of them differs. The Table 1-5 rows are
deterministic in (scale, seed); Table 6 (probe throughput) varies from run to
run and, like the cmdlbench metrics, does not set the status.
"""
import argparse
import json
import re
import sys

HEADER = re.compile(r"^=== (Table \d+): .* ===$")
# The deterministic tables, whose rows `diff` requires to be equal.
EXACT_TABLES = {f"Table {n}" for n in range(1, 6)}
LOG_LINE = re.compile(r"^(\[|\d\d/\d\d/\d\d |Using Spark|\s*$)")


def table_rows(log_path):
    """{"Table N": [[cell, ...], ...]} from a bench/test log, header row first."""
    tables, current = {}, None
    with open(log_path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            m = HEADER.match(line)
            if m:
                current = tables.setdefault(m.group(1), [])
            elif line.startswith("[info] Run completed"):
                current = None
            elif current is not None and not LOG_LINE.match(line):
                current.append(re.split(r"\s{2,}", line.strip()))
    return dict(sorted(tables.items()))


def last_json(path):
    with open(path) as fh:
        lines = [l for l in fh.read().splitlines() if l.startswith("{")]
    if not lines:
        sys.exit(f"benchfile: no JSON line in {path}")
    return json.loads(lines[-1])


def make(args):
    runs = {}
    for workload, mode, path in args.run:
        runs.setdefault(workload, {})[mode] = last_json(path)
    out = {"commit": args.commit, "note": args.note, "cmdlbench": runs, "tables": table_rows(args.tables)}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


def diff(args):
    with open(args.before) as fh:
        a = json.load(fh)
    with open(args.after) as fh:
        b = json.load(fh)
    print(f"before {a.get('commit')}  after {b.get('commit')}")
    for workload in sorted(set(a["cmdlbench"]) | set(b["cmdlbench"])):
        for mode in ("untraced", "traced"):
            ra = a["cmdlbench"].get(workload, {}).get(mode)
            rb = b["cmdlbench"].get(workload, {}).get(mode)
            if ra is None or rb is None:
                print(f"\n{workload} {mode}: only in {'after' if ra is None else 'before'}")
                continue
            print(f"\n{workload} {mode}: failed {ra.get('failed')} -> {rb.get('failed')}")
            ma, mb = ra.get("metrics", {}), rb.get("metrics", {})
            for name in sorted(set(ma) | set(mb)):
                va = ma.get(name, {}).get("value")
                vb = mb.get(name, {}).get("value")
                unit = (ma.get(name) or mb.get(name)).get("unit", "")
                rel = f"{(vb - va) / abs(va):+.1%}" if va and vb is not None else ""
                print(f"  {name:<40} {va!s:>14} {vb!s:>14} {rel:>8} {unit}")
    print()
    differs = False
    for table in sorted(set(a["tables"]) | set(b["tables"])):
        ta, tb = a["tables"].get(table, []), b["tables"].get(table, [])
        changed = [(x, y) for x, y in zip(ta, tb) if x != y]
        if len(ta) != len(tb):
            print(f"{table}: {len(ta)} -> {len(tb)} rows")
        for x, y in changed:
            print(f"{table}: {'  '.join(x)}\n{' ' * len(table)}  {'  '.join(y)}")
        if not changed and len(ta) == len(tb):
            print(f"{table}: identical")
        elif table in EXACT_TABLES:
            differs = True
    return 1 if differs else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("make")
    m.add_argument("--commit", required=True)
    m.add_argument("--note", default="")
    m.add_argument("--tables", required=True, help='log of sbt "bench/test"')
    m.add_argument("--run", nargs=3, action="append", default=[], metavar=("WORKLOAD", "MODE", "OUTPUT"))
    d = sub.add_parser("diff")
    d.add_argument("before")
    d.add_argument("after")
    args = p.parse_args()
    if args.cmd == "make":
        make(args)
    else:
        sys.exit(diff(args))


if __name__ == "__main__":
    main()
