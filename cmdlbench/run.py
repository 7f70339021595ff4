#!/usr/bin/env python3
"""Runs one workload of the CMDL benchmark.

Usage, from the root of the repository:

    python3 cmdlbench/run.py --workload build|lookup|union --seed N \
        --seconds S --trace 0|1 [--scale X]

The harness (cmdlbench/src) is compiled together with the repository's
main sources by sbt when any of those sources changed since the last
build; the build output and the classpath stay under cmdlbench/target.
The workload then runs in a fresh JVM. Its report goes to stdout, the
last line being one JSON object; Spark's log goes to stderr.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
STAMP = os.path.join(TARGET, "bench-build.json")
REPO_SOURCES = os.path.join(ROOT, "src", "main", "scala")

# The command must end within 180 s, or 900 s when it compiles first.
RUN_DEADLINE_S = 170
BUILD_DEADLINE_S = 880
JVM_OPTS = ["-Xms2g", "-Xmx3g", "-XX:-UsePerfData"]


def fail(msg):
    print(f"cmdlbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [REPO_SOURCES, os.path.join(HERE, "src"), os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(ROOT, "build.sbt")]
    for root in roots:
        for d, dirs, names in os.walk(root):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def source_stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_group(cmd, cwd, timeout, stdout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1, timeout))
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def classpath(deadline):
    """The harness classpath, compiling first when the sources changed."""
    stamp = source_stamp()
    if os.path.exists(STAMP):
        with open(STAMP) as fh:
            built = json.load(fh)
        if built.get("stamp") == stamp:
            return built["classpath"], False
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
           f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}", "-J-XX:-UsePerfData",
           "compile", "export Runtime/fullClasspath"]
    try:
        code, out = run_group(cmd, HERE, deadline - time.time(), subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    except OSError as e:
        fail(f"cannot run sbt: {e}")
    lines = [l for l in out.decode().splitlines() if l.strip()]
    if code != 0 or not lines:
        sys.stderr.write(out.decode())
        fail("build failed")
    cp = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(STAMP, "w") as fh:
        json.dump({"stamp": stamp, "classpath": cp}, fh)
    return cp, True


def main():
    start = time.time()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["build", "lookup", "union"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(REPO_SOURCES, "repro")):
        fail(f"no CMDL sources under {os.path.relpath(REPO_SOURCES, os.getcwd())}; "
             "run from a full checkout of the repository")
    cp, built = classpath(start + BUILD_DEADLINE_S)
    deadline = start + (BUILD_DEADLINE_S if built else RUN_DEADLINE_S)

    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    seed = "default" if args.seed is None else str(args.seed)
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", cp, "cmdlbench.Main",
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", str(args.scale), "--tmp", tmp,
           "--trace-out", os.path.join(TARGET, "traces", f"{args.workload}-{seed}.jsonl")]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        code, out = run_group(cmd, ROOT, deadline - time.time(), subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    text = out.decode()
    lines = text.splitlines()
    try:
        result = json.loads(lines[-1]) if code in (0, 1) and lines else None
    except ValueError:
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(text)
        fail(f"workload exited with code {code} and no result")
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
