#!/usr/bin/env python3
"""Saga benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 10 --trace 0

Builds the program and the harness with sbt (once per source tree; later
runs reuse the build under .bench_build/), runs one workload in a fresh
JVM and passes its output through. The last line of standard output is the
JSON result. Exits non-zero, printing no result, when the checkout holds no
program to build, the build fails, or the run fails or overruns.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

WORKLOADS = ("construct", "live-write")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
JVM_OPTS = [
    "-Xms3g",
    "-Xmx3g",
    "-Dspark.ui.enabled=false",
    "-Dspark.driver.host=127.0.0.1",
    # Long-form call sites deep enough to reach the program's frames.
    "-Dspark.callstack.depth=200",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp(root):
    """Hash of every file the build reads, so a changed tree rebuilds."""
    h = hashlib.sha256()
    tops = ["build.sbt", "project", "src", "jobs", "perfbench"]
    for top in tops:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in ("target", ".bsp"))
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            if f.endswith((".scala", ".sbt", ".properties", ".java")):
                h.update(os.path.relpath(f, root).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def stop(proc):
    """Stop a process started in its own session and wait for it."""
    if proc.poll() is None:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=10)
                break
            except subprocess.TimeoutExpired:
                continue
    proc.wait()


def build(root, work):
    """Compile program and harness; return the harness runtime classpath."""
    stamp = source_stamp(root)
    cp_file = os.path.join(work, "classpath.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            saved_stamp, cp = fh.read().split("\n", 1)
        if saved_stamp == stamp:
            return cp.strip()
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    log_path = os.path.join(work, "build.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            ["sbt", "--batch", "-Dsbt.server.autostart=false", "compile", "export Runtime/fullClasspath"],
            cwd=os.path.join(root, "perfbench"), env=env, stdout=subprocess.PIPE,
            stderr=log, stdin=subprocess.DEVNULL, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out after {BUILD_TIMEOUT_S}s (log: {log_path})", 3)
        finally:
            stop(proc)
        log.write(out)
    try:
        # sbt may leave helper processes behind in its session; end them so
        # they do not compete with the measured run.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or "classes" not in lines[-1]:
        fail(f"build failed (log: {log_path})", 3)
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(stamp + "\n" + cp)
    return cp


def main():
    # Turn termination into an exception, so that the children started below
    # are stopped on the way out.
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, lambda n, _: sys.exit(128 + n))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if not 1 <= a.seconds <= 120:
        fail("--seconds must be in 1..120")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "build.sbt"))
            and os.path.isdir(os.path.join(root, "src", "main", "scala"))):
        fail("run from the root of a checkout: build.sbt and src/main/scala are missing")

    work = os.path.join(root, ".bench_build")
    os.makedirs(work, exist_ok=True)
    cp = build(root, work)

    tmp = os.path.join(work, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = dict(os.environ)
    env["SPARK_LOCAL_DIRS"] = tmp
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace]
    cmd = ["java"] + JVM_OPTS + [f"-Djava.io.tmpdir={tmp}", "-cp", cp, "sagabench.Main"] + args

    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    lines = []

    def relay():
        # Pass the workload's report through; hold back the result line.
        for line in proc.stdout:
            if line.startswith("{"):
                lines.append(line.strip())
            else:
                sys.stdout.write(line)
                sys.stdout.flush()

    reader = threading.Thread(target=relay, daemon=True)
    reader.start()
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s", 4)
    finally:
        stop(proc)
        reader.join(timeout=10)
        shutil.rmtree(tmp, ignore_errors=True)
    last = lines[-1] if lines else None

    if proc.returncode != 0 or last is None:
        fail(f"workload exited with code {proc.returncode} and no result", 5)
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 5)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
