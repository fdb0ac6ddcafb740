#!/usr/bin/env python3
"""Run one workload of the k-core benchmark.

    python3 kcbench/run.py --workload deep-rounds --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the library and the benchmark into
.bench_build/ (once per source change), starts one JVM on local[C] with
C = nproc, and forwards its output. The last stdout line is the result JSON.
Exits non-zero without a result if the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "kcbench")
WORK_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
DRIVER_HEAP = "3g"

# The module options Spark's launcher passes on JDK 17 (as in build.sbt).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"kcbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            fail("SPARK_HOME is unset and spark-submit is not on PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars")
    if not os.path.isdir(jars):
        fail(f"no Spark jars directory at {jars}")
    return jars


def revision():
    """Git sha when run in a git checkout, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src/main/scala", "kcbench"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for f in sorted(files):
                p = os.path.join(d, f)
                digest.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    digest.update(fh.read())
    sha = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    return f"{sha}+src:{digest.hexdigest()[:12]}"


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the group on timeout or when
    this script is terminated."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True, text=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def stop(signum, _frame):
        kill()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill()
        fail(f"timed out after {timeout}s: {cmd[0]}")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("no library sources under src/main/scala; run from the repository root")
    jars = spark_jars()

    os.makedirs(WORK_DIR, exist_ok=True)
    code, _ = run(["make", "-s", "-C", BENCH_DIR, f"SPARK_JARS={jars}", f"OUT={WORK_DIR}"],
                  BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")

    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cores = len(os.sched_getaffinity(0))
    # -XX:-UsePerfData: the JVM would otherwise write hsperfdata outside the checkout.
    java = ["java", f"-Xmx{DRIVER_HEAP}", f"-Djava.io.tmpdir={tmp}", "-XX:-UsePerfData"]
    java += [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
    java += ["-Djdk.reflect.useDirectMethodHandle=false",
             "-cp", os.pathsep.join([os.path.join(WORK_DIR, "classes"), os.path.join(jars, "*")]),
             "kcbench.KCoreBench",
             "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
             "--trace", a.trace, "--cores", str(cores), "--work-dir", WORK_DIR,
             "--rev", revision()]
    t0 = time.time()
    code, out = run(java, RUN_TIMEOUT_S, subprocess.PIPE)
    out = out or ""
    if code != 0 or not out.rstrip("\n").rsplit("\n", 1)[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"run failed (exit {code}) after {time.time() - t0:.1f}s")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
