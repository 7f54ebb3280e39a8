#!/usr/bin/env python3
"""ASTI benchmark: build the harness from source if needed, then run one workload.

    python3 perfbench/run.py --workload asti-ic --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
STAMP = os.path.join(WORK, "build.stamp")
HARNESS_CP = os.path.join(HERE, "harness", "target", "classpath.txt")
TRACE_CP = os.path.join(HERE, "trace", "target", "classpath.txt")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "2g"
# A fixed young generation: the post-GC heap is sampled often enough for its
# peak to repeat from run to run.
YOUNG = "384m"

# Spark on JDK 17 needs these packages opened (spark-submit adds the same).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]

# Sources whose change requires a rebuild.
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"),
               os.path.join(HERE, "harness", "src", "main"), os.path.join(HERE, "trace", "src", "main")]
BUILD_FILES = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_hash():
    h = hashlib.sha256()
    files = list(BUILD_FILES)
    for d in SOURCE_DIRS:
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_home():
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    submit = shutil.which("spark-submit")
    if submit:
        return os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    fail("no Spark distribution: set SPARK_HOME")


def run_child(cmd, cwd, env, timeout, stdout=None):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(env):
    """Compile with sbt when the sources changed since the last build."""
    digest = source_hash()
    if os.path.exists(STAMP) and os.path.exists(HARNESS_CP):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt not found on PATH")
    for f in (STAMP, HARNESS_CP, TRACE_CP):
        if os.path.exists(f):
            os.remove(f)
    benv = dict(env)
    benv.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in benv:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts = ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"] + opts
        benv["SBT_OPTS"] = " ".join(opts)
    # The harness first: if the trace project no longer compiles, the timed
    # workloads still run and only `--trace 1` fails.
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "harness/writeClasspath", "trace/writeClasspath"]
    try:
        code = run_child(cmd, HERE, benv, BUILD_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if not os.path.exists(HARNESS_CP):
        fail(f"build failed (sbt exit {code})")
    if code != 0:
        print("perfbench: the trace project did not build; only --trace 0 runs", file=sys.stderr)
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "main", "scala", "repro", "core", "Asti.scala")):
        fail("the repository sources are missing: run from a checkout of the repository")
    java = shutil.which("java")
    if not java:
        fail("java not found on PATH")

    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    build(env)

    cp_file = TRACE_CP if args.trace == "1" else HARNESS_CP
    if not os.path.exists(cp_file):
        fail("the trace project did not build, so --trace 1 cannot run")
    with open(cp_file) as fh:
        cp = fh.read().strip()

    # Spark's scratch space stays inside the checkout.
    env["SPARK_LOCAL_DIRS"] = os.path.join(WORK, "spark-local")
    cmd = ([java, f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Xmn{YOUNG}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-Djdk.reflect.useDirectMethodHandleAccessor=false",
              f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
              f"-Dperfbench.workDir={WORK}",
              "-cp", cp, "repro.perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace])
    sys.stdout.flush()
    try:
        code = run_child(cmd, ROOT, env, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s", code=3)
    sys.exit(code)


if __name__ == "__main__":
    main()
