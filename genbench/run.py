#!/usr/bin/env python3
"""Gen-T benchmark entry point.

Run from the root of a checkout:

    python3 genbench/run.py --workload tptr_small --seed 1 --seconds 30 --trace 0

Builds the benchmark together with the repository's main sources (sbt,
offline) when they changed since the last build, then runs one benchmark
JVM. The last line of standard output is the result object. Everything
the run writes stays under genbench/work/.
"""
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
BUILD = os.path.join(WORK, "build")
SPARK_JARS = "/opt/spark/jars"
# Driver heap of the benchmark JVM, set explicitly (4 cores, 15 GB box).
HEAP = "3g"
RUN_TIMEOUT_S = int(os.environ.get("GENBENCH_TIMEOUT_S", "170"))
BUILD_TIMEOUT_S = 840

# Spark's launcher passes these to every JVM on Java 17.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]

SOURCE_DIRS = ["src/main", "jobs", "genbench/src"]
BUILD_FILES = ["genbench/build.sbt", "genbench/project/build.properties"]


def fail(msg, code=2):
    print(f"genbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    files = [os.path.join(ROOT, f) for f in BUILD_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile if the sources changed; return the runtime classpath."""
    stamp = source_stamp()
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as g:
                    return g.read()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    home = os.path.expanduser("~")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true "
                   f"-Dsbt.repository.config={home}/.sbt/repositories "
                   "-Dsbt.offline=true -Xmx2g")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
         "export Runtime/fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=BUILD_TIMEOUT_S)
    lines = [l.strip() for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed", 1)
    classpath = [l for l in lines if not l.startswith("[")][-1]
    with open(cp_file, "w") as f:
        f.write(classpath)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classpath


def main():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("the repository's sources (src/main/scala/repro) are missing")
    if not os.path.isdir(SPARK_JARS):
        fail(f"no Spark distribution at {SPARK_JARS}")
    classpath = build()

    tmp = os.path.join(WORK, "tmp")
    local = os.path.join(WORK, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_MASTER"] = "local[4]"
    for k in ("SPARK_SHUFFLE_PARTITIONS", "SPARK_LOCAL_DIRS", "SPARK_CONF_DIR"):
        env.pop(k, None)
    cmd = (["java", f"-Xmx{HEAP}", f"-Dspark.driver.memory={HEAP}", f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.local.dir={local}", "-Dspark.ui.enabled=false",
            "-Dspark.driver.host=127.0.0.1"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
           + ["-cp", classpath, "genbench.Main", "--work", WORK] + sys.argv[1:])
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        out, _ = child.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
