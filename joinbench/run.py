#!/usr/bin/env python3
"""Run one workload of the point-polygon join benchmark.

    python3 joinbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The first run builds the repository's
main sources together with the benchmark (sbt, offline, against the jars of
the Spark distribution named by SPARK_HOME); later runs reuse that build
while no source file has changed. Each run then starts one fresh JVM with
fixed heap and flags. The JVM prints every metric by name and unit, and as
its last line the JSON result. Windows, spans and counts are written under
joinbench/target/out/<source stamp>, so that runs compare their counts only
with runs of the same sources.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH = "joinbench"
TARGET = os.path.join(BENCH, "target")
BUILD_INPUTS = [os.path.join("src", "main", "scala"), os.path.join(BENCH, "src"),
                os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# Same heap and flags on every run. Spark 4 needs the JDK modules opened.
JVM_FLAGS = [
    "-Xms4g", "-Xmx4g", "-XX:+UseParallelGC",
    "--add-modules=jdk.incubator.vector",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
]


def source_stamp():
    h = hashlib.sha256(os.getcwd().encode())
    for top in BUILD_INPUTS:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build(stamp):
    """Compile once per source state; returns the runtime classpath."""
    stamp_file = os.path.join(TARGET, "build.stamp")
    cp_file = os.path.join(TARGET, "classpath.txt")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as c:
                    return c.read().strip()
    # sbt's output goes to stderr so that stdout ends with the result line.
    subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                   cwd=BENCH, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    with open(cp_file) as c:
        return c.read().strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isdir(os.path.join("src", "main", "scala", "repro")):
        sys.exit("run.py: no repository sources under src/main/scala; run from the repository root")
    if not os.environ.get("SPARK_HOME"):
        sys.exit("run.py: SPARK_HOME must name a Spark 4 distribution")

    stamp = source_stamp()
    cp = build(stamp)
    out = os.path.join(TARGET, "out", stamp[:16])
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", *JVM_FLAGS, "-Djava.io.tmpdir=" + os.path.abspath(tmp), "-cp", cp,
           "joinbench.Main", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", out]
    # subprocess.run kills the JVM on timeout and waits for it to end.
    sys.exit(subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode)


if __name__ == "__main__":
    main()
